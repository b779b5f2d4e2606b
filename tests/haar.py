"""Haar samplers of SO(m) and SU(m) shared by the test modules: the QR
of a Gaussian matrix with the phases of R's diagonal moved into Q."""
import numpy as np


def haar_so(rng, m):
    """Haar-distributed rotation: QR of a Gaussian matrix with the signs
    of R's diagonal moved into Q, then one column flipped if det = -1."""
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def haar_su(rng, m):
    """Haar-distributed special unitary matrix, by the same QR rule with
    the determinant's phase divided out."""
    z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1.0 / m)
