"""Lattice-point counting kernels behind the spectrum enumeration.

Counting eigenvalue multiplicities means counting integer vectors
n in Z^(m-1) with Q(n) = m*sum(n_i^2) - (sum n_i)^2 equal to each value
up to the cutoff.  Because (sum n_i)^2 <= (m-1)*sum(n_i^2)
(Cauchy-Schwarz), Q(n) >= ||n||^2, so scanning the ball
||n||^2 <= cutoff is provably complete.

Two interchangeable backends:

* ``enum`` - direct depth-first enumeration of the ball with partial-sum
  pruning, JIT-compiled with numba when available.  At m = 12 the ball
  holds ~7e7 points, far too slow for interpreted Python.
* ``dp`` - pure numpy dynamic program over the joint distribution of
  (s, t) = (sum n_i, sum n_i^2).  Q depends on n only through (s, t), and
  the state space is tiny (|s| <= d*sqrt(cutoff), t <= cutoff), so this
  runs in milliseconds at any m we care about.

Set ``SLCONES_NO_NUMBA=1`` to force the numpy path.  Both backends are
exact int64 counts and must agree bit-for-bit (tested).  The benchmark
in ``perfbench/`` (exact-sweep workload) times the spectrum enumeration
over an (m, cutoff) grid up to m = 30.
"""
from __future__ import annotations

import math
import os

import numpy as np

ENV_NO_NUMBA = "SLCONES_NO_NUMBA"


def _isqrt(x: int) -> int:
    # floor sqrt without math.isqrt, which numba cannot compile
    r = int(np.sqrt(x))
    while (r + 1) * (r + 1) <= x:
        r += 1
    while r * r > x:
        r -= 1
    return r


def _counts_enum_py(m: int, cutoff: int) -> np.ndarray:
    d = m - 1
    counts = np.zeros(cutoff + 1, dtype=np.int64)
    r = _isqrt(cutoff)
    n = np.zeros(d, dtype=np.int64)
    ssum = np.zeros(d + 1, dtype=np.int64)
    tsum = np.zeros(d + 1, dtype=np.int64)
    i = 0
    n[0] = -r - 1
    while i >= 0:
        n[i] += 1
        v = n[i]
        if v > r:
            i -= 1
            continue
        t = tsum[i] + v * v
        if t > cutoff:
            # v scans -r..r, so v*v first shrinks then grows: on the
            # negative flank later values may still fit, past zero the
            # whole remaining range is hopeless.
            if v > 0:
                i -= 1
            continue
        s = ssum[i] + v
        if i == d - 1:
            q = m * t - s * s
            if q <= cutoff:
                counts[q] += 1
        else:
            i += 1
            ssum[i] = s
            tsum[i] = t
            n[i] = -r - 1
    return counts


try:  # pragma: no cover - exercised indirectly via backend selection
    from numba import njit

    _isqrt = njit(cache=True)(_isqrt)
    _counts_enum = njit(cache=True)(_counts_enum_py)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    _counts_enum = _counts_enum_py
    HAVE_NUMBA = False


def _counts_dp(m: int, cutoff: int) -> np.ndarray:
    d = m - 1
    r = math.isqrt(cutoff)  # dp path never runs under numba
    smax = d * r
    # ways[s + smax, t] = number of prefixes with digit sum s, square sum t
    ways = np.zeros((2 * smax + 1, cutoff + 1), dtype=np.int64)
    ways[smax, 0] = 1
    width = 2 * smax + 1
    for _ in range(d):
        new = np.zeros_like(ways)
        for v in range(-r, r + 1):
            v2 = v * v
            if v2 > cutoff:
                continue
            lo, hi = max(v, 0), max(-v, 0)
            new[lo:width - hi, v2:] += ways[hi:width - lo, : cutoff + 1 - v2]
        ways = new
    counts = np.zeros(cutoff + 1, dtype=np.int64)
    s_idx, t_idx = np.nonzero(ways)
    s = s_idx - smax
    q = m * t_idx - s * s
    keep = q <= cutoff
    np.add.at(counts, q[keep], ways[s_idx[keep], t_idx[keep]])
    return counts


def eigenvalue_counts(m: int, cutoff: int) -> np.ndarray:
    """Multiplicity of each eigenvalue 0..cutoff as an int64 array.

    ``counts[q]`` is the exact number of lattice vectors with Q(n) = q.
    Backend choice is made per call so tests can toggle the env flag.
    """
    if HAVE_NUMBA and not os.environ.get(ENV_NO_NUMBA):
        return _counts_enum(m, cutoff)
    return _counts_dp(m, cutoff)
