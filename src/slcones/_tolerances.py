"""Default tolerances of the numeric solvers.

They live apart from the solvers so that the CLI can show them in its
help without importing numpy.
"""

#: default certified quadrature error per Lawlor angle
LAWLOR_TOL = 1e-10
#: default tolerance for the plane-pair transversality decision
#: (eigenvalue near 1)
TRANSVERSE_TOL = 1e-9
