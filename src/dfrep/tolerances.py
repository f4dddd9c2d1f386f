"""Every threshold that dfrep compares a residual with, in one table.

Values are absolute unless marked relative; "relative" means relative to
``max(1, ||a||_F)`` for a Frobenius residual of a matrix a, as computed by
:func:`dfrep.linalg.hermiticity_residual`.  This module imports nothing
from ``dfrep``, so every other module can read it.
"""

# --- Input invariants -------------------------------------------------------

# Projection invariants are checked to this tolerance, relative to the
# Frobenius scale of the matrix (eigendecomposition noise at double precision).
TOL_PROJ = 1e-8

# A unit vector may miss norm 1 by at most this much (absolute).
UNIT_NORM_TOL = 1e-8

# A Gram matrix is rejected when its hermiticity_residual exceeds this.
GRAM_HERMITICITY_REL = 1e-8

# Model invariants hold to this tolerance: relative for the Hermiticity of rho
# and H; absolute for min eig rho, tr rho and ||p_i p_j||_F; x dim for ||sum p - 1||_F.
# The ||p_i p_j||_F bound is the one orthogonality tolerance of a projective
# family, for the schedules of a model and the sets a consistency report reads.
MODEL_TOL = 1e-9

# A tensor vector whose squared norm is at most this cannot be normalized.
TENSOR_NORM2_FLOOR = 1e-24

# --- Numerical routes -------------------------------------------------------

# Degenerate eigenvalues closer than this (relative to the spectral scale)
# are merged into a single spectral projection by the spectral extension,
# the test oracle in tests/reference.py.
EIG_MERGE_REL = 1e-8

# Gram eigenvalues below this fraction of the spectral scale are dropped;
# keeps the families minimal and free of noise operators.
EIG_DROP_REL = 1e-12

# Least spectral scale that the two relative eigenvalue cutoffs above are
# taken against, so an all-zero spectrum keeps a positive cutoff.
SCALE_FLOOR = 1e-300

# The trace and operator norms are read off the eigenvalues of the Hermitian
# part H = (a + a^dag)/2 when the skew part provably moves them by at most
# this much relative to the result; otherwise they come from an SVD.  The
# trace norm first tries to certify H >= 0, where ||H||_1 = tr H: a blocked
# Cholesky for full rank, a pivoted partial Cholesky for low rank (the same
# relative bound), and only then falls through to eigvalsh on an unchanged H.
HERMITIAN_ROUTE_REL = 1e-13

# A sampled tensor vector with norm below this (a measure-zero
# cancellation) is replaced by e1 (x) e1.
TENSOR_VECTOR_FLOOR = 1e-12

# --- Verdicts ---------------------------------------------------------------

# Pass thresholds that a scenario's "tolerances" object may override.
DEFAULT_TOLERANCES = {
    "axioms": 1e-8,
    "conditions": 1e-8,
    "pairing": 1e-9,
    "consistency": 1e-9,
}

# Command thresholds that are not scenario keys.  An identity that holds
# exactly in exact arithmetic (the tracial double sum; tr M = 1 and
# (PU)(PU)^dag = P in demo-pure-state) is checked to IDENTITY_TOL; the
# demo-pure-state beta residual and the reconstruct residual default to
# the other two, which --tolerance overrides.
IDENTITY_TOL = 1e-10
BETA_SERIES_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8

# Declared cutoffs for the sweep verdict: trace norms fitted with slope at
# least 1/2 over at least four dimensions count as divergence; a relative
# spread below 1% across the top three dimensions counts as stabilization.
SLOPE_THRESHOLD = 0.5
MIN_DIMS_FOR_SLOPE = 4
SPREAD_THRESHOLD = 0.01
