"""Numerical tolerances used throughout the package.

Everything here operates on 2x2 complex or 3x3 real matrices in double
precision, where exact algebra holds to ~1e-14. The bands below leave
headroom for accumulated integration error on top of that.
"""

# Matrix/vector validation.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
UNIT_TOL = 1e-9
SYMMETRY_TOL = 1e-9

# |bloch| <= 1 slack for density-matrix positivity.
BALL_TOL = 1e-9

# Exact linear-algebra round trips (matrix <-> bloch, pack/unpack, Gram).
ROUNDTRIP_TOL = 1e-12

# Rates at or below this are treated as absent: the corresponding term has
# no effect on the dissipator.
RATE_FLOOR = 1e-12

# Switchover band between the generic and the rank-deficient branch of the
# Gram factorization: generic branch requires
# M11*M22 - M12**2 > DEGENERATE_TOL * M11 * max(M22, 1).
DEGENERATE_TOL = 1e-12

# Absolute slack per CP inequality, applied after normalizing the matrix
# under test by its Frobenius norm.
PSD_TOL = 1e-10

# Disagreement band inside which the two equivalent CP checks may differ
# without indicating a bug.
MISMATCH_BAND = 1e-9

# Choi-matrix eigenvalue floor (absorbs propagator error).
CHOI_TOL = 1e-8

# Relative cross-product test for "h parallel to the projector axis".
PARALLEL_TOL = 1e-9

# Generator eigenvalues with real part below -GAP_TOL * max(1, max|G_ij|)
# count as decaying modes in the spectral gap.
GAP_TOL = 1e-12

# Relative drift of the dissipation matrix that term reduction may cause,
# measured in units of its largest entry (at least 1).
REDUCE_DRIFT_TOL = 1e-10

# Characteristic cubic of the generator: a discriminant within
# REPEATED_ROOT_TOL of zero (relative) with |p| above REPEATED_ROOT_P_MIN is
# a repeated root, resolved rationally; the Newton polish of each root is
# skipped where the cubic's slope is below NEWTON_SLOPE_FLOOR.
REPEATED_ROOT_TOL = 1e-13
REPEATED_ROOT_P_MIN = 1e-8
NEWTON_SLOPE_FLOOR = 1e-8

# Integration horizon: dt may exceed t_max by this relative slack (one step).
STEP_FIT_TOL = 1e-12

# Most integration steps per run. A Bloch run stores 24 bytes per step, so
# the cap keeps a trajectory below ~240 MB instead of failing in allocation.
MAX_STEPS = 10**7

# Largest accepted spectral radius of the RK4 step, above 1. The exact flow
# of a CP generator never grows, and over MAX_STEPS steps a radius of
# 1 + RK4_GROWTH_TOL grows a state by at most 0.1 %.
RK4_GROWTH_TOL = 1e-10

# Long-horizon check of the predicted limit: distance counted as converged,
# and the absolute slack added to the decay bound 2 exp(-gap T).
CONVERGED_TOL = 1e-8
DECAY_BOUND_SLACK = 1e-12
