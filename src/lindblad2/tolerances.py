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

# Relative singular-value cutoff for numerical rank decisions.
RANK_TOL = 1e-10

# Absolute slack per CP inequality, applied after normalizing the matrix
# under test by its Frobenius norm.
PSD_TOL = 1e-10

# Disagreement band inside which the two equivalent CP checks may differ
# without indicating a bug.
MISMATCH_BAND = 1e-9

# Reconstruction accuracy expected from factorization round trips.
FACTOR_TOL = 1e-10

# Choi-matrix eigenvalue floor (absorbs propagator error).
CHOI_TOL = 1e-8

# Trajectory bookkeeping: Bloch-ball excursion and per-step entropy slack.
TRAJ_TOL = 1e-9
ENTROPY_STEP_TOL = 1e-9

# Relative cross-product test for "h parallel to the projector axis".
PARALLEL_TOL = 1e-9

# Generator eigenvalues with real part below -GAP_TOL * max(1, max|G_ij|)
# count as decaying modes in the spectral gap.
GAP_TOL = 1e-12

# Residual norm accepted for stationary states.
FIXED_POINT_TOL = 1e-10
