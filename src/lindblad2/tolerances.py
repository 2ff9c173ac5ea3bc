"""Numerical tolerances used throughout the package.

Everything here operates on 2x2 complex or 3x3 real matrices in double
precision, where exact algebra holds to ~1e-14. The bands below leave
headroom for accumulated integration error on top of that.
"""

# Largest accepted defect max|m - m^H| of a hermitian matrix (a Lindblad
# operator, a "rho", a GKS coefficient matrix), relative to its largest
# |entry|, so the check does not depend on the units; require_hermitian
# returns the hermitian part of every matrix it accepts.
HERMITIAN_TOL = 1e-9

# Matrix/vector validation.
TRACE_TOL = 1e-9
UNIT_TOL = 1e-9

# The modulus of a complex entry is a hypot, which Python and numpy take with
# different code, up to a few ulps apart. require_hermitian judges a modulus
# within HYPOT_SLACK, relative, of its bound by numpy's, so that its verdict
# and its message keep numpy's bits.
HYPOT_SLACK = 1e-12

# Largest accepted asymmetry max|a - a^T| of a real symmetric matrix, relative
# to its largest |entry|, so the check does not depend on the units.
SYMMETRY_TOL = 1e-9

# |bloch| <= 1 slack for density-matrix positivity.
BALL_TOL = 1e-9

# Rank decision for the minimal number of Lindblad terms: a pivot of the
# Gram factorization (forms._factor, which also factors a GKS matrix) at or
# below RANK_TOL times the largest diagonal entry counts as zero. Relative,
# so the index does not depend on the units of the rates.
RANK_TOL = 1e-10

# The one CP slack, read only by forms.judge: a condition is violated when
# its margin, computed on the matrix normalized by its Frobenius norm, is
# below -PSD_TOL. The Form E inequalities and the minors of M are of degree
# 2 and 3 in M's eigenvalues, so they can all pass with an eigenvalue as low
# as about -sqrt(PSD_TOL); such an M factors, but not into L. So the judge,
# the one rule of every CP route, of gram_decompose and of gks_minimal, also
# requires lambda_min(M) >= -PSD_TOL of the normalized M, reports that
# eigenvalue as every verdict's margin, and a certificate is then L to
# within the RANK_TOL floor.
PSD_TOL = 1e-10

# A route's inequalities that fail while lambda_min(M) holds, both by more
# than MISMATCH_BAND, signal a bug in that route, not a property of L.
MISMATCH_BAND = 1e-9

# Choi-matrix eigenvalue floor (absorbs propagator error).
CHOI_TOL = 1e-8

# Cross-product test for "h parallel to the projector axis", on unit vectors.
PARALLEL_TOL = 1e-9

# Generator eigenvalues with real part below -GAP_TOL * max|L_ij| count as
# decaying modes in the spectral gap. Every real part lies in the spectrum of
# -L whatever the field, so the floor is relative to L alone.
GAP_TOL = 1e-12

# Relative drift of the dissipation matrix that term reduction may cause,
# measured as the Frobenius norm of the change in units of L's largest entry
# (at least 1). It is what the RANK_TOL floor may drop. With m the largest
# diagonal entry of the Gram matrix M, the loop stops after at least one
# pivot, so it drops a PSD remainder R on at most two coordinates, each
# diagonal entry at most RANK_TOL m: tr R <= 2 RANK_TOL m. L moves by
# (tr(R) I - R) / 2, whose eigenvalues are half of (mu1, mu2, mu1 + mu2) for
# the eigenvalues mu of R, so its Frobenius norm is at most tr(R) / sqrt(2)
# <= sqrt(2) RANK_TOL m. Every diagonal entry of L but the pivot's is
# (tr M - M_aa) / 2 >= m / 2, so the drift is at most 2 sqrt(2) RANK_TOL
# ~ 2.83 RANK_TOL, reached by M = m e_x e_x^T plus a rank-one remainder with
# both diagonal entries just under RANK_TOL m. The factor 3 leaves room for
# rounding.
REDUCE_DRIFT_TOL = 3 * RANK_TOL

# The generator's complex or real pair is a double root when its
# discriminant is within REPEATED_ROOT_TOL of the sum of its terms, which
# cancel only at an exceptional point (dynamics._pair_discriminant).
REPEATED_ROOT_TOL = 1e-13

# The closed-form propagator (dynamics._ClosedForm) sums the second divided
# difference of e^{xt} at G's eigenvalues as a power series when their
# spread times t is at most SERIES_SPREAD, and takes the quotient formula
# above it. The quotient alone erred by up to 2.8e-6 next to a 3x3 Jordan
# block (h = (1, 1, 0) / sqrt 2, L = diag(2, 4, 3)), against 40-digit
# mpmath; with the switch at 1 the worst error there was 1.1e-16, and on
# random CP generators at spread t from 0.01 to 10 it was 2.4e-16 (0.5 to 4
# measured alike). The series needs at most 18 terms at spread t = 1.
SERIES_SPREAD = 1.0

# A term C I, S E or K N of that closed form whose largest entry reaches
# TERM_LIMIT counts as an overflowing exp(t G); three terms below it sum to
# a finite double.
TERM_LIMIT = 2.0**1021

# Integration horizon: t_max / dt must lie within STEP_FIT_TOL * n of a whole
# number n >= 1 of steps.
STEP_FIT_TOL = 1e-12

# Most integration steps per run. An evolve run peaks at about 80 bytes per
# step (its trajectory's 40 and the temporaries of its entropies or of its
# distances to the limit; the CSV writer copies one block at a time), so the
# cap keeps a run near 0.8 GB instead of failing in allocation.
MAX_STEPS = 10**7

# Largest accepted spectral radius of an RK4 evolve step matrix, above 1.
# The exact flow of a CP generator never grows, and over MAX_STEPS steps a
# radius of 1 + STEP_GROWTH_TOL grows a state by at most 0.1 %.
STEP_GROWTH_TOL = 1e-10

# Long-horizon check of the predicted limit: distance counted as converged,
# and the absolute slack added to the decay bound 2 exp(-gap T).
CONVERGED_TOL = 1e-8
DECAY_BOUND_SLACK = 1e-12

# Default horizon of that check, max(HORIZON_DECAY_TIMES / gap, HORIZON_MIN).
# 40 decay times put the bound 2 exp(-40) ~ 8.5e-18 below double precision
# on a unit Bloch vector. HORIZON_MIN, in the time units of h and L, is the
# horizon when no mode decays (gap 0), where the bound 2 holds at any T, and
# the shortest default, so a fast decay is still checked over that long a
# span of precession.
HORIZON_DECAY_TIMES = 40.0
HORIZON_MIN = 10.0

# The evolve CSV writer computes the 17 digits of a double to about 1e-14 of
# its last digit; a value whose remainder is this close to a half of that
# digit may round either way, so '%.17g' itself prints it.
FORMAT_TIE_TOL = 1e-6
