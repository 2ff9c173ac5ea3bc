"""The small-matrix helpers read their 2x2 and 3x3 inputs once, do their
elementwise arithmetic on Python floats and build at most one array at the
end. Each must give the bits of the numpy expression it replaced, and for
input it refuses, the same exception and message. Those expressions are
copied below as oracles and run on the same draws: finite entries at scales
from 1e-300 to 1e300 with signed zeros and subnormals, anywhere in the
double range, and for the validating helpers NaN, +-inf and defects just
above and just below their tolerance."""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindblad2 import asymptotics, core, dynamics, forms
from lindblad2.errors import BadValueError, NotCPError, NotHermitianError, NotSymmetricError
from lindblad2.tolerances import HERMITIAN_TOL, PARALLEL_TOL, PSD_TOL, RANK_TOL, SYMMETRY_TOL

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# ---------------------------------------------------------------------------
# The replaced numpy expressions
# ---------------------------------------------------------------------------


def old_require_symmetric(a, what="matrix"):
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3) or not (peak := float(abs(a).max())) < math.inf:
        raise NotSymmetricError(f"{what} must be a finite real 3x3 matrix")
    half = 0.5 * a
    defect = 2.0 * float(abs(half - half.T).max())
    if defect > SYMMETRY_TOL * peak:
        raise NotSymmetricError(f"{what} is not symmetric (defect {defect:.3e})")
    return half + half.T


def old_frobenius_normalized(a):
    a = np.asarray(a, dtype=float)
    peak = float(abs(a).max())
    if peak == 0.0:
        return a
    a = np.ldexp(a, -math.frexp(peak)[1])
    return a / math.sqrt(np.vdot(a, a))


def old_require_hermitian(m, what="matrix", size=2):
    m = np.asarray(m, dtype=complex)
    if m.shape != (size, size) or not float(abs(m).max()) < math.inf:
        raise NotHermitianError(f"{what} must be a finite {size}x{size} matrix")
    defect = float(abs(m - m.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise NotHermitianError(f"{what} is not hermitian (defect {defect:.3e})")
    return m


def old_scaled_gram(ell):
    shift = (math.frexp(float(abs(ell).max()))[1] + 1) // 2
    ell = np.ldexp(ell, -2 * shift)
    return ell, ell.trace() * np.eye(3) - 2.0 * ell, shift


def old_factor(m):
    q = np.zeros((3, 3))
    floor = RANK_TOL * float(m.diagonal().max())
    rest = m
    for k in range(3):
        p = int(rest.diagonal().argmax())
        if not rest[p, p] > floor:
            break
        root = math.sqrt(rest[p, p])
        q[:, k] = rest[:, p] / root
        q[p, k] = root
        rest = rest - np.outer(q[:, k], q[:, k])
        rest[p, :] = rest[:, p] = 0.0
    return q


def old_first_violation(margins):
    return next(((label, margin) for label, margin in margins if margin < -PSD_TOL), None)


def old_gram_decompose(m):
    # With the smallest eigenvalue of the normalized M, which decides where
    # every minor passes: gram_decompose judges M as the CP gate does. The
    # error's margin is that eigenvalue, whichever condition fails.
    m = old_require_symmetric(m, what="gram matrix")
    unit = old_frobenius_normalized(m)
    violation = old_first_violation(forms._gram_margins(unit))
    min_eig = float(np.linalg.eigvalsh(unit)[0])
    if violation is None and min_eig < -PSD_TOL:
        violation = ("lambda_min(M) >= 0", min_eig)
    if violation is not None:
        raise NotCPError(f"condition {violation[0]} violated (margin {min_eig:.3e})")
    return old_factor(m)


def old_form_b_from_dissipation(ell):
    _, m, shift = old_scaled_gram(old_require_symmetric(ell, what="dissipation matrix"))
    fb = forms.form_b_from_gram(np.ldexp(old_gram_decompose(m), shift))
    return fb, len(fb.terms)


def old_minimal(fb):
    q = forms.gram_from_form_b(fb)
    shift = math.frexp(float(np.abs(q).max(initial=0.0)))[1]
    q = np.ldexp(q, -shift)
    fb_min = forms.form_b_from_gram(np.ldexp(old_gram_decompose(q @ q.T), shift))
    return fb_min, len(fb_min.terms)


def old_dissipation_matrix(fb):
    out = np.zeros((3, 3))
    for rate, axis in fb.terms:
        out += 0.5 * rate * (np.eye(3) - np.outer(axis, axis))
    return out


def old_form_e_pack(ell):
    half = 0.5 * old_require_symmetric(ell, what="dissipation matrix")
    return [float(half[i, j]) for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]


def old_matrix_from_pauli(c0, c):
    cx, cy, cz = c
    return np.array([[c0 + cz, cx - 1j * cy], [cx + 1j * cy, c0 - cz]], dtype=complex)


def old_form_a_from_form_b(fb):
    return [old_matrix_from_pauli(0.0, 0.5 * np.sqrt(rate) * axis) for rate, axis in fb.terms]


def old_as_field_vector(h):
    h = np.asarray(h, dtype=float)
    if h.shape != (3,) or not np.isfinite(h).all():
        raise BadValueError("field must be a finite real 3-vector")
    return h


def old_build_generator(h, ell):
    ell = old_require_symmetric(ell, what="dissipation matrix")
    return [old_as_field_vector(h), ell]


def old_parallel(h, axis):
    hhat = old_frobenius_normalized(old_as_field_vector(h))
    return not hhat.any() or float(np.linalg.norm(np.cross(hhat, axis))) <= PARALLEL_TOL


# ---------------------------------------------------------------------------
# Outcomes: the bits of a result, or the type and message of what it raised
# ---------------------------------------------------------------------------


def bits(x):
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, forms.FormB):
        return ("FormB", bits([(rate, axis) for rate, axis in x.terms]))
    if isinstance(x, (list, tuple)):
        return tuple(bits(v) for v in x)
    return x


def outcome(fn, *args):
    """bits(fn(*args)), or (exception type, message). numpy's floating-point
    warnings are off, so an overflow is judged by the value it leaves."""
    try:
        with np.errstate(all="ignore"):
            return bits(fn(*args))
    except Exception as exc:  # the oracle and the helper must raise alike
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.1e-308, 2.2250738585072014e-308, 1.7e308)
NON_FINITE = (math.nan, math.inf, -math.inf)

# A finite double: a unit mantissa times 10^k for k in [-300, 300], a signed
# zero or subnormal, or anything in the double range.
finite = st.one_of(
    st.builds(lambda m, k: m * 10.0**k, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def real_matrices(draw):
    """A 3x3 real matrix: symmetric, symmetric but for one pair whose defect
    is just above or below SYMMETRY_TOL times its largest |entry|, with a NaN
    or an infinity, or arbitrary."""
    upper = [draw(finite) for _ in range(6)]
    a = np.empty((3, 3))
    for value, (i, j) in zip(upper, ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))):
        a[i, j] = a[j, i] = value
    kind = draw(st.sampled_from(("symmetric", "defect", "non-finite", "any")))
    i, j = draw(st.sampled_from(((0, 1), (0, 2), (1, 2))))
    if kind == "defect":
        peak = float(np.max(np.abs(a)))
        a[i, j] = float(a[j, i]) + draw(st.floats(0.98, 1.02)) * SYMMETRY_TOL * peak
    elif kind == "non-finite":
        a[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = draw(st.sampled_from(NON_FINITE))
    elif kind == "any":
        a[i, j] = draw(finite)
    return a


@st.composite
def gram_matrices(draw):
    """M = A A^T of rank 1 to 3 at a scale 10^k, k in [-300, 300], symmetrized,
    sometimes with a diagonal entry pushed down to make it indefinite."""
    rank = draw(st.integers(1, 3))
    a = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(rank)] for _ in range(3)])
    m = 10.0 ** draw(st.integers(-300, 300)) * (a @ a.T)
    m = 0.5 * (m + m.T)
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        m[k, k] -= draw(st.floats(0.0, 1e-9)) * float(np.max(np.abs(m)))
    return m


unit_axes = st.one_of(
    st.sampled_from(([0.0, -0.0, 1.0], [-0.0, 1.0, 0.0], [-1.0, 0.0, -0.0], [0.6, -0.8, 0.0])),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: list(np.asarray(v) / np.linalg.norm(v))),
)
rates = st.builds(lambda m, k: m * 10.0**k, st.floats(0.01, 1.0), st.integers(-300, 300))
form_bs = st.lists(st.tuples(rates, unit_axes), max_size=5).map(lambda terms: forms.FormB(terms=terms))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(real_matrices())
def test_require_symmetric_and_form_e_pack_keep_their_bits(a):
    def form_e_pack(ell):
        fe = forms.form_e_pack(ell)
        return [fe.a, fe.b, fe.c, fe.alpha, fe.beta, fe.gamma]

    assert outcome(forms.require_symmetric, a, "L") == outcome(old_require_symmetric, a, "L")
    assert outcome(form_e_pack, a) == outcome(old_form_e_pack, a)


@SETTINGS
@given(st.one_of(real_matrices(), real_matrices().map(lambda a: a[0])))
# A NaN after a zero: Python's max skips it, numpy's max returns it.
@example(np.array([0.0, math.nan, 0.0]))
@example(np.array([[0.0, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, math.nan]]))
def test_frobenius_normalized_keeps_its_bits(a):
    assert outcome(core.frobenius_normalized, a) == outcome(old_frobenius_normalized, a)


@SETTINGS
@given(real_matrices())
# tr(L') is 0.0 + L'_11 + L'_22 + L'_33 in numpy's order, so a diagonal of
# -0.0 gives +0.0, and the off-diagonal zeros of tr(L') I3 carry its sign.
@example(np.diag([-0.0, -0.0, -0.0]))
@example(-np.eye(3) * 5e-324)
def test_scaled_gram_keeps_its_bits(a):
    ell = outcome(old_require_symmetric, a)
    if ell[0] != "array":
        return
    ell = old_require_symmetric(a)
    scaled, m, shift = forms._scaled_gram(forms._symmetric_rows(a, "L"))
    old_scaled, old_m, old_shift = old_scaled_gram(ell)
    assert bits(np.array(scaled)) == bits(old_scaled)
    assert bits(np.array(m)) == bits(old_m)
    assert shift == old_shift


@SETTINGS
@given(gram_matrices())
def test_factor_and_gram_decompose_keep_their_bits(m):
    assert outcome(forms.gram_decompose, m) == outcome(old_gram_decompose, m)
    ell = forms.dissipation_from_gram(m)
    assert outcome(forms.form_b_from_dissipation, ell) == outcome(old_form_b_from_dissipation, ell)
    # The factor of the prescaled M, as the CP gate takes it.
    _, scaled_m, shift = forms._scaled_gram(forms._symmetric_rows(ell, "L"))
    _, old_m, old_shift = old_scaled_gram(old_require_symmetric(ell))
    with np.errstate(all="ignore"):
        assert bits(forms._factor(scaled_m)) == bits(old_factor(old_m))
    assert shift == old_shift


@SETTINGS
@given(form_bs)
def test_form_b_helpers_keep_their_bits(fb):
    assert outcome(forms.dissipation_matrix, fb) == outcome(old_dissipation_matrix, fb)
    assert outcome(forms.reduce_terms, forms.FormB(terms=fb.terms)) == outcome(old_minimal, fb)
    assert outcome(lambda f: list(forms.form_a_from_form_b(f).operators), fb) == outcome(old_form_a_from_form_b, fb)


@SETTINGS
@given(
    st.one_of(finite, st.sampled_from(NON_FINITE)),
    finite,
    st.lists(st.one_of(finite, st.sampled_from(NON_FINITE)), min_size=6, max_size=6).map(np.array),
)
def test_matrix_from_pauli_keeps_its_bits(c0, im0, parts):
    c, im = parts[:3], parts[3:]
    with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part
        coeffs = (c, c + 0j, c + 1j * im)
    for first in (c0, np.float64(c0), complex(c0, im0), np.complex128(complex(c0, im0))):
        for coeff in coeffs:
            assert outcome(core.matrix_from_pauli, first, coeff) == outcome(old_matrix_from_pauli, first, coeff)


@st.composite
def complex_matrices(draw):
    """A 2x2 or 3x3 complex matrix: hermitian, hermitian but for one entry
    whose defect is just above or below HERMITIAN_TOL, with a NaN or an
    infinity, with an |entry| past the largest double, or arbitrary."""
    size = draw(st.sampled_from((2, 3)))
    part = st.builds(lambda m, k: m * 10.0**k, st.floats(-1.0, 1.0), st.integers(-12, 3))
    m = np.array([[complex(draw(part), draw(part)) for _ in range(size)] for _ in range(size)])
    m = 0.5 * (m + m.conj().T)
    kind = draw(st.sampled_from(("hermitian", "defect", "non-finite", "huge", "any")))
    i, j = draw(st.sampled_from([(i, j) for i in range(size) for j in range(size)]))
    if kind == "defect":
        phase = complex(*draw(st.sampled_from(((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.6)))))
        m[i, j] = m[j, i].conjugate() + draw(st.floats(0.98, 1.02)) * HERMITIAN_TOL * phase
    elif kind == "non-finite":
        m[i, j] = complex(draw(st.sampled_from(NON_FINITE)), draw(finite))
    elif kind == "huge":
        m[i, j] = m[j, i] = complex(1.5e308, draw(st.sampled_from((0.0, 1.5e308, -1.3e308))))
    elif kind == "any":
        m[i, j] = complex(draw(finite), draw(finite))
    return size, m


@SETTINGS
@given(complex_matrices())
# numpy's |z| of this defect is 1.0000000000000003e-09, past HERMITIAN_TOL,
# and Python's is 1e-09, within it: numpy's must judge it.
@example((2, np.array([[0.0, complex(2.207172033546027e-11, -9.997563899077782e-10)], [0.0, 0.0]])))
def test_require_hermitian_refuses_alike(case):
    size, m = case
    assert outcome(core.require_hermitian, m, "A", size) == outcome(old_require_hermitian, m, "A", size)


@SETTINGS
@given(st.lists(st.one_of(finite, st.sampled_from(NON_FINITE)), min_size=3, max_size=3), real_matrices())
def test_build_generator_keeps_its_bits(h, ell):
    def build(h, ell):
        gen = dynamics.build_generator(h, ell)
        assert not (gen.h.flags.writeable or gen.ell.flags.writeable)
        return [gen.h, gen.ell]

    assert outcome(build, h, ell) == outcome(old_build_generator, h, ell)
    assert outcome(core.as_field_vector, h) == outcome(old_as_field_vector, h)


@SETTINGS
@given(unit_axes, st.floats(0.0, 4.0), st.integers(-300, 300), st.integers(0, 2))
def test_classify_tests_parallel_fields_as_before(axis, offset, k, component):
    # A field at 10^k along the axis, tilted off it by offset * PARALLEL_TOL
    # in one coordinate: around the bound the cross product decides.
    h = np.array(axis) * 10.0**k
    h[component] += offset * PARALLEL_TOL * 10.0**k
    fb = forms.FormB(terms=[(1.0, axis)])
    verdict = asymptotics.classify(h, fb)
    axis_min = forms.reduce_terms(fb)[0].terms[0][1]
    expected = asymptotics.DECOHERED if old_parallel(h, axis_min) else asymptotics.MAXIMALLY_MIXED
    assert verdict.kind == expected
