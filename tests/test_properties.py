"""Property tests: the minimal number of Lindblad terms is the rank of the
Gram matrix M, whatever the units of the rates, and gks_minimal rebuilds
its GKS matrix; the round trips through M and through Form A give back L,
and a minimal FormB is its own reduction, at every scale; a Gram matrix at the edge
of the CP slack gets a consistent verdict and certificate at every scale;
the CP gate gives the bits of the separate public routes at every scale;
every CP route, gks_minimal among them, says CP exactly when a 50-digit
smallest eigenvalue of M does, even where the minors hide a negative one,
and reports that eigenvalue as its margin;
without dissipation the Bloch vector precesses rigidly about h; the
generator spectrum holds its real parts to the scale of L whatever |h| is;
the closed-form propagator holds the phase-free parts of the state to
1e-13 whatever |h| is, and at triple roots and exceptional points; along
an expm trajectory of a CP model |r| never rises and the entropy never
falls."""

import json
import tempfile
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lindblad2 import (
    FormB,
    build_generator,
    evolve_expm,
    check_form_e,
    check_gram_psd,
    choi_check,
    classify,
    cpcheck,
    dissipation_from_gram,
    dissipation_matrix,
    form_a_from_form_b,
    form_a_to_form_b,
    form_b_from_dissipation,
    form_b_from_gram,
    form_e_pack,
    generator_spectrum,
    gks_matrix,
    gks_minimal,
    gram_decompose,
    gram_from_dissipation,
    is_completely_positive,
    reduce_terms,
    spectral_gap,
)
from lindblad2.asymptotics import MAXIMALLY_MIXED
from lindblad2.cli import main
from lindblad2.errors import NotCPError
from lindblad2.tolerances import CHOI_TOL, PSD_TOL, RANK_TOL, REDUCE_DRIFT_TOL

# Smallest singular value of the matrix of unit axes: the terms of a drawn
# dissipator are well separated, so its rank is not in doubt.
AXES_SIGMA_MIN = 0.05


@st.composite
def rank_r_dissipators(draw):
    """(r, FormB) with r independent unit axes and rates of one scale."""
    r = draw(st.integers(1, 3))
    component = st.floats(-1.0, 1.0)
    axes = np.array([[draw(component) for _ in range(3)] for _ in range(r)])
    lengths = np.linalg.norm(axes, axis=1)
    assume(np.min(lengths) >= 0.1)
    axes = axes / lengths[:, None]
    assume(np.linalg.svd(axes, compute_uv=False)[-1] >= AXES_SIGMA_MIN)
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    rates = [scale * draw(st.floats(0.1, 2.0)) for _ in range(r)]
    return r, FormB(terms=list(zip(rates, axes)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(rank_r_dissipators())
def test_index_equals_rank_at_every_scale(case):
    r, fb = case
    assert reduce_terms(fb)[1] == r
    verdict, certificate = is_completely_positive(dissipation_matrix(fb))
    assert verdict.cp and len(certificate.terms) == r
    c = gks_matrix(form_a_from_form_b(fb))
    fa = gks_minimal(c)
    assert len(fa.operators) == r
    assert len(form_a_to_form_b(fa).terms) == r
    assert np.max(np.abs(gks_matrix(fa) - c)) <= 1e-12 * np.max(np.abs(c))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(rank_r_dissipators())
def test_round_trips_reproduce_l_at_every_scale(case):
    # C -> M -> factor -> B -> C, and B -> A -> B -> C, with the largest
    # rate at 10^k for k = -300, -270, ..., 300.
    _, fb = case
    peak = np.max(fb.rates)
    for k in range(-300, 301, 30):
        scaled = FormB(terms=[(rate / peak * 10.0**k, axis) for rate, axis in fb.terms])
        ell = dissipation_matrix(scaled)
        via_gram = form_b_from_gram(gram_decompose(gram_from_dissipation(ell)))
        via_operators = form_a_to_form_b(form_a_from_form_b(scaled))
        for rebuilt in (via_gram, via_operators):
            assert np.max(np.abs(dissipation_matrix(rebuilt) - ell)) <= 1e-12 * np.max(np.abs(ell))


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(rank_r_dissipators())
def test_a_minimal_form_b_is_its_own_reduction(case):
    # The certificate, form_b_from_dissipation's terms and a reduction each
    # come from a pivoted factor, whose rank is decided once.
    _, fb = case
    ell = dissipation_matrix(fb)
    for x in (is_completely_positive(ell)[1], form_b_from_dissipation(ell)[0], reduce_terms(fb)[0]):
        fb_min, index = reduce_terms(x)
        assert fb_min is x and index == len(x.terms)
        assert reduce_terms(x) is reduce_terms(x)


@st.composite
def gram_matrices_at_the_slack(draw):
    """(push, M): a Gram matrix of rank 1 to 3 whose smallest eigenvalue is
    then moved by push times the largest, at scales 1e-300 to 1e300.

    |push| <= 3 PSD_TOL, so both verdicts occur: within +-PSD_TOL every
    draw is CP, because each normalized minor then stays above -PSD_TOL.
    """
    r = draw(st.integers(1, 3))
    eigs = np.zeros(3)
    eigs[3 - r:] = [draw(st.floats(0.1, 2.0)) for _ in range(r)]
    push = draw(st.floats(-3.0 * PSD_TOL, 3.0 * PSD_TOL))
    eigs[0] += push * np.max(eigs)
    columns = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(3)] for _ in range(3)])
    assume(np.linalg.svd(columns, compute_uv=False)[-1] >= 0.1)
    q, _ = np.linalg.qr(columns)
    m = (q * eigs) @ q.T
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    return push, scale * (0.5 * (m + m.T))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gram_matrices_at_the_slack())
def test_certificate_exactly_when_cp_at_the_slack(case):
    push, m = case
    ell = dissipation_from_gram(m)
    verdict, certificate = is_completely_positive(ell)
    assert (certificate is not None) == verdict.cp
    if verdict.cp and push >= 0.0:
        # M is PSD, so the certificate differs from it only by the PSD
        # remainder the rank floor drops, whose at most two nonzero diagonal
        # entries are each at most RANK_TOL times M's largest diagonal entry
        # d. That moves no entry of L by more than RANK_TOL d, and L has an
        # entry of at least d / 2; 1e-15 covers rounding. (A PSD
        # certificate cannot match an indefinite M, so push < 0 has no such
        # bound.)
        drift = np.max(np.abs(dissipation_matrix(certificate) - ell)) / np.max(np.abs(ell))
        assert drift <= 2.0 * RANK_TOL + 1e-15


@st.composite
def dissipation_matrices(draw):
    """A symmetric L with largest |entry| 10^k, k in [-300, 300]: the L of a
    Gram matrix A A^T, so CP, or any symmetric L, mostly NotCP."""
    a = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(3)] for _ in range(3)])
    ell = dissipation_from_gram(a @ a.T) if draw(st.booleans()) else a + a.T
    peak = np.max(np.abs(ell))
    return 10.0 ** draw(st.floats(-300.0, 300.0)) * (ell / peak if peak > 0.0 else ell)


def _bits(margins):
    return [(label, float(margin).hex()) for label, margin in margins]


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(dissipation_matrices())
def test_cp_gate_gives_the_bits_of_the_separate_routes(ell):
    # The gate takes its Form E margins from the prescaled L, its minors and
    # spectrum from one M and its certificate from the factor of that M;
    # each must be what the public route computes on its own.
    form_e = []
    margins = cpcheck._form_e_margins
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cpcheck, "_form_e_margins", lambda half: form_e.append(margins(half)) or form_e[-1])
        verdict, certificate = is_completely_positive(ell)
    assert _bits(form_e[0]) == _bits(cpcheck.form_e_margins(form_e_pack(ell)))
    separate = check_gram_psd(gram_from_dissipation(ell))
    assert (verdict.cp, verdict.reason) == (separate.cp, separate.reason)
    assert float(verdict.margin).hex() == float(separate.margin).hex()
    if not verdict.cp:
        assert certificate is None
        with pytest.raises(NotCPError):
            form_b_from_dissipation(ell)
        return
    fb, index = form_b_from_dissipation(ell)
    assert index == len(certificate.terms)
    assert certificate.rates.tobytes() == fb.rates.tobytes()
    assert certificate.axes.tobytes() == fb.axes.tobytes()


@st.composite
def spectra_past_the_slack(draw):
    """M = Q diag(1, d, p) Q^T at a scale 10^k, k in [-300, 300], with d tiny
    and positive and p = +-(2 to 1e6) PSD_TOL. The smallest minor margins
    are then of order d p, so for p < 0 and a small d every minor can pass
    while lambda_min(M) is far below -PSD_TOL (28 of the 300 draws)."""
    columns = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(3)] for _ in range(3)])
    assume(np.linalg.svd(columns, compute_uv=False)[-1] >= 0.1)
    q, _ = np.linalg.qr(columns)
    tiny = 10.0 ** draw(st.floats(-12.0, -2.0))
    push = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(np.log10(2.0), 6.0)) * PSD_TOL
    m = 10.0 ** draw(st.integers(-300, 300)) * ((q * [1.0, tiny, push]) @ q.T)
    return 0.5 * (m + m.T)


def exact_lambda_min(m) -> float:
    """The smallest eigenvalue of M over its Frobenius norm, to 50 digits."""
    with mpmath.workdps(50):
        exact = mpmath.matrix(m.tolist())
        return float(min(mpmath.eigsy(exact / mpmath.mnorm(exact, "f"))[0]))


def _cp_by(route, *args) -> bool:
    """True when a factoring route returns, False when it raises NotCPError."""
    try:
        route(*args)
    except NotCPError:
        return False
    return True


def _drift(fb, ell) -> float:
    """|dissipation_matrix(fb) - L|_F in units of L's largest entry."""
    return float(np.linalg.norm((dissipation_matrix(fb) - ell) / np.max(np.abs(ell))))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(spectra_past_the_slack())
def test_every_route_says_cp_exactly_when_lambda_min_does(m):
    exact = exact_lambda_min(m)
    cp = exact >= -PSD_TOL
    ell = dissipation_from_gram(m)
    verdict, certificate = is_completely_positive(ell)
    by_m, by_e = check_gram_psd(m), check_form_e(form_e_pack(ell))
    assert verdict.cp == by_m.cp == by_e.cp == cp
    assert _cp_by(gram_decompose, m) == cp
    assert _cp_by(form_b_from_dissipation, ell) == cp
    assert _cp_by(gks_minimal, m / 2) == cp
    # Every margin is lambda_min(M); the routes that judge the gate's M,
    # rebuilt from L, give its bits.
    assert all(abs(v.margin - exact) <= 1e-13 for v in (verdict, by_m, by_e))
    for route in (check_gram_psd(gram_from_dissipation(ell)), by_e):
        assert float(route.margin).hex() == float(verdict.margin).hex()
    if cp:
        assert _drift(certificate, ell) <= REDUCE_DRIFT_TOL
        assert _drift(form_b_from_dissipation(ell)[0], ell) <= REDUCE_DRIFT_TOL
        # The evolved map stays CP over a decay time.
        times = np.array([0.5, 1.0]) / np.max(np.abs(ell))
        assert np.all(choi_check(np.zeros(3), ell, times) >= -CHOI_TOL)


def rodrigues(h, r0, t):
    """r0 rotated about h by the angle |h| t, which solves dr/dt = h x r."""
    norm = np.linalg.norm(h)
    if norm == 0.0:
        return np.array(r0)
    k = h / norm
    c, s = np.cos(norm * t), np.sin(norm * t)
    return r0 * c + np.cross(k, r0) * s + k * (k @ r0) * (1.0 - c)


@st.composite
def fields_and_states(draw):
    """(h, r0): a field with |h_a| <= 3 and a Bloch vector in the ball."""
    h = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    r0 = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    return h, r0 / max(1.0, float(np.linalg.norm(r0)))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(fields_and_states())
def test_zero_dissipator_precesses(case):
    h, r0 = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "zero.json", Path(tmp) / "traj.csv"
        path.write_text(json.dumps({
            "hamiltonian": {"h": h.tolist()},
            "dissipator": {"form": "B", "terms": []},
            "initial": {"bloch": r0.tolist()},
        }))
        argv = ["--model", str(path), "evolve", "--t-max", "2", "--dt", "0.01",
                "--method", "expm", "--out", str(out)]
        assert main(argv) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
    expected = np.array([rodrigues(h, r0, t) for t in table[:, 0]])
    assert np.max(np.abs(table[:, 1:4] - expected)) < 1e-12
    assert np.ptp(table[:, 5]) < 1e-12


@st.composite
def fields_and_dissipators(draw):
    """(k, h, L): the L of a Gram matrix A A^T, so CP, or any symmetric L,
    mostly indefinite, and a field with |h| / max|L_ij| = |n| 10^k,
    k in [-150, 150], |n| <= sqrt(3). The larger of h and L is of order 1,
    so |h|^2 cannot overflow."""
    a = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(3)] for _ in range(3)])
    ell = dissipation_from_gram(a @ a.T) if draw(st.booleans()) else a + a.T
    peak = np.max(np.abs(ell))
    assume(peak > 0.0)
    n = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    k = draw(st.floats(-150.0, 150.0))
    return k, n * 10.0 ** min(0.0, k), ell / peak * 10.0 ** min(0.0, -k)


def reference_spectrum(k, h, ell):
    """The eigenvalues of G = Omega(h) - L from h and L apart, in enough
    digits that every entry of G is exact."""
    with mpmath.workdps(40 + int(abs(k))):
        omega = mpmath.matrix([[0, -h[2], h[1]], [h[2], 0, -h[0]], [-h[1], h[0], 0]])
        g = omega - mpmath.matrix(ell.tolist())
        return [complex(z) for z in mpmath.eig(g, left=False, right=False)]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(fields_and_dissipators())
def test_spectrum_with_h_and_l_apart(case):
    k, h, ell = case
    gen = build_generator(h, ell)
    eigs = generator_spectrum(gen)
    unit = np.max(np.abs(ell))
    reference = sorted(z.real for z in reference_spectrum(k, h, ell))
    assert np.max(np.abs(np.sort(eigs.real) - reference)) <= 1e-14 * unit
    assert abs(np.sum(eigs) + np.trace(ell)) <= 1e-14 * unit
    if is_completely_positive(ell)[0].cp:
        fb, _ = form_b_from_dissipation(ell)
        if classify(h, fb).kind == MAXIMALLY_MIXED:
            assert spectral_gap(gen) > 0.0


@st.composite
def special_generators(draw):
    """(0, h, L) at a point where eigenvalues meet: the triple root of an
    isotropic L with h = 0, a triple root split by about 1e-7, a triple root
    with one 3x3 Jordan block (L = diag(g - 1, g + 1, g) for g >= 2 and
    h = (1, 1, 0) / sqrt 2, CP) and its split by 1e-7, the rotated
    exceptional point (one axis n at rate lam, h perpendicular to n with
    |h| = lam / 4), and G = 0."""
    kind = draw(st.sampled_from(["triple", "near-triple", "jordan", "exceptional", "zero"]))
    gamma = draw(st.floats(0.1, 2.0))
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(v) >= 0.1)
    v /= np.linalg.norm(v)
    if kind == "triple":
        return 0, np.zeros(3), gamma * np.eye(3)
    if kind == "near-triple":
        split = np.outer(v, v) - np.diag(v[::-1] ** 2)
        return 0, 1e-7 * gamma * v[::-1], gamma * (np.eye(3) + 1e-7 * (split + split.T))
    if kind == "jordan":
        g, split = draw(st.floats(2.0, 4.0)), draw(st.sampled_from([0.0, 1e-7]))
        h = gamma * np.array([2**-0.5, 2**-0.5, split])
        return 0, h, gamma * np.diag([g - 1.0, g + 1.0, g + split])
    if kind == "exceptional":
        p = np.cross(v, [1.0, 0.0, 0.0] if abs(v[0]) < 0.9 else [0.0, 1.0, 0.0])
        h = 0.25 * gamma * p / np.linalg.norm(p)
        return 0, h, dissipation_matrix(FormB(terms=[(gamma, v)]))
    return 0, np.zeros(3), np.zeros((3, 3))


@st.composite
def propagator_cases(draw):
    """(h, L, t, r0): a drawn or special generator, a time of up to three
    decay times 1 / max|L_ij| (up to 3 for G = 0), and 0.2 <= |r0| <= 1."""
    _, h, ell = draw(st.one_of(fields_and_dissipators(), special_generators()))
    peak = float(np.max(np.abs(ell)))
    t = draw(st.floats(0.0, 3.0)) / (peak if peak > 0.0 else 1.0)
    r0 = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    assume(np.linalg.norm(r0) >= 0.2)
    return h, ell, t, r0 / max(1.0, float(np.linalg.norm(r0)))


def reference_state(h, ell, t, r0):
    """exp(t G) r0 for G = Omega(h) - L from h and L apart, in log10(|h| t)
    + 40 digits, so that the angle |h| t keeps 40 digits."""
    turn = float(np.linalg.norm(h)) * t
    with mpmath.workdps(40 + max(0, int(np.log10(turn)) if turn > 0.0 else 0)):
        omega = mpmath.matrix([[0, -h[2], h[1]], [h[2], 0, -h[0]], [-h[1], h[0], 0]])
        g = omega - mpmath.matrix(ell.tolist())
        return mpmath.expm(g * mpmath.mpf(t)) * mpmath.matrix(r0.tolist())


def phase_free(h, r):
    """(the component of r along h, |r perpendicular to h|), or r for h = 0."""
    norm = mpmath.sqrt(sum(mpmath.mpf(x) ** 2 for x in h))
    if norm == 0:
        return [float(x) for x in r]
    along = sum(mpmath.mpf(x) * y for x, y in zip(h, r)) / norm
    return [float(along), float(mpmath.sqrt(max(sum(y * y for y in r) - along * along, 0)))]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(propagator_cases())
def test_propagator_with_h_and_l_apart(case):
    # The phase-free parts do not depend on the angle |h| t, which no double
    # knows better than eps |h| t; the full vector may err by that much.
    h, ell, t, r0 = case
    r = evolve_expm(build_generator(h, ell), r0, t)
    exact = reference_state(h, ell, t, r0)
    # A NotCP L may grow the state; the bounds are relative to that growth.
    size = max(1.0, float(mpmath.norm(exact)) / float(np.linalg.norm(r0)))
    unit = float(np.linalg.norm(r0)) * size
    got, want = phase_free(h, mpmath.matrix(r.tolist())), phase_free(h, exact)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * unit
    eps = np.finfo(float).eps
    full = max(abs(float(exact[i]) - r[i]) for i in range(3))
    assert full <= (1e-13 + 4.0 * eps * float(np.linalg.norm(h)) * t) * size
    if is_completely_positive(ell)[0].cp:
        assert np.linalg.norm(r) <= np.linalg.norm(r0) + 1e-14


@st.composite
def cp_models(draw):
    """A model file's dict: a field with |h_a| <= 3, zero to three Form B
    terms of rate 0.1 to 2 on drawn axes, and a Bloch vector in the ball."""
    h = [draw(st.floats(-3.0, 3.0)) for _ in range(3)]
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        axis = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
        assume(np.linalg.norm(axis) >= 0.1)
        terms.append({"rate": draw(st.floats(0.1, 2.0)), "axis": (axis / np.linalg.norm(axis)).tolist()})
    r0 = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    return {
        "hamiltonian": {"h": h},
        "dissipator": {"form": "B", "terms": terms},
        "initial": {"bloch": (r0 / max(1.0, float(np.linalg.norm(r0)))).tolist()},
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(cp_models(), st.sampled_from([0.01, 0.1, 0.5]))
def test_expm_trajectory_never_grows_or_loses_entropy(spec, dt):
    # d|r|^2/dt = -2 r^T L r <= 0, and a unital CP flow never lowers the
    # entropy: both hold for every step of the exact exp(dt G).
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "model.json", Path(tmp) / "traj.csv"
        path.write_text(json.dumps(spec))
        argv = ["--model", str(path), "evolve", "--t-max", repr(200 * dt), "--dt", repr(dt),
                "--method", "expm", "--out", str(out)]
        assert main(argv) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
    length = np.sqrt(np.sum(table[:, 1:4] ** 2, axis=1))
    assert np.max(np.diff(length)) <= 1e-13
    assert np.min(np.diff(table[:, 4])) >= -1e-13
