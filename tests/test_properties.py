"""Property tests: the minimal number of Lindblad terms is the rank of the
Gram matrix M, whatever the units of the rates; a Gram matrix at the edge
of the CP slack gets a consistent verdict and certificate at every scale;
the CP gate gives the bits of the separate public routes at every scale;
without dissipation the Bloch vector precesses rigidly about h; the
generator spectrum holds its real parts to the scale of L whatever |h| is."""

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
    check_gram_psd,
    classify,
    cpcheck,
    dissipation_from_gram,
    dissipation_matrix,
    form_a_from_form_b,
    form_a_to_form_b,
    form_b_from_dissipation,
    form_e_pack,
    generator_spectrum,
    gks_matrix,
    gks_minimal,
    gram_from_dissipation,
    is_completely_positive,
    reduce_terms,
    spectral_gap,
)
from lindblad2.asymptotics import MAXIMALLY_MIXED
from lindblad2.cli import main
from lindblad2.errors import NotCPError
from lindblad2.tolerances import PSD_TOL, RANK_TOL

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
    fa = gks_minimal(gks_matrix(form_a_from_form_b(fb)))
    assert len(fa.operators) == r
    assert len(form_a_to_form_b(fa).terms) == r


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
