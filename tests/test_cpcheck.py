import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import random_cp_matrix

from lindblad2 import (
    FormE,
    check_form_e,
    check_gram_psd,
    choi_check,
    dissipation_matrix,
    form_b_from_dissipation,
    form_e_pack,
    gram_decompose,
    gram_from_dissipation,
    is_completely_positive,
)
from lindblad2.core import matrix_from_pauli, pauli_coefficients
from lindblad2.cpcheck import form_e_margins
from lindblad2.dynamics import cross_matrix
from lindblad2.errors import BadStepError, LindbladError, NegativeTimeError, NotCPError, VerdictMismatchError

MODELS = Path(__file__).parent / "models"


def reference_choi(h, ell, t) -> np.ndarray:
    """sum_ij E_ij (x) map(E_ij), with the map exp(t G) on the Pauli
    coefficients of each matrix unit, G = Omega(h) - L from scipy."""
    transfer = scipy.linalg.expm(t * (cross_matrix(h) - ell))
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            c0, c = pauli_coefficients(unit)
            choi += np.kron(unit, matrix_from_pauli(c0, transfer @ c))
    return choi


def test_check_form_e_dephasing_is_cp():
    verdict = check_form_e(form_e_pack(np.diag([0.5, 0.5, 0.0])))
    assert verdict.cp
    assert verdict.reason is None


def test_check_form_e_detects_condition_a():
    # Companion matrix diag(1, 1, -0.1): T < 0.
    ell = np.diag([0.45, 0.45, 1.0])
    assert np.allclose(gram_from_dissipation(ell), np.diag([1.0, 1.0, -0.1]))
    verdict = check_form_e(form_e_pack(ell))
    assert not verdict.cp
    assert verdict.reason == "(a) T >= 0"
    # The spectral oracle agrees that the companion matrix is indefinite.
    assert np.linalg.eigvalsh(gram_from_dissipation(ell))[0] < 0.0


def test_check_form_e_zero_is_cp():
    assert check_form_e(form_e_pack(np.zeros((3, 3)))).cp


def test_check_form_e_near_the_largest_double():
    # L = 2 (a, b, c; ...) is past the largest double; L / 2 is judged, with
    # the bits of the same constants scaled down by an exact power of two.
    # Overflow warnings are errors here, whatever the pytest configuration.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for consts in ((1.0, 0.0, 0.0, 1.0, 0.0, 1.0), (1.0, 0.3, -0.2, 1.0, 0.1, -0.5)):
            big = FormE(*(math.ldexp(x, 1023) for x in consts))
            unit = FormE(*consts)
            assert check_form_e(big) == check_form_e(unit)
            assert form_e_margins(big) == form_e_margins(unit)
        assert check_form_e(FormE(1e308, 0.0, 0.0, 1e308, 0.0, 1e308)).cp
    with pytest.raises(LindbladError, match="finite"):
        check_form_e(FormE(math.nan, 0.0, 0.0, 1.0, 0.0, 1.0))


def test_hidden_negative_eigenvalue_is_refused_by_every_route():
    # M = tr(L) I - 2L has eigenvalues (-1e-5, 1e-5, 1): every minor and
    # every six-constant inequality passes within PSD_TOL, lambda_min fails.
    model = json.loads((MODELS / "matrix_hidden_negative.json").read_text())
    ell = np.array(model["dissipator"]["matrix"])
    reason = "lambda_min(M) >= 0"
    for verdict in (
        is_completely_positive(ell)[0],
        check_gram_psd(gram_from_dissipation(ell)),
        check_form_e(form_e_pack(ell)),
    ):
        assert (verdict.cp, verdict.reason) == (False, reason)
        assert verdict.margin == pytest.approx(-1e-5, rel=1e-6)
    for route in (form_b_from_dissipation, lambda e: gram_decompose(gram_from_dissipation(e))):
        with pytest.raises(NotCPError, match=r"^condition lambda_min\(M\) >= 0 violated \(margin -1.000e-05\)$"):
            route(ell)


def test_check_gram_psd_examples():
    assert check_gram_psd(np.eye(3)).cp

    verdict = check_gram_psd(np.diag([1.0, 1.0, -0.1]))
    assert not verdict.cp
    assert verdict.reason == "(i) M33 >= 0"

    m = np.full((3, 3), -0.6)
    np.fill_diagonal(m, 1.0)
    assert np.linalg.det(m) == pytest.approx(-0.512, abs=1e-12)
    verdict = check_gram_psd(m)
    assert not verdict.cp
    assert verdict.reason == "(iii) det(M) >= 0"
    assert np.linalg.eigvalsh(m)[0] < 0.0


def test_is_completely_positive_isotropic():
    lam = 0.7
    verdict, certificate = is_completely_positive(lam * np.eye(3))
    assert verdict.cp
    assert len(certificate.terms) == 3
    assert np.max(np.abs(dissipation_matrix(certificate) - lam * np.eye(3))) < 1e-10


def test_is_completely_positive_dephasing_certificate():
    verdict, certificate = is_completely_positive(np.diag([0.5, 0.5, 0.0]))
    assert verdict.cp
    assert len(certificate.terms) == 1
    rate, axis = certificate.terms[0]
    assert rate == pytest.approx(1.0)
    assert np.allclose(np.abs(axis), [0.0, 0.0, 1.0])


def test_is_completely_positive_rejects_single_axis_excess():
    verdict, certificate = is_completely_positive(np.diag([0.0, 0.0, 1.0]))
    assert not verdict.cp
    assert certificate is None
    assert verdict.reason == "(i) M33 >= 0"


def test_is_completely_positive_zero_dissipator():
    verdict, certificate = is_completely_positive(np.zeros((3, 3)))
    assert verdict.cp
    assert certificate.terms == ()


def test_route_disagreement_raises(monkeypatch):
    # A six-constant route broken to say NotCP, far outside the band, on a
    # full-rank CP matrix whose minor route says CP with margin ~0.19.
    # The gate takes the six-constant margins from _form_e_margins.
    broken = [("patched", -0.5)]
    monkeypatch.setattr("lindblad2.cpcheck._form_e_margins", lambda half: broken)
    with pytest.raises(VerdictMismatchError, match="^internal bug: six-constant route"):
        is_completely_positive(np.eye(3))


def test_minor_route_disagreement_raises(monkeypatch):
    # Minors broken to fail far outside the band on the identity, whose
    # smallest normalized eigenvalue is 1/sqrt(3): every caller of the
    # minors raises, by the one mismatch rule.
    monkeypatch.setattr("lindblad2.forms._gram_margins", lambda unit: [("patched", -0.5)])
    for route in (is_completely_positive, check_gram_psd, gram_decompose):
        with pytest.raises(VerdictMismatchError, match="^internal bug: minor conditions"):
            route(np.eye(3))


def test_cp_gate_validates_two_matrices_and_evaluates_the_minors_once(monkeypatch):
    from lindblad2 import cpcheck, forms

    calls = dict.fromkeys(("_symmetric_rows", "_gram_margins", "eigvalsh"), 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    wrapper = counted("_symmetric_rows", forms._symmetric_rows)
    for module in (forms, cpcheck):
        monkeypatch.setattr(module, "_symmetric_rows", wrapper)
    monkeypatch.setattr(forms, "_gram_margins", counted("_gram_margins", forms._gram_margins))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    for ell in (np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, -1.0])):  # CP, NotCP
        calls.update(dict.fromkeys(calls, 0))
        is_completely_positive(ell)
        assert calls["_symmetric_rows"] <= 2  # L and M
        assert calls["_gram_margins"] == 1
        assert calls["eigvalsh"] == 1  # one spectrum judges both routes


def test_verdict_scale_invariant():
    rng = np.random.default_rng(67)
    for _ in range(200):
        ell = rng.uniform(-1.0, 1.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        verdict, _ = is_completely_positive(ell)
        for s in (1e-3, 7.0, 1e4):
            scaled, _ = is_completely_positive(s * ell)
            assert scaled.cp == verdict.cp


def test_oracle_agreement_random():
    rng = np.random.default_rng(71)
    for _ in range(2000):
        ell = rng.uniform(-1.0, 1.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        via_e = check_form_e(form_e_pack(ell))
        m = gram_from_dissipation(ell)
        via_m = check_gram_psd(m)
        min_eig = float(np.linalg.eigvalsh(m / np.linalg.norm(m))[0])
        if abs(min_eig) > 1e-9:
            assert via_e.cp == via_m.cp == (min_eig > 0.0)


def test_certificate_soundness_random():
    rng = np.random.default_rng(73)
    for _ in range(200):
        ell = random_cp_matrix(rng, int(rng.integers(1, 5)))
        verdict, certificate = is_completely_positive(ell)
        assert verdict.cp
        assert np.max(np.abs(dissipation_matrix(certificate) - ell)) < 1e-10


def test_choi_identity_map_spectrum():
    # At t = 0 the map is the identity for CP and NotCP generators alike.
    for ell in (np.diag([0.5, 0.5, 0.0]), np.diag([0.0, 0.0, 1.0])):
        minima = choi_check([0.3, -0.1, 0.2], ell, [0.0])
        assert abs(minima[0]) < 1e-15
    # Full spectrum at t = 0 is {2, 0, 0, 0}: the maximally entangled
    # projector scaled by 2.
    eigs = np.linalg.eigvalsh(reference_choi(np.zeros(3), np.diag([0.5, 0.5, 0.0]), 0.0))
    assert np.allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_choi_check_matches_scipy_reference():
    rng = np.random.default_rng(131)
    times = [0.01, 0.3, 1.0, 5.0]
    cases = [random_cp_matrix(rng, int(rng.integers(1, 4))) for _ in range(10)]
    while len(cases) < 20:
        ell = rng.uniform(-1.0, 1.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        if not is_completely_positive(ell)[0].cp:
            cases.append(ell)
    for ell in cases:
        h = rng.normal(size=3)
        ref = np.array([np.linalg.eigvalsh(reference_choi(h, ell, t))[0] for t in times])
        # NotCP maps can grow like exp(t |L|), so the bound is relative.
        bound = 1e-12 * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(choi_check(h, ell, times) - ref) < bound)


def test_choi_cp_generator_stays_positive():
    minima = choi_check([0.0, 0.0, 0.0], np.diag([0.5, 0.5, 0.0]), [0.1, 1.0, 10.0])
    assert np.all(minima >= -1e-10)


def test_choi_witnesses_cp_failure():
    minima = choi_check([0.0, 0.0, 0.0], np.diag([0.0, 0.0, 1.0]), [0.01, 0.1, 1.0])
    assert np.min(minima) < -1e-6
    # Analytic value at small t: (exp(-t) - 1) / 2.
    assert minima[0] == pytest.approx(0.5 * (np.exp(-0.01) - 1.0), abs=1e-10)


def test_choi_random_cp_generators():
    rng = np.random.default_rng(79)
    for _ in range(30):
        ell = random_cp_matrix(rng, int(rng.integers(1, 4)))
        h = rng.normal(size=3)
        minima = choi_check(h, ell, [0.01, 0.1, 1.0, 10.0])
        assert np.all(minima >= -1e-8)


def test_choi_rejects_negative_time():
    with pytest.raises(NegativeTimeError):
        choi_check([0.0, 0.0, 0.0], np.eye(3), [-1.0])
    # So is a non-finite field, as a LindbladError that is also a ValueError.
    with pytest.raises(LindbladError, match="finite real 3-vector") as info:
        choi_check([np.inf, 0.0, 0.0], np.eye(3), [1.0])
    assert isinstance(info.value, ValueError)


def test_choi_check_refuses_overflowing_propagator():
    # |h| t = 1e20 overflowed the squarings of a scaling-and-squaring
    # exp(t G). Up to O(1e-20), the exact T is a rotation about z times
    # diag(e^-1/2, e^-1/2, e^-1), and the Choi spectrum does not see the
    # rotation: the minimum is (1 + e^-1 - 2 e^-1/2) / 2. RuntimeWarnings
    # are errors under pytest, so this also checks that none is printed.
    minimum = choi_check([0, 0, 1e20], np.diag([0.0, 1.0, 1.0]), [1.0])[0]
    assert abs(minimum - 0.5 * (1.0 + np.exp(-1.0) - 2.0 * np.exp(-0.5))) < 1e-15
    # A growing NotCP mode, e^1000, does overflow: one line, no warning.
    with pytest.raises(BadStepError, match="not finite") as info:
        choi_check([0, 0, 1e20], np.diag([0.0, 1.0, -1.0]), [1.0, 1000.0])
    assert "\n" not in str(info.value)


def test_choi_check_refuses_overflowing_product():
    # t G has finite entries but an overflowing norm; every mode has decayed,
    # T = 0, and the Choi matrix is I / 2.
    assert np.array_equal(choi_check([0, 0, 1], np.diag([0.0, 1.0, 1.0]), [1.7e308]), [0.5])
    # t = inf has no propagator.
    with pytest.raises(BadStepError, match="not finite") as info:
        choi_check([0, 0, 1], np.diag([0.0, 1.0, 1.0]), [1.0, np.inf])
    assert "\n" not in str(info.value)


def test_not_cp_stays_not_cp_under_scaling():
    rng = np.random.default_rng(83)
    found = 0
    while found < 50:
        ell = rng.uniform(-1.0, 1.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        verdict, _ = is_completely_positive(ell)
        if verdict.cp:
            continue
        found += 1
        for s in (0.5, 3.0, 100.0):
            scaled, _ = is_completely_positive(s * ell)
            assert not scaled.cp
