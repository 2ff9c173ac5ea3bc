import numpy as np
import pytest

from conftest import EX, EY, EZ, random_axis, random_form_b

from lindblad2 import (
    AsymptoticVerdict,
    FormB,
    asymptotic_state,
    build_generator,
    classify,
    density_from_bloch,
    dissipation_matrix,
    generator_spectrum,
    reduce_terms,
    spectral_gap,
    verify_asymptote,
)
from lindblad2.asymptotics import DECOHERED, MAXIMALLY_MIXED, UNDAMPED
from lindblad2.errors import BadStepError, NegativeHorizonError


def test_classify_reuses_the_reduction_of_its_form_b(monkeypatch):
    from lindblad2 import forms

    calls = []
    factor = forms._factor
    monkeypatch.setattr(forms, "_factor", lambda m: calls.append(m) or factor(m))
    fb = FormB(terms=[(0.5, EZ), (0.25, EZ)])
    fb_min, index = reduce_terms(fb)
    assert len(calls) == 1
    verdict = classify([0.0, 0.0, 1.0], fb)
    assert len(calls) == 1
    assert (verdict.kind, verdict.index) == (DECOHERED, index)
    assert verdict.axis.tobytes() == fb_min.terms[0][1].tobytes()


def test_classify_commuting_single_axis():
    verdict = classify([0.0, 0.0, 1.0], FormB(terms=[(0.5, EZ)]))
    assert verdict.kind == DECOHERED
    assert verdict.index == 1
    assert verdict.commuting
    assert np.allclose(np.abs(verdict.axis), EZ)


def test_asymptotic_verdict_refusals_and_commuting():
    # commuting is derived from kind: only the maximally mixed limit has a
    # field that does not commute with the dissipation.
    assert AsymptoticVerdict(kind=DECOHERED, index=1, axis=EZ).commuting
    assert AsymptoticVerdict(kind=UNDAMPED, index=0, axis=EX).commuting
    assert AsymptoticVerdict(kind=UNDAMPED, index=0).commuting
    for index in (1, 2, 3):
        assert not AsymptoticVerdict(kind=MAXIMALLY_MIXED, index=index).commuting
    with pytest.raises(ValueError, match="single commuting axis"):
        AsymptoticVerdict(kind=DECOHERED, index=1)
    with pytest.raises(ValueError, match="single commuting axis"):
        AsymptoticVerdict(kind=DECOHERED, index=2, axis=EZ)
    with pytest.raises(ValueError, match="zero dissipator"):
        AsymptoticVerdict(kind=UNDAMPED, index=1, axis=EZ)
    with pytest.raises(ValueError, match="unknown verdict kind 'unitary'"):
        AsymptoticVerdict(kind="unitary", index=0)


def test_classify_non_commuting_single_axis():
    verdict = classify([1.0, 0.0, 0.0], FormB(terms=[(0.5, EZ)]))
    assert verdict.kind == MAXIMALLY_MIXED
    assert verdict.index == 1
    assert not verdict.commuting


def test_classify_two_axes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h = rng.normal(size=3)
        verdict = classify(h, FormB(terms=[(0.4, EX), (0.9, EY)]))
        assert verdict.kind == MAXIMALLY_MIXED
        assert verdict.index == 2


def test_classify_zero_field_counts_as_commuting():
    verdict = classify([0.0, 0.0, 0.0], FormB(terms=[(1.0, EX)]))
    assert verdict.kind == DECOHERED
    assert verdict.commuting


def test_classify_invariant_under_rescaling():
    rng = np.random.default_rng(7)
    for _ in range(50):
        axis = random_axis(rng)
        h = rng.normal(size=3)
        fb = FormB(terms=[(rng.uniform(0.1, 2.0), axis)])
        base = classify(h, fb)
        for s in (0.2, 5.0, 1e3):
            scaled_h = classify(s * h, fb)
            assert scaled_h.commuting == base.commuting
            assert scaled_h.kind == base.kind
            scaled_fb = FormB(terms=[(s * rate, ax) for rate, ax in fb.terms])
            assert classify(h, scaled_fb).kind == base.kind


def test_asymptotic_state_maximally_mixed():
    verdict = classify([1.0, 0.0, 0.0], FormB(terms=[(0.5, EZ)]))
    rho0 = density_from_bloch([0.4, 0.2, -0.3])
    assert np.allclose(asymptotic_state(verdict, rho0).bloch, np.zeros(3))


def test_asymptotic_state_projects_onto_axis():
    verdict = classify([0.0, 0.0, 2.0], FormB(terms=[(0.5, EZ)]))
    rho0 = density_from_bloch([0.8, 0.0, 0.3])
    limit = asymptotic_state(verdict, rho0)
    assert np.allclose(limit.bloch, [0.0, 0.0, 0.3], atol=1e-12)
    # Matrix picture: P rho P + Pperp rho Pperp kills the off-diagonal block.
    p = np.diag([1.0, 0.0])
    pperp = np.diag([0.0, 1.0])
    expected = p @ rho0.matrix @ p + pperp @ rho0.matrix @ pperp
    assert np.max(np.abs(limit.matrix - expected)) < 1e-12


def test_asymptotic_state_fixed_point_unchanged():
    verdict = classify([0.0, 0.0, 1.0], FormB(terms=[(0.5, EZ)]))
    rho0 = density_from_bloch([0.0, 0.0, -0.6])
    assert np.allclose(asymptotic_state(verdict, rho0).bloch, rho0.bloch)


def _limit(h, fb, r0):
    return asymptotic_state(classify(h, fb), density_from_bloch(r0)).bloch


def test_fixed_points_isotropic_is_origin():
    fb = FormB(terms=[(1.0, EX), (1.0, EY), (1.0, EZ)])
    assert classify([0.2, 0.1, 0.4], fb).kind == MAXIMALLY_MIXED
    assert np.allclose(_limit([0.2, 0.1, 0.4], fb, [0.3, -0.5, 0.6]), np.zeros(3))


def test_fixed_points_commuting_segment():
    fb = FormB(terms=[(0.5, EZ)])
    assert classify([0.0, 0.0, 3.0], fb).kind == DECOHERED
    gen = build_generator([0.0, 0.0, 3.0], dissipation_matrix(fb))
    for s in np.linspace(-1.0, 1.0, 9):
        # Every point s * axis of the segment is its own limit.
        r = _limit([0.0, 0.0, 3.0], fb, s * EZ)
        assert np.allclose(r, s * EZ)
        assert np.linalg.norm(gen.matrix @ r) < 1e-10


def test_fixed_points_non_commuting_is_origin():
    fb = FormB(terms=[(1.0, EZ)])
    assert classify([1.0, 0.0, 0.0], fb).kind == MAXIMALLY_MIXED
    # Unique solution of G r = 0 by elimination: G is invertible here.
    gen = build_generator([1.0, 0.0, 0.0], dissipation_matrix(fb))
    assert abs(np.linalg.det(gen.matrix)) > 1e-6
    assert np.linalg.norm(gen.matrix @ _limit([1.0, 0.0, 0.0], fb, [0.5, 0.5, 0.5])) < 1e-10


def test_fixed_points_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        h = rng.normal(size=3)
        gen = build_generator(h, dissipation_matrix(fb))
        for r0 in ([0.0, 0.0, 0.0], 0.7 * random_axis(rng)):
            assert np.linalg.norm(gen.matrix @ _limit(h, fb, r0)) < 1e-10


def test_classify_zero_dissipator_is_undamped():
    rng = np.random.default_rng(19)
    for _ in range(20):
        h = rng.normal(size=3)
        r0 = 0.9 * random_axis(rng)
        verdict = classify(h, FormB(terms=()))
        assert (verdict.kind, verdict.index, verdict.commuting) == (UNDAMPED, 0, True)
        hhat = h / np.linalg.norm(h)
        assert np.max(np.abs(verdict.axis - hhat)) < 1e-15
        # The time average of the precession about h is stationary.
        limit = _limit(h, FormB(terms=()), r0)
        assert np.max(np.abs(limit - (r0 @ hhat) * hhat)) < 1e-15
        assert np.linalg.norm(np.cross(h, limit)) < 1e-12
    verdict = classify([0.0, 0.0, 0.0], FormB(terms=()))
    assert verdict.kind == UNDAMPED and verdict.axis is None
    assert np.array_equal(_limit([0.0, 0.0, 0.0], FormB(terms=()), [0.6, 0.0, 0.7]), [0.6, 0.0, 0.7])


def test_classify_huge_field():
    # |h| = 1e300 overflowed np.linalg.norm, and h perpendicular to the axis
    # then counted as commuting.
    import warnings

    h = [0.0, 0.0, 1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = classify(h, FormB(terms=[(1.0, EX)]))
        assert (verdict.kind, verdict.commuting) == (MAXIMALLY_MIXED, False)
        assert np.array_equal(classify(h, FormB(terms=())).axis, EZ)


def test_verify_asymptote_isotropic():
    fb = FormB(terms=[(1.0, EX), (1.0, EY), (1.0, EZ)])
    report = verify_asymptote(
        [0.0, 0.0, 1.0], fb, density_from_bloch([0.9, 0.0, 0.1]), horizon=40.0
    )
    assert report.gap == pytest.approx(1.0, abs=1e-10)
    assert report.distance < 1e-8
    assert report.within_bound
    assert report.converged


def test_verify_asymptote_commuting_axis_preserved():
    fb = FormB(terms=[(0.5, EZ)])
    rho0 = density_from_bloch([0.7, 0.0, 0.25])
    report = verify_asymptote([0.0, 0.0, 1.0], fb, rho0, horizon=80.0)
    assert report.gap == pytest.approx(0.25, abs=1e-10)
    assert report.distance < 1e-8
    assert np.allclose(report.limit, [0.0, 0.0, 0.25], atol=1e-12)
    assert report.within_bound
    # The axial component itself never moves.
    from lindblad2 import evolve_expm

    gen = build_generator([0.0, 0.0, 1.0], dissipation_matrix(fb))
    r_final = evolve_expm(gen, rho0.bloch, 80.0)
    assert abs(r_final[2] - 0.25) < 1e-12


def test_verify_asymptote_non_commuting():
    fb = FormB(terms=[(1.0, EZ)])
    report = verify_asymptote(
        [1.0, 0.0, 0.0], fb, density_from_bloch([0.5, 0.5, 0.5]), horizon=60.0
    )
    assert np.allclose(report.limit, np.zeros(3))
    assert report.distance < 1e-6
    # Spectral gap from the quadratic factor x^2 + x/2 + 1: Re = -1/4.
    assert report.gap == pytest.approx(0.25, abs=1e-10)


def test_verify_asymptote_default_horizon():
    fb = FormB(terms=[(2.0, EX), (2.0, EY), (2.0, EZ)])
    report = verify_asymptote([0.0, 0.0, 0.0], fb, density_from_bloch([0.3, 0.3, 0.3]))
    assert report.horizon == pytest.approx(max(40.0 / report.gap, 10.0))
    assert report.converged


def test_verify_asymptote_rejects_bad_horizon():
    fb = FormB(terms=[(1.0, EZ)])
    for horizon in (-1.0, np.nan):
        with pytest.raises(NegativeHorizonError, match="horizon must be positive"):
            verify_asymptote([0.0, 0.0, 1.0], fb, density_from_bloch([0, 0, 0]), horizon=horizon)


def test_verify_asymptote_refuses_overflowing_horizon():
    # T G overflows at T = 1.7e308, but the closed-form propagator never
    # forms it: the state has decayed to exactly the maximally mixed limit.
    fb = FormB(terms=[(1.0, EX)])
    report = verify_asymptote([0.0, 0.0, 1.0], fb, density_from_bloch([0, 0, 0.5]), horizon=1.7e308)
    assert report.distance == 0.0 and report.converged and report.within_bound
    # An infinite horizon has no propagator.
    with pytest.raises(BadStepError, match="not finite") as info:
        verify_asymptote([0.0, 0.0, 1.0], fb, density_from_bloch([0, 0, 0.5]), horizon=np.inf)
    assert "\n" not in str(info.value)


def test_strict_stability_for_two_or_more_axes():
    rng = np.random.default_rng(13)
    for _ in range(100):
        terms = int(rng.integers(2, 4))
        fb = random_form_b(rng, terms)
        _, index = reduce_terms(fb)
        if index < 2:
            continue
        gen = build_generator(rng.normal(size=3), dissipation_matrix(fb))
        eigs = generator_spectrum(gen)
        scale = max(1.0, float(np.linalg.norm(gen.matrix)))
        assert np.max(eigs.real) < -1e-12 * scale


def test_commuting_family_spectrum():
    rng = np.random.default_rng(17)
    for _ in range(50):
        lam = rng.uniform(0.2, 3.0)
        omega = rng.uniform(-3.0, 3.0)
        fb = FormB(terms=[(lam, EZ)])
        gen = build_generator([0.0, 0.0, omega], dissipation_matrix(fb))
        eigs = sorted(generator_spectrum(gen), key=lambda z: (z.real, z.imag))
        expected = sorted(
            [0.0 + 0.0j, -0.5 * lam + 1j * omega, -0.5 * lam - 1j * omega],
            key=lambda z: (z.real, z.imag),
        )
        assert np.max(np.abs(np.array(eigs) - np.array(expected))) < 1e-10
        assert spectral_gap(gen) == pytest.approx(0.5 * lam, abs=1e-10)


def test_limit_agreement_across_families():
    cases = [
        ([0.0, 0.0, 1.0], FormB(terms=[(1.0, EX), (1.0, EY), (1.0, EZ)])),
        ([0.0, 0.0, 2.0], FormB(terms=[(1.0, EZ)])),
        ([1.5, 0.0, 0.0], FormB(terms=[(1.0, EZ)])),
        ([0.3, -0.4, 0.8], FormB(terms=[(0.7, EX), (1.2, EY)])),
    ]
    rho0 = density_from_bloch([0.5, -0.3, 0.4])
    for h, fb in cases:
        report = verify_asymptote(h, fb, rho0)
        assert report.distance <= 1e-6, (h, report.distance)
        assert report.within_bound

def test_spectral_gap_survives_huge_rates():
    # Two orthogonal axes at rate 1e160: the Frobenius norm of G overflows,
    # its largest entry does not.
    fb = FormB(terms=[(1e160, EX), (1e160, EY)])
    gen = build_generator([0.0, 0.0, 1.0], dissipation_matrix(fb))
    ref = -max(e.real for e in np.linalg.eigvals(gen.matrix))
    assert spectral_gap(gen) == pytest.approx(ref, rel=1e-8)


def test_spectral_gap_of_tiny_rates():
    # Two terms of rate 1e-20 on x and y under h = z: the slowest mode decays
    # at 5e-21, far below 1 but not below the floor GAP_TOL max|L|.
    fb = FormB(terms=[(1e-20, EX), (1e-20, EY)])
    assert classify([0.0, 0.0, 1.0], fb).kind == MAXIMALLY_MIXED
    gap = spectral_gap(build_generator([0.0, 0.0, 1.0], dissipation_matrix(fb)))
    assert abs(gap / 5e-21 - 1.0) <= 1e-12
