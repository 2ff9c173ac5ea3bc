"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Every tolerance is pinned here; nothing is deferred.
"""

import functools
import time

import numpy as np
import pytest

from conftest import (
    EX,
    EY,
    EZ,
    dissipator_action_table,
    random_axis,
    random_form_a,
    random_form_b,
)
from test_cli import EVOLVE_CASES, REPORT_CASES, check_golden, run_cli

from lindblad2 import (
    FormB,
    Hamiltonian,
    build_generator,
    check_form_e,
    check_gram_psd,
    choi_check,
    classify,
    density_from_bloch,
    dissipation_matrix,
    entropy_monotonicity_report,
    evolve_density,
    evolve_expm,
    evolve_rk4,
    form_a_to_form_b,
    form_e_pack,
    generator_spectrum,
    gram_decompose,
    gram_from_dissipation,
    gram_from_form_b,
    reduce_terms,
)

LN2 = float(np.log(2.0))


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return decorate


@criterion(1, "dissipator action agrees across forms A, B, and the matrix route")
def test_criterion_1_form_equivalence():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        fa = random_form_a(rng, int(rng.integers(1, 7)))
        fb = form_a_to_form_b(fa)
        ell = dissipation_matrix(fb)
        reference = dissipator_action_table(fa)
        for other in (fb, ell):
            deviation = np.max(np.abs(dissipator_action_table(other) - reference))
            assert deviation < 1e-10
        checked += 1
    assert checked == 1000
    assert time.perf_counter() - start < 5.0


@criterion(2, "ten-term dissipators reduce to <= 3 terms preserving the matrix")
def test_criterion_2_reduction():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(1000):
        fb = random_form_b(rng, 10)
        fb_min, index = reduce_terms(fb)
        assert index <= 3
        assert len(fb_min.terms) == index
        drift = np.linalg.norm(dissipation_matrix(fb) - dissipation_matrix(fb_min))
        assert drift < 1e-12
        q = gram_from_form_b(fb)
        singular = np.linalg.svd(q @ q.T, compute_uv=False)
        assert index == int(np.sum(singular > 1e-10 * singular[0]))
    assert time.perf_counter() - start < 5.0


def _engineered_degenerate_cases():
    """Exactly rank-deficient leading blocks in floating point, both signs
    of the off-diagonal coupling, plus zero-pivot matrices."""
    cases = []
    dyadic = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    k = 0
    while len(cases) < 60:
        p = dyadic[4 + k % 4]  # pivot stays in the leading slot
        q = dyadic[k % 4]
        t = dyadic[k % 3] * 0.25
        s = dyadic[(k + 1) % 5] * 0.25
        eta = 1.0 if k % 2 == 0 else -1.0
        m = np.array(
            [
                [p * p, eta * p * q, p * t],
                [eta * p * q, q * q, eta * q * t],
                [p * t, eta * q * t, t * t + s * s],
            ]
        )
        assert m[0, 0] * m[1, 1] == m[0, 1] ** 2
        assert m[0, 0] >= max(m[1, 1], m[2, 2])
        cases.append(m)
        k += 1
    k = 0
    while len(cases) < 99:
        a = dyadic[k % 8]
        b = dyadic[(k + 3) % 8] * 0.5
        c = dyadic[(k + 5) % 8] * 0.25
        m = np.array(
            [
                [0.0, 0.0, 0.0],
                [0.0, a * a, a * b],
                [0.0, a * b, b * b + c * c],
            ]
        )
        assert m[1, 1] * m[2, 2] >= m[1, 2] ** 2
        cases.append(m)
        k += 1
    cases.append(np.zeros((3, 3)))
    return cases


@criterion(3, "Gram factorization reconstructs random and degenerate matrices")
def test_criterion_3_gram_factorization():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        g = rng.normal(size=(3, 3))
        m = g.T @ g
        q = gram_decompose(m)
        assert np.max(np.abs(q @ q.T - m)) < 1e-10
    engineered = _engineered_degenerate_cases()
    assert len(engineered) == 100
    for m in engineered:
        q = gram_decompose(m)
        assert np.max(np.abs(q @ q.T - m)) < 1e-10


@criterion(4, "the three CP verdicts agree outside a 1e-9 margin band")
def test_criterion_4_cp_oracle_equivalence():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    compared = 0
    for _ in range(10_000):
        ell = rng.uniform(-1.0, 1.0, size=(3, 3))
        ell = 0.5 * (ell + ell.T)
        via_e = check_form_e(form_e_pack(ell))
        m = gram_from_dissipation(ell)
        via_m = check_gram_psd(m)
        min_eig = float(np.linalg.eigvalsh(m / np.linalg.norm(m))[0])
        if abs(min_eig) <= 1e-9 or abs(via_e.margin) <= 1e-9 or abs(via_m.margin) <= 1e-9:
            continue
        assert via_e.cp == via_m.cp == (min_eig > 0.0)
        compared += 1
    assert compared > 9000  # the band excludes only a negligible sliver
    assert time.perf_counter() - start < 10.0


@criterion(5, "Choi matrix stays positive for CP generators and witnesses NotCP")
def test_criterion_5_choi_positivity():
    rng = np.random.default_rng(1005)
    times = [0.01, 0.1, 1.0, 10.0]
    for _ in range(100):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        ell = dissipation_matrix(fb)
        minima = choi_check(rng.normal(size=3), ell, times)
        assert np.all(minima >= -1e-8)
    minima = choi_check([0.0, 0.0, 0.0], np.diag([0.0, 0.0, 1.0]), times)
    assert np.min(minima) < -1e-6


@criterion(6, "single-axis decay reproduces the closed-form rate and fixed axis")
def test_criterion_6_closed_form_decay():
    fb = FormB(terms=[(1.0, EZ)])
    gen = build_generator([0.0, 0.0, 1.0], dissipation_matrix(fb))
    r0 = np.array([1.0, 0.0, 0.3])

    r_exact = evolve_expm(gen, r0, 1.0)
    transverse = float(np.hypot(r_exact[0], r_exact[1]))
    assert abs(transverse - np.exp(-0.5)) < 1e-9
    assert abs(r_exact[2] - 0.3) < 1e-12

    traj = evolve_rk4(gen, r0, 1.0, 1e-3)
    transverse_rk4 = float(np.hypot(traj.final_state[0], traj.final_state[1]))
    assert abs(transverse_rk4 - np.exp(-0.5)) < 1e-8
    assert abs(traj.final_state[2] - 0.3) < 1e-12


@criterion(7, "isotropic depolarizer relaxes to the maximally mixed state")
def test_criterion_7_isotropic_limit():
    fb = FormB(terms=[(1.0, EX), (1.0, EY), (1.0, EZ)])
    gen = build_generator([0.0, 0.0, 1.0], dissipation_matrix(fb))
    r0 = np.array([0.9, 0.0, 0.1])

    assert np.linalg.norm(evolve_expm(gen, r0, 40.0)) < 1e-8

    traj = evolve_rk4(gen, r0, 40.0, 1e-3)
    assert np.linalg.norm(traj.final_state) < 1e-8
    assert abs(traj.entropies[-1] - LN2) < 1e-9
    # Strictly increasing until saturation eats the increments.
    diffs = np.diff(traj.entropies)
    below = LN2 - traj.entropies[:-1] > 1e-12
    assert np.all(diffs[below] > 0.0)
    assert entropy_monotonicity_report(traj) <= 1e-12


@criterion(8, "spectral stability: decaying spectra for index >= 2, exact "
             "spectrum for the commuting family")
def test_criterion_8_spectral_stability():
    rng = np.random.default_rng(1008)
    produced = 0
    while produced < 500:
        fb = random_form_b(rng, int(rng.integers(2, 4)))
        _, index = reduce_terms(fb)
        if index < 2:
            continue
        produced += 1
        gen = build_generator(rng.normal(size=3), dissipation_matrix(fb))
        eigs = generator_spectrum(gen)
        scale = max(1.0, float(np.linalg.norm(gen.matrix)))
        assert np.max(eigs.real) / scale < -1e-12

    for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
        for omega in (-3.0, -1.0, 0.0, 0.5, 2.0):
            fb = FormB(terms=[(lam, EZ)])
            gen = build_generator([0.0, 0.0, omega], dissipation_matrix(fb))
            eigs = sorted(generator_spectrum(gen), key=lambda z: (z.real, z.imag))
            expected = sorted(
                [0.0 + 0.0j, -0.5 * lam - 1j * omega, -0.5 * lam + 1j * omega],
                key=lambda z: (z.real, z.imag),
            )
            assert np.max(np.abs(np.array(eigs) - np.array(expected))) < 1e-10


@criterion(9, "entropy never decreases along CP evolutions beyond 1e-9 per step")
def test_criterion_9_entropy_monotonicity():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(200):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        gen = build_generator(rng.normal(size=3), dissipation_matrix(fb))
        r0 = rng.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(r0)
        if norm > 1.0:
            r0 /= norm
        traj = evolve_rk4(gen, r0, 10.0, 1e-3)
        worst = max(worst, entropy_monotonicity_report(traj))
    assert worst <= 1e-9


@criterion(10, "Bloch RK4, matrix-picture RK4, and the exact propagator agree")
def test_criterion_10_integrator_cross_validation():
    rng = np.random.default_rng(1010)
    for _ in range(100):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        ell = dissipation_matrix(fb)
        h = Hamiltonian(h=rng.normal(size=3))
        r0 = rng.uniform(-0.6, 0.6, size=3)
        gen = build_generator(h, ell)

        bloch_traj = evolve_rk4(gen, r0, 10.0, 1e-3)
        matrix_traj = evolve_density(h, fb, density_from_bloch(r0), 10.0, 1e-3)
        assert np.max(np.abs(bloch_traj.states - matrix_traj.states)) < 1e-8

        exact = evolve_expm(gen, r0, 10.0)
        assert np.linalg.norm(bloch_traj.final_state - exact) < 1e-8
        assert np.linalg.norm(matrix_traj.final_state - exact) < 1e-8

    # Fourth-order convergence: halving dt shrinks the error ~16x.
    gen = build_generator(
        [0.3, 0.7, 0.5],
        dissipation_matrix(random_form_b(np.random.default_rng(77), 2)),
    )
    r0 = np.array([0.6, 0.0, 0.5])
    exact = evolve_expm(gen, r0, 1.0)
    errors = [
        np.linalg.norm(evolve_rk4(gen, r0, 1.0, dt).final_state - exact)
        for dt in (0.05, 0.025)
    ]
    assert 12.0 <= errors[0] / errors[1] <= 20.0


@criterion(11, "CLI reports and CSV trajectories are byte-stable with the "
              "documented exit codes")
def test_criterion_11_cli_golden(capsys, tmp_path):
    for golden_name, argv, expected_code in REPORT_CASES:
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == expected_code
        assert out1 == out2
        check_golden(golden_name, out1)
    for golden_name, argv in EVOLVE_CASES:
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(out_a)], capsys)[0] == 0
        assert run_cli(argv + ["--out", str(out_b)], capsys)[0] == 0
        text = out_a.read_text(encoding="utf-8")
        assert text == out_b.read_text(encoding="utf-8")
        check_golden(golden_name, text)
    # Exit-code contract: 2 for unusable input.
    from pathlib import Path

    bad = str(Path(__file__).parent / "models" / "broken.json")
    assert run_cli(["--model", bad, "check"], capsys)[0] == 2
