import mpmath
import numpy as np
import pytest

from conftest import EX, EY, EZ, forms_of, random_cp_matrix, random_form_a, random_form_b

from lindblad2 import (
    FormB,
    Hamiltonian,
    apply_dissipator,
    build_generator,
    choi_check,
    density_from_bloch,
    dissipation_matrix,
    entropy_monotonicity_report,
    evolve_bloch,
    evolve_density,
    evolve_expm,
    evolve_rk4,
    generator_spectrum,
    liouvillian,
)
from lindblad2.asymptotics import spectral_gap
from lindblad2.core import bloch_entropies
from lindblad2.dynamics import Trajectory, _propagators, cross_matrix, propagate, rk4_step
from lindblad2.errors import BadStepError, LindbladError, NegativeTimeError

DEPHASING = np.diag([0.5, 0.5, 0.0])
ZERO_L = np.zeros((3, 3))


def test_build_generator_examples():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    assert np.allclose(gen.matrix, -DEPHASING)

    omega = 1.3
    gen = build_generator([0.0, 0.0, omega], ZERO_L)
    assert np.allclose(
        gen.matrix, [[0.0, -omega, 0.0], [omega, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )

    gen = build_generator([0.0, 0.0, 1.0], DEPHASING)
    assert np.allclose(gen.matrix, cross_matrix([0, 0, 1.0]) - DEPHASING)
    # Antisymmetric and symmetric parts split into the two ingredients,
    # which the generator also keeps apart.
    assert np.allclose(0.5 * (gen.matrix + gen.matrix.T), -DEPHASING)
    assert np.array_equal(gen.h, [0.0, 0.0, 1.0]) and np.array_equal(gen.ell, DEPHASING)

    # A non-finite field is a LindbladError that is also a ValueError.
    for h in ([np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0]):
        with pytest.raises(LindbladError, match="finite real 3-vector") as info:
            build_generator(h, DEPHASING)
        assert isinstance(info.value, ValueError)


def test_evolve_expm_identity_generator():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    r0 = np.array([0.3, -0.2, 0.5])
    assert np.allclose(evolve_expm(gen, r0, 5.0), r0)


def test_evolve_expm_transverse_decay():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    for t in (0.1, 0.5, 1.0, 3.0):
        r = evolve_expm(gen, [1.0, 0.0, 0.0], t)
        assert np.allclose(r, [np.exp(-0.5 * t), 0.0, 0.0], atol=1e-12)


def test_evolve_expm_quarter_turn_with_rk4_oracle():
    gen = build_generator([0.0, 0.0, 1.0], ZERO_L)
    t = np.pi / 2.0
    r = evolve_expm(gen, [1.0, 0.0, 0.0], t)
    assert np.allclose(r, [0.0, 1.0, 0.0], atol=1e-13)
    dt = t / 1000.0
    traj = evolve_rk4(gen, [1.0, 0.0, 0.0], t, dt)
    assert np.allclose(traj.final_state, r, atol=1e-9)


def test_evolve_expm_rejects_negative_time():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    for t in (-0.1, np.nan):
        with pytest.raises(NegativeTimeError):
            evolve_expm(gen, [0.0, 0.0, 0.0], t)


def test_evolve_expm_refuses_overflowing_propagator():
    # |h| t = 1e20 overflowed the squarings of a scaling-and-squaring exp(t G);
    # the closed form gives the exact state: the field along z keeps x and y
    # at 0, and z decays at L_zz = 1. RuntimeWarnings are errors under
    # pytest, so this also checks that none is printed.
    gen = build_generator([0, 0, 1e20], np.diag([0.0, 1.0, 1.0]))
    r = evolve_expm(gen, [0, 0, 0.5], 1.0)
    assert r[0] == r[1] == 0.0 and abs(r[2] - 0.5 / np.e) <= 1e-16
    # A growing NotCP mode, e^1000, does overflow: one line, no warning.
    growing = build_generator([0, 0, 1e20], np.diag([0.0, 1.0, -1.0]))
    with pytest.raises(BadStepError, match="not finite") as info:
        evolve_expm(growing, [0, 0, 0.5], 1000.0)
    assert "\n" not in str(info.value)


def test_evolve_expm_refuses_overflowing_product():
    # Every entry of t G is finite at t = 1.7e308, but its norm, a row sum
    # of 2 t, is not; the closed form never forms t G, and every mode has
    # decayed to exactly 0.
    gen = build_generator([0, 0, 1], np.diag([0.0, 1.0, 1.0]))
    assert np.array_equal(evolve_expm(gen, [0, 0, 0.5], 1.7e308), [0.0, 0.0, 0.0])
    # t = inf has no propagator.
    with pytest.raises(BadStepError, match="not finite") as info:
        evolve_expm(gen, [0, 0, 0.5], np.inf)
    assert "\n" not in str(info.value)


def test_evolve_expm_beyond_the_double_range():
    # |h| = 2.1e308 has no double, so neither has the rotation rate; the
    # phase |h| t still has one at small t. t = 0 returns r0 bit for bit,
    # and the Choi minimum of the identity map is exactly 0.
    h, ell = [1.5e308, 1.5e308, 0.0], np.diag([0.0, 1.0, 1.0])
    gen = build_generator(h, ell)
    r0 = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(evolve_expm(gen, r0, 0.0), r0)
    assert np.array_equal(choi_check(h, ell, [0.0]), [0.0])
    # A turn of 2.1e8 rad about h: the length is kept and the damping,
    # e^-1e-300, is none.
    r = evolve_expm(gen, r0, 1e-300)
    assert np.all(np.isfinite(r)) and abs(np.linalg.norm(r) - np.linalg.norm(r0)) <= 1e-15
    assert not np.allclose(r, r0)
    # At t = 1 the phase itself overflows.
    with pytest.raises(BadStepError, match="not finite"):
        evolve_expm(gen, r0, 1.0)


def test_evolve_expm_rates_beyond_the_double_range():
    # An indefinite (NotCP) L near the top of the double range has a real
    # pair whose split, and the rates of every exponent, overflow; at a t
    # small enough that t |L| is tiny each exponent rate * t is still a
    # finite double, and the state matches 50-digit mpmath.
    ell = 1.7e308 * np.array([[1.0, 1.0, -1.0], [1.0, 0.0, -1.0], [-1.0, -1.0, -1.0]])
    gen = build_generator([0.0, 0.0, 0.0], ell)
    r0 = np.array([0.1, 0.2, 0.3])
    for t in (1e-320, 1e-310, 5e-310):
        with mpmath.workdps(50):
            exact = mpmath.expm(-mpmath.matrix(ell.tolist()) * mpmath.mpf(t)) * mpmath.matrix(r0.tolist())
            want = np.array([float(x) for x in exact])
        assert np.max(np.abs(evolve_expm(gen, r0, t) - want) / np.abs(want)) <= 1e-15
    # At t = 1e-300, t |L| ~ 1.7e8 and one mode grows beyond the double range.
    with pytest.raises(BadStepError, match="not finite"):
        evolve_expm(gen, r0, 1e-300)


def test_evolve_rk4_constant_for_zero_generator():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    traj = evolve_rk4(gen, [0.2, 0.1, -0.4], 1.0, 0.1)
    assert np.allclose(traj.states, traj.states[0])
    assert len(traj.times) == 11


def test_evolve_rk4_matches_closed_form_decay():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    traj = evolve_rk4(gen, [1.0, 0.0, 0.0], 1.0, 1e-3)
    assert abs(traj.final_state[0] - np.exp(-0.5)) < 1e-10


def test_evolve_rk4_precession_preserves_norm():
    gen = build_generator([0.0, 0.0, 1.0], ZERO_L)
    traj = evolve_rk4(gen, [0.8, 0.0, 0.0], 100.0, 1e-3)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(norms - 0.8)) < 1e-10


def test_evolve_rk4_final_state_near_expm():
    rng = np.random.default_rng(101)
    for _ in range(20):
        ell = random_cp_matrix(rng, int(rng.integers(1, 4)))
        gen = build_generator(rng.normal(size=3), ell)
        r0 = rng.uniform(-0.5, 0.5, size=3)
        t_max, dt = 2.0, 1e-2
        traj = evolve_rk4(gen, r0, t_max, dt)
        exact = evolve_expm(gen, r0, t_max)
        bound = 10.0 * dt**4 * np.linalg.norm(gen.matrix) ** 5 * t_max
        assert np.linalg.norm(traj.final_state - exact) < max(bound, 1e-14)


def test_evolve_rk4_order_factor():
    gen = build_generator([0.3, 0.7, 0.5], random_cp_matrix(np.random.default_rng(5), 2))
    r0 = np.array([0.6, 0.0, 0.5])
    t_max = 1.0
    errors = []
    for dt in (0.05, 0.025):
        traj = evolve_rk4(gen, r0, t_max, dt)
        errors.append(np.linalg.norm(traj.final_state - evolve_expm(gen, r0, t_max)))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_evolve_rk4_rejects_bad_steps():
    gen = build_generator([0.0, 0.0, 0.0], ZERO_L)
    with pytest.raises(BadStepError):
        evolve_rk4(gen, [0, 0, 0], 1.0, 0.0)
    with pytest.raises(BadStepError):
        evolve_rk4(gen, [0, 0, 0], 1.0, -0.1)
    with pytest.raises(BadStepError):
        evolve_rk4(gen, [0, 0, 0], 1.0, 2.0)
    with pytest.raises(BadStepError, match="whole number"):
        evolve_rk4(gen, [0, 0, 0], 1.0, 0.3)
    for t_max in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(BadStepError):
            evolve_rk4(gen, [0, 0, 0], t_max, 0.1)


def test_trajectory_rejects_unordered_times():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 3)))


def test_trajectory_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((1, 3)))


def test_trajectory_derives_its_entropies():
    # A Trajectory is its times and states; the entropies are those of its
    # rows, bit for bit, and cannot be passed in to disagree with them.
    states = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [0.0, 0.0, 1.0]])
    traj = Trajectory(times=[0.0, 0.5, 1.0], states=states)
    assert traj.entropies.tobytes() == bloch_entropies(states).tobytes()
    assert not traj.entropies.flags.writeable
    with pytest.raises(TypeError):
        Trajectory(times=[0.0, 1.0], states=np.zeros((2, 3)), entropies=[0.5, 0.5])
    for states in ([[1.0, 2.0], [3.0, 4.0]], np.zeros(3), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            Trajectory(times=np.arange(len(states), dtype=float), states=states)


def test_entropy_report_of_one_sample_is_zero():
    traj = Trajectory(times=np.array([0.0]), states=np.array([[0.0, 0.0, 0.5]]))
    assert entropy_monotonicity_report(traj) == 0.0


def test_evolve_density_constant_when_commuting():
    h = Hamiltonian(h=np.array([0.0, 0.0, 1.0]))
    rho0 = density_from_bloch([0.0, 0.0, 0.5])
    traj = evolve_density(h, ZERO_L, rho0, 1.0, 1e-2)
    assert np.max(np.abs(traj.states - traj.states[0])) < 1e-12


def test_evolve_density_identity_coefficient_is_inert():
    # h0 multiplies the identity and cancels in the commutator.
    fb = FormB(terms=[(0.8, EX)])
    rho0 = density_from_bloch([0.2, 0.4, 0.1])
    plain = evolve_density(Hamiltonian(h=np.array([0.0, 1.0, 0.5])), fb, rho0, 1.0, 1e-2)
    shifted = evolve_density(
        Hamiltonian(h=np.array([0.0, 1.0, 0.5]), h0=5.0), fb, rho0, 1.0, 1e-2
    )
    assert np.max(np.abs(plain.states - shifted.states)) < 1e-13


def test_evolve_density_off_diagonal_decay():
    h = Hamiltonian(h=np.zeros(3))
    fb = FormB(terms=[(1.0, EZ)])
    rho0 = density_from_bloch([1.0, 0.0, 0.0])
    traj = evolve_density(h, fb, rho0, 1.0, 1e-3)
    # rho_01 = rx/2 decays at rate 1/2.
    assert abs(traj.final_state[0] - np.exp(-0.5)) < 1e-10
    assert traj.max_trace_dev < 1e-12
    assert traj.max_herm_dev < 1e-12


def test_liouvillian_matches_native_dissipator():
    rng = np.random.default_rng(113)
    for _ in range(20):
        h = Hamiltonian(h=rng.normal(size=3), h0=rng.normal())
        for form in forms_of(random_form_a(rng, int(rng.integers(1, 4)))):
            gen = liouvillian(h, form)
            for _ in range(3):
                m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                ref = -1j * (h.matrix @ m - m @ h.matrix) - apply_dissipator(form, m)
                assert np.max(np.abs((gen @ m.reshape(4)).reshape(2, 2) - ref)) < 1e-14


def test_liouvillian_same_for_all_encodings():
    rng = np.random.default_rng(127)
    for _ in range(50):
        h = rng.normal(size=3)
        fa, *others = forms_of(random_form_a(rng, int(rng.integers(1, 5))))
        ref = liouvillian(h, fa)
        for form in others:
            assert np.max(np.abs(liouvillian(h, form) - ref)) < 1e-14


def test_picture_equivalence_random():
    rng = np.random.default_rng(103)
    for _ in range(5):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        h = Hamiltonian(h=rng.normal(size=3))
        r0 = rng.uniform(-0.5, 0.5, size=3)
        rho0 = density_from_bloch(r0)
        ell = dissipation_matrix(fb)
        bloch_traj = evolve_rk4(build_generator(h, ell), r0, 10.0, 1e-3)
        matrix_traj = evolve_density(h, fb, rho0, 10.0, 1e-3)
        assert np.max(np.abs(bloch_traj.states - matrix_traj.states)) < 1e-8
        assert matrix_traj.max_trace_dev < 1e-10
        assert matrix_traj.max_herm_dev < 1e-10


def test_positivity_along_cp_evolution():
    rng = np.random.default_rng(107)
    for _ in range(20):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        gen = build_generator(rng.normal(size=3), dissipation_matrix(fb))
        r0 = rng.normal(size=3)
        r0 /= max(1.0, np.linalg.norm(r0))
        traj = evolve_rk4(gen, r0, 5.0, 1e-2)
        assert np.max(np.linalg.norm(traj.states, axis=1)) <= 1.0 + 1e-9


def test_generator_spectrum_diagonal():
    gen = build_generator([0.0, 0.0, 0.0], DEPHASING)
    eigs = np.sort_complex(generator_spectrum(gen))
    assert np.allclose(eigs, [-0.5, -0.5, 0.0], atol=1e-12)


def test_generator_spectrum_rotation():
    gen = build_generator([0.0, 0.0, 1.0], ZERO_L)
    eigs = sorted(generator_spectrum(gen), key=lambda z: z.imag)
    assert np.allclose(eigs, [-1.0j, 0.0, 1.0j], atol=1e-12)


def test_generator_spectrum_shifted_isotropic():
    lam = 0.6
    gen = build_generator([0.0, 0.0, 1.0], lam * np.eye(3))
    eigs = sorted(generator_spectrum(gen), key=lambda z: z.imag)
    assert np.allclose(eigs, [-lam - 1.0j, -lam, -lam + 1.0j], atol=1e-12)


def test_generator_spectrum_against_lapack():
    rng = np.random.default_rng(109)
    for _ in range(500):
        gen = build_generator(rng.normal(size=3), random_cp_matrix(rng, 3) * rng.uniform(0.1, 5))
        mine = np.sort_complex(generator_spectrum(gen))
        ref = np.sort_complex(np.linalg.eigvals(gen.matrix))
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(mine - ref)) < 1e-10 * scale
        assert abs(np.sum(mine) - np.trace(gen.matrix)) < 1e-10 * scale


def test_entropy_constant_under_pure_precession():
    gen = build_generator([0.0, 0.0, 2.0], ZERO_L)
    traj = evolve_rk4(gen, [0.7, 0.0, 0.2], 10.0, 1e-3)
    assert entropy_monotonicity_report(traj) <= 1e-12


def test_entropy_increases_to_maximum_for_depolarizer():
    gen = build_generator([0.0, 0.0, 0.0], np.eye(3))
    traj = evolve_rk4(gen, [1.0, 0.0, 0.0], 20.0, 1e-3)
    # Saturation at ln 2 can jitter by an ulp; anything above that would be a
    # genuine decrease.
    assert entropy_monotonicity_report(traj) <= 1e-12
    assert abs(traj.entropies[-1] - np.log(2.0)) < 1e-9
    early = traj.entropies[:2000]
    assert np.all(np.diff(early) > 0.0)


def test_entropy_constant_on_fixed_point():
    gen = build_generator([0.0, 0.0, 1.0], DEPHASING)
    traj = evolve_rk4(gen, [0.0, 0.0, 0.4], 5.0, 1e-3)
    assert entropy_monotonicity_report(traj) == 0.0
    assert np.allclose(traj.states, traj.states[0])


def test_propagate_reproduces_integrators():
    # Both RK4 integrators are propagate(rk4_step(dt * generator)), and
    # rk4_step is the nested Taylor polynomial of one classical RK4 step.
    rng = np.random.default_rng(137)
    dt, steps = 0.01, 200
    for _ in range(5):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        h = Hamiltonian(h=rng.normal(size=3))
        rho0 = density_from_bloch(rng.uniform(-0.5, 0.5, size=3))
        gen = build_generator(h, dissipation_matrix(fb))
        lv = liouvillian(h, fb)
        for a, v0 in ((dt * gen.matrix, rho0.bloch), (dt * lv, rho0.matrix.reshape(4))):
            eye = np.eye(len(a))
            phi = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)
            assert np.array_equal(rk4_step(a), phi)
            # The classical four-stage form agrees to rounding.
            v = v0
            k1 = a @ v
            k2 = a @ (v + k1 / 2)
            k3 = a @ (v + k2 / 2)
            k4 = a @ (v + k3)
            assert np.max(np.abs(phi @ v - (v + (k1 + 2 * k2 + 2 * k3 + k4) / 6))) < 1e-15
        bloch = propagate(rk4_step(dt * gen.matrix), rho0.bloch, steps)
        assert np.array_equal(evolve_rk4(gen, rho0.bloch, dt * steps, dt).states, bloch)
        vecs = propagate(rk4_step(dt * lv), rho0.matrix.reshape(4), steps)
        d00, d01, d10, d11 = vecs.T
        states = np.stack([(d01 + d10).real, (1j * (d01 - d10)).real, (d00 - d11).real], axis=1)
        assert np.array_equal(evolve_density(h, fb, rho0, dt * steps, dt).states, states)


# Step counts on and around the edges of propagate's doubling levels and of
# its segments of 2^16 rows, and one count past two segments.
EDGE_STEPS = (0, 1, 63, 64, 65, 127, 128, 129, 4095, 4096, 20000, 65536, 65537, 131073)


def test_propagate_matches_exact_powers():
    # Row k of propagate(S, v0, n) against S^k v0 in 40-digit arithmetic for
    # the same float S, for k and n on and around those edges, with |v0| <= 1.
    # Rounding errors along a mode of S with |eigenvalue| = 1, such as the
    # trace of rho under the Liouvillian step, never decay, so the bound
    # grows by eps / 8 per step. On these models the worst error is 2.8e-15
    # up to 129 steps, 4.0e-13 at 2e4 (bound 5.7e-13) and 2.6e-12 at 131073
    # (bound 3.6e-12), in that trace mode; the loop that does one
    # matrix-vector product per step reaches 8.9e-16, 2.4e-13 and 1.7e-12.
    rng = np.random.default_rng(139)
    dt = 0.01
    with mpmath.workdps(40):
        for _ in range(4):
            fb = random_form_b(rng, int(rng.integers(1, 4)))
            h = Hamiltonian(h=rng.normal(size=3))
            r0 = rng.normal(size=3)
            r0 *= rng.uniform(0.2, 1.0) / np.linalg.norm(r0)
            rho0 = density_from_bloch(r0)
            gen = build_generator(h, dissipation_matrix(fb))
            cases = (
                (rk4_step(dt * gen.matrix), r0),
                (_propagators(gen, (dt,))[0], r0),
                (rk4_step(dt * liouvillian(h, fb)), rho0.matrix.reshape(4)),
            )
            for step, v0 in cases:
                exact_step = mpmath.matrix(step.tolist())
                exact_v0 = mpmath.matrix(v0.tolist())
                exact = {
                    k: np.array((exact_step**k * exact_v0).tolist(), dtype=complex)[:, 0]
                    for k in EDGE_STEPS
                }
                for n in EDGE_STEPS:
                    out = propagate(step, v0, n)
                    assert out.shape == (n + 1, len(v0)) and out.dtype == step.dtype
                    assert np.array_equal(out[0], v0)
                    for k in EDGE_STEPS:
                        if k <= n:
                            bound = 1e-14 + k * np.finfo(float).eps / 8
                            assert np.max(np.abs(out[k] - exact[k])) <= bound, (n, k)


def test_propagate_reaches_the_limit_of_a_decaying_run():
    # tests/models/matrix_cp.json by rk4 at dt 0.001: rx and ry decay as
    # 0.8 e^(-t/2), below half the smallest subnormal from t ~ 1488 on, and
    # rz = 0.3 is fixed. The rows must reach that limit exactly, not stall
    # at subnormal values as a product of one step per row does.
    gen = build_generator([0.0, 0.0, 2.0], np.diag([0.5, 0.5, 0.0]))
    rows = propagate(rk4_step(0.001 * gen.matrix), np.array([0.8, 0.0, 0.3]), 2_500_000)
    assert np.array_equal(np.unique(rows[1_500_000:], axis=0), [[0.0, 0.0, 0.3]])


def test_step_count_cap():
    gen = build_generator([0.0, 0.0, 1.0], DEPHASING)
    # 1e15 steps: the cap rejects the run before any trajectory is allocated.
    with pytest.raises(BadStepError, match="cap"):
        evolve_rk4(gen, [1.0, 0.0, 0.0], 1e6, 1e-9)
    with pytest.raises(BadStepError, match="cap"):
        evolve_density([0.0, 0.0, 1.0], DEPHASING, density_from_bloch(EX), 1e6, 1e-9)


# A field along z with transverse damping: |h| = 1, max|G| = 1.
FIELD_Z = build_generator([0.0, 0.0, 1.0], np.diag([0.0, 1.0, 1.0]))


def test_evolve_rk4_refuses_growing_step():
    # dt |h| = 5 lies outside the RK4 stability region: the run would reach
    # |r| ~ 1e22 where the exact flow decays.
    with pytest.raises(BadStepError, match="stability") as info:
        evolve_rk4(FIELD_Z, [0.0, 0.0, 0.5], 100.0, 5.0)
    assert "\n" not in str(info.value)


def test_evolve_rk4_refuses_overflowing_step():
    # dt G is finite, but rk4_step(dt G) overflows; warnings are errors here.
    with pytest.raises(BadStepError, match="stability") as info:
        evolve_rk4(FIELD_Z, [0.0, 0.0, 0.5], 1e308, 1e306)
    assert "\n" not in str(info.value)


def test_evolve_density_refuses_growing_step():
    # dt |h| = 4, as in the CLI's guard test, on the Liouvillian step.
    rho0 = density_from_bloch([0.5, 0.0, 0.0])
    with pytest.raises(BadStepError, match="stability") as info:
        evolve_density(Hamiltonian(h=[0.0, 0.0, 8.0]), FormB(terms=[(0.5, EX)]), rho0, 200.0, 0.5)
    assert "\n" not in str(info.value)
    # The hint names evolve_density's own dt parameter, not a CLI flag.
    assert str(info.value).endswith("; use a smaller dt") and "--" not in str(info.value)


def test_evolve_bloch_methods(monkeypatch):
    rng = np.random.default_rng(151)
    dt, steps = 0.01, 300
    # A NotCP L whose exact flow grows is run as evolve_expm runs it.
    notcp = build_generator([0.3, -0.7, 2.0], np.diag([0.5, -2.0, 0.1]))
    for gen in [build_generator(rng.normal(size=3), random_cp_matrix(rng, int(rng.integers(1, 4))))
                for _ in range(5)] + [notcp]:
        r0 = rng.uniform(-0.5, 0.5, size=3)
        traj = evolve_bloch(gen, r0, dt * steps, dt, "expm")
        assert np.array_equal(traj.states, propagate(_propagators(gen, (dt,))[0], r0, steps))
        assert np.array_equal(traj.times, dt * np.arange(steps + 1))
    assert np.linalg.norm(traj.final_state) > 1.0  # the NotCP run leaves the ball
    # A step whose phase is beyond the double range is refused before any row.
    import lindblad2.dynamics as dynamics

    def no_propagation(*args):
        raise AssertionError("the step must be refused before propagating")

    monkeypatch.setattr(dynamics, "propagate", no_propagation)
    beyond = build_generator([1.5e308, 1.5e308, 0.0], np.diag([0.0, 1.0, 1.0]))
    with pytest.raises(BadStepError, match="not finite"):
        evolve_bloch(beyond, [0.0, 0.0, 0.5], 3.0, 1.0, "expm")
    with pytest.raises(ValueError, match="method"):
        evolve_bloch(FIELD_Z, [0.0, 0.0, 0.5], 1.0, 0.1, "euler")


def test_rotated_exceptional_point():
    # One axis n at rate lam with h perpendicular to n and |h| = lam / 4:
    # the generator has spectrum {-lam/2, -lam/4, -lam/4} with a Jordan
    # block, in a generic orientation. np.linalg.eigvals misses the double
    # root by up to ~1e-8 here. generator_spectrum takes the simple root
    # -lam/2, the one farthest from the mean, and gets the double root as
    # the pair of a discriminant within REPEATED_ROOT_TOL of zero; it must
    # hold 1e-10.
    rng = np.random.default_rng(139)
    for _ in range(500):
        lam = rng.uniform(0.1, 5.0)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        p = rng.normal(size=3)
        p -= (p @ n) * n
        h = 0.25 * lam * p / np.linalg.norm(p)
        gen = build_generator(h, dissipation_matrix(FormB(terms=[(lam, n)])))
        eigs = np.sort_complex(generator_spectrum(gen))
        assert np.max(np.abs(eigs - [-lam / 2, -lam / 4, -lam / 4])) < 1e-10 * lam
        assert abs(spectral_gap(gen) - lam / 4) < 1e-10 * lam
