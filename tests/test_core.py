from dataclasses import fields

import numpy as np
import pytest

from conftest import EX, EZ, random_axis

from lindblad2 import (
    AsymptoticVerdict,
    DensityState,
    Generator,
    Hamiltonian,
    bloch_from_density,
    density_from_bloch,
    density_from_matrix,
    entropy_from_bloch,
    von_neumann_entropy,
)
from lindblad2.core import (
    IDENTITY2,
    SIGMA_X,
    bloch_entropies,
    matrix_from_pauli,
    pauli_coefficients,
    unit_vector,
)
from lindblad2.errors import (
    BadTraceError,
    BlochOutOfBallError,
    LindbladError,
    NotHermitianError,
    NotUnitError,
)


def test_density_from_bloch_maximally_mixed():
    state = density_from_bloch([0.0, 0.0, 0.0])
    assert np.allclose(state.matrix, 0.5 * np.eye(2))


def test_density_from_bloch_pure_z():
    state = density_from_bloch([0.0, 0.0, 1.0])
    assert np.allclose(state.matrix, np.diag([1.0, 0.0]))


def test_density_from_bloch_pure_x():
    state = density_from_bloch([1.0, 0.0, 0.0])
    assert np.allclose(state.matrix, 0.5 * np.ones((2, 2)))


def test_density_from_bloch_rejects_outside_ball():
    # The length prints as a plain float, not as np.float64(...).
    message = r"^bloch vector has length 1\.044030650891055 > 1$"
    with pytest.raises(BlochOutOfBallError, match=message):
        density_from_bloch([1.0, 0.0, 0.3])
    with pytest.raises(BlochOutOfBallError, match=message):
        DensityState(bloch=[1.0, 0.0, 0.3])


def test_bloch_from_density_examples():
    assert np.allclose(bloch_from_density(0.5 * np.eye(2)), [0.0, 0.0, 0.0])
    assert np.allclose(bloch_from_density(np.diag([1.0, 0.0])), [0.0, 0.0, 1.0])
    m = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.allclose(bloch_from_density(m), [0.0, 1.0, 0.0])


def test_bloch_from_density_rejects_bad_input():
    with pytest.raises(NotHermitianError):
        bloch_from_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(BadTraceError):
        bloch_from_density(np.eye(2))
    # Non-finite or non-2x2 input, with no RuntimeWarning on the way.
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.0]), np.eye(3) / 3.0):
        with pytest.raises(NotHermitianError, match="finite 2x2"):
            density_from_matrix(bad)


def test_density_state_rejects_non_finite_bloch():
    with pytest.raises(BlochOutOfBallError, match="finite"):
        DensityState(bloch=[np.nan, 0.0, 0.0])


def test_density_from_matrix_within_tolerance():
    # A trace of 1 + 5e-10 and an off-diagonal asymmetry of 1e-10 are both
    # inside TRACE_TOL and HERMITIAN_TOL = 1e-9. The state is the Bloch
    # vector r_a = Re tr(m sigma_a), and its matrix is exactly hermitian
    # with trace 1.
    for m in (
        np.array([[0.6 + 5e-10, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]]),
        np.array([[0.6, 0.2 - 0.1j], [0.2 + 1e-10 + 0.1j, 0.4]]),
    ):
        state = density_from_matrix(m)
        assert np.array_equal(state.bloch, bloch_from_density(m))
        assert np.array_equal(state.matrix, state.matrix.conj().T)
        assert np.trace(state.matrix) == 1.0
        assert not state.matrix.flags.writeable and not state.bloch.flags.writeable


def test_value_types_store_only_their_defining_fields():
    # Every other attribute is derived from these: matrix from bloch,
    # commuting from kind, G from h and ell, entropies from states.
    from lindblad2 import Trajectory

    assert [f.name for f in fields(DensityState)] == ["bloch"]
    assert [f.name for f in fields(AsymptoticVerdict)] == ["kind", "index", "axis"]
    assert [f.name for f in fields(Generator)] == ["h", "ell"]
    assert [f.name for f in fields(Trajectory) if f.init] == ["times", "states", "max_trace_dev", "max_herm_dev"]


def test_array_holding_value_types_compare_and_hash_by_identity():
    # Field-wise == on ndarray fields has no single truth value, so these
    # types compare and hash as objects.
    from lindblad2 import AsymptoteReport, FormA, FormB, Trajectory, build_generator
    from lindblad2.cli import Model

    for make in [
        lambda: density_from_bloch([0.0, 0.0, 0.5]),
        lambda: Hamiltonian(h=np.array([0.0, 0.0, 1.0])),
        lambda: FormA(operators=(np.diag([1.0, -1.0]),)),
        lambda: FormB(terms=[(1.0, EZ)]),
        lambda: build_generator([0.0, 0.0, 1.0], np.diag([1.0, 1.0, 0.0])),
        lambda: Trajectory(times=[0.0, 1.0], states=np.zeros((2, 3))),
        lambda: AsymptoticVerdict(kind="decohered", index=1, axis=EZ),
        lambda: AsymptoteReport(0.0, 1.0, 2.0, np.zeros(3), True, True),
        lambda: Model(Hamiltonian(h=EZ), np.zeros((3, 3)), None),
    ]:
        a, b = make(), make()
        assert a == a and not (a == b) and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_entropy_examples():
    assert von_neumann_entropy(density_from_bloch([0, 0, 0])) == pytest.approx(
        np.log(2.0), abs=1e-15
    )
    assert von_neumann_entropy(density_from_bloch([0, 0, 1.0])) == pytest.approx(
        0.0, abs=1e-15
    )
    # Direct evaluation of -sum(lam ln lam) with lam = 0.75, 0.25.
    expected = -(0.75 * np.log(0.75) + 0.25 * np.log(0.25))
    assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
    assert von_neumann_entropy(density_from_bloch([0, 0, 0.5])) == pytest.approx(
        expected, abs=1e-14
    )


def test_entropy_bounds_random_states():
    rng = np.random.default_rng(7)
    for _ in range(300):
        r = rng.uniform(-1.0, 1.0, size=3)
        if np.linalg.norm(r) > 1.0:
            r /= np.linalg.norm(r) * rng.uniform(1.0, 2.0)
        s = entropy_from_bloch(r)
        assert 0.0 <= s <= np.log(2.0) + 1e-15
        if np.linalg.norm(r) <= 1e-9:
            assert s == pytest.approx(np.log(2.0), abs=1e-15)


def _entropies_by_norm(states) -> np.ndarray:
    """bloch_entropies written with np.linalg.norm(axis=1) and one (2, N)
    stack of the eigenvalues, the reference for its bits."""
    norms = np.minimum(np.linalg.norm(states, axis=1), 1.0)
    lam = 0.5 * np.stack([1.0 + norms, 1.0 - norms])
    terms = np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return -np.sum(terms, axis=0)


def test_bloch_entropies_bits_match_norm_formula():
    rng = np.random.default_rng(157)
    inside = rng.normal(size=(4000, 3)) * rng.uniform(0.0, 0.6, size=(4000, 1))
    unit = rng.normal(size=(2000, 3))
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    # |r| = 0, |r| exactly 1 along each axis, and |r| a few ulp above 1,
    # which the clamp must send to entropy 0.
    edges = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], *np.eye(3), *-np.eye(3), [0.6, 0.8, 0.0]])
    above = unit[:500] * (1.0 + np.arange(1, 501)[:, None] * np.finfo(float).eps)
    states = np.concatenate([inside, unit, edges, above])
    assert bloch_entropies(states).tobytes() == _entropies_by_norm(states).tobytes()
    assert np.all(bloch_entropies(above[np.linalg.norm(above, axis=1) >= 1.0]) == 0.0)


def test_entropy_of_a_nan_row_is_nan():
    # The clamp and the entropy branches used to send NaN to -0.0, the
    # entropy of a pure state.
    assert np.isnan(entropy_from_bloch([np.nan, 0.0, 0.0]))
    rows = bloch_entropies(np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert np.isnan(rows[0]) and rows[1] == 0.0 and rows[2] == np.log(2.0)


def projector(n) -> np.ndarray:
    """P = (1/2)(I + n . sigma), the projector of a Form B term."""
    return matrix_from_pauli(0.5, 0.5 * unit_vector(n))


def test_projector_examples():
    assert np.allclose(projector(EZ), np.diag([1.0, 0.0]))
    assert np.allclose(projector(-EZ), np.diag([0.0, 1.0]))
    assert np.allclose(projector(EX), 0.5 * np.ones((2, 2)))


def test_projector_rejects_non_unit_axis():
    with pytest.raises(NotUnitError):
        unit_vector([0.0, 0.0, 2.0])
    with pytest.raises(NotUnitError, match="3 components"):
        unit_vector([1.0, 0.0])


def test_projector_idempotence_random_axes():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = random_axis(rng)
        mat = projector(n)
        assert np.max(np.abs(mat @ mat - mat)) < 1e-12
        assert np.max(np.abs(mat + projector(-n) - np.eye(2))) < 1e-12
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)


def test_bloch_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        r = rng.uniform(-1.0, 1.0, size=3)
        n = np.linalg.norm(r)
        if n > 1.0:
            r /= n
        assert np.max(np.abs(bloch_from_density(density_from_bloch(r).matrix) - r)) < 1e-12


def test_pauli_coefficients_round_trip_complex():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c0, c = pauli_coefficients(m)
        assert np.max(np.abs(matrix_from_pauli(c0, c) - m)) < 1e-14


@pytest.mark.parametrize("lead", [(), (5,), (4, 3)])
def test_pauli_coefficients_of_a_stack_match_each_matrix(lead):
    rng = np.random.default_rng(7)
    # Entries over the double range, with signed zeros, inf and NaN among them.
    m = np.empty(lead + (2, 2), dtype=complex)
    m.real = rng.normal(size=m.shape) * 10.0 ** rng.integers(-300, 300, size=m.shape)
    m.imag = rng.choice([0.0, -0.0, 1.0, -1e300, np.inf, np.nan], size=m.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        c0, c = pauli_coefficients(m)
        assert c0.shape == lead and c.shape == lead + (3,)
        for index in np.ndindex(*lead):
            one0, one = pauli_coefficients(m[index])
            assert c0[index].tobytes() == one0.tobytes()
            assert c[index].tobytes() == one.tobytes()


def test_hamiltonian_matrix_and_h0():
    h = Hamiltonian(h=np.array([0.0, 0.0, 2.0]), h0=1.0)
    assert np.allclose(h.matrix, np.diag([1.5, -0.5]))
    # h0 only shifts the identity part.
    assert np.allclose(
        Hamiltonian(h=np.array([0.0, 0.0, 2.0])).matrix, np.diag([1.0, -1.0])
    )
    for h, h0 in (([np.inf, 0.0, 0.0], 0.0), ([0.0, np.nan, 0.0], 0.0), ([0.0, 0.0, 1.0], np.nan)):
        with pytest.raises(LindbladError, match="finite") as info:
            Hamiltonian(h=np.array(h), h0=h0)
        assert isinstance(info.value, ValueError)


def test_density_from_matrix_round_trip():
    state = density_from_matrix(0.5 * (IDENTITY2 + 0.3 * SIGMA_X))
    assert np.allclose(state.bloch, [0.3, 0.0, 0.0])
