"""Shared generators and oracles for the test suite."""

import numpy as np

from lindblad2 import FormA, FormB, dissipation_matrix, form_a_to_form_b
from lindblad2.core import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z

PAULI_BASIS = (IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def random_axis(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_form_b(rng, terms: int) -> FormB:
    return FormB(
        terms=[(rng.uniform(0.1, 2.0), random_axis(rng)) for _ in range(terms)]
    )


def random_form_a(rng, terms: int) -> FormA:
    ops = []
    for _ in range(terms):
        a = rng.uniform(-1.0, 1.0)
        v = rng.uniform(-1.0, 1.0, size=3)
        ops.append(
            0.5 * (a * IDENTITY2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)
        )
    return FormA(operators=tuple(ops))


def random_cp_matrix(rng, terms: int = 3) -> np.ndarray:
    return dissipation_matrix(random_form_b(rng, terms))


def dissipator_action_table(form) -> np.ndarray:
    """Stacked action of a dissipator on the four basis operators."""
    from lindblad2 import apply_dissipator

    return np.stack([apply_dissipator(form, b) for b in PAULI_BASIS])


def forms_of(fa: FormA):
    """The same dissipator as operators, rate/axis terms, and a matrix."""
    fb = form_a_to_form_b(fa)
    return fa, fb, dissipation_matrix(fb)


def percent_rows(table: np.ndarray) -> bytes:
    """The oracle of the evolve CSV writer: each row of the table through
    one '%.17g' row template."""
    rows, cols = table.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    return ((row * rows) % tuple(table.ravel().tolist())).encode()
