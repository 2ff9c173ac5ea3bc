"""Seeded inputs whose right answers are known by construction.

Every dissipator is built from its rates and axes (or, for a NotCP input,
from a Gram matrix with one clearly negative eigenvalue), so the verdict,
the minimal index, the dissipation matrix L and the long-time limit are all
fixed before the program sees the input. Nothing here calls lindblad2: the
generated payloads are plain numbers, lists and arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
ENCODINGS = ("A", "B", "matrix")
# Times at which the sweep asks for the Choi witness.
CHOI_TIMES = (0.02, 0.1, 0.5, 2.0)
# Smallest |component| of a rank-2 plane's unit normal that the inputs use.
RANK2_NORMAL_MIN = 0.03
# A fixed rank-2 Form B dissipator whose plane lies below that limit, on
# which reduce_terms reports a spurious third term (see CHANGES.md, FOUND).
RANK2_FAULT_TERMS = (
    (0.464, (-0.07797568794861909, -0.14274906774332727, 0.9866825709149577)),
    (1.278, (0.4751340493386223, 0.8691202662572676, -0.13739577118667015)),
)


@dataclass
class Model:
    """A Hamiltonian, a dissipator in one encoding, an initial state, and
    the truth about them."""

    encoding: str  # "A", "B" or "matrix"
    cp: bool
    rank: int  # number of independent axes; 0 for the zero dissipator
    decohered: bool  # one axis with h parallel to it
    rates: np.ndarray  # (k,) positive; empty for NotCP and zero models
    axes: np.ndarray  # (k, 3) unit rows
    offsets: np.ndarray  # (k,) identity parts of the Form A operators
    ell: np.ndarray  # dissipation matrix L (3x3)
    gram: np.ndarray  # M with L = (tr M I - M) / 2
    h: np.ndarray
    r0: np.ndarray
    payload: object  # the dissipator as this encoding's raw input

    @property
    def limit(self) -> np.ndarray:
        """Bloch vector reached as t -> inf."""
        if self.rank == 0:
            raise ValueError("pure precession has no limit")
        if self.decohered:
            n = self.axes[0]
            return float(self.r0 @ n) * n
        return np.zeros(3)


def random_rotation(rng) -> np.ndarray:
    """A uniformly random rotation, from a uniformly random unit quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _unit_with_z(rng, zmin: float, zmax: float) -> np.ndarray:
    z = rng.uniform(zmin, zmax)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    s = np.sqrt(1.0 - z * z)
    return np.array([s * np.cos(phi), s * np.sin(phi), z])


def spanning_axes(rng, rank: int, count: int) -> np.ndarray:
    """``count`` unit axes spanning exactly ``rank`` dimensions.

    The first ``rank`` axes are well separated (at least 45 degrees apart in
    the local frame) so the rank is numerically unambiguous; the rest lie in
    their span and are the redundant terms that reduction must absorb.
    """
    theta = rng.uniform(0.25 * np.pi, 0.75 * np.pi)
    base = [
        np.array([1.0, 0.0, 0.0]),
        np.array([np.cos(theta), np.sin(theta), 0.0]),
        _unit_with_z(rng, 0.6, 0.95),
    ][:rank]
    extra = []
    for _ in range(count - rank):
        if rank == 1:
            extra.append(base[0] * rng.choice([-1.0, 1.0]))
        elif rank == 2:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            extra.append(np.array([np.cos(phi), np.sin(phi), 0.0]))
        else:
            extra.append(_unit_with_z(rng, -1.0, 1.0))
    local = np.array(base + extra)
    while True:
        axes = local @ random_rotation(rng).T
        # A plane whose normal lies within ~2 degrees of a coordinate plane
        # makes reduce_terms report a spurious third term (see CHANGES.md,
        # FOUND); such planes are left out.
        if rank != 2 or np.min(np.abs(np.cross(axes[0], axes[1]))) >= RANK2_NORMAL_MIN * np.sin(theta):
            return axes


def _field(rng, axis: np.ndarray | None, parallel: bool) -> np.ndarray:
    size = rng.uniform(0.3, 2.0)
    if parallel:
        return size * rng.choice([-1.0, 1.0]) * axis
    while True:
        v = rng.normal(size=3)
        v *= size / np.linalg.norm(v)
        # Keep a single-axis field clearly off the axis.
        if axis is None or np.linalg.norm(np.cross(v, axis)) >= 0.3 * size:
            return v


def _initial(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v * rng.uniform(0.3, 0.95) / np.linalg.norm(v)


def _operators(rates, axes, offsets) -> list:
    """Form A operators (1/2)(a I + sqrt(lambda) n . sigma)."""
    ops = []
    for lam, (x, y, z), a in zip(rates, axes, offsets):
        s = np.sqrt(lam)
        ops.append(0.5 * np.array([[a + s * z, s * (x - 1j * y)], [s * (x + 1j * y), a - s * z]]))
    return ops


def payload(encoding, rates, axes, offsets, ell):
    """The dissipator as the raw input of one encoding."""
    if encoding == "A":
        return _operators(rates, axes, offsets)
    if encoding == "B":
        return [(float(lam), n.copy()) for lam, n in zip(rates, axes)]
    return ell.copy()


def cp_model(rng, encoding: str, rank: int, count: int, decohered: bool = False) -> Model:
    """A CP dissipator of ``count`` terms spanning ``rank`` axes."""
    axes = spanning_axes(rng, rank, count)
    rates = rng.uniform(0.3, 1.5, size=count)
    offsets = rng.uniform(-1.0, 1.0, size=count)
    gram = np.einsum("k,ka,kb->ab", rates, axes, axes)
    ell = 0.5 * (np.trace(gram) * np.eye(3) - gram)
    h = _field(rng, axes[0] if rank == 1 else None, decohered)
    return Model(
        encoding=encoding,
        cp=True,
        rank=rank,
        decohered=decohered,
        rates=rates,
        axes=axes,
        offsets=offsets,
        ell=ell,
        gram=gram,
        h=h,
        r0=_initial(rng),
        payload=payload(encoding, rates, axes, offsets, ell),
    )


def notcp_model(rng) -> Model:
    """L = (tr M I - M) / 2 from an M with eigenvalue -nu, nu >= 0.2."""
    q = random_rotation(rng)
    spectrum = np.array(
        [rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5), -rng.uniform(0.2, 0.8)]
    )
    gram = (q * spectrum) @ q.T
    gram = 0.5 * (gram + gram.T)
    ell = 0.5 * (np.trace(gram) * np.eye(3) - gram)
    return Model(
        encoding="matrix",
        cp=False,
        rank=3,
        decohered=False,
        rates=np.zeros(0),
        axes=np.zeros((0, 3)),
        offsets=np.zeros(0),
        ell=ell,
        gram=gram,
        h=_field(rng, None, False),
        r0=_initial(rng),
        payload=ell.copy(),
    )


def zero_model(h, r0) -> Model:
    """The zero dissipator: pure precession about h."""
    h = np.asarray(h, dtype=float)
    return Model(
        encoding="matrix",
        cp=True,
        rank=0,
        decohered=False,
        rates=np.zeros(0),
        axes=np.zeros((0, 3)),
        offsets=np.zeros(0),
        ell=np.zeros((3, 3)),
        gram=np.zeros((3, 3)),
        h=h,
        r0=np.asarray(r0, dtype=float),
        payload=np.zeros((3, 3)),
    )


def model_json(model: Model) -> str:
    """The model as a lindblad2 model file."""
    if model.encoding == "A":
        spec = {
            "form": "A",
            "operators": [
                [[[z.real, z.imag] for z in row] for row in op] for op in model.payload
            ],
        }
    elif model.encoding == "B":
        spec = {
            "form": "B",
            "terms": [{"rate": lam, "axis": n.tolist()} for lam, n in model.payload],
        }
    else:
        spec = {"form": "matrix", "matrix": model.payload.tolist()}
    return json.dumps(
        {
            "hamiltonian": {"h": model.h.tolist(), "h0": 0.5},
            "dissipator": spec,
            "initial": {"bloch": model.r0.tolist()},
        }
    )
