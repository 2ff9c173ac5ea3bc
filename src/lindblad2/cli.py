"""Command-line front end.

Reads a JSON model file describing a Hamiltonian, a dissipator (operators,
rate/axis terms, or a symmetric matrix), and optionally an initial state,
then checks, converts, reduces, evolves, or classifies it.

Exit codes: 0 success / completely positive, 1 not completely positive,
2 usage or model-file errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DensityState, Hamiltonian, density_from_bloch, density_from_matrix
from .errors import LindbladError, NotCPError, StepSizeError
from .forms import (
    FormA,
    FormB,
    dissipation_matrix,
    form_a_from_form_b,
    form_a_to_form_b,
    form_e_pack,
    gks_matrix,
    reduce_terms,
    require_symmetric,
)
from .cpcheck import is_completely_positive
from .tolerances import REDUCE_DRIFT_TOL


class ParseError(Exception):
    """Model file could not be parsed or validated."""


@dataclass(eq=False)
class Model:
    hamiltonian: Hamiltonian
    dissipator: object  # FormA | FormB | 3x3 ndarray
    initial: DensityState | None


def _fmt(x: float) -> str:
    """Full double precision, locale independent, no negative zero."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return _fmt(z.real)
    sign = "+" if z.imag >= 0.0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _fmt_vector(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in v) + ")"


def _fmt_matrix(m) -> str:
    rows = []
    for row in np.asarray(m):
        rows.append("[" + ", ".join(_fmt_complex(z) for z in row) + "]")
    return "[" + ", ".join(rows) + "]"


def _fmt_terms(fb: FormB) -> list:
    return [f"  lambda={_fmt(rate)} n={_fmt_vector(axis)}" for rate, axis in fb.terms]


# ---------------------------------------------------------------------------
# Model file parsing
# ---------------------------------------------------------------------------


def _require(mapping, key, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ParseError(f"missing field {key!r} in {where}")
    return mapping[key]


def _finite_number(value, where) -> float:
    """A JSON int or float (not a bool or a string) finite as a double."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ParseError(f"{where} must be a finite number")


def _real_array(value, shape, where) -> np.ndarray:
    """value as a float array of the given shape.

    The lists are walked only to the depth of the shape, and each leaf must
    pass :func:`_finite_number`; anything else raises the same one-line
    ParseError.
    """

    def leaves(value, shape):
        if not shape:
            return _finite_number(value, where)
        if not isinstance(value, list) or len(value) != shape[0]:
            raise ParseError
        return [leaves(item, shape[1:]) for item in value]

    try:
        return np.array(leaves(value, shape))
    except ParseError:
        raise ParseError(f"{where} must be an array of {'x'.join(map(str, shape))} finite numbers") from None


def _complex_matrix(value, where) -> np.ndarray:
    """A 2x2 complex matrix written as [re, im] pairs."""
    arr = _real_array(value, (2, 2, 2), f"{where} ([re, im] pairs)")
    return arr[..., 0] + 1j * arr[..., 1]


def _parse_dissipator(spec):
    form = _require(spec, "form", "dissipator")
    payloads = [key for key in ("operators", "terms", "matrix") if key in spec]
    if len(payloads) > 1:
        raise ParseError(
            f"dissipator must carry exactly one representation, found {payloads}"
        )
    try:
        if form == "A":
            ops = _require(spec, "operators", "dissipator")
            if not isinstance(ops, list):
                raise ParseError("dissipator operators must be a list")
            return FormA(
                operators=tuple(
                    _complex_matrix(op, f"operator {k + 1}") for k, op in enumerate(ops)
                )
            )
        if form == "B":
            raw = _require(spec, "terms", "dissipator")
            if not isinstance(raw, list):
                raise ParseError("dissipator terms must be a list")
            terms = []
            for k, term in enumerate(raw):
                rate = _finite_number(
                    _require(term, "rate", f"term {k + 1}"), f"term {k + 1} rate"
                )
                axis = _real_array(
                    _require(term, "axis", f"term {k + 1}"), (3,), f"term {k + 1} axis"
                )
                terms.append((rate, axis))
            return FormB(terms=terms)
        if form == "matrix":
            raw = _require(spec, "matrix", "dissipator")
            arr = _real_array(raw, (3, 3), "dissipator matrix")
            return require_symmetric(arr, what="dissipator matrix")
    except (LindbladError, ValueError) as exc:
        raise ParseError(f"invalid dissipator: {exc}") from exc
    raise ParseError(f"unknown dissipator form {form!r} (expected A, B, or matrix)")


def _parse_initial(spec) -> DensityState:
    if not isinstance(spec, dict):
        raise ParseError("initial state must be a JSON object")
    if "bloch" in spec and "rho" in spec:
        raise ParseError("initial state must give either bloch or rho, not both")
    try:
        if "bloch" in spec:
            return density_from_bloch(_real_array(spec["bloch"], (3,), "initial bloch"))
        if "rho" in spec:
            return density_from_matrix(_complex_matrix(spec["rho"], "initial rho"))
    except LindbladError as exc:
        raise ParseError(f"invalid initial state: {exc}") from exc
    raise ParseError("initial state needs a bloch vector or a rho matrix")


def load_model(path: str) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read model file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"model file is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("model file nests too deeply to parse") from None
    if not isinstance(raw, dict):
        raise ParseError("model file must contain a JSON object")
    hspec = _require(raw, "hamiltonian", "model")
    h = _real_array(_require(hspec, "h", "hamiltonian"), (3,), "hamiltonian h")
    h0 = _finite_number(hspec.get("h0", 0.0), "hamiltonian h0")
    hamiltonian = Hamiltonian(h=h, h0=h0)
    dissipator = _parse_dissipator(_require(raw, "dissipator", "model"))
    initial = _parse_initial(raw["initial"]) if "initial" in raw else None
    return Model(hamiltonian=hamiltonian, dissipator=dissipator, initial=initial)


# ---------------------------------------------------------------------------
# Shared command plumbing
# ---------------------------------------------------------------------------


def _dissipator(model: Model):
    """Normalise the model's dissipator once: (L, verdict, terms).

    The verdict comes from the CP check of L. The terms are the model's own
    for Form A and B input and the gate's certificate for a matrix input,
    so they are None for a NotCP matrix; no terms is the zero dissipator.
    Every command reads reduce_terms(terms), so a model's rank is decided
    once: from q q^T of the terms, or by the gate for a matrix.
    """
    fb = model.dissipator
    if isinstance(fb, FormA):
        fb = form_a_to_form_b(fb)
    ell = dissipation_matrix(fb) if isinstance(fb, FormB) else fb
    verdict, certificate = is_completely_positive(ell)
    return ell, verdict, fb if isinstance(fb, FormB) else certificate


def _gate_cp(model: Model):
    """Return (L, terms) of a CP dissipator; raise NotCPError otherwise."""
    ell, verdict, fb = _dissipator(model)
    if not verdict.cp:
        raise NotCPError(
            f"dissipator is not completely positive: condition {verdict.reason} violated"
        )
    return ell, fb


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(model: Model, args) -> int:
    _, verdict, fb = _dissipator(model)
    if not verdict.cp:
        print("verdict: NotCP")
        print(f"reason: condition {verdict.reason} violated")
        print(f"margin: {_fmt(verdict.margin)}")
        return 1
    certificate, index = reduce_terms(fb)
    print("verdict: CP")
    print(f"index: {index}")
    print("certificate:" if certificate.terms else "certificate: (none)")
    for line in _fmt_terms(certificate):
        print(line)
    return 0


def cmd_convert(model: Model, args) -> int:
    ell, fb = _gate_cp(model)
    target = args.to
    if target == "E":
        fe = form_e_pack(ell)
        print("form: E")
        for name in ("a", "b", "c", "alpha", "beta", "gamma"):
            print(f"{name} = {_fmt(getattr(fe, name))}")
        return 0
    if target == "B":
        print("form: B")
        print("terms:")
        for line in _fmt_terms(fb):
            print(line)
        return 0
    fa = model.dissipator if isinstance(model.dissipator, FormA) else form_a_from_form_b(fb)
    if target == "A":
        print("form: A")
        print("operators:")
        for k, op in enumerate(fa.operators):
            print(f"  A{k + 1} = {_fmt_matrix(op)}")
        return 0
    coeff = gks_matrix(fa)
    print("form: GKS")
    print(f"c = {_fmt_matrix(coeff)}")
    return 0


def cmd_reduce(model: Model, args) -> int:
    fb = _gate_cp(model)[1]
    before = dissipation_matrix(fb)
    fb_min, index = reduce_terms(fb)
    # In units of the largest entry, so neither side can overflow.
    scale = max(1.0, float(np.max(np.abs(before))))
    drift = float(np.linalg.norm((dissipation_matrix(fb_min) - before) / scale))
    if not drift <= REDUCE_DRIFT_TOL:
        raise LindbladError(f"reduction changed the dissipation matrix by {drift:.3e}")
    print(f"index: {index}")
    print("terms:")
    for line in _fmt_terms(fb_min):
        print(line)
    return 0


def _distances(states, limit) -> np.ndarray:
    """|r - limit| for each row r, with the bits of np.linalg.norm(r - limit).

    Row-wise inner products by matmul keep those bits; norm(axis=1) sums in
    another order. The (n, 1, 3) difference is freed on return.
    """
    diff = (states - limit)[:, None, :]
    return np.sqrt(diff @ diff.transpose(0, 2, 1)).ravel()


def _flow(model: Model):
    """(initial state, verdict, limit, Generator) of a CP model, from
    :func:`asymptotics._model_flow`, which verify_asymptote reads too."""
    fb = _gate_cp(model)[1]
    # Imported once the model passes the gate, so that check, convert,
    # reduce and a refused run never compile the integrators.
    from .asymptotics import _model_flow

    if model.initial is None:
        raise ParseError("model has no initial state")
    return model.initial, *_model_flow(model.hamiltonian, fb, model.initial)


def cmd_evolve(model: Model, args) -> int:
    state, _, limit, gen = _flow(model)
    from .dynamics import evolve_bloch

    try:
        traj = evolve_bloch(gen, state.bloch, args.t_max, args.dt, args.method)
    except StepSizeError as exc:
        raise LindbladError(f"{exc.reason}; use a smaller --dt or --method expm") from None
    # Imported once the run is accepted, so that neither the other commands
    # nor a refused run compile the writer.
    from ._fmt17 import write_columns

    dist = _distances(traj.states, limit)
    with open(args.out, "wb") as fh:
        fh.write(b"t,rx,ry,rz,entropy,dist_to_limit\n")
        write_columns(fh, traj.times, traj.states, traj.entropies, dist)
    return 0


def cmd_asymptote(model: Model, args) -> int:
    _, verdict, limit, gen = _flow(model)
    from .asymptotics import spectral_gap

    print(f"kind: {verdict.kind}")
    print(f"index: {verdict.index}")
    print(f"commuting: {'yes' if verdict.commuting else 'no'}")
    if verdict.axis is not None:
        print(f"axis: {_fmt_vector(verdict.axis)}")
    print(f"limit: {_fmt_vector(limit)}")
    print(f"gap: {_fmt(spectral_gap(gen))}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process; parse_args returns a new Namespace each call."""
    parser = argparse.ArgumentParser(
        prog="lindblad2",
        description="Check, convert, reduce, evolve, and classify qubit dissipators.",
    )
    parser.add_argument("--model", required=True, help="path to a JSON model file")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", help="decide complete positivity")

    p = sub.add_parser("convert", help="print another representation")
    p.add_argument("--to", required=True, choices=["A", "B", "E", "GKS"])

    sub.add_parser("reduce", help="minimal number of terms")

    p = sub.add_parser("evolve", help="integrate and write a CSV trajectory")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--method", choices=["rk4", "expm"], default="expm")
    p.add_argument("--out", required=True, help="CSV output path")

    sub.add_parser("asymptote", help="classify the long-time limit")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)

    try:
        model = load_model(args.model)
        # The command is looked up when it runs, not held by the parser, so
        # a cmd_* function replaced on this module later is the one called.
        return globals()[f"cmd_{args.command}"](model, args)
    except NotCPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, LindbladError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The process entry of the lindblad2 script and of python -m lindblad2.

    gc.freeze() moves the objects of every module-level import into the
    permanent generation, so no collection of the run, nor the one at
    exit, walks them again.
    """
    gc.freeze()
    sys.exit(main())
