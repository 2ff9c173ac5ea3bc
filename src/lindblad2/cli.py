"""Command-line front end.

Reads a JSON model file describing a Hamiltonian, a dissipator (operators,
rate/axis terms, or a symmetric matrix), and optionally an initial state,
then checks, converts, reduces, evolves, or classifies it.

Exit codes: 0 success / completely positive, 1 not completely positive,
2 usage or model-file errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import DECOHERED, asymptotic_state, classify, spectral_gap
from .core import (
    DensityState,
    Hamiltonian,
    bloch_entropies,
    density_from_bloch,
    density_from_matrix,
)
from .dynamics import _step_count, build_generator, matrix_exponential, propagate, rk4_step
from .errors import (
    BadStepError,
    EmptyDissipatorError,
    LindbladError,
    NotCPError,
)
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
from .tolerances import PSD_TOL, REDUCE_DRIFT_TOL, RK4_GROWTH_TOL


class ParseError(Exception):
    """Model file could not be parsed or validated."""


@dataclass
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


def _has_bool(value) -> bool:
    # JSON true/false load as bool, a subclass of int, so numpy would take
    # them as 1.0 and 0.0.
    if isinstance(value, list):
        return any(_has_bool(item) for item in value)
    return isinstance(value, bool)


def _finite_number(value, where) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = float("inf")
        if np.isfinite(number):
            return number
    raise ParseError(f"{where} must be a finite number")


def _real_vector(value, length, where) -> np.ndarray:
    if _has_bool(value):
        raise ParseError(f"{where} must be {length} finite numbers")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where} must be a list of {length} numbers") from exc
    if arr.shape != (length,) or not np.all(np.isfinite(arr)):
        raise ParseError(f"{where} must be {length} finite numbers")
    return arr


def _complex_matrix(value, where) -> np.ndarray:
    if _has_bool(value):
        raise ParseError(f"{where} must be a 2x2 matrix of finite [re, im] pairs")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where} must be a 2x2 matrix of [re, im] pairs") from exc
    if arr.shape != (2, 2, 2) or not np.all(np.isfinite(arr)):
        raise ParseError(f"{where} must be a 2x2 matrix of finite [re, im] pairs")
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
            if not isinstance(ops, list) or not ops:
                raise ParseError("dissipator operators must be a non-empty list")
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
                axis = _real_vector(
                    _require(term, "axis", f"term {k + 1}"), 3, f"term {k + 1} axis"
                )
                terms.append((rate, axis))
            return FormB(terms=terms)
        if form == "matrix":
            raw = _require(spec, "matrix", "dissipator")
            if _has_bool(raw):
                raise ParseError("dissipator matrix must be 3x3 and finite")
            try:
                arr = np.asarray(raw, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError("dissipator matrix must be a 3x3 array") from exc
            if arr.shape != (3, 3) or not np.all(np.isfinite(arr)):
                raise ParseError("dissipator matrix must be 3x3 and finite")
            return require_symmetric(arr, what="dissipator matrix")
    except (LindbladError, ValueError) as exc:
        raise ParseError(f"invalid dissipator: {exc}") from exc
    raise ParseError(f"unknown dissipator form {form!r} (expected A, B, or matrix)")


def _parse_initial(spec) -> DensityState:
    if "bloch" in spec and "rho" in spec:
        raise ParseError("initial state must give either bloch or rho, not both")
    try:
        if "bloch" in spec:
            return density_from_bloch(_real_vector(spec["bloch"], 3, "initial bloch"))
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
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("model file must contain a JSON object")
    hspec = _require(raw, "hamiltonian", "model")
    h = _real_vector(_require(hspec, "h", "hamiltonian"), 3, "hamiltonian h")
    h0 = _finite_number(hspec.get("h0", 0.0), "hamiltonian h0")
    hamiltonian = Hamiltonian(h=h, h0=h0)
    dissipator = _parse_dissipator(_require(raw, "dissipator", "model"))
    initial = _parse_initial(raw["initial"]) if "initial" in raw else None
    return Model(hamiltonian=hamiltonian, dissipator=dissipator, initial=initial)


# ---------------------------------------------------------------------------
# Shared command plumbing
# ---------------------------------------------------------------------------


def _dissipator(model: Model, tol: float):
    """Normalise the model's dissipator once: (L, verdict, certificate, terms).

    The verdict and minimal certificate come from the CP check of L. The
    terms are the model's own for Form A and B input and the certificate
    for a matrix input, so they are None for a zero or NotCP matrix.
    """
    fb = model.dissipator
    if isinstance(fb, FormA):
        fb = form_a_to_form_b(fb)
    ell = dissipation_matrix(fb) if isinstance(fb, FormB) else fb
    verdict, certificate = is_completely_positive(ell, tol=tol)
    return ell, verdict, certificate, fb if isinstance(fb, FormB) else certificate


def _gate_cp(model: Model, tol: float):
    """Return (L, terms) of a CP dissipator; raise NotCPError otherwise."""
    ell, verdict, _, fb = _dissipator(model, tol)
    if not verdict.cp:
        raise NotCPError(
            f"dissipator is not completely positive: condition {verdict.reason} violated"
        )
    return ell, fb


def _nonzero(fb: FormB | None) -> FormB:
    """The terms, for commands that have nothing to do without them."""
    if fb is None:
        raise EmptyDissipatorError("all Gram columns vanish")
    return fb


def _need_initial(model: Model) -> DensityState:
    if model.initial is None:
        raise ParseError("model has no initial state")
    return model.initial


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(model: Model, args, tol: float) -> int:
    _, verdict, certificate, _ = _dissipator(model, tol)
    if not verdict.cp:
        print("verdict: NotCP")
        print(f"reason: condition {verdict.reason} violated")
        print(f"margin: {_fmt(verdict.margin)}")
        return 1
    print("verdict: CP")
    if certificate is None:
        print("index: 0")
        print("certificate: (none)")
    else:
        print(f"index: {len(certificate.terms)}")
        print("certificate:")
        for line in _fmt_terms(certificate):
            print(line)
    return 0


def cmd_convert(model: Model, args, tol: float) -> int:
    ell, fb = _gate_cp(model, tol)
    target = args.to
    if target == "E":
        fe = form_e_pack(ell)
        print("form: E")
        for name in ("a", "b", "c", "alpha", "beta", "gamma"):
            print(f"{name} = {_fmt(getattr(fe, name))}")
        return 0
    fb = _nonzero(fb)
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


def cmd_reduce(model: Model, args, tol: float) -> int:
    fb = _nonzero(_gate_cp(model, tol)[1])
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


# One row of the evolve CSV; rows are written in blocks of CSV_BLOCK_ROWS.
CSV_ROW = ",".join(["%.17g"] * 6) + "\n"
CSV_BLOCK_ROWS = 4096


def cmd_evolve(model: Model, args, tol: float) -> int:
    ell, fb = _gate_cp(model, tol)
    state = _need_initial(model)
    fb = _nonzero(fb)
    gen = build_generator(model.hamiltonian, ell)
    limit = asymptotic_state(classify(model.hamiltonian, fb), state).bloch

    steps = _step_count(args.t_max, args.dt)
    if args.method == "rk4":
        with np.errstate(over="ignore", invalid="ignore"):  # caught as inf growth
            step = rk4_step(args.dt * gen.matrix)
        finite = np.all(np.isfinite(step))
        growth = float(np.max(np.abs(np.linalg.eigvals(step)))) if finite else np.inf
        if not growth <= 1.0 + RK4_GROWTH_TOL:
            raise BadStepError(
                f"dt {args.dt!r} is outside the RK4 stability region (a step grows "
                f"states by {growth:.3g}); use a smaller --dt or --method expm"
            )
    else:
        step = matrix_exponential(args.dt * gen.matrix)
    states = propagate(step, state.bloch, steps)
    # Row-wise inner products by matmul keep the bits of the scalar
    # np.linalg.norm(r - limit); norm(axis=1) sums in another order.
    diff = (states - limit)[:, None, :]
    dist = np.sqrt(diff @ diff.transpose(0, 2, 1))[:, 0, 0]
    times = args.dt * np.arange(steps + 1)
    # Adding 0.0 turns -0.0 into 0.0, as _fmt does.
    table = np.column_stack([times, states, bloch_entropies(states), dist]) + 0.0
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,rx,ry,rz,entropy,dist_to_limit\n")
        for block in np.split(table, range(CSV_BLOCK_ROWS, len(table), CSV_BLOCK_ROWS)):
            fh.write((CSV_ROW * len(block)) % tuple(block.ravel().tolist()))
    return 0


def cmd_asymptote(model: Model, args, tol: float) -> int:
    ell, fb = _gate_cp(model, tol)
    state = _need_initial(model)
    verdict = classify(model.hamiltonian, _nonzero(fb))
    limit = asymptotic_state(verdict, state)
    gap = spectral_gap(build_generator(model.hamiltonian, ell))
    print(f"kind: {verdict.kind}")
    print(f"index: {verdict.index}")
    print(f"commuting: {'yes' if verdict.commuting else 'no'}")
    if verdict.kind == DECOHERED:
        print(f"axis: {_fmt_vector(verdict.axis)}")
    print(f"limit: {_fmt_vector(limit.bloch)}")
    print(f"gap: {_fmt(gap)}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindblad2",
        description="Check, convert, reduce, evolve, and classify qubit dissipators.",
    )
    parser.add_argument("--model", required=True, help="path to a JSON model file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide complete positivity")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="print another representation")
    p.add_argument("--to", required=True, choices=["A", "B", "E", "GKS"])
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("reduce", help="minimal number of terms")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("evolve", help="integrate and write a CSV trajectory")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--method", choices=["rk4", "expm"], default="expm")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("asymptote", help="classify the long-time limit")
    p.set_defaults(func=cmd_asymptote)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (None, 0) else int(exc.code)

    tol = PSD_TOL
    env = os.environ.get("LINDBLAD2_TOL")
    if env is not None:
        try:
            tol = float(env)
        except ValueError:
            print(f"error: LINDBLAD2_TOL is not a number: {env!r}", file=sys.stderr)
            return 2
        if not np.isfinite(tol) or tol <= 0.0:
            print(f"error: LINDBLAD2_TOL must be positive, got {env!r}", file=sys.stderr)
            return 2

    try:
        model = load_model(args.model)
        return args.func(model, args, tol)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotCPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BadStepError, EmptyDissipatorError, LindbladError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
