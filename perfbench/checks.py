"""Checks of lindblad2's outputs against references computed apart from it.

The references are the truth of each input by construction (see models.py),
the paper's identities, ``numpy.linalg.eigvals`` for the spectral gap,
``scipy.linalg.expm`` for propagated states, and properties every correct
trajectory has. No reference is taken from the program or from its golden
files. Each check returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import re

import numpy as np
import scipy.linalg

from models import CHOI_TIMES, PAULI

# Tolerances of the references, not of the program.
EXACT = 1e-9  # exact algebra on O(1) matrices, printed or computed
CHOI_TOL = 1e-8  # lindblad2.tolerances.CHOI_TOL, the documented witness floor
BALL = 1e-9  # |r| <= 1 + BALL
ENTROPY_STEP = 1e-9  # entropy may not drop by more than this per step
DRIFT = 1e-10  # trace and hermiticity drift of the density integrator


def close(a, b, tol: float = EXACT) -> bool:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * max(1.0, np.max(np.abs(b), initial=0.0))))


def ell_from_terms(terms) -> np.ndarray:
    """L = (1/2) sum lambda (I - n n^T) from (rate, axis) pairs."""
    out = np.zeros((3, 3))
    for lam, n in terms:
        n = np.asarray(n, dtype=float)
        out += 0.5 * lam * (np.eye(3) - np.outer(n, n))
    return out


def ell_from_operators(ops) -> np.ndarray:
    """L = (1/2) sum (|v|^2 I - v v^T) with v_k = tr(A sigma_k)."""
    out = np.zeros((3, 3))
    for op in ops:
        v = np.einsum("ij,kji->k", np.asarray(op, dtype=complex), PAULI)
        if np.max(np.abs(v.imag)) > EXACT:
            raise ValueError("operator is not hermitian")
        v = v.real
        out += 0.5 * ((v @ v) * np.eye(3) - np.outer(v, v))
    return out


def ell_from_form_e(a, b, c, alpha, beta, gamma) -> np.ndarray:
    return 2.0 * np.array([[a, b, c], [b, alpha, beta], [c, beta, gamma]])


def generator(h, ell) -> np.ndarray:
    """G = Omega(h) - L with Omega x = h cross x."""
    hx, hy, hz = h
    return np.array([[0.0, -hz, hy], [hz, 0.0, -hx], [-hy, hx, 0.0]]) - ell


def gap_reference(h, ell) -> float:
    """Minus the largest strictly negative real part of eig(G)."""
    g = generator(h, ell)
    re_parts = np.linalg.eigvals(g).real
    decaying = re_parts[re_parts < -1e-9 * max(1.0, np.linalg.norm(g))]
    return float(-decaying.max()) if decaying.size else 0.0


def propagate(h, ell, r0, t) -> np.ndarray:
    return scipy.linalg.expm(t * generator(h, ell)) @ np.asarray(r0, dtype=float)


def entropy(r) -> np.ndarray:
    """Von Neumann entropy of Bloch vectors (rows), nats."""
    norm = np.minimum(np.sqrt(np.sum(np.atleast_2d(r) ** 2, axis=1)), 1.0)
    out = np.zeros_like(norm)
    for p in (0.5 * (1.0 + norm), 0.5 * (1.0 - norm)):
        safe = np.where(p > 0.0, p, 1.0)
        out -= np.where(p > 0.0, p * np.log(safe), 0.0)
    return out


def rk4_tolerance(h, ell, dt: float, steps: int) -> float:
    """Bound on the global error of fixed-step RK4 for dr/dt = G r.

    Each step applies the degree-4 Taylor polynomial of exp(dt G), off by at
    most (dt |G|)^5 / 120 * e^{dt |G|}; G is dissipative, so errors do not grow.
    """
    x = dt * np.linalg.norm(generator(h, ell), 2)
    return 2.0 * steps * x**5 / 120.0 * np.exp(x) + 1e-10


def _terms_problems(what, terms, model, max_terms=None):
    problems = []
    terms = list(terms)
    if max_terms is not None and len(terms) > max_terms:
        problems.append(f"{what}: {len(terms)} terms > {max_terms}")
    for lam, n in terms:
        if not lam > 0.0 or abs(np.linalg.norm(n) - 1.0) > EXACT:
            problems.append(f"{what}: bad term ({lam}, {n})")
    if not close(ell_from_terms(terms), model.ell):
        problems.append(f"{what}: terms do not rebuild L")
    return problems


def trajectory_problems(what, states, entropies) -> list:
    """|r| <= 1 and entropy non-decreasing along stored states."""
    problems = []
    if np.max(np.linalg.norm(states, axis=1)) > 1.0 + BALL:
        problems.append(f"{what}: left the Bloch ball")
    s = np.asarray(entropies)
    if s.size > 1 and np.max(s[:-1] - s[1:]) > ENTROPY_STEP:
        problems.append(f"{what}: entropy decreased")
    return problems


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_problems(model, out) -> list:
    """Check one model's library analysis (see workloads.analyze)."""
    verdict, certificate = out["cp"]
    choi = np.asarray(out["choi"])
    if not model.cp:
        problems = []
        if verdict.cp:
            problems.append("NotCP input judged CP")
        if certificate is not None:
            problems.append("NotCP input has a certificate")
        if choi.shape != (len(CHOI_TIMES),) or not choi.min() < -CHOI_TOL:
            problems.append("no negative Choi eigenvalue for a NotCP input")
        return problems

    problems = []
    if not verdict.cp:
        return ["CP input judged NotCP"]
    if not close(out["ell"], model.ell):
        problems.append("dissipation matrix differs from L")
    problems += _terms_problems("certificate", certificate.terms, model, 3)
    problems += _terms_problems("form B", out["form_b"].terms, model)
    if not close(ell_from_operators(out["form_a"].operators), model.ell):
        problems.append("form A does not rebuild L")
    fe = out["form_e"]
    if not close(ell_from_form_e(fe.a, fe.b, fe.c, fe.alpha, fe.beta, fe.gamma), model.ell):
        problems.append("form E does not unpack to L")
    if not close(out["gks"], 0.5 * model.gram):
        problems.append("GKS matrix differs from M/2")
    fb_min, index = out["reduced"]
    if index != model.rank or len(fb_min.terms) != model.rank:
        problems.append(f"index {index} != rank {model.rank}")
    problems += _terms_problems("minimal terms", fb_min.terms, model, 3)
    cls = out["classified"]
    kind = "decohered" if model.decohered else "maximally-mixed"
    if cls.kind != kind or cls.index != model.rank or cls.commuting != model.decohered:
        problems.append(f"classified {cls.kind}/{cls.index}, expected {kind}/{model.rank}")
    if not close(out["limit"].bloch, model.limit):
        problems.append("asymptotic state differs from the limit")
    gap = gap_reference(model.h, model.ell)
    if abs(out["gap"] - gap) > 1e-8 * max(1.0, gap):
        problems.append(f"gap {out['gap']!r} != eigvals {gap!r}")
    if choi.shape != (len(CHOI_TIMES),) or choi.min() < -CHOI_TOL:
        problems.append("negative Choi eigenvalue for a CP input")
    return problems


# ---------------------------------------------------------------------------
# trajectory and CSV
# ---------------------------------------------------------------------------


def density_problems(what, model, traj, dt, steps) -> list:
    problems = []
    if len(traj.times) != steps + 1:
        problems.append(f"{what}: {len(traj.times)} samples for {steps} steps")
        return problems
    ref = propagate(model.h, model.ell, model.r0, dt * steps)
    if np.linalg.norm(traj.states[-1] - ref) > rk4_tolerance(model.h, model.ell, dt, steps):
        problems.append(f"{what}: final state off the exact propagator")
    if traj.max_trace_dev is not None and traj.max_trace_dev > DRIFT:
        problems.append(f"{what}: trace drift {traj.max_trace_dev!r}")
    if traj.max_herm_dev is not None and traj.max_herm_dev > DRIFT:
        problems.append(f"{what}: hermiticity drift {traj.max_herm_dev!r}")
    return problems + trajectory_problems(what, traj.states, traj.entropies)


def expm_problems(model, times, states) -> list:
    for t, r in zip(times, states):
        if not close(r, propagate(model.h, model.ell, model.r0, t)):
            return [f"evolve_expm at t={t!r} off the exact propagator"]
    return []


def csv_problems(model, path, dt, steps, method) -> list:
    """Check an ``evolve`` CSV: header, row count, times, last row, and the
    entropy and dist_to_limit columns recomputed from each row's r."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "t,rx,ry,rz,entropy,dist_to_limit":
        return [f"{path}: bad header {header!r}"]
    if rows.shape != (steps + 1, 6):
        return [f"{path}: {rows.shape[0]} rows for {steps} steps"]
    problems = []
    if not close(rows[:, 0], dt * np.arange(steps + 1)):
        problems.append(f"{path}: time column is not k*dt")
    r = rows[:, 1:4]
    if not close(r[0], model.r0):
        problems.append(f"{path}: first row is not r0")
    ref = propagate(model.h, model.ell, model.r0, dt * steps)
    tol = rk4_tolerance(model.h, model.ell, dt, steps) if method == "rk4" else EXACT
    if np.linalg.norm(r[-1] - ref) > tol:
        problems.append(f"{path}: last row off the exact propagator")
    if np.max(np.abs(rows[:, 4] - entropy(r))) > EXACT:
        problems.append(f"{path}: entropy column differs from S(|r|)")
    limit = model.limit if model.rank else None
    if limit is not None and np.max(np.abs(rows[:, 5] - np.linalg.norm(r - limit, axis=1))) > EXACT:
        problems.append(f"{path}: dist_to_limit column differs from |r - limit|")
    if model.rank == 0 and np.max(np.abs(np.linalg.norm(r, axis=1) - np.linalg.norm(model.r0))) > EXACT:
        problems.append(f"{path}: |r| not constant under pure precession")
    return problems + trajectory_problems(str(path), r, rows[:, 4])


def trajectory_bundle_problems(bundle, out) -> list:
    model = bundle.model
    problems = []
    for form, traj in out["density"].items():
        problems += density_problems(f"evolve_density {form}", model, traj, bundle.density_dt, bundle.density_steps)
    problems += density_problems("evolve_rk4", model, out["rk4"], bundle.bloch_dt, bundle.bloch_steps)
    problems += expm_problems(model, bundle.sample_times, out["expm"])
    for method, rc in out["csv_rc"].items():
        if rc != 0:
            problems.append(f"cli evolve --method {method} exited {rc}")
        else:
            problems += csv_problems(model, bundle.csv[method], bundle.csv_dt, bundle.csv_steps, method)
    return problems


# ---------------------------------------------------------------------------
# cli text output
# ---------------------------------------------------------------------------

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TERM = re.compile(rf"^  lambda=({_NUM}) n=\(({_NUM}), ({_NUM}), ({_NUM})\)$")
_COMPLEX = re.compile(rf"^({_NUM})(?:([+-])({_NUM})i)?$")


class ParseProblem(Exception):
    pass


def parse_complex(text: str) -> complex:
    m = _COMPLEX.match(text.strip())
    if m is None:
        raise ParseProblem(f"not a number: {text!r}")
    re_part = float(m.group(1))
    if m.group(2) is None:
        return complex(re_part, 0.0)
    im = float(m.group(3))
    return complex(re_part, im if m.group(2) == "+" else -im)


def parse_matrix(text: str) -> np.ndarray:
    """Parse ``[[z, z], [z, z]]`` as printed by the CLI."""
    body = text.strip()
    if not (body.startswith("[[") and body.endswith("]]")):
        raise ParseProblem(f"not a matrix: {text!r}")
    rows = body[2:-2].split("], [")
    return np.array([[parse_complex(z) for z in row.split(", ")] for row in rows])


def parse_vector(text: str) -> np.ndarray:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseProblem(f"not a vector: {text!r}")
    return np.array([float(x) for x in body[1:-1].split(", ")])


def parse_terms(lines) -> list:
    terms = []
    for line in lines:
        m = _TERM.match(line)
        if m is None:
            raise ParseProblem(f"not a term: {line!r}")
        terms.append((float(m.group(1)), np.array([float(m.group(k)) for k in (2, 3, 4)])))
    return terms


def _fields(lines) -> dict:
    out = {}
    for line in lines:
        if ": " in line and not line.startswith(" "):
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def _expect_ok(command, model, lines) -> list:
    """Problems in the stdout of a successful command on a CP model."""
    head = lines[0] if lines else ""
    rank = model.rank
    if command == "check":
        f = _fields(lines)
        if f.get("verdict") != "CP" or f.get("index") != str(rank):
            return [f"check: verdict {f.get('verdict')} index {f.get('index')}, expected CP {rank}"]
        if rank == 0:
            return [] if f.get("certificate") == "(none)" else ["check: certificate for L = 0"]
        return _terms_problems("check certificate", parse_terms(lines[3:]), model, 3)
    if command == "convert E":
        f = {k.strip(): float(v) for k, v in (line.split("=") for line in lines[1:])}
        ok = head == "form: E" and close(ell_from_form_e(f["a"], f["b"], f["c"], f["alpha"], f["beta"], f["gamma"]), model.ell)
        return [] if ok else ["convert E: does not unpack to L"]
    if command == "convert B":
        if head != "form: B" or lines[1] != "terms:":
            return ["convert B: bad layout"]
        return _terms_problems("convert B", parse_terms(lines[2:]), model)
    if command == "convert A":
        if head != "form: A" or lines[1] != "operators:":
            return ["convert A: bad layout"]
        ops = [parse_matrix(line.split(" = ", 1)[1]) for line in lines[2:]]
        return [] if close(ell_from_operators(ops), model.ell) else ["convert A: operators do not rebuild L"]
    if command == "convert GKS":
        ok = head == "form: GKS" and close(parse_matrix(lines[1].split(" = ", 1)[1]), 0.5 * model.gram)
        return [] if ok else ["convert GKS: differs from M/2"]
    if command == "reduce":
        if head != f"index: {rank}" or lines[1] != "terms:":
            return [f"reduce: {head!r}, expected index {rank}"]
        return _terms_problems("reduce", parse_terms(lines[2:]), model, 3)
    if command == "asymptote":
        # Pure precession has no limit to compare; its gap must read 0.
        f = _fields(lines)
        problems = []
        if rank:
            expected = (
                "decohered" if model.decohered else "maximally-mixed",
                str(rank),
                "yes" if model.decohered else "no",
            )
            got = (f.get("kind"), f.get("index"), f.get("commuting"))
            if got != expected:
                problems.append(f"asymptote: {got}, expected {expected}")
            if not close(parse_vector(f.get("limit", "()")), model.limit):
                problems.append("asymptote: limit differs")
        gap = gap_reference(model.h, model.ell)
        if abs(float(f.get("gap", "nan")) - gap) > 1e-8 * max(1.0, gap):
            problems.append(f"asymptote: gap {f.get('gap')} != eigvals {gap!r}")
        return problems
    raise ValueError(f"unknown command {command!r}")


def cli_problems(call, rc, stdout) -> list:
    """Check one CLI invocation; ``call`` is a workloads.Invocation."""
    model = call.model
    lines = stdout.splitlines()
    try:
        if not model.cp:
            if rc != 1:
                return [f"{call.label}: exit {rc} on a NotCP model, expected 1"]
            if call.command == "check" and (_fields(lines).get("verdict") != "NotCP"):
                return [f"{call.label}: verdict is not NotCP"]
            return []
        if rc != 0:
            return [f"{call.label}: exit {rc}, expected 0"]
        if call.command == "evolve":
            return csv_problems(model, call.csv, call.dt, call.steps, call.method)
        return _expect_ok(call.command, model, lines)
    except (ParseProblem, ValueError, KeyError, IndexError) as exc:
        return [f"{call.label}: unreadable output ({exc})"]
