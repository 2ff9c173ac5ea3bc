"""Check of the checks: each check accepts a correct output and rejects a
deliberately corrupted one.

    python3 perfbench/selftest.py

Runs lindblad2 in-process on a few seeded models, confirms that checks.py
finds no problem in its outputs, then corrupts one output at a time (a
flipped verdict, a wrong index, a perturbed CSV row, ...) and confirms that
the matching check reports it. It also feeds the checks the correct outputs
for the zero dissipator, which the program does not produce yet, so the
checks are ready for that fix. Exits 1 if any case misbehaves.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import models  # noqa: E402
import workloads  # noqa: E402
from lindblad2 import cli, cpcheck  # noqa: E402


def _run_cli(argv) -> str:
    """stdout of an in-process lindblad2 command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, (argv, rc)
    return buf.getvalue()


def _csv_text(model, dt, steps, method) -> str:
    """A correct evolve CSV computed from the references alone."""
    lines = ["t,rx,ry,rz,entropy,dist_to_limit"]
    for k in range(steps + 1):
        r = checks.propagate(model.h, model.ell, model.r0, k * dt)
        dist = np.linalg.norm(r - model.limit) if model.rank else np.linalg.norm(r)
        lines.append(",".join(format(x, ".17g") for x in (k * dt, *r, checks.entropy(r)[0], dist)))
    return "\n".join(lines) + "\n"


def _perturb_line(text: str, line: int, column: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[line].split(",")
    cells[column] = format(float(cells[column]) + delta, ".17g")
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def main() -> int:
    rng = np.random.default_rng(7)
    lb = workloads._lindblad2()
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    cases = []  # (name, problems, expect_problems)

    def expect(name, problems, bad=True):
        cases.append((name, problems, bad))

    try:
        # sweep: one model of each branch, then corrupted copies.
        for kind in [("A", 1, 2, True), ("B", 3, 6, False), ("matrix", 2, 2, False)]:
            model = models.cp_model(rng, *kind)
            out = workloads.analyze(model, lb)
            tag = "/".join(map(str, kind))
            expect(f"sweep {tag} correct", checks.sweep_problems(model, out), bad=False)
            verdict, cert = out["cp"]
            flipped = {**out, "cp": (dataclasses.replace(verdict, cp=False), cert)}
            expect(f"sweep {tag} flipped verdict", checks.sweep_problems(model, flipped))
            fb_min, index = out["reduced"]
            expect(f"sweep {tag} wrong index", checks.sweep_problems(model, {**out, "reduced": (fb_min, index + 1)}))
            expect(f"sweep {tag} wrong gap", checks.sweep_problems(model, {**out, "gap": out["gap"] * (1 + 1e-6)}))
            expect(f"sweep {tag} wrong GKS", checks.sweep_problems(model, {**out, "gks": out["gks"] + 1e-6}))
            negative = out["choi"].copy()
            negative[1] = -1e-6
            expect(f"sweep {tag} negative Choi", checks.sweep_problems(model, {**out, "choi": negative}))
            cls = out["classified"]
            other = "maximally-mixed" if cls.kind == "decohered" else "decohered"
            wrong_kind = copy.copy(cls)
            object.__setattr__(wrong_kind, "kind", other)
            expect(f"sweep {tag} wrong kind", checks.sweep_problems(model, {**out, "classified": wrong_kind}))
        notcp = models.notcp_model(rng)
        out = workloads.analyze(notcp, lb)
        expect("sweep NotCP correct", checks.sweep_problems(notcp, out), bad=False)
        expect("sweep NotCP flipped verdict", checks.sweep_problems(notcp, {**out, "cp": (cpcheck.Verdict(cp=True), None)}))
        expect("sweep NotCP positive Choi", checks.sweep_problems(notcp, {**out, "choi": np.abs(out["choi"])}))

        # trajectory: a small bundle, then a perturbed state and drift.
        bundle = workloads.trajectory_prepare(rng, 1, work)[0]
        bundle.density_steps, bundle.bloch_steps, bundle.csv_steps = 50, 200, 100
        out = workloads.integrate(bundle, lb, dict.fromkeys(workloads.STAGES, 0.0))
        expect("trajectory correct", checks.trajectory_bundle_problems(bundle, out), bad=False)
        traj = out["density"]["B"]
        states = traj.states.copy()
        states[-1] += 1e-4
        bad = dataclasses.replace(traj, states=states)
        expect("trajectory perturbed final state", checks.trajectory_bundle_problems(bundle, {**out, "density": {"B": bad}}))
        drifted = dataclasses.replace(traj, max_trace_dev=1e-6)
        expect("trajectory trace drift", checks.trajectory_bundle_problems(bundle, {**out, "density": {"B": drifted}}))
        expm = list(out["expm"])
        expm[3] = expm[3] * (1 + 1e-6)
        expect("trajectory wrong expm sample", checks.trajectory_bundle_problems(bundle, {**out, "expm": expm}))

        # CSV: the program's file, then perturbed rows.
        model, path = bundle.model, Path(bundle.csv["expm"])
        cli.main(workloads._evolve_argv(bundle.model_path, bundle.csv_steps * bundle.csv_dt, bundle.csv_dt, "expm", str(path)))
        text = path.read_text()

        def csv_case(name, body, bad=True):
            path.write_text(body)
            expect(name, checks.csv_problems(model, path, bundle.csv_dt, bundle.csv_steps, "expm"), bad)

        csv_case("csv correct", text, bad=False)
        csv_case("csv perturbed rx in a middle row", _perturb_line(text, 40, 1, 1e-6))
        csv_case("csv perturbed entropy", _perturb_line(text, 40, 4, 1e-6))
        csv_case("csv perturbed dist_to_limit", _perturb_line(text, 40, 5, 1e-6))
        csv_case("csv perturbed time", _perturb_line(text, 40, 0, 1e-6))
        csv_case("csv perturbed last row", _perturb_line(text, -1, 3, 1e-6))
        csv_case("csv missing row", "\n".join(text.splitlines()[:-1]) + "\n")

        # cli text output: the program's output for a CP model, then edits.
        model = models.cp_model(rng, "B", 2, 3)
        mpath = work / "cp.json"
        mpath.write_text(models.model_json(model))
        for command in workloads.CP_COMMANDS[:-1]:
            call = workloads._invocation(model, mpath, command, "selftest", work, None)
            stdout = _run_cli(call.argv)
            expect(f"cli {command} correct", checks.cli_problems(call, 0, stdout), bad=False)
            expect(f"cli {command} exit 1", checks.cli_problems(call, 1, stdout))
            edited = stdout.replace("index: 2", "index: 3").replace("verdict: CP", "verdict: NotCP")
            # Shift the first number after the label on the last line by 1e-3.
            lines = edited.splitlines()
            head, sep, value = re.split(r"([=:])", lines[-1], maxsplit=1)
            value = re.sub(checks._NUM, lambda m: format(float(m.group()) + 1e-3, ".17g"), value, count=1)
            lines[-1] = head + sep + value
            expect(f"cli {command} corrupted", checks.cli_problems(call, 0, "\n".join(lines)))
        notcp = models.notcp_model(rng)
        call = workloads.Invocation(model=notcp, command="check", argv=[], label="notcp")
        expect("cli NotCP correct", checks.cli_problems(call, 1, "verdict: NotCP\n"), bad=False)
        expect("cli NotCP judged CP", checks.cli_problems(call, 0, "verdict: CP\nindex: 3\n"))

        # The zero dissipator: the outputs a correct program would print.
        zero = models.zero_model(*workloads.ZERO_FIELDS[1])
        gap0 = "gap: 0\n"
        zero_ok = {
            "check": "verdict: CP\nindex: 0\ncertificate: (none)\n",
            "reduce": "index: 0\nterms:\n",
            "convert A": "form: A\noperators:\n",
            "convert B": "form: B\nterms:\n",
            "convert GKS": "form: GKS\nc = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]\n",
            "convert E": "form: E\n" + "".join(f"{k} = 0\n" for k in ("a", "b", "c", "alpha", "beta", "gamma")),
            "asymptote": "kind: unitary\nindex: 0\ncommuting: yes\n" + gap0,
        }
        for command, stdout in zero_ok.items():
            call = workloads.Invocation(model=zero, command=command, argv=[], label=f"zero {command}")
            expect(f"zero {command} correct", checks.cli_problems(call, 0, stdout), bad=False)
        call = workloads.Invocation(model=zero, command="reduce", argv=[], label="zero reduce")
        expect("zero reduce wrong index", checks.cli_problems(call, 0, "index: 1\nterms:\n"))
        call = workloads.Invocation(model=zero, command="asymptote", argv=[], label="zero asymptote")
        expect("zero asymptote wrong gap", checks.cli_problems(call, 0, "kind: unitary\ngap: 0.5\n"))
        call = workloads._invocation(zero, mpath, "evolve", "zero-evolve", work, "expm")
        text = _csv_text(zero, call.dt, call.steps, "expm")
        Path(call.csv).write_text(text)
        expect("zero evolve correct", checks.cli_problems(call, 0, ""), bad=False)
        Path(call.csv).write_text(_perturb_line(text, 100, 2, 1e-6))
        expect("zero evolve perturbed row", checks.cli_problems(call, 0, ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = 0
    for name, problems, bad in cases:
        ok = bool(problems) == bad
        failures += not ok
        state = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {state}" + (f" ({problems[0]})" if problems else ""))
    print(f"{len(cases) - failures}/{len(cases)} cases behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
