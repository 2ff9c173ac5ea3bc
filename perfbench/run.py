"""Fixed-work benchmark of lindblad2.

    python3 perfbench/run.py --workload {sweep,trajectory,cli} [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout. The workload's inputs are made from the
seed; the amount of work is a fixed function of --seconds. Every output is
checked against references computed apart from lindblad2 (checks.py), and
timing covers only the calls into lindblad2. The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics, or with --trace 1 the per-layer metrics of a traced run).
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes per run: half before the workload, half after it.
SETUP_PROBES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "trajectory", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child mode: make the inputs once, report import times, exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@contextmanager
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    base = HERE / "_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def prepare(args, work):
    import numpy as np

    import workloads

    rng = np.random.default_rng(args.seed)
    return workloads.WORKLOADS[args.workload][0](rng, args.seconds, work)


def setup_probe(args) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import lindblad2.cli  # noqa: F401

    t2 = time.perf_counter()
    with work_dir() as work:
        prepare(args, work)
        import workloads

        workloads.warm_up(work)
        print(json.dumps({"numpy_ms": 1e3 * (t1 - t0), "lindblad2_ms": 1e3 * (t2 - t1)}), flush=True)
    return 0


def measure_setup(args, probes: int) -> list:
    """Time ``probes`` fresh processes from spawn to inputs ready.

    Each probe imports numpy and lindblad2.cli, makes this run's inputs and
    warms up, exactly as this process does before its first timed operation.
    Returns (wall s, numpy import ms, lindblad2 import ms) per probe.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    results = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line:
                raise RuntimeError("set-up probe failed")
        report = json.loads(line)
        results.append((wall, report["numpy_ms"], report["lindblad2_ms"]))
    return results


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lindblad2" / "__init__.py").is_file():
        print(f"error: no lindblad2 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    probes = measure_setup(args, SETUP_PROBES // 2)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import lindblad2.cli  # noqa: F401

    own_import_s = time.perf_counter() - t0
    import spans
    import workloads

    tracer = None
    with work_dir() as work:
        inputs = prepare(args, work)
        if args.trace:
            tracer = spans.Tracer().install()
        try:
            warm_rows = workloads.warm_up(work)
            outcome = workloads.WORKLOADS[args.workload][1](inputs, work, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()

    probes += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
    # One fresh process varies by a third from the next, and the machine's
    # speed drifts over minutes: the median of probes taken on both sides of
    # the workload is steadier than any one of them.
    setup_s = statistics.median(p[0] for p in probes)
    numpy_ms = statistics.median(p[1] for p in probes)
    lindblad2_ms = statistics.median(p[2] for p in probes)
    ops = outcome.op_s
    stage_p90 = {name: 1e3 * percentile(s, 90) for name, s in outcome.stage_s.items()}
    # The geometric mean weighs every stage alike: halving any one stage's
    # p90 lowers it by the same factor, 2 ** (-1 / number of stages).
    gmean = math.exp(statistics.fmean(math.log(v) for v in stage_p90.values()))
    timed = {"op_ms_p90": (1e3 * percentile(ops, 90), "ms"), "stage_ms_p90_gmean": (gmean, "ms")}
    for name, value in stage_p90.items():
        outcome.info[f"stage.{name}.ms_p90"] = (value, "ms")
    # Printed but not gated: the rate and the median move with the machine's
    # fast and slow phases far more than the 90th percentile does (see
    # README.md, "Spread and bounds").
    outcome.info["ops_per_s"] = (len(ops) / sum(ops), "1/s")
    outcome.info["op_ms_p50"] = (1e3 * percentile(ops, 50), "ms")
    for name, (value, unit) in {**timed, **outcome.info}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} operations {len(ops)} timed_s {sum(ops):.3f} setup_s {setup_s:.4f}")
    print(f"{args.workload} setup_probes_s " + " ".join(f"{p[0]:.4f}" for p in probes))
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    if args.trace:
        summary = spans.merge(spans.summarize(tracer.arrays()), outcome.summary)
        process = {
            "calls": outcome.process_calls,
            "self_s": outcome.process_self_s if args.workload == "cli" else own_import_s,
            "numpy_ms": numpy_ms,
            "lindblad2_ms": lindblad2_ms,
        }
        metrics = spans.layer_metrics(summary, outcome.rows + warm_rows, process)
        out_dir = HERE / "results"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"trace-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": summary, "timed": timed, "info": outcome.info}, fh, indent=1)
    else:
        metrics = {"setup_s": (setup_s, "s"), **timed}

    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": len(ops),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
