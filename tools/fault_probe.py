"""Count the minor page faults of trajectory bundles, in all and in the CSV writer.

    python tools/fault_probe.py [<checkout>] [--bundles N] [--seed S]

Imports lindblad2 and perfbench from <checkout> (by default the checkout
that holds this file) and runs the trajectory workload's ``integrate`` in
this process on N seeded bundles (default 5, seed 1), one after another as
the benchmark does. For each bundle it prints the minor page faults of the
whole bundle and those taken inside ``lindblad2._fmt17.write_columns``, the
evolve CSV writer, from ``getrusage``, then the median of each over the
bundles. The counts depend on the C library's allocator, so they compare
two checkouts on one machine, not machines.
"""

import argparse
import math
import resource
import statistics
import sys
import tempfile
from pathlib import Path


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--bundles", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import numpy as np

    import workloads
    from lindblad2 import _fmt17, asymptotics, cli, core, cpcheck, dynamics, forms

    write_columns = _fmt17.write_columns
    writer = [0]

    def counted(fh, *columns):
        before = minor_faults()
        try:
            return write_columns(fh, *columns)
        finally:
            writer[0] += minor_faults() - before

    # cmd_evolve imports write_columns from the module on every call.
    _fmt17.write_columns = counted
    lb = (asymptotics, cli, core, cpcheck, dynamics, forms)
    seconds = math.ceil(args.bundles / workloads.TRAJECTORY_BUNDLES_PER_SECOND)
    counts = []
    print("bundle faults writer_faults")
    with tempfile.TemporaryDirectory() as work:
        bundles = workloads.trajectory_prepare(np.random.default_rng(args.seed), seconds, Path(work))
        for k, bundle in enumerate(bundles[:args.bundles]):
            writer[0] = 0
            before = minor_faults()
            out = workloads.integrate(bundle, lb, dict.fromkeys(workloads.STAGES, 0.0))
            counts.append((minor_faults() - before, writer[0]))
            if any(out["csv_rc"].values()):
                sys.exit(f"bundle {k}: evolve exited {out['csv_rc']}")
            print(k, *counts[-1])
    print("median", *(statistics.median(c) for c in zip(*counts)))


if __name__ == "__main__":
    main()
