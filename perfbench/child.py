"""Run one lindblad2 command line with every public function traced.

    python3 perfbench/child.py SPANS_FILE <lindblad2 arguments...>

Used by the traced run of the ``cli`` workload in place of
``python -m lindblad2``. It runs ``lindblad2.cli.main`` under the tracer,
writes the spans to SPANS_FILE (.npz) and exits with the command's exit code.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lindblad2.cli  # noqa: E402
import spans  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer().install()
    try:
        return lindblad2.cli.main(argv)
    finally:
        tracer.uninstall()
        np.savez(spans_file, **tracer.arrays())


if __name__ == "__main__":
    sys.exit(main())
