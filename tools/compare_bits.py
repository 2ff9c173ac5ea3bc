"""Compare the exact bits of the analysis outputs of two checkouts.

    python tools/compare_bits.py dump <checkout> <out.pkl>
    python tools/compare_bits.py compare <a.pkl> <b.pkl>

``dump`` imports lindblad2 and perfbench from <checkout> and records, as
bytes, everything the sweep workload's ``analyze`` returns for 3200 seeded
models (160 blocks, seed 424242), plus the margins and verdicts of each
public CP route, ``form_b_from_dissipation`` and ``gram_decompose`` of each
model's L. It then records a scale sweep: the CP gate, the certificate and
both public verdicts of every sixth L times 10^k, k = -300, -240, ..., 300.
Last it records the outputs of the trajectory workload's ``integrate`` for
13 seeded bundles (seed 424243): ``evolve_density`` with the dissipator as
Form A, Form B and matrix, ``evolve_rk4``, ``evolve_expm`` at the sample
times, and the bytes of the ``--method rk4`` and ``--method expm`` CSVs.
Each record is a kind ("model", "scale" or "trajectory") and a dict of
named output fields. A dataclass is recorded by its fields, except the
types in ``VIEWS``, which are recorded by the attributes named there.
``compare`` prints the record counts and how many records differ, then the
number of differing records per kind and per kind.field (for example
``model.choi 3200``), and exits 1 if any differs.
For each differing field it also prints the worst absolute change of a
number and the worst change relative to max(|value|, 1), over every
record: float arrays and floats are decoded, and CSV bytes are parsed as
numbers. A field whose arrays changed dtype prints both dtypes; its
values are still compared, a complex array whose imaginary parts are all
zero read as its real parts, and the worst change is inf only where the
values cannot be paired.
"""

import pickle
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

# Value types recorded by named attributes rather than by their dataclass
# fields, so that a derived attribute (a state's matrix, a verdict's
# commuting flag) is recorded whether the type stores it or derives it.
VIEWS = {
    "DensityState": ("matrix", "bloch"),
    "AsymptoticVerdict": ("kind", "index", "commuting", "axis"),
}


def dump(checkout: Path, out: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import numpy as np

    import workloads
    from lindblad2 import asymptotics, cli, core, cpcheck, dynamics, forms
    from lindblad2.errors import LindbladError

    warnings.simplefilter("error")

    def enc(x):
        if isinstance(x, np.ndarray):
            return ("arr", x.dtype.str, x.shape, x.tobytes())
        if isinstance(x, (float, np.floating)):
            return ("f", float(x).hex())
        if isinstance(x, (tuple, list)):
            return tuple(enc(v) for v in x)
        if isinstance(x, dict):
            return tuple((k, enc(v)) for k, v in sorted(x.items()))
        if isinstance(x, forms.FormB):
            return ("B", enc(list(x.terms)))
        if isinstance(x, forms.FormA):
            return ("A", enc(list(x.operators)))
        if hasattr(x, "__dataclass_fields__"):
            names = VIEWS.get(type(x).__name__, x.__dataclass_fields__)
            return (type(x).__name__, enc({k: getattr(x, k) for k in names}))
        return x

    def safe(f, *args):
        try:
            return enc(f(*args))
        except LindbladError as exc:
            return ("err", type(exc).__name__, str(exc))

    def routes(ell):
        return {
            "route.margins_m": safe(lambda e: forms.gram_condition_margins(forms.gram_from_dissipation(e)), ell),
            "route.margins_e": safe(lambda e: cpcheck.form_e_margins(forms.form_e_pack(e)), ell),
            "route.psd": safe(lambda e: cpcheck.check_gram_psd(forms.gram_from_dissipation(e)), ell),
            "route.form_e": safe(lambda e: cpcheck.check_form_e(forms.form_e_pack(e)), ell),
            "route.form_b": safe(forms.form_b_from_dissipation, ell),
            "route.decompose": safe(lambda e: forms.gram_decompose(forms.gram_from_dissipation(e)), ell),
        }

    def fields(out_):
        return {name: enc(value) for name, value in out_.items()}

    lb = (asymptotics, cli, core, cpcheck, dynamics, forms)
    records, ells = [], []
    for block in workloads.sweep_prepare(np.random.default_rng(424242), 10, None):
        for model in block:
            out_ = workloads.analyze(model, lb)
            ell = np.asarray(model.ell, dtype=float)
            records.append(("model", {**fields(out_), **routes(ell)}))
            ells.append(ell)
    for ell in ells[::6]:
        for k in range(-300, 301, 60):
            scaled = 10.0**k * ell
            records.append(("scale", {"gate": safe(cpcheck.is_completely_positive, scaled), **routes(scaled)}))
    with tempfile.TemporaryDirectory() as work:
        for bundle in workloads.trajectory_prepare(np.random.default_rng(424243), 3, Path(work)):
            out_ = workloads.integrate(bundle, lb, dict.fromkeys(workloads.STAGES, 0.0))
            csvs = {f"csv.{method}": Path(path).read_bytes() for method, path in bundle.csv.items()}
            records.append(("trajectory", {**fields(out_), **csvs}))
    with open(out, "wb") as fh:
        pickle.dump(records, fh)
    counts = {kind: sum(r[0] == kind for r in records) for kind in ("model", "scale", "trajectory")}
    print(", ".join(f"{n} {kind} records" for kind, n in counts.items()))


def numbers(x, real: bool = False) -> list:
    """The floats in an encoded field, in order: float arrays, floats and
    the cells of CSV bytes after the header; an error or a non-float array
    has none. A complex array gives its parts in pairs; with ``real``, one
    whose imaginary parts are all zero gives its real parts alone."""
    import numpy as np

    if isinstance(x, bytes):
        return [float(v) for line in x.decode().splitlines()[1:] for v in line.split(",")]
    if isinstance(x, tuple) and x[:1] == ("arr",) and np.dtype(x[1]).kind in "fc":
        values = np.frombuffer(x[3], dtype=x[1])
        if real and values.dtype.kind == "c" and not values.imag.any():
            return values.real.tolist()
        return values.view(float).tolist()
    if isinstance(x, tuple) and x[:1] == ("f",):
        return [float.fromhex(x[1])]
    if isinstance(x, tuple):
        return [v for item in x for v in numbers(item, real)]
    return []


def dtypes(x) -> list:
    """The dtype names of the arrays in an encoded field, in order."""
    import numpy as np

    if isinstance(x, tuple) and x[:1] == ("arr",):
        return [np.dtype(x[1]).name]
    if isinstance(x, tuple):
        return [name for item in x for name in dtypes(item)]
    return []


def compare(a: Path, b: Path) -> int:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        left, right = pickle.load(fa), pickle.load(fb)
    kinds, names = Counter(), Counter()
    worst = {}  # kind.field -> [absolute, relative]
    casts = {}  # kind.field -> {"old dtype -> new dtype"}
    for (kind, x), (_, y) in zip(left, right):
        if x != y:
            kinds[kind] += 1
            for name in x.keys() | y.keys():
                if x.get(name) == y.get(name):
                    continue
                key = f"{kind}.{name}"
                names[key] += 1
                size = worst.setdefault(key, [0.0, 0.0])
                pairs = {f"{p} -> {q}" for p, q in zip(dtypes(x.get(name)), dtypes(y.get(name))) if p != q}
                casts.setdefault(key, set()).update(pairs)
                old, new = numbers(x.get(name), bool(pairs)), numbers(y.get(name), bool(pairs))
                if len(old) != len(new):
                    size[:] = [float("inf")] * 2
                for p, q in zip(old, new):
                    change = abs(p - q) if p != q else 0.0
                    size[0] = max(size[0], change)
                    size[1] = max(size[1], change / max(abs(p), 1.0))
    differ = sum(kinds.values()) + abs(len(left) - len(right))
    print(f"{len(left)} and {len(right)} records, {differ} differ")
    for name, n in sorted((kinds + names).items()):
        sizes = f" worst {worst[name][0]:.3g} absolute, {worst[name][1]:.3g} relative" if name in worst else ""
        dtype = f" dtype {', '.join(sorted(casts[name]))};" if casts.get(name) else ""
        print(f"{name} {n}{dtype}{sizes}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 4:
        dump(Path(sys.argv[2]).resolve(), Path(sys.argv[3]))
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(Path(sys.argv[2]), Path(sys.argv[3])))
    else:
        sys.exit(__doc__)
