import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lindblad2.cli import main
from lindblad2.tolerances import UNIT_TOL

MODELS = Path(__file__).parent / "models"
GOLDEN = Path(__file__).parent / "golden"


def model(name: str) -> str:
    return str(MODELS / f"{name}.json")


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name: str, text: str):
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(text, encoding="utf-8")
    assert text == path.read_text(encoding="utf-8")


REPORT_CASES = [
    ("check_dephasing.txt", ["--model", model("dephasing"), "check"], 0),
    ("check_isotropic.txt", ["--model", model("isotropic"), "check"], 0),
    ("check_matrix_cp.txt", ["--model", model("matrix_cp"), "check"], 0),
    ("check_matrix_notcp.txt", ["--model", model("matrix_notcp"), "check"], 1),
    ("check_operators.txt", ["--model", model("operators"), "check"], 0),
    ("check_redundant.txt", ["--model", model("redundant"), "check"], 0),
    ("convert_dephasing_e.txt", ["--model", model("dephasing"), "convert", "--to", "E"], 0),
    ("convert_dephasing_a.txt", ["--model", model("dephasing"), "convert", "--to", "A"], 0),
    ("convert_matrix_cp_b.txt", ["--model", model("matrix_cp"), "convert", "--to", "B"], 0),
    ("convert_isotropic_e.txt", ["--model", model("isotropic"), "convert", "--to", "E"], 0),
    ("convert_operators_gks.txt", ["--model", model("operators"), "convert", "--to", "GKS"], 0),
    ("reduce_redundant.txt", ["--model", model("redundant"), "reduce"], 0),
    ("reduce_operators.txt", ["--model", model("operators"), "reduce"], 0),
    ("asymptote_dephasing.txt", ["--model", model("dephasing"), "asymptote"], 0),
    ("asymptote_isotropic.txt", ["--model", model("isotropic"), "asymptote"], 0),
    ("asymptote_matrix_cp.txt", ["--model", model("matrix_cp"), "asymptote"], 0),
    ("asymptote_redundant.txt", ["--model", model("redundant"), "asymptote"], 0),
    ("asymptote_huge_field.txt", ["--model", model("huge_field"), "asymptote"], 0),
    ("asymptote_rho_near_tolerance.txt", ["--model", model("rho_near_tolerance"), "asymptote"], 0),
    ("convert_sigma_y_a.txt", ["--model", model("sigma_y"), "convert", "--to", "A"], 0),
]


@pytest.mark.parametrize("golden_name,argv,expected_code", REPORT_CASES)
def test_report_golden(golden_name, argv, expected_code, capsys):
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert code1 == code2 == expected_code
    assert out1 == out2
    check_golden(golden_name, out1)


EVOLVE_CASES = [
    (
        "evolve_dephasing_expm.csv",
        ["--model", model("dephasing"), "evolve", "--t-max", "1", "--dt", "0.5", "--method", "expm"],
    ),
    (
        "evolve_matrix_cp_rk4.csv",
        ["--model", model("matrix_cp"), "evolve", "--t-max", "1", "--dt", "0.25", "--method", "rk4"],
    ),
    (
        "evolve_isotropic_expm.csv",
        ["--model", model("isotropic"), "evolve", "--t-max", "2", "--dt", "0.5", "--method", "expm"],
    ),
]


@pytest.mark.parametrize("golden_name,argv", EVOLVE_CASES)
def test_evolve_golden(golden_name, argv, capsys, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code1, stdout1, _ = run_cli(argv + ["--out", str(out_a)], capsys)
    code2, stdout2, _ = run_cli(argv + ["--out", str(out_b)], capsys)
    assert code1 == code2 == 0
    assert stdout1 == stdout2 == ""
    text_a = out_a.read_text(encoding="utf-8")
    assert text_a == out_b.read_text(encoding="utf-8")
    check_golden(golden_name, text_a)


def test_parser_is_built_once_and_options_do_not_carry_over(capsys, tmp_path):
    # One parser serves every main() call of a process; each call gets a
    # new Namespace, so the second run takes the default --method expm.
    from lindblad2.cli import build_parser

    assert build_parser() is build_parser()
    argv = ["--model", model("isotropic"), "evolve", "--t-max", "2", "--dt", "0.5"]
    rk4, default = tmp_path / "rk4.csv", tmp_path / "default.csv"
    assert run_cli(argv + ["--method", "rk4", "--out", str(rk4)], capsys) == (0, "", "")
    assert run_cli(argv + ["--out", str(default)], capsys) == (0, "", "")
    expm = (GOLDEN / "evolve_isotropic_expm.csv").read_bytes()
    assert default.read_bytes() == expm != rk4.read_bytes()


def test_evolve_csv_contract(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    argv = [
        "--model", model("dephasing"), "evolve",
        "--t-max", "1", "--dt", "0.5", "--method", "expm", "--out", str(out),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,rx,ry,rz,entropy,dist_to_limit"
    assert len(lines) == 4  # header + rows at t = 0, 0.5, 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert float(last[5]) == pytest.approx(np.exp(-0.5), abs=1e-12)


def test_evolve_refuses_notcp_model(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    argv = [
        "--model", model("matrix_notcp"), "evolve",
        "--t-max", "1", "--dt", "0.25", "--out", str(out),
    ]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "not completely positive" in err
    assert not out.exists()


def test_evolve_precession_entropy_constant(capsys, tmp_path):
    # Maximally mixed initial state under precession plus any CP dissipator
    # stays put: the entropy column is constant at ln 2.
    import json

    spec = {
        "hamiltonian": {"h": [0.0, 0.0, 3.0]},
        "dissipator": {
            "form": "B",
            "terms": [
                {"rate": 1.0, "axis": [1.0, 0.0, 0.0]},
                {"rate": 1.0, "axis": [0.0, 1.0, 0.0]},
                {"rate": 1.0, "axis": [0.0, 0.0, 1.0]},
            ],
        },
        "initial": {"bloch": [0.0, 0.0, 0.0]},
    }
    path = tmp_path / "precession.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(
        ["--model", str(path), "evolve", "--t-max", "2", "--dt", "0.1",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    entropies = [float(r.split(",")[4]) for r in rows]
    assert all(abs(s - np.log(2.0)) < 1e-10 for s in entropies)


def test_dist_to_limit_monotone_for_pure_decay(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    argv = [
        "--model", model("dephasing"), "evolve",
        "--t-max", "5", "--dt", "0.1", "--out", str(out),
    ]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    dists = [float(r.split(",")[5]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dists, dists[1:]))


def test_exit_codes_for_bad_models(capsys, tmp_path):
    code, _, err = run_cli(["--model", model("broken"), "check"], capsys)
    assert code == 2
    assert "error:" in err

    # An "initial" that is not a JSON object, and a file that is not UTF-8.
    import json

    paths = [model("initial_not_object"), model("not_utf8")]
    for k, initial in enumerate((5, None, "bloch")):
        spec = json.loads(MODELS.joinpath("dephasing.json").read_text(encoding="utf-8"))
        spec["initial"] = initial
        paths.append(str(tmp_path / f"initial_{k}.json"))
        Path(paths[-1]).write_text(json.dumps(spec), encoding="utf-8")
    # An "h" nested 500 deep, past the recursion limit of a recursive scan
    # for JSON bools, and a hamiltonian nested past json.load's own limit.
    spec = json.loads(MODELS.joinpath("dephasing.json").read_text(encoding="utf-8"))
    h = spec["hamiltonian"]["h"]
    for _ in range(500):
        h = [h]
    spec["hamiltonian"]["h"] = h
    paths.append(str(tmp_path / "h_nested_500.json"))
    Path(paths[-1]).write_text(json.dumps(spec), encoding="utf-8")
    paths.append(str(tmp_path / "hamiltonian_nested_100000.json"))
    Path(paths[-1]).write_text('{"hamiltonian": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    for path in paths:
        for command in (["check"], ["asymptote"], ["convert", "--to", "E"]):
            code, _, err = run_cli(["--model", path, *command], capsys)
            assert code == 2
            assert err.count("\n") == 1 and err.startswith("error:")

    code, _, err = run_cli(["--model", str(MODELS / "missing.json"), "check"], capsys)
    assert code == 2

    code, _, err = run_cli(["--model", model("no_initial"), "asymptote"], capsys)
    assert code == 2
    assert "initial" in err

    out = tmp_path / "x.csv"
    code, _, err = run_cli(
        ["--model", model("dephasing"), "evolve", "--t-max", "1", "--dt", "2",
         "--out", str(out)],
        capsys,
    )
    assert code == 2
    assert "dt" in err


@pytest.mark.parametrize("t_max", ["nan", "inf", "-1"])
def test_evolve_rejects_unusable_t_max(t_max, capsys, tmp_path):
    argv = [
        "--model", model("dephasing"), "evolve",
        "--t-max", t_max, "--dt", "0.1", "--out", str(tmp_path / "o.csv"),
    ]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "t_max" in err


def test_evolve_rejects_partial_last_step(capsys, tmp_path):
    # 1 / 0.3 is 3.33 steps; the run used to end silently at t = 0.9.
    out = tmp_path / "o.csv"
    argv = ["--model", model("dephasing"), "evolve", "--t-max", "1", "--dt", "0.3",
            "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "whole number" in err
    assert not out.exists()


HUGE_INT = 10**400  # a JSON integer literal too large for a float


@pytest.mark.parametrize(
    "hamiltonian,rate,changes",
    [
        pytest.param({"h": [0, 0, 1], "h0": True}, 1.0, {}, id="hamiltonian0-1.0"),
        pytest.param({"h": [0, 0, 1]}, True, {}, id="hamiltonian1-True"),
        pytest.param({"h": [0, 0, 1], "h0": HUGE_INT}, 1.0, {}, id="hamiltonian2-1.0"),
        pytest.param({"h": [HUGE_INT, 0, 1]}, 1.0, {}, id="hamiltonian3-1.0"),
        # Strings that spell numbers are not JSON numbers either.
        pytest.param({"h": ["1", "0", "0.5"]}, 1.0, {}, id="string-h"),
        pytest.param(
            {"h": [0, 0, 1]}, 1.0,
            {"dissipator": {"form": "B", "terms": [{"rate": 1.0, "axis": ["0", "0", "1"]}]}},
            id="string-axis",
        ),
        pytest.param(
            {"h": [0, 0, 1]}, 1.0,
            {"dissipator": {"form": "matrix", "matrix": [[" 1e0 ", 0, 0], [0, 1, 0], [0, 0, 0]]}},
            id="string-matrix",
        ),
        pytest.param({"h": [0, 0, 1]}, 1.0, {"initial": {"bloch": ["0.1", 0, 0]}}, id="string-bloch"),
        pytest.param(
            {"h": [0, 0, 1]}, 1.0, {"initial": {"rho": [[["0.5", 0], [0, 0]], [[0, 0], [0.5, 0]]]}},
            id="string-rho",
        ),
    ],
)
def test_non_numbers_in_model_exit_two(hamiltonian, rate, changes, capsys, tmp_path):
    import json

    spec = {
        "hamiltonian": hamiltonian,
        "dissipator": {"form": "B", "terms": [{"rate": rate, "axis": [0, 0, 1]}]},
        **changes,
    }
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["--model", str(path), "check"], capsys)
    assert code == 2
    assert err.count("\n") == 1 and "number" in err


# A grammar around the model-file schema: each field is mostly of the right
# shape and of numbers, now and then of any JSON. json.dumps writes NaN and
# the infinities as the NaN and Infinity literals, which json.load accepts.
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mostly(good, *others):
    """good eight times out of 8 + len(others), else one of the others."""
    return st.sampled_from([good] * 8 + list(others)).flatmap(lambda strategy: strategy)


_NUMBER = _mostly(
    st.floats(-0.5, 0.5), st.floats(), st.sampled_from([0, 1e-300, 1.5e308, HUGE_INT, True, None, "1"])
)


def _shaped(*shape):
    """Nested lists of numbers of this shape, or another length, or any JSON."""
    exact = _NUMBER
    for n in reversed(shape):
        exact = st.lists(exact, min_size=n, max_size=n)
    return _mostly(exact, st.lists(_NUMBER, max_size=4), _ANY_JSON)


def _fields(required, optional=None):
    return _mostly(st.fixed_dictionaries(required, optional=optional or {}), _ANY_JSON)


def _symmetric(v):
    return [[v[0], v[1], v[2]], [v[1], v[3], v[4]], [v[2], v[4], v[5]]]


_TERM = _fields({"rate": _NUMBER, "axis": _shaped(3)})
_SYMMETRIC = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(_symmetric)
_DISSIPATOR = st.one_of(
    _fields({"form": st.just("A"), "operators": st.lists(_shaped(2, 2, 2), max_size=3)}),
    _fields({"form": st.just("B"), "terms": st.lists(_TERM, max_size=3)}),
    _fields({"form": st.just("matrix"), "matrix": _shaped(3, 3)}),
    _fields({"form": st.just("matrix"), "matrix": _SYMMETRIC}),
    _fields({"form": _ANY_JSON}, {"terms": _ANY_JSON, "matrix": _ANY_JSON}),
)
_INITIAL = st.one_of(_fields({"bloch": _shaped(3)}), _fields({"rho": _shaped(2, 2, 2)}, {"bloch": _ANY_JSON}))
_MODEL = st.fixed_dictionaries(
    {"hamiltonian": _fields({"h": _shaped(3)}, {"h0": _NUMBER}), "dissipator": _DISSIPATOR},
    optional={"initial": _INITIAL},
)
_MODEL_FILE = _mostly(
    _MODEL.map(lambda spec: json.dumps(spec).encode()),
    _ANY_JSON.map(lambda spec: json.dumps(spec).encode()),
    st.binary(max_size=40),
)
_COMMANDS = (
    ["check"], ["reduce"], ["asymptote"], *(["convert", "--to", to] for to in ("A", "B", "E", "GKS")),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_MODEL_FILE, st.sampled_from(["rk4", "expm"]))
@example(MODELS.joinpath("huge_field.json").read_bytes(), "expm")
@example(MODELS.joinpath("not_utf8.json").read_bytes(), "rk4")
@example(b'{"hamiltonian": ' + b"[" * 100000 + b"]" * 100000 + b"}", "expm")
def test_model_files_exit_with_a_documented_code(text, method):
    # Every subcommand on any model file exits 0, 1 or 2 without letting an
    # exception out of main (a RuntimeWarning is one under this suite's
    # filterwarnings); exit 2 prints one stderr line, starting "error:", and
    # exit 0 prints nothing on stderr.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.json")
        path.write_bytes(text)
        out = str(Path(tmp, "o.csv"))
        evolve = ["evolve", "--t-max", "1", "--dt", "0.25", "--method", method, "--out", out]
        for command in (*_COMMANDS, evolve):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["--model", str(path), *command])
            err = err.getvalue()
            assert code in (0, 1, 2)
            if code == 2:
                assert err.count("\n") == 1 and err.startswith("error:")
            if code == 0:
                assert err == ""


def test_exit_code_for_notcp_conversions(capsys):
    for argv in (
        ["--model", model("matrix_notcp"), "convert", "--to", "B"],
        ["--model", model("matrix_notcp"), "reduce"],
        ["--model", model("matrix_notcp"), "asymptote"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "not completely positive" in err


def test_hidden_negative_eigenvalue_is_not_cp(capsys, tmp_path):
    # M = tr(L) I - 2L has eigenvalues (-1e-5, 1e-5, 1). Every principal
    # minor of the normalized M passes within PSD_TOL (the 2x2 ones are of
    # order -1e-10), but its smallest eigenvalue is 1e5 times below -PSD_TOL,
    # and the Choi witness at t = 1 is -3.0e-6.
    path = model("matrix_hidden_negative")
    reason = "condition lambda_min(M) >= 0 violated"
    code, out, _ = run_cli(["--model", path, "check"], capsys)
    assert code == 1
    verdict, why, margin = out.splitlines()
    assert (verdict, why) == ("verdict: NotCP", f"reason: {reason}")
    assert float(margin.removeprefix("margin: ")) == pytest.approx(-1e-5, rel=1e-6)
    csv = tmp_path / "traj.csv"
    for argv in (
        ["convert", "--to", "B"],
        ["reduce"],
        ["asymptote"],
        ["evolve", "--t-max", "1", "--dt", "0.5", "--out", str(csv)],
    ):
        code, out, err = run_cli(["--model", path, *argv], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: dissipator is not completely positive: {reason}\n"
    assert not csv.exists()


@pytest.mark.parametrize(
    "name,dt,expected_code", [("matrix_notcp", "0.25", 1), ("dephasing", "0.3", 2)]
)
def test_refused_evolve_leaves_the_writer_unimported(name, dt, expected_code, tmp_path):
    # A NotCP model, and a t_max that is not a whole number of dt steps, are
    # refused before the CSV writer is imported.
    argv = ["--model", model(name), "evolve", "--t-max", "1", "--dt", dt, "--out", str(tmp_path / "o.csv")]
    script = (
        "import sys\n"
        "from lindblad2.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'lindblad2._fmt17' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.stdout.split() == [str(expected_code), "False"]


_LAZY = ("lindblad2.dynamics", "lindblad2.asymptotics", "lindblad2._fmt17")


IMPORT_CASES = [
    ("isotropic", ["check"], 0, ()),
    ("matrix_notcp", ["check"], 1, ()),
    ("isotropic", ["convert", "--to", "A"], 0, ()),
    ("isotropic", ["convert", "--to", "B"], 0, ()),
    ("isotropic", ["convert", "--to", "E"], 0, ()),
    ("isotropic", ["convert", "--to", "GKS"], 0, ()),
    ("isotropic", ["reduce"], 0, ()),
    ("matrix_notcp", ["asymptote"], 1, ()),
    ("matrix_notcp", ["evolve"], 1, ()),
    ("isotropic", ["asymptote"], 0, _LAZY[:2]),
    ("isotropic", ["evolve"], 0, _LAZY),
]


@pytest.mark.parametrize(
    "name,command,expected_code,imported",
    IMPORT_CASES,
    ids=[f"{' '.join(command)}-{name}" for name, command, _, _ in IMPORT_CASES],
)
def test_each_command_imports_only_what_it_runs(name, command, expected_code, imported, tmp_path):
    # The package resolves its names lazily and cli imports the integrators,
    # the classifier and the CSV writer inside the commands that pass the
    # CP gate, so check, convert, reduce and a refused run compile none.
    if command == ["evolve"]:
        command = command + ["--t-max", "1", "--dt", "0.5", "--out", str(tmp_path / "o.csv")]
    script = (
        "import sys\n"
        "from lindblad2.cli import main\n"
        f"code = main({['--model', model(name), *command]!r})\n"
        f"print(code, *[name in sys.modules for name in {_LAZY!r}])\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    expected = [str(expected_code), *(str(name in imported) for name in _LAZY)]
    assert result.stdout.split()[-4:] == expected


# The package namespace as it was when __init__ imported every module:
# name -> the module that defines it (a submodule maps to itself).
PUBLIC_NAMES = {
    **dict.fromkeys(
        ["DensityState", "Hamiltonian", "SIGMA", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY2",
         "bloch_from_density", "density_from_bloch", "density_from_matrix", "entropy_from_bloch",
         "von_neumann_entropy"],
        "core",
    ),
    **dict.fromkeys(
        ["FormA", "FormB", "FormE", "apply_dissipator", "dissipation_from_gram",
         "dissipation_matrix", "form_a_from_form_b", "form_a_to_form_b", "form_b_from_dissipation",
         "form_b_from_gram", "form_e_pack", "form_e_unpack", "gks_matrix", "gks_minimal",
         "gram_decompose", "gram_from_dissipation", "gram_from_form_b", "plane_projector",
         "reduce_terms"],
        "forms",
    ),
    **dict.fromkeys(
        ["Verdict", "check_form_e", "check_gram_psd", "choi_check", "is_completely_positive"],
        "cpcheck",
    ),
    **dict.fromkeys(
        ["Generator", "Trajectory", "build_generator", "entropy_monotonicity_report", "evolve_bloch",
         "evolve_density", "evolve_expm", "evolve_rk4", "generator_spectrum", "liouvillian"],
        "dynamics",
    ),
    **dict.fromkeys(
        ["AsymptoteReport", "AsymptoticVerdict", "asymptotic_state", "classify", "spectral_gap",
         "verify_asymptote"],
        "asymptotics",
    ),
    **{name: name for name in ("core", "forms", "cpcheck", "dynamics", "asymptotics", "errors", "tolerances")},
}


def test_lazy_namespace_keeps_todays_names():
    # In a fresh process, where no submodule is loaded yet: star-import binds
    # the same 59 names, dir() lists them, and each is its home module's.
    assert len(PUBLIC_NAMES) == 59
    script = (
        "import importlib, json, lindblad2\n"
        "listed = dir(lindblad2)\n"
        "ns = {}\n"
        "exec('from lindblad2 import *', ns)\n"
        "del ns['__builtins__']\n"
        f"homes = {PUBLIC_NAMES!r}\n"
        "def home(name):\n"
        "    module = importlib.import_module('lindblad2.' + homes[name])\n"
        "    return module if homes[name] == name else getattr(module, name)\n"
        "print(json.dumps({\n"
        "    'bound': sorted(ns),\n"
        "    'listed': sorted(set(homes) & set(listed)),\n"
        "    'foreign': sorted(n for n in ns if n in homes and ns[n] is not home(n)),\n"
        "    'version': lindblad2.__version__,\n"
        "}))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    report = json.loads(result.stdout)
    assert report == {"bound": sorted(PUBLIC_NAMES), "listed": sorted(PUBLIC_NAMES), "foreign": [], "version": "0.1.0"}
    import importlib

    import lindblad2

    with pytest.raises(AttributeError, match="no attribute 'cmd_check'"):
        lindblad2.cmd_check
    # In this process too. Once imported, a submodule is an attribute of the
    # package, so only a direct call reaches __getattr__'s submodule branch.
    for name in ("errors", "tolerances", "dynamics"):
        assert lindblad2.__getattr__(name) is importlib.import_module(f"lindblad2.{name}")
    listed = dir(lindblad2)
    assert listed == sorted(listed) and set(PUBLIC_NAMES) <= set(listed)


_DROP = object()
RHO_UP = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize(
    "where,value,message",
    [
        (("hamiltonian", "h"), [True, 0.0, 0.0], "hamiltonian h must be an array of 3 finite numbers"),
        (("dissipator", "terms", 0, "axis"), [0.0, 0.0, True],
         "term 1 axis must be an array of 3 finite numbers"),
        (("initial", "bloch"), [True, 0.0, 0.0], "initial bloch must be an array of 3 finite numbers"),
        (("hamiltonian", "h"), [0.0, 1.0], "hamiltonian h must be an array of 3 finite numbers"),
        (("hamiltonian",), _DROP, "missing field 'hamiltonian' in model"),
        (("hamiltonian", "h"), _DROP, "missing field 'h' in hamiltonian"),
        (("dissipator",), _DROP, "missing field 'dissipator' in model"),
        (("dissipator", "form"), _DROP, "missing field 'form' in dissipator"),
        ((), [{"hamiltonian": {"h": [0.0, 0.0, 0.0]}}], "model file must contain a JSON object"),
        (("dissipator",), {"form": "A", "operators": {"A1": RHO_UP}}, "dissipator operators must be a list"),
        (("dissipator", "terms"), {"rate": 1.0, "axis": [0.0, 0.0, 1.0]}, "dissipator terms must be a list"),
        (("initial", "rho"), RHO_UP, "initial state must give either bloch or rho, not both"),
        (("initial", "bloch"), _DROP, "initial state needs a bloch vector or a rho matrix"),
        (("initial", "bloch"), [1.0, 1.0, 0.0],
         "invalid initial state: bloch vector has length 1.4142135623730951 > 1"),
    ],
    ids=[
        "bool_in_h", "bool_in_axis", "bool_in_bloch", "h_of_two", "no_hamiltonian", "no_h",
        "no_dissipator", "no_form", "top_level_array", "operators_not_list", "terms_not_list",
        "bloch_and_rho", "neither_bloch_nor_rho", "bloch_outside_ball",
    ],
)
def test_model_file_refusals_name_the_field(where, value, message, capsys, tmp_path):
    # The dephasing model with one field set, or dropped, or (at the empty
    # path) the whole file replaced: one line on stderr, exit 2.
    spec = json.loads(MODELS.joinpath("dephasing.json").read_text(encoding="utf-8"))
    if where:
        *parents, last = where
        target = spec
        for key in parents:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    else:
        spec = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert run_cli(["--model", str(path), "check"], capsys) == (2, "", f"error: {message}\n")


def test_usage_errors_exit_two(capsys):
    assert run_cli(["--model", model("dephasing"), "convert", "--to", "X"], capsys)[0] == 2
    assert run_cli(["--model", model("dephasing"), "bogus"], capsys)[0] == 2
    assert run_cli(["check"], capsys)[0] == 2


def test_malformed_dissipator_variants(capsys, tmp_path):
    import json

    bad = {
        "hamiltonian": {"h": [0, 0, 0]},
        "dissipator": {"form": "C", "matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
    }
    path = tmp_path / "bad_form.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["--model", str(path), "check"], capsys)
    assert code == 2
    assert "unknown dissipator form" in err

    bad = {
        "hamiltonian": {"h": [0, 0, 0]},
        "dissipator": {
            "form": "B",
            "terms": [{"rate": -1.0, "axis": [0, 0, 1]}],
        },
    }
    path = tmp_path / "bad_rate.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["--model", str(path), "check"], capsys)
    assert code == 2


def test_two_representations_rejected(capsys, tmp_path):
    import json

    bad = {
        "hamiltonian": {"h": [0, 0, 0]},
        "dissipator": {
            "form": "B",
            "terms": [{"rate": 1.0, "axis": [0, 0, 1]}],
            "matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        },
    }
    path = tmp_path / "two_forms.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["--model", str(path), "check"], capsys)
    assert code == 2
    assert "exactly one representation" in err


def _parse_printed_terms(text):
    terms = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("lambda="):
            continue
        head, vec = line.split(" n=(")
        rate = float(head.split("=")[1])
        axis = [float(x) for x in vec.rstrip(")").split(", ")]
        terms.append((rate, axis))
    return terms


def test_convert_output_round_trips(capsys):
    # Rebuilding the printed representation reproduces the model matrix.
    from lindblad2 import FormB, FormE, dissipation_matrix, form_e_unpack

    ell = np.diag([0.5, 0.5, 0.0])

    code, out, _ = run_cli(["--model", model("matrix_cp"), "convert", "--to", "B"], capsys)
    assert code == 0
    rebuilt = dissipation_matrix(FormB(terms=_parse_printed_terms(out)))
    assert np.max(np.abs(rebuilt - ell)) < 1e-10

    code, out, _ = run_cli(["--model", model("matrix_cp"), "convert", "--to", "E"], capsys)
    assert code == 0
    values = {}
    for line in out.splitlines()[1:]:
        name, _, value = line.partition(" = ")
        values[name] = float(value)
    rebuilt = form_e_unpack(FormE(**values))
    assert np.max(np.abs(rebuilt - ell)) < 1e-10


def test_convert_gks_is_half_the_gram_matrix_of_the_printed_terms(capsys):
    # c = M / 2 = (1/2) q q^T for the Form D vectors q_j = sqrt(lambda_j) n_j
    # of the terms that convert --to B prints, on every CP model file.
    from lindblad2.cli import _fmt_matrix

    checked, wrong = [], []
    for path in sorted(MODELS.glob("*.json")):
        if run_cli(["--model", str(path), "check"], capsys)[0] != 0:
            continue
        code, out, _ = run_cli(["--model", str(path), "convert", "--to", "B"], capsys)
        assert code == 0
        q = np.reshape([np.sqrt(rate) * np.array(axis) for rate, axis in _parse_printed_terms(out)], (-1, 3)).T
        code, out, _ = run_cli(["--model", str(path), "convert", "--to", "GKS"], capsys)
        assert code == 0
        checked.append(path.name)
        if out.splitlines()[1] != "c = " + _fmt_matrix((0.5 * q) @ q.T):
            wrong.append(path.name)
    assert "dephasing.json" in checked and "operators.json" in checked
    assert wrong == []


def test_convert_e_packs_the_terms_convert_b_prints(capsys):
    # L = diag(1, 1, -5e-11) is CP within the gate's slack. Every convert
    # target prints its certificate, one term of rate 2.00000000005 on z,
    # whose Form E has gamma = 0, not the -2.5e-11 of the input L.
    path = model("matrix_slack")
    code, out, _ = run_cli(["--model", path, "convert", "--to", "B"], capsys)
    assert code == 0 and out.splitlines()[2:] == ["  lambda=2.00000000005 n=(0, 0, 1)"]
    code, out, _ = run_cli(["--model", path, "convert", "--to", "E"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "form: E", "a = 0.5000000000125", "b = 0", "c = 0", "alpha = 0.5000000000125", "beta = 0", "gamma = 0",
    ]


def test_module_entry_point_smoke(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "lindblad2", "--model", model("dephasing"), "check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "verdict: CP" in result.stdout
    # cli.entry freezes the heap and exits through sys.exit, which flushes
    # stdout and runs the interpreter's exit: every exit code keeps its bytes.
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "lindblad2", *argv], capture_output=True, timeout=120)

    result = run("--model", model("matrix_notcp"), "check")
    assert (result.returncode, result.stdout) == (1, (GOLDEN / "check_matrix_notcp.txt").read_bytes())
    result = run("--model", model("not_utf8"), "check")
    assert (result.returncode, result.stdout) == (2, b"")
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith(b"error:")
    csv = tmp_path / "evolve.csv"
    result = run("--model", model("isotropic"), "evolve", "--t-max", "2", "--dt", "0.5",
                 "--method", "expm", "--out", str(csv))
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert csv.read_bytes() == (GOLDEN / "evolve_isotropic_expm.csv").read_bytes()


def _write_model(path, dissipator, h=(0.0, 0.0, 1.0), bloch=(0.3, -0.2, 0.4)):
    import json

    spec = {
        "hamiltonian": {"h": list(h)},
        "dissipator": dissipator,
        "initial": {"bloch": list(bloch)},
    }
    path.write_text(json.dumps(spec))
    return str(path)


def test_asymptote_gap_under_a_strong_field(capsys, tmp_path):
    # One term of rate 1 on x under h = 1e12 z: the decay rates are 0.5 and
    # 0.25 at any field strength, so the gap stays 0.25, not 0.
    dissipator = {"form": "B", "terms": [{"rate": 1.0, "axis": [1.0, 0.0, 0.0]}]}
    path = _write_model(tmp_path / "strong.json", dissipator, h=(0.0, 0.0, 1e12))
    code, out, err = run_cli(["--model", path, "asymptote"], capsys)
    assert (code, err) == (0, "")
    assert out == "kind: maximally-mixed\nindex: 1\ncommuting: no\nlimit: (0, 0, 0)\ngap: 0.25\n"


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_evolve_csv_matches_per_row_reference(method, capsys, tmp_path):
    # The vectorised output stage writes each row exactly as the per-row
    # formatting of t, r, its entropy and its distance to the limit would,
    # for the flow of the reduced terms.
    from conftest import random_form_b
    from lindblad2 import (
        asymptotic_state,
        build_generator,
        classify,
        density_from_bloch,
        dissipation_matrix,
        entropy_from_bloch,
        evolve_rk4,
        reduce_terms,
    )
    from lindblad2.cli import _fmt
    from lindblad2.dynamics import _propagators, propagate

    rng = np.random.default_rng(211)
    for case in range(6):
        fb = random_form_b(rng, int(rng.integers(1, 4)))
        h = rng.normal(size=3)
        r0 = rng.normal(size=3)
        r0 *= rng.uniform(0.2, 1.0) / np.linalg.norm(r0)
        terms = [{"rate": rate, "axis": axis.tolist()} for rate, axis in fb.terms]
        path = _write_model(tmp_path / f"m{case}.json", {"form": "B", "terms": terms}, h, r0)
        out = tmp_path / f"o{case}.csv"
        dt, steps = 0.01, 300
        argv = ["--model", path, "evolve", "--t-max", repr(dt * steps), "--dt", repr(dt),
                "--method", method, "--out", str(out)]
        assert run_cli(argv, capsys)[0] == 0

        gen = build_generator(h, dissipation_matrix(reduce_terms(fb)[0]))
        limit = asymptotic_state(classify(h, fb), density_from_bloch(r0)).bloch
        if method == "rk4":
            states = evolve_rk4(gen, r0, dt * steps, dt).states
        else:
            states = propagate(_propagators(gen, (dt,))[0], r0, steps)
        expected = ["t,rx,ry,rz,entropy,dist_to_limit"]
        for k, r in enumerate(states):
            values = [dt * k, *r, entropy_from_bloch(r), np.linalg.norm(r - limit)]
            expected.append(",".join(_fmt(x) for x in values))
        assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_long_evolve_csv_matches_percent_oracle(method, capsys, tmp_path, monkeypatch):
    # 1e5 steps span many of the writer's blocks, and r decays below 1e-5
    # (to about 2e-9 at t = 20), so scientific cells occur too. The CSV
    # must be the table through one '%.17g' row template.
    import lindblad2._fmt17 as fmt17
    from conftest import percent_rows

    format_rows = fmt17.format_rows
    blocks = []

    def recording(table):
        blocks.append(table.copy())
        return format_rows(table)

    monkeypatch.setattr(fmt17, "format_rows", recording)
    out = tmp_path / "long.csv"
    argv = ["--model", model("isotropic"), "evolve", "--t-max", "20", "--dt", "2e-4",
            "--method", method, "--out", str(out)]
    assert run_cli(argv, capsys) == (0, "", "")

    table = np.vstack(blocks)
    assert table.shape == (100001, 6) and len(blocks) == -(-len(table) // (fmt17.BLOCK_CELLS // 6))
    text = out.read_bytes()
    assert text == b"t,rx,ry,rz,entropy,dist_to_limit\n" + percent_rows(table)
    assert np.max(np.abs(table[-1, 1:4])) < 1e-5 and b"e-" in text


def test_decaying_evolve_csv_matches_percent_oracle(capsys, tmp_path, monkeypatch):
    # r decays as exp(-t) to about 1e-348 at t = 800: its cells pass through
    # every three-digit exponent, the subnormals and zero.
    import lindblad2._fmt17 as fmt17
    from conftest import percent_rows

    format_rows = fmt17.format_rows
    blocks = []

    def recording(table):
        blocks.append(table.copy())
        return format_rows(table)

    monkeypatch.setattr(fmt17, "format_rows", recording)
    out = tmp_path / "decay.csv"
    argv = ["--model", model("isotropic"), "evolve", "--t-max", "800", "--dt", "0.05",
            "--method", "expm", "--out", str(out)]
    assert run_cli(argv, capsys) == (0, "", "")

    table = np.vstack(blocks)
    text = out.read_bytes()
    assert text == b"t,rx,ry,rz,entropy,dist_to_limit\n" + percent_rows(table)
    assert all(b"e-%d" % k in text for k in (100, 150, 200, 250, 284, 300, 320))
    assert np.all(table[-1, 1:4] == 0.0)


def test_long_evolve_peak_memory_per_step(capsys, tmp_path):
    # The traced peak of a 1e5-step evolve is the trajectory's 40 bytes a
    # step and the temporaries of its entropies or of its distances to the
    # limit: about 80 bytes a step. The writer copies one block at a time;
    # two whole-run copies of the CSV table took the peak to 121-132.
    import tracemalloc

    import lindblad2._fmt17  # noqa: F401  its tables are built outside the trace

    steps = 100000
    argv = ["--model", model("isotropic"), "evolve", "--t-max", "20", "--dt", "2e-4",
            "--method", "expm", "--out", str(tmp_path / "long.csv")]
    tracemalloc.start()
    try:
        result = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "", "")
    assert peak < 100 * steps


def test_evolve_rk4_outside_stability_region_exits_two(capsys, tmp_path, monkeypatch):
    # dt |h| = 4 lies outside the RK4 stability interval |y| <= 2 sqrt(2) of
    # the imaginary axis: the run would grow without bound.
    import lindblad2.dynamics as dynamics

    def no_propagation(*args):
        raise AssertionError("the guard must reject the run before propagating")

    monkeypatch.setattr(dynamics, "propagate", no_propagation)
    path = _write_model(
        tmp_path / "fast.json",
        {"form": "B", "terms": [{"rate": 0.5, "axis": [1.0, 0.0, 0.0]}]},
        h=(0.0, 0.0, 8.0),
    )
    out = tmp_path / "o.csv"
    argv = ["--model", path, "evolve", "--t-max", "200", "--dt", "0.5",
            "--method", "rk4", "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1
    assert "stability" in err and "--dt" in err and "--method expm" in err
    assert not out.exists()


def test_evolve_expm_non_finite_step_exits_two(capsys, tmp_path):
    # dt |h| = 1e20 overflowed the squarings of a scaling-and-squaring
    # exp(dt G) into a NaN step. The closed-form step is exact: L =
    # diag(0, 1/2, 1/2), so z decays at rate 1/2 and, up to O(1e-20), the
    # transverse length at the mean rate 1/4. Warnings are errors here.
    path = _write_model(
        tmp_path / "field.json",
        {"form": "B", "terms": [{"rate": 1.0, "axis": [1.0, 0.0, 0.0]}]},
        h=(0.0, 0.0, 1e20),
    )
    out = tmp_path / "o.csv"
    argv = ["--model", path, "evolve", "--method", "expm", "--t-max", "3", "--out", str(out)]
    code, stdout, err = run_cli([*argv, "--dt", "1"], capsys)
    assert (code, stdout, err) == (0, "", "")
    t, rx, ry, rz = np.loadtxt(out, delimiter=",", skiprows=1)[-1, :4]
    assert t == 3.0 and abs(rz - 0.4 * np.exp(-1.5)) < 1e-16
    assert abs(np.hypot(rx, ry) - np.hypot(0.3, -0.2) * np.exp(-0.75)) < 1e-15
    # A step that is not finite, dt = inf, still exits 2 with one line.
    out.unlink()
    code, stdout, err = run_cli([*argv, "--dt", "inf"], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and "dt must be finite" in err
    assert not out.exists()


def test_evolve_expm_keeps_the_damping_under_a_huge_field(capsys, tmp_path):
    # |h| = 1e300 along z and one term of rate 1 on x: L = diag(0, 1/2, 1/2),
    # so z decays at rate 1/2 whatever the field. Scaling dt G down for the
    # rotation used to drop the damping below rounding, and rz stayed 0.1.
    path = _write_model(
        tmp_path / "field.json",
        {"form": "B", "terms": [{"rate": 1.0, "axis": [1.0, 0.0, 0.0]}]},
        h=(0.0, 0.0, 1e300),
        bloch=(0.5, 0.0, 0.1),
    )
    out = tmp_path / "o.csv"
    for t_max, dt, rz in (("1e10", "1e8", 0.0), ("40", "1", 0.1 * np.exp(-20.0))):
        argv = ["--model", path, "evolve", "--method", "expm", "--t-max", t_max, "--dt", dt,
                "--out", str(out)]
        assert run_cli(argv, capsys) == (0, "", "")
        final = np.loadtxt(out, delimiter=",", skiprows=1)[-1]
        assert final[0] == float(t_max) and abs(final[3] - rz) <= 1e-13


def test_evolve_step_cap_exits_two(capsys, tmp_path):
    # 1e15 steps: without the cap, allocating the trajectory would fail.
    out = tmp_path / "o.csv"
    argv = ["--model", model("dephasing"), "evolve", "--t-max", "1e6", "--dt", "1e-9",
            "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "cap" in err
    assert not out.exists()


ZERO_MATRIX = {"form": "matrix", "matrix": [[0.0] * 3] * 3}

# Every report of the zero dissipator under _write_model's field h = z and
# initial Bloch vector (0.3, -0.2, 0.4).
ZERO_REPORTS = {
    ("check",): "verdict: CP\nindex: 0\ncertificate: (none)\n",
    ("convert", "--to", "A"): "form: A\noperators:\n",
    ("convert", "--to", "B"): "form: B\nterms:\n",
    ("convert", "--to", "E"): "form: E\n" + "".join(
        f"{name} = 0\n" for name in ("a", "b", "c", "alpha", "beta", "gamma")),
    ("convert", "--to", "GKS"): "form: GKS\nc = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]\n",
    ("reduce",): "index: 0\nterms:\n",
    ("asymptote",): "kind: undamped\nindex: 0\ncommuting: yes\naxis: (0, 0, 1)\n"
                    "limit: (0, 0, 0.40000000000000002)\ngap: 0\n",
}


def _zero_evolve(path, method, out, capsys):
    argv = ["--model", path, "evolve", "--t-max", "1", "--dt", "0.1",
            "--method", method, "--out", str(out)]
    assert run_cli(argv, capsys) == (0, "", "")
    return out.read_text(encoding="utf-8")


def test_zero_dissipator_commands(capsys, tmp_path):
    path = _write_model(tmp_path / "zero.json", ZERO_MATRIX)
    for argv, expected in ZERO_REPORTS.items():
        assert run_cli(["--model", path, *argv], capsys) == (0, expected, "")
    for method in ("rk4", "expm"):
        _zero_evolve(path, method, tmp_path / "z.csv", capsys)
        table = np.loadtxt(tmp_path / "z.csv", delimiter=",", skiprows=1)
        assert table.shape == (11, 6)
        # Precession about z: rz stays exact, and |r| and the distance to
        # the time average (0, 0, rz) stay put up to the integrator's error.
        assert np.all(table[:, 3] == 0.4)
        tol = 1e-12 if method == "expm" else 1e-6
        assert np.ptp(np.linalg.norm(table[:, 1:4], axis=1)) < tol
        assert np.max(np.abs(table[:, 5] - np.hypot(0.3, 0.2))) < tol


@pytest.mark.parametrize("dissipator", [{"form": "B", "terms": []}, {"form": "A", "operators": []}])
def test_empty_term_lists_are_the_zero_dissipator(dissipator, capsys, tmp_path):
    path = _write_model(tmp_path / "empty.json", dissipator)
    for argv, expected in ZERO_REPORTS.items():
        assert run_cli(["--model", path, *argv], capsys) == (0, expected, "")


def test_identity_operators_are_the_zero_dissipator(capsys, tmp_path):
    # Operators proportional to I drop out of the dissipator, so every
    # command answers exactly as for the all-zero matrix, except that
    # convert --to A echoes the model's own operators.
    ops = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
           [[[-0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]]
    identity = _write_model(tmp_path / "identity.json", {"form": "A", "operators": ops})
    zero = _write_model(tmp_path / "zero.json", ZERO_MATRIX)
    for argv, expected in ZERO_REPORTS.items():
        if argv != ("convert", "--to", "A"):
            assert run_cli(["--model", identity, *argv], capsys) == (0, expected, "")
    assert run_cli(["--model", identity, "convert", "--to", "A"], capsys) == (
        0, "form: A\noperators:\n  A1 = [[1, 0], [0, 1]]\n  A2 = [[-0.5, 0], [0, -0.5]]\n", "")
    for method in ("rk4", "expm"):
        assert _zero_evolve(identity, method, tmp_path / "i.csv", capsys) == _zero_evolve(
            zero, method, tmp_path / "z.csv", capsys)


def test_tiny_rates_keep_index(capsys, tmp_path):
    # The rank is decided relative to the largest rate, not against an
    # absolute floor, so rates of 1e-13 are two terms like rates of 1.
    terms = [{"rate": 1e-13, "axis": [1.0, 0.0, 0.0]}, {"rate": 1e-13, "axis": [0.0, 1.0, 0.0]}]
    path = _write_model(tmp_path / "tiny.json", {"form": "B", "terms": terms})
    for command in ("check", "reduce"):
        code, out, _ = run_cli(["--model", path, command], capsys)
        assert code == 0 and "index: 2\n" in out
        assert len(_parse_printed_terms(out)) == 2


def test_reduce_drops_rate_under_rank_floor(capsys, tmp_path):
    # A rate just under RANK_TOL times the largest is dropped, and the drift
    # gate admits what the floor may drop: 1.4 RANK_TOL for the first model,
    # 2.83 RANK_TOL (the derived bound) for a rank-one remainder on y and z.
    plane = [0.0, 2**-0.5, 2**-0.5]
    for second in ({"rate": 9.9e-10, "axis": [0.0, 1.0, 0.0]}, {"rate": 2e-9 * 0.999, "axis": plane}):
        terms = [{"rate": 10.0, "axis": [1.0, 0.0, 0.0]}, second]
        path = _write_model(tmp_path / "floor.json", {"form": "B", "terms": terms})
        code, out, err = run_cli(["--model", path, "reduce"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("index: 1\n")


def _term_lines(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    return [line for line in out.splitlines() if line.startswith("  lambda=")]


def _one_reduction(path, capsys):
    # check prints the reduction that reduce prints; a matrix model's
    # certificate is its own reduction, so convert --to B prints it too.
    checked = _term_lines(["--model", path, "check"], capsys)
    assert _term_lines(["--model", path, "reduce"], capsys) == checked
    if json.loads(Path(path).read_text())["dissipator"]["form"] == "matrix":
        assert _term_lines(["--model", path, "convert", "--to", "B"], capsys) == checked


def test_rank_floor_model_has_one_index(capsys):
    # A rate of 9.9999999e-11 beside 1 is under the rank floor in q q^T of
    # the terms. In M of L, where (1 + rate) - 1 cancels, it comes out as
    # 1.0000000827e-10, above the floor, so a rank decided there would be 2.
    path = model("rank_floor")
    for command in ("check", "reduce", "asymptote"):
        code, out, _ = run_cli(["--model", path, command], capsys)
        assert code == 0 and "index: 1" in out.splitlines()
    _one_reduction(path, capsys)
    # The flow is that of the reduction, so the z mode the verdict counts as
    # stationary does not decay at 5e-11 and the gap is the transverse 0.5.
    assert out.splitlines()[-1] == "gap: 0.5"


def test_slack_matrix_flows_as_its_certificate(capsys, tmp_path):
    # L = diag(1, 1, -5e-11) is CP within the gate's slack, and its flow is
    # that of the certificate, rate 2.00000000005 on z: rz = 0.5 stays put,
    # where L itself would grow it as exp(5e-11 t).
    path = model("matrix_slack")
    code, out, _ = run_cli(["--model", path, "check"], capsys)
    assert code == 0 and out.splitlines()[:2] == ["verdict: CP", "index: 1"]
    code, out, _ = run_cli(["--model", path, "asymptote"], capsys)
    assert code == 0 and out.splitlines()[-2:] == ["limit: (0, 0, 0.5)", "gap: 1.000000000025"]
    for method, t_max, dt in (("expm", "1e12", "2e11"), ("rk4", "100", "0.01")):
        out_path = tmp_path / f"{method}.csv"
        argv = ["--model", path, "evolve", "--method", method, "--t-max", t_max, "--dt", dt, "--out", str(out_path)]
        assert run_cli(argv, capsys)[0] == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        assert len(rows) == round(float(t_max) / float(dt)) + 1
        assert np.linalg.norm(rows[:, 1:4], axis=1).max() <= 0.5 * (1.0 + 1e-12)


@pytest.mark.parametrize(
    "name",
    ["dephasing", "isotropic", "matrix_cp", "matrix_slack", "operators", "rank_floor", "redundant",
     "rho_near_tolerance", "sigma_y"],
)
def test_asymptote_and_verify_asymptote_share_one_flow(name, capsys):
    # Every CP model with an initial state and a finite default horizon
    # (huge_field's t = 160 is refused by verify_asymptote): the CLI and
    # the library read one limit and one gap, from one Generator.
    from lindblad2.asymptotics import verify_asymptote
    from lindblad2.cli import _fmt, _fmt_vector, _gate_cp, load_model

    loaded = load_model(model(name))
    report = verify_asymptote(loaded.hamiltonian, _gate_cp(loaded), loaded.initial)
    code, out, _ = run_cli(["--model", model(name), "asymptote"], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == [f"limit: {_fmt_vector(report.limit)}", f"gap: {_fmt(report.gap)}"]


def test_reduce_refuses_a_reduction_that_drifts(monkeypatch, capsys):
    # reduce checks that the reduced terms give back L before it prints.
    from lindblad2 import FormB

    monkeypatch.setattr("lindblad2.cli.reduce_terms", lambda fb: (FormB(terms=[(2.0, [0.0, 0.0, 1.0])]), 1))
    code, out, err = run_cli(["--model", model("isotropic"), "reduce"], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: reduction changed the dissipation matrix by ")


def test_every_command_prints_one_reduction(capsys, tmp_path):
    # Every CP model here, then seeded Form B and matrix models.
    from lindblad2 import FormB, dissipation_matrix

    checked = [str(path) for path in sorted(MODELS.glob("*.json"))
               if run_cli(["--model", str(path), "check"], capsys)[0] == 0]
    assert len(checked) >= 10
    rng = np.random.default_rng(2002)
    for k in range(120):
        terms = []
        for _ in range(rng.integers(1, 5)):
            axis = rng.normal(size=3)
            terms.append((10.0 ** rng.uniform(-3.0, 3.0), axis / np.linalg.norm(axis)))
        if k % 2:
            dissipator = {"form": "matrix", "matrix": dissipation_matrix(FormB(terms=terms)).tolist()}
        else:
            dissipator = {"form": "B", "terms": [{"rate": r, "axis": a.tolist()} for r, a in terms]}
        checked.append(_write_model(tmp_path / f"seeded_{k}.json", dissipator))
    for path in checked:
        _one_reduction(path, capsys)


def _rounded_axis(z, phi, digits):
    # A unit direction written to a model file with `digits` significant
    # digits, as a user would type it.
    s = math.sqrt(1.0 - z * z)
    return [float(f"{x:.{digits - 1}e}") for x in (s * math.cos(phi), s * math.sin(phi), z)]


_NEAR_UNIT_AXIS = st.builds(
    _rounded_axis, st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi), st.integers(6, 9)
).filter(lambda n: abs(math.sqrt(sum(x * x for x in n)) - 1.0) <= UNIT_TOL)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(st.floats(-3.0, 3.0), _NEAR_UNIT_AXIS), min_size=1, max_size=3),
    st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
def test_near_unit_axes_give_one_dissipator_in_every_command(terms, h):
    # An axis accepted within UNIT_TOL of unit length is the axis n / |n|
    # for every command: the gate calls it CP, check and reduce print one
    # reduction, and one term keeps its rate to rounding.
    rates = [10.0**u for u, _ in terms]
    dissipator = {"form": "B", "terms": [{"rate": r, "axis": n} for r, (_, n) in zip(rates, terms)]}

    def run(*command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--model", path, *command])
        assert (code, err.getvalue()) == (0, "")
        return out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        path = _write_model(Path(tmp, "model.json"), dissipator, h=h)
        checked = run("check")
        assert checked.startswith("verdict: CP\n")
        lines = [line for line in checked.splitlines() if line.startswith("  lambda=")]
        assert [line for line in run("reduce").splitlines() if line.startswith("  lambda=")] == lines
        for command in (["convert", "--to", "B"], ["convert", "--to", "E"], ["asymptote"]):
            run(*command)
    if len(rates) == 1:
        (line,) = lines
        printed = float(line.split()[0].removeprefix("lambda="))
        assert abs(printed - rates[0]) <= 1e-15 * rates[0]


def test_route_disagreement_exits_two(monkeypatch, capsys):
    # The gate takes the six-constant margins from _form_e_margins.
    broken = [("patched", -0.5)]
    monkeypatch.setattr("lindblad2.cpcheck._form_e_margins", lambda half: broken)
    code, out, err = run_cli(["--model", model("isotropic"), "check"], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal bug: six-constant route says cp=False")


def _expm_exact_and_rk4_refused(argv, h, ell, t_max, out, capsys):
    # The expm run exits 0 with finite rows, the last one evolve_expm at
    # t_max; the same run by rk4 exits 2 with one stability line that
    # names --method expm, before any row is written. Returns the expm rows.
    from lindblad2 import build_generator, evolve_expm

    code, stdout, err = run_cli([*argv, "--method", "expm"], capsys)
    assert (code, stdout, err) == (0, "", "")
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.all(np.isfinite(table)) and table[-1, 0] == t_max
    exact = evolve_expm(build_generator(h, ell), table[0, 1:4], t_max)
    assert np.allclose(table[-1, 1:4], exact, rtol=0.0, atol=1e-15)
    out.unlink()
    code, stdout, err = run_cli([*argv, "--method", "rk4"], capsys)
    assert code == 2 and stdout == ""
    assert err.count("\n") == 1 and "stability" in err and "--method expm" in err
    assert not out.exists()
    return table


def test_evolve_expm_huge_rates(capsys, tmp_path):
    # dt times the generator near 1e308 needs over 1023 squarings.
    from lindblad2 import FormB, dissipation_matrix

    terms = [{"rate": 1e300, "axis": [1.0, 0.0, 0.0]}, {"rate": 1e300, "axis": [0.0, 1.0, 0.0]}]
    path = _write_model(tmp_path / "huge.json", {"form": "B", "terms": terms})
    out = tmp_path / "o.csv"
    argv = ["--model", path, "evolve", "--method", "expm", "--t-max", "1e10",
            "--out", str(out)]
    code, _, err = run_cli([*argv, "--dt", "1e8"], capsys)
    assert code == 0 and err == ""
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    assert table.shape == (101, 6) and np.all(np.isfinite(table))
    # A decade more and dt G itself overflows, but exp(dt G) is finite: every
    # mode has decayed to exactly 0 after one step.
    ell = dissipation_matrix(FormB(terms=[(1e300, [1.0, 0.0, 0.0]), (1e300, [0.0, 1.0, 0.0])]))
    table = _expm_exact_and_rk4_refused([*argv, "--dt", "1e9"], (0.0, 0.0, 1.0), ell, 1e10, out, capsys)
    assert np.array_equal(table[1, 1:4], [0.0, 0.0, 0.0])


def test_generator_overflow_is_one_line(capsys, tmp_path):
    # h_x = 1.7e308 and a term of rate 1.7e308 on (0, 0.6, 0.8): G_yz =
    # -h_x - L_yz overflows. Building G printed a RuntimeWarning (an error
    # here) before the rk4 run's one error line; the spectrum and the
    # closed-form step need only h and L.
    from lindblad2 import FormB, dissipation_matrix

    dissipator = {"form": "B", "terms": [{"rate": 1.7e308, "axis": [0.0, 0.6, 0.8]}]}
    path = _write_model(tmp_path / "m.json", dissipator, h=(1.7e308, 0.0, 0.0))
    out = tmp_path / "o.csv"
    argv = ["--model", path, "evolve", "--t-max", "1", "--dt", "0.5", "--out", str(out)]
    ell = dissipation_matrix(FormB(terms=[(1.7e308, [0.0, 0.6, 0.8])]))
    _expm_exact_and_rk4_refused(argv, (1.7e308, 0.0, 0.0), ell, 1.0, out, capsys)
    code, stdout, err = run_cli(["--model", path, "asymptote"], capsys)
    assert code == 0 and err == ""
    assert stdout.endswith("gap: 4.2499999999999998e+307\n")


def test_evolve_overflowing_norm_is_exact_by_expm(capsys, tmp_path):
    # Every entry of dt G is finite at dt = 1.7e308, but its norm, a row sum
    # of 2 dt, is not. The closed-form step never forms dt G: every mode has
    # decayed to exactly 0. The rk4 step is not finite.
    dissipator = {"form": "matrix", "matrix": np.diag([0.0, 1.0, 1.0]).tolist()}
    path = _write_model(tmp_path / "m.json", dissipator)
    out = tmp_path / "o.csv"
    argv = ["--model", path, "evolve", "--t-max", "1.7e308", "--dt", "1.7e308", "--out", str(out)]
    table = _expm_exact_and_rk4_refused(argv, (0.0, 0.0, 1.0), np.diag([0.0, 1.0, 1.0]), 1.7e308, out, capsys)
    assert np.array_equal(table[1, 1:4], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_huge_rates_keep_verdicts(scale, capsys, tmp_path):
    # Overflow in a norm or a 2x2 minor used to turn these into CP verdicts
    # and a one-term reduction; warnings are errors here.
    import json
    import warnings

    spec = json.loads((MODELS / "matrix_notcp.json").read_text())
    spec["dissipator"]["matrix"] = (scale * np.array(spec["dissipator"]["matrix"])).tolist()
    notcp = tmp_path / "notcp.json"
    notcp.write_text(json.dumps(spec))
    terms = [{"rate": scale, "axis": [1.0, 0.0, 0.0]}, {"rate": scale, "axis": [0.0, 1.0, 0.0]}]
    orthogonal = _write_model(tmp_path / "orthogonal.json", {"form": "B", "terms": terms})

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(["--model", str(notcp), "check"], capsys)
        assert code == 1
        assert "verdict: NotCP\nreason: condition (i) M33 >= 0 violated\n" in out
        for command in ("reduce", "asymptote"):
            code, out, _ = run_cli(["--model", orthogonal, command], capsys)
            assert code == 0
            assert "index: 2" in out
        code, out, _ = run_cli(["--model", orthogonal, "reduce"], capsys)
        axes = sorted(tuple(axis) for _, axis in _parse_printed_terms(out))
        assert axes == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]


def test_matrix_at_the_top_of_the_double_range(capsys, tmp_path):
    # tr(L) I - 2L overflowed on these finite models: four RuntimeWarnings
    # (errors here), then exit 2 with "gram matrix must be a finite real
    # 3x3 matrix".
    def run(matrix):
        path = _write_model(tmp_path / "m.json", {"form": "matrix", "matrix": matrix})
        return run_cli(["--model", path, "check"], capsys)

    code, out, err = run(np.diag([1e308, 1e308, 1e308]).tolist())
    assert code == 0 and err == ""
    axes = ["(1, 0, 0)", "(0, 1, 0)", "(0, 0, 1)"]
    assert out == "verdict: CP\nindex: 3\ncertificate:\n" + "".join(
        f"  lambda=1e+308 n={axis}\n" for axis in axes
    )
    code, out, err = run(np.diag([1e308, 1e308, -1e308]).tolist())
    assert code == 1 and err == ""
    assert out.startswith("verdict: NotCP\nreason: condition (i) M11 >= 0 violated\n")
    # CP, but its one certificate rate is tr(M) = 3e308.
    code, out, err = run((1.5e308 * np.eye(3) - 5e307 * np.ones((3, 3))).tolist())
    assert code == 2 and out == ""
    assert err == "error: a rate is above the largest double, 1.8e308\n"


@pytest.mark.parametrize("entry", [1e154, 1e308])
def test_form_a_rate_past_the_double_range_is_one_line(entry, capsys, tmp_path):
    # A finite hermitian operator whose rate |2 c|^2 overflows. The Pauli
    # expansion and the rate printed RuntimeWarnings (errors here) and then
    # "rate must be positive, got inf"; every command must give the one line
    # that Form B and Gram input get.
    operator = [[[entry, 0.0], [entry, 0.0]], [[entry, 0.0], [-entry, 0.0]]]
    path = _write_model(tmp_path / "m.json", {"form": "A", "operators": [operator]})
    out = tmp_path / "o.csv"
    commands = [["check"], ["reduce"], ["asymptote"],
                ["evolve", "--t-max", "1", "--dt", "0.5", "--out", str(out)]]
    commands += [["convert", "--to", to] for to in ("A", "B", "E", "GKS")]
    for command in commands:
        code, stdout, err = run_cli(["--model", path, *command], capsys)
        assert (code, stdout) == (2, ""), command
        assert err == "error: a rate is above the largest double, 1.8e308\n", command
    assert not out.exists()
