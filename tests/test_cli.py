import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lindblad2.cli import main

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


HUGE_INT = 10**400  # a JSON integer literal too large for a float


@pytest.mark.parametrize(
    "hamiltonian,rate",
    [
        ({"h": [0, 0, 1], "h0": True}, 1.0),
        ({"h": [0, 0, 1]}, True),
        ({"h": [0, 0, 1], "h0": HUGE_INT}, 1.0),
        ({"h": [HUGE_INT, 0, 1]}, 1.0),
    ],
)
def test_non_numbers_in_model_exit_two(hamiltonian, rate, capsys, tmp_path):
    import json

    spec = {
        "hamiltonian": hamiltonian,
        "dissipator": {"form": "B", "terms": [{"rate": rate, "axis": [0, 0, 1]}]},
    }
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(spec))
    code, _, err = run_cli(["--model", str(path), "check"], capsys)
    assert code == 2
    assert err.count("\n") == 1 and "number" in err


def test_exit_code_for_notcp_conversions(capsys):
    for argv in (
        ["--model", model("matrix_notcp"), "convert", "--to", "B"],
        ["--model", model("matrix_notcp"), "reduce"],
        ["--model", model("matrix_notcp"), "asymptote"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert "not completely positive" in err


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

    bad = {
        "hamiltonian": {"h": [0, 0, 0]},
        "dissipator": {"form": "B", "terms": []},
    }
    path = tmp_path / "empty.json"
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


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LINDBLAD2_TOL", "not-a-number")
    assert run_cli(["--model", model("dephasing"), "check"], capsys)[0] == 2

    monkeypatch.setenv("LINDBLAD2_TOL", "-1")
    assert run_cli(["--model", model("dephasing"), "check"], capsys)[0] == 2

    monkeypatch.setenv("LINDBLAD2_TOL", "1e-6")
    code, out, _ = run_cli(["--model", model("dephasing"), "check"], capsys)
    assert code == 0
    assert "verdict: CP" in out


def test_module_entry_point_smoke():
    result = subprocess.run(
        [sys.executable, "-m", "lindblad2", "--model", model("dephasing"), "check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "verdict: CP" in result.stdout


def _write_model(path, dissipator, h=(0.0, 0.0, 1.0), bloch=(0.3, -0.2, 0.4)):
    import json

    spec = {
        "hamiltonian": {"h": list(h)},
        "dissipator": dissipator,
        "initial": {"bloch": list(bloch)},
    }
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_evolve_csv_matches_per_row_reference(method, capsys, tmp_path):
    # The vectorised output stage writes each row exactly as the per-row
    # formatting of t, r, its entropy and its distance to the limit would.
    from conftest import random_form_b
    from lindblad2 import (
        asymptotic_state,
        build_generator,
        classify,
        density_from_bloch,
        dissipation_matrix,
        entropy_from_bloch,
        evolve_rk4,
        matrix_exponential,
    )
    from lindblad2.cli import _fmt

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

        gen = build_generator(h, dissipation_matrix(fb))
        limit = asymptotic_state(classify(h, fb), density_from_bloch(r0)).bloch
        if method == "rk4":
            states = evolve_rk4(gen, r0, dt * steps, dt).states
        else:
            step = matrix_exponential(dt * gen.matrix)
            states = [r0]
            for _ in range(steps):
                states.append(step @ states[-1])
        expected = ["t,rx,ry,rz,entropy,dist_to_limit"]
        for k, r in enumerate(states):
            values = [dt * k, *r, entropy_from_bloch(r), np.linalg.norm(r - limit)]
            expected.append(",".join(_fmt(x) for x in values))
        assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_evolve_rk4_outside_stability_region_exits_two(capsys, tmp_path, monkeypatch):
    # dt |h| = 4 lies outside the RK4 stability interval |y| <= 2 sqrt(2) of
    # the imaginary axis: the run would grow without bound.
    import lindblad2.cli as cli

    def no_propagation(*args):
        raise AssertionError("the guard must reject the run before propagating")

    monkeypatch.setattr(cli, "propagate", no_propagation)
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


def test_evolve_step_cap_exits_two(capsys, tmp_path):
    # 1e15 steps: without the cap, allocating the trajectory would fail.
    out = tmp_path / "o.csv"
    argv = ["--model", model("dephasing"), "evolve", "--t-max", "1e6", "--dt", "1e-9",
            "--out", str(out)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.count("\n") == 1 and "cap" in err
    assert not out.exists()


def test_zero_dissipator_commands(capsys, tmp_path):
    zero = {"form": "matrix", "matrix": [[0.0] * 3] * 3}
    path = _write_model(tmp_path / "zero.json", zero)
    code, out, _ = run_cli(["--model", path, "check"], capsys)
    assert code == 0 and "index: 0" in out
    code, out, _ = run_cli(["--model", path, "convert", "--to", "E"], capsys)
    assert code == 0 and "a = 0" in out
    for argv in (["convert", "--to", "A"], ["convert", "--to", "B"],
                 ["convert", "--to", "GKS"], ["reduce"], ["asymptote"],
                 ["evolve", "--t-max", "1", "--dt", "0.1", "--out", str(tmp_path / "z.csv")]):
        code, _, err = run_cli(["--model", path, *argv], capsys)
        assert code == 2
        assert err == "error: all Gram columns vanish\n"


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
