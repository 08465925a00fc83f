"""Command-line surface.

Covers:
  - catalog listing shape and JSON validity
  - verify: pass/fail/violation exit codes, report contents, config echo
  - riccati / cole-hopf / rh subcommands
  - pipeline generate (bit-exact round trip), check (exact rationals),
    solve (root list, determinism under a fixed RNG seed)
  - equiv and plot-data (header, pole cells, exact values)
  - exit-code contract for bad input
"""
import io
import json
import contextlib

import pytest

from mdpwave.cli import main
from mdpwave.pipeline import AlgebraicSystem, generate_system


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_catalog_list():
    code, out = run(["catalog", "list"])
    doc = json.loads(out)
    assert code == 0
    assert doc["count"] == 24
    by_id = {f["id"]: f for f in doc["families"]}
    assert by_id["u20"]["parameters"] == ["b", "alpha", "beta", "gamma"]
    assert by_id["u6"]["parameters"] == ["b"]


def test_verify_pass():
    code, out = run(["verify", "--family", "u6", "--param", "b=3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["report"]["passed"] is True
    assert doc["report"]["points_skipped"] == 0
    assert doc["config"]["family"] == "u6"


def test_verify_constraint_violation_exit_2():
    code, out = run(["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"])
    doc = json.loads(out)
    assert code == 2
    assert doc["error"] == "constraint-violation"
    assert "discriminant S >= 0" in doc["violations"]


def test_verify_pole_family_reports_skips():
    code, out = run(["verify", "--family", "u5", "--param", "b=3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["report"]["points_skipped"] > 0


def test_verify_finite_difference_method():
    code, out = run(["verify", "--family", "u6", "--param", "b=3",
                     "--method", "finite-difference"])
    doc = json.loads(out)
    assert code == 0
    assert doc["report"]["method"] == "finite-difference"
    assert doc["report"]["tolerance"] == 1e-4


def test_riccati_subcommand():
    code, out = run(["riccati", "--param", "alpha=1", "--param", "beta=2",
                     "--param", "gamma=1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["case"] == 5
    assert doc["max_residual"] < 1e-9


def test_riccati_unclassifiable_exit_2():
    code, out = run(["riccati", "--param", "alpha=1", "--param", "beta=0",
                     "--param", "gamma=0"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"


def test_cole_hopf_subcommand():
    code, out = run(["cole-hopf", "--branch", "plus", "--param", "b=3",
                     "--param", "mu=1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["A"] == -7.5 and doc["B"] == 0.25 and doc["lambda"] == -1.5
    assert doc["system_pass"] is True
    assert doc["report"]["passed"] is True


def test_rh_subcommand():
    code, out = run(["rh", "--family", "u7", "--param", "b=3", "--param", "a2=1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["collocation"]["passed"] is True
    assert doc["coefficients"]["c2"] == 4.0


def test_pipeline_check_exact_zero_residuals():
    code, out = run(["pipeline", "check", "--case", "first", "--param", "b=3",
                     "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1"])
    doc = json.loads(out)
    assert code == 0
    entry = doc["tuples"][0]
    assert entry["exact"] is True
    assert all(r == "0/1" for r in entry["residuals"])
    assert entry["tuple"]["a0"] == "13/2"


def test_pipeline_generate_round_trip(tmp_path):
    out_path = tmp_path / "system.json"
    code, _ = run(["pipeline", "generate", "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    doc = json.loads(text)
    loaded = AlgebraicSystem.from_json_dict(doc["system"])
    assert loaded == generate_system()
    # byte-identical on a second run
    out2 = tmp_path / "system2.json"
    run(["pipeline", "generate", "--out", str(out2)])
    assert out2.read_text() == text


def test_pipeline_solve_contains_expected_root():
    argv = ["pipeline", "solve", "--param", "b=3", "--param", "alpha=0",
            "--param", "beta=1", "--param", "gamma=-1",
            "--seeds", "150", "--rng-seed", "7"]
    code, out = run(argv)
    doc = json.loads(out)
    assert code == 0
    target = [0.0, -7.5, 7.5, 0.0, 0.0, -2.5]
    best = min(max(abs(a - b) for a, b in zip(r, target)) for r in doc["roots"])
    assert best < 1e-8
    # determinism: identical config -> byte-identical output
    _, out2 = run(argv)
    assert out == out2


def test_pipeline_solve_negative_seeds_exit_2():
    code, out = run(["pipeline", "solve", "--param", "b=3", "--param", "alpha=0",
                     "--param", "beta=1", "--param", "gamma=-1", "--seeds", "-3"])
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": "seeds must be >= 0"}


def test_equiv_subcommand():
    code, out = run(["equiv", "--left", "u3", "--left-param", "b=3",
                     "--right", "u1", "--right-param", "b=3",
                     "--right-param", "mu=1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["max_abs_difference"] < 1e-10


def test_equiv_detects_disagreement():
    code, out = run(["equiv", "--left", "u3", "--left-param", "b=3",
                     "--right", "u6", "--right-param", "b=3"])
    doc = json.loads(out)
    assert code == 1
    assert doc["passed"] is False


def test_plot_data_values_and_pole_cells(tmp_path):
    code, out = run(["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"])
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "x,u"
    assert len(lines) == 1 + 101
    assert lines[51] == "0,-1.875"

    code, out = run(["plot-data", "--family", "u5", "--param", "b=3", "--t", "0"])
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[51] == "0,"

    path = tmp_path / "u6.csv"
    run(["plot-data", "--family", "u6", "--param", "b=3", "--t", "0",
         "--out", str(path)])
    assert path.read_text().startswith("x,u\n")


def test_unknown_family_exit_2():
    code, out = run(["verify", "--family", "u99", "--param", "b=3"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"


def test_missing_required_param_exit_2():
    code, out = run(["verify", "--family", "u6"])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["verify", "--family", "u6", "--param", "b=3", "--frobnicate"])
    assert err.value.code == 2


def test_malformed_param_exit_2():
    code, out = run(["verify", "--family", "u6", "--param", "b3"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"
