"""Command-line surface.

Covers:
  - catalog listing shape and JSON validity
  - verify: pass/fail/violation exit codes, report contents, config echo,
    one build of the family's wave per command (and per side of `equiv`
    and per `plot-data`)
  - riccati / cole-hopf / rh subcommands, `rh` byte for byte for all eight
    families and `riccati` for every case and both case-4 branches
  - pipeline generate (every coefficient exact in the file, the same
    bytes on a second run), check (exact rationals,
    float residuals of an irrational tuple rounded once, and each family
    whose radicand fails named by its id),
    solve (root list, determinism under a fixed RNG seed)
  - equiv and plot-data (header, pole cells, exact values)
  - exit-code contract for bad input: non-exact values, parameter names a
    command does not take, counts below 1, tolerances that are not finite
    and positive, plot-data and verify grids that GridSpec rejects,
    negative exponent-form flag values, values beyond the float range,
    a parameter name given twice, an `--out` path that cannot be opened
    (on stdout, before the command runs)
  - the README commands' stdout, byte for byte, and 20 commands at b < -1
    (verify, pipeline check, cole-hopf, rh), where u11's root changes sign;
    the README's `Library` snippet run as written
  - the six commands that FAIL on float overflow, as strict xfails
    (ROADMAP item 5)
  - numpy stays unloaded by the imports and the exact or metadata-only
    commands, and loads on the first array evaluation
  - `main(argv)` leaves the caller's collector on or off and unfrozen;
    `main()` on the process's own command line makes no collection,
    freezes the heap and restores the collector, with the same bytes;
    three commands through the console entry (`python -c`), an `--out`
    file and two exit-2 paths, against the README and usage pins
"""
import hashlib
import io
import json
import contextlib
import gc
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mdpwave.cli import main
from mdpwave.pipeline import generate_system
from mdpwave.rational_hyperbolic import FAMILY_IDS


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


def _count_made(monkeypatch):
    """The family ids `catalog._made` is called with, in call order."""
    from mdpwave import catalog
    calls = []
    made = catalog._made

    def counting_made(*args):
        calls.append(args[0])
        return made(*args)

    monkeypatch.setattr(catalog, "_made", counting_made)
    return calls


@pytest.mark.parametrize("fid, params, method", [
    ("u6", {"b": "3"}, "symbolic"),
    ("u22", {"b": "3", "alpha": "2", "beta": "3", "gamma": "1"}, "finite-difference"),
    ("u5", {"b": "3"}, "symbolic"),
])
def test_verify_builds_its_wave_once(monkeypatch, fid, params, method):
    from mdpwave import catalog
    calls = _count_made(monkeypatch)
    argv = ["verify", "--family", fid, "--method", method]
    for k, v in params.items():
        argv += ["--param", f"{k}={v}"]
    code, out = run(argv)
    assert code == 0 and calls == [fid]
    assert json.loads(out)["wave_speed"] == catalog.build_wave(fid, params)[2]


@pytest.mark.parametrize("argv, built, want", [
    (["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
      "--right-param", "b=3", "--right-param", "mu=1"], ["u3", "u1"], 0),
    (["equiv", "--left", "u22", "--left-param", "b=3", "--left-param", "alpha=2",
      "--left-param", "beta=3", "--left-param", "gamma=1", "--right", "u5",
      "--right-param", "b=3"], ["u22", "u5"], 1),
    (["plot-data", "--family", "u5", "--param", "b=3", "--t", "0"], ["u5"], 0),
    (["plot-data", "--family", "u14", "--param", "b=3", "--param", "alpha=1/4",
      "--param", "gamma=1/4", "--t", "0.5"], ["u14"], 0),
], ids=["equiv-u3-u1", "equiv-u22-u5", "plot-data-u5", "plot-data-u14"])
def test_equiv_and_plot_data_build_each_side_once(monkeypatch, argv, built, want):
    calls = _count_made(monkeypatch)
    code, _ = run(argv)
    assert code == want and calls == built


def test_equiv_compiles_one_tape_beyond_each_wave_speed(monkeypatch):
    # build_wave evaluates each side's wave speed on a tape of its own; the
    # sample points and the difference there come from one more
    from mdpwave import expr as ex
    tapes = []
    init = ex.Tape.__init__

    def counting_init(self, roots):
        tapes.append(self)
        init(self, roots)

    monkeypatch.setattr(ex.Tape, "__init__", counting_init)
    (argv,) = [argv for argv, _, _ in _README_COMMANDS if argv[0] == "equiv"]
    code, _ = run(argv)
    assert code == 0 and len(tapes) == 3


def test_equiv_names_the_side_whose_parameters_fail():
    code, out = run(["equiv", "--left", "u5", "--left-param", "b=-1", "--right", "u1",
                     "--right-param", "b=3", "--right-param", "mu=1"])
    assert code == 2
    assert json.loads(out) == {"error": "constraint-violation", "violations": ["u5: b != -1"]}


def test_riccati_subcommand():
    code, out = run(["riccati", "--param", "alpha=1", "--param", "beta=2",
                     "--param", "gamma=1"])
    doc = json.loads(out)
    assert code == 0
    assert doc["case"] == 5
    assert doc["max_residual"] < 1e-9


def test_riccati_decides_degeneracy_exactly():
    # beta^2 - 4*alpha*gamma = -4e-14 exactly: not degenerate, as `verify
    # --family u11` also decides for this triple
    code, out = run(["riccati", "--param", "alpha=1", "--param", "beta=2",
                     "--param", "gamma=1.00000000000001"])
    doc = json.loads(out)
    assert code == 0
    assert doc["case"] == 6
    assert doc["delta"] == -4e-14


def test_riccati_unclassifiable_exit_2():
    code, out = run(["riccati", "--param", "alpha=1", "--param", "beta=0",
                     "--param", "gamma=0"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"


# (case, sha256 of stdout) of `riccati` per (alpha, beta, gamma), recorded
# before the seven regimes became one table: every case, both case-4
# branches, and so every function kind `phi` prints with
_RICCATI_COMMANDS = {
    ("0", "1", "-1"): (1, "af59b29fcf22bf5cdf0aceeac007accf9d30b8fd5b0fe537ee38ae5ab6bafa4e"),
    ("0", "0", "2"): (2, "27e580bfc29853b1cb3b662ba6a5930f6c1d3d2a33635ea71ae9c5dbd4ba5938"),
    ("9/10", "-11/10", "0"): (3, "71c1b47368b5025ca46a2f80e48d0356d4841021ebba50edbe7654a4f9800bd7"),
    ("1", "0", "1"): (4, "59178daf60e2b206799ea6d3762bfb8f10ac839fe4a59d33b954413c084139fd"),
    ("-1", "0", "2"): (4, "291c861e6c832e2fb0b6acebf11f46357a05682b552adaa2a2ffd2956afab702"),
    ("1", "2", "1"): (5, "f34a696dfda28093f0fd74437b6aad875e9e95a6a9a68b2f3f46072d6efe01d8"),
    ("1", "1", "1"): (6, "dbbe43fc6fb81ec037cdcf256c989306d4239650dc39753439e3f43c8a20fa9f"),
    ("1", "3", "1"): (7, "d644c821844d31dfcd7a26be035fd5f6cb7cbc514c43f95c37dc8d9b68059508"),
}


@pytest.mark.parametrize("triple", list(_RICCATI_COMMANDS), ids="/".join)
def test_riccati_every_case_byte_identical(triple):
    case, digest = _RICCATI_COMMANDS[triple]
    argv = ["riccati"]
    for name, value in zip(("alpha", "beta", "gamma"), triple):
        argv += ["--param", f"{name}={value}"]
    code, out = run(argv)
    assert code == 0
    assert json.loads(out)["case"] == case
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


# (free parameter, sha256 of stdout) of `rh --family <fid> --param b=3`,
# recorded from the code before the rational-hyperbolic checks moved into
# the catalog's rows
_RH_COMMANDS = {
    "u3": ([], "c4c5f666993a6e222291c53969f16ec740f8f619bf5298bc08b82cb49f69eff9"),
    "u4": ([], "57557d8a8b7e9e68ac72190be0bff87f5cac78ef39d82ffe91df048ca7e25e86"),
    "u5": ([], "3d474c7805f2664248a34597c7c9970c75790d2e170d47688385277c20a5518a"),
    "u6": ([], "2a3a1fe9b7ca9d4554b75ca20d09218abd92adfeed02cc038daba91526078abd"),
    "u7": (["a2=2"], "270ed53e6322dd204e5a9e76e1e6b09fcf08a96dec847bba3198dec0d49f9b0b"),
    "u8": (["a2=2"], "946252d560937154066482c12e4aace55d00e8bd72e17d79d81bd44ba40b9491"),
    "u9": (["c2=2"], "48b6dea5bd3ae3a67e3324c610a73312e1f2660de2457e6268464f61e2d03eff"),
    "u10": (["c2=-3/2"], "83e000a2a1fa285a11455258707fb94fc861b4f481b9c892005fb7207c6fdd11"),
}


@pytest.mark.parametrize("fid", FAMILY_IDS)
def test_rh_every_family_byte_identical(fid):
    free, digest = _RH_COMMANDS[fid]
    argv = ["rh", "--family", fid, "--param", "b=3"]
    for pair in free:
        argv += ["--param", pair]
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    doc = json.loads(text)["system"]
    system = generate_system()
    # each [[e0, ..., e9], n, d] triple is one coefficient n/d, exactly
    assert doc["powers"] == list(system.powers)
    assert ([{tuple(e): Fraction(n, d) for e, n, d in eq} for eq in doc["equations"]]
            == [eq.terms for eq in system.equations])
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


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_out_path_that_cannot_be_opened_exit_2(tmp_path, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, text = run(["catalog", "list", "--out", str(out)])
    assert code == 2
    assert json.loads(text) == {
        "error": "invalid-input",
        "message": f"--out {out}: " + ("No such file or directory" if where == "missing-directory"
                                       else "Is a directory")}
    assert not (tmp_path / "missing").exists()


def test_malformed_param_exit_2():
    code, out = run(["verify", "--family", "u6", "--param", "b3"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-input"
    # equiv names the flag it read, not --param
    for flag, argv in (
            ("--left-param", ["equiv", "--left", "u3", "--left-param", "b3", "--right", "u1",
                              "--right-param", "b=3", "--right-param", "mu=1"]),
            ("--right-param", ["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
                               "--right-param", "b3", "--right-param", "mu=1"])):
        code, out = run(argv)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "invalid-input"
        assert doc["message"] == f"{flag} expects name=value, got 'b3'"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1/0"])
def test_non_exact_param_exit_2(value):
    code, out = run(["riccati", "--param", "alpha=1", "--param", f"beta={value}",
                     "--param", "gamma=1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid-input"
    assert f"--param beta={value}" in doc["message"]
    code, out = run(["equiv", "--left", "u3", "--left-param", f"b={value}",
                     "--right", "u1", "--right-param", "b=3", "--right-param", "mu=1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid-input"
    assert doc["message"].startswith(f"--left-param b={value} is not an exact number")


@pytest.mark.parametrize("argv, name", [
    (["riccati", "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1",
      "--param", "b=3"], "b"),
    (["cole-hopf", "--branch", "plus", "--param", "b=3", "--param", "mu=1",
      "--param", "detla=5"], "detla"),
    (["rh", "--family", "u3", "--param", "b=3", "--param", "a2=1"], "a2"),
    (["rh", "--family", "u9", "--param", "b=3", "--param", "c2=2",
      "--param", "a2=1"], "a2"),
    (["pipeline", "check", "--case", "first", "--param", "b=3", "--param", "alpha=1",
      "--param", "beta=2", "--param", "gamma=1", "--param", "mu=1"], "mu"),
    (["pipeline", "solve", "--param", "b=3", "--param", "alpha=0", "--param", "beta=1",
      "--param", "gamma=-1", "--param", "lam=1", "--seeds", "5"], "lam"),
])
def test_unknown_param_name_exit_2(argv, name):
    code, out = run(argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid-input"
    assert f"no parameter {name!r}" in doc["message"]


@pytest.mark.parametrize("argv, name", [
    (["verify", "--family", "u6", "--param", "b=3", "--param", "b=5"], "b"),
    (["riccati", "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1",
      "--param", "alpha=2"], "alpha"),
    (["equiv", "--left", "u3", "--left-param", "b=3", "--left-param", "b=1",
      "--right", "u1", "--right-param", "b=3", "--right-param", "mu=1"], "b"),
    (["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
      "--right-param", "b=3", "--right-param", "mu=1", "--right-param", "mu=1"], "mu"),
], ids=["param", "riccati", "left-param", "right-param"])
def test_repeated_param_name_exit_2(argv, name):
    code, out = run(argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid-input"
    assert doc["message"] == f"parameter {name!r} is given more than once"


def test_missing_command_param_exit_2():
    code, out = run(["rh", "--family", "u7", "--param", "b=3"])
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": "rh requires --param a2=..."}


@pytest.mark.parametrize("argv, flag", [
    (["riccati", "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1",
      "--samples", "0"], "--samples"),
    (["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u6",
      "--right-param", "b=3", "--points", "0"], "--points"),
])
def test_count_below_one_exit_2(argv, flag):
    code, out = run(argv)
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": f"{flag} must be >= 1"}


@pytest.mark.parametrize("argv, flag", [
    (["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u6",
      "--right-param", "b=3", "--seed", "-1"], "--seed"),
    (["pipeline", "solve", "--param", "b=3", "--param", "alpha=0", "--param", "beta=1",
      "--param", "gamma=-1", "--seeds", "4", "--rng-seed", "-5"], "--rng-seed"),
])
def test_negative_seed_exit_2(argv, flag):
    code, out = run(argv)
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": f"{flag} must be >= 0"}


_VERIFY_KINK = ["verify", "--family", "u1", "--param", "b=3", "--param", "mu=1",
                "--param", "delta=1"]
_EQUIV_U3_U1 = ["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
                "--right-param", "b=3", "--right-param", "mu=1"]


@pytest.mark.parametrize("argv", [_VERIFY_KINK, _EQUIV_U3_U1], ids=["verify", "equiv"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-3"])
def test_tolerance_not_finite_positive_exit_2(argv, value):
    # with --tol inf a verdict would pass whatever the residual
    code, out = run(argv + [f"--tol={value}"])
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": f"--tol must be finite and > 0, got {float(value)}"}


@pytest.mark.parametrize("flags, message", [
    (["--nx", "0"], "nx and nt must both be >= 2"),
    (["--nx", "1"], "nx and nt must both be >= 2"),
    (["--t", "nan", "--nx", "3"], "x_min, x_max, t_min and t_max must be finite"),
    (["--t", "inf"], "x_min, x_max, t_min and t_max must be finite"),
    (["--x-min=-inf"], "x_min, x_max, t_min and t_max must be finite"),
    (["--x-min", "5", "--x-max", "-5"], "x_min must be < x_max"),
    (["--eps-den", "-1"], "eps_den must be positive"),
    (["--eps-den", "nan"], "eps_den must be positive"),
    (["--eps-den", "inf"], "eps_den must be finite"),
    (["--x-min", "-1e308", "--x-max", "1e308"], "x_max - x_min and t_max - t_min must be finite"),
])
def test_plot_data_bad_grid_exit_2(flags, message):
    code, out = run(["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"] + flags)
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input", "message": message}


def test_verify_infinite_grid_bound_exit_2():
    code, out = run(["verify", "--family", "u6", "--param", "b=3", "--x-max", "inf"])
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": "x_min, x_max, t_min and t_max must be finite"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["verify", "--family", "u6", "--param", "b=3", "--x-min", "-1e308", "--x-max", "1e308"],
    ["cole-hopf", "--branch", "plus", "--param", "b=3", "--param", "mu=1",
     "--t-min", "-1e308", "--t-max", "1e308"],
], ids=["verify", "cole-hopf"])
def test_grid_span_beyond_the_float_range_exit_2(argv):
    # finite bounds whose difference overflows: np.linspace would warn and
    # make NaN and inf grid points
    code, out = run(argv)
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input",
                               "message": "x_max - x_min and t_max - t_min must be finite"}


def test_verify_infinite_eps_den_exit_2():
    # not "the singularity guard swallowed the whole grid"
    code, out = run(["verify", "--family", "u6", "--param", "b=3", "--eps-den", "inf"])
    assert code == 2
    assert json.loads(out) == {"error": "invalid-input", "message": "eps_den must be finite"}


@pytest.mark.parametrize("argv, flag, value, want_code", [
    (["verify", "--family", "u6", "--param", "b=3"], "--x-min", "-1e1", 0),
    (["verify", "--family", "u6", "--param", "b=3"], "--t-min", "-1e-1", 0),
    (["plot-data", "--family", "u6", "--param", "b=3", "--nx", "5"], "--t", "-1e1", 0),
    (["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"], "--x-min", "-1E1", 0),
    (_EQUIV_U3_U1, "--tol", "-1e-3", 2),
    (_VERIFY_KINK, "--tol", "-1e-3", 2),
    (["verify", "--family", "u6", "--param", "b=3"], "--x-min", "-inf", 2),
])
def test_negative_float_flag_value_as_separate_word(argv, flag, value, want_code):
    # argparse alone reads -1e1 or -inf after a flag as an option name and
    # exits with a usage message and no JSON
    code, out = run(argv + [flag, value])
    assert code == want_code
    assert (code, out) == run(argv + [f"{flag}={value}"])
    if code == 2:
        assert json.loads(out)["error"] == "invalid-input"


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "u6", "--param", "b=1e400"],
    ["pipeline", "check", "--case", "fourth", "--param", "b=1e200", "--param", "alpha=1",
     "--param", "beta=1", "--param", "gamma=1/5"],
    ["rh", "--family", "u7", "--param", "b=3", "--param", "a2=1e200"],
    ["cole-hopf", "--branch", "plus", "--param", "b=1e200", "--param", "mu=1/2"],
], ids=["verify", "pipeline-check", "rh", "cole-hopf"])
def test_value_outside_float_range_exit_2(argv):
    code, out = run(argv)
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "invalid-input"
    assert doc["message"].startswith(
        "a value derived from the parameters is outside the float range")


def test_pipeline_check_irrational_third_case():
    # u14/u15 have the rational radical sqrt(1) and stay exact; u16-u19
    # carry sqrt(241)/4 as a float, so every residual is the exact residual
    # at the floats, rounded once
    code, out = run(["pipeline", "check", "--case", "third", "--param", "b=3",
                     "--param", "alpha=1/4", "--param", "beta=0", "--param", "gamma=1/4"])
    assert code == 0
    entries = {e["family"]: e for e in json.loads(out)["tuples"]}
    for fid in ("u14", "u15"):
        assert entries[fid]["exact"] is True and entries[fid]["pass"] is True
        assert entries[fid]["residuals"] and all(r == "0/1" for r in entries[fid]["residuals"])
    for fid in ("u16", "u17", "u18", "u19"):
        e = entries[fid]
        assert e["exact"] is False and e["pass"] is True
        assert e["residuals"] and all(type(r) in (int, float) and abs(r) < 1e-9
                                      for r in e["residuals"])


def test_pipeline_check_names_each_family_whose_radicand_fails():
    # S = -44 for u14 and u15, 49/4 for u16-u19
    code, out = run(["pipeline", "check", "--case", "third", "--param", "b=3",
                     "--param", "alpha=1/8", "--param", "beta=0", "--param", "gamma=1"])
    assert code == 2
    assert json.loads(out) == {"error": "constraint-violation", "violations": [
        "u14: discriminant S >= 0", "u15: discriminant S >= 0"]}
    # a failed case condition is the same for every family, and comes first
    code, out = run(["pipeline", "check", "--case", "third", "--param", "b=3",
                     "--param", "alpha=1/8", "--param", "beta=1", "--param", "gamma=1"])
    assert code == 2
    assert json.loads(out)["violations"] == ["beta = 0"]


# (exit code, sha256 of stdout) of each README command, with stdout in
# place of --out; recorded from the code before the admissibility table
# and the exact `riccati` inputs
_README_COMMANDS = [
    (["catalog", "list"], 0,
     "c04145e886a555d8088c5e79f1ad25022449bc2e9e466ff74ef8996813d8e5cf"),
    (["verify", "--family", "u6", "--param", "b=3"], 0,
     "565cd5d7718839135e0609423380044488716c2038b1c95419a27b2d1d7a07c7"),
    (["verify", "--family", "u5", "--param", "b=3"], 0,
     "cdc1e047e8d251c9653cd0312f0285038676776599807ff9ff2f5282d483a3ff"),
    (["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"], 2,
     "f2034b0f3eeea0b158ae93ac2261ada15979e7bb61987f8542a1d0ee46dc1eaf"),
    (["verify", "--family", "u6", "--param", "b=3", "--method", "finite-difference"], 0,
     "6054524821229f5e8867d89000d540c7419800877d60ec7a99c4acf541eb33e2"),
    (["riccati", "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1"], 0,
     "f34a696dfda28093f0fd74437b6aad875e9e95a6a9a68b2f3f46072d6efe01d8"),
    (["cole-hopf", "--branch", "plus", "--param", "b=3", "--param", "mu=1"], 0,
     "fd3b78d5958a4c34202da5c4228b81dd8d40b6376609816abdb0fefd4fde45aa"),
    (["rh", "--family", "u7", "--param", "b=3", "--param", "a2=1"], 0,
     "9f8486d008cdab61c98c5c8110d4970228542b3bf8160f99ae619939aa302c18"),
    (["pipeline", "generate"], 0,
     "5772efa7e40dad998618da112fa3ae9cd54a5a3e5eed2c94da792aeab97a2261"),
    (["pipeline", "check", "--case", "first", "--param", "b=3", "--param", "alpha=1",
      "--param", "beta=2", "--param", "gamma=1"], 0,
     "cc5b0123056e6f247a64e030a06eee991163fb6a19c479bf75b42d23ad9c4bcf"),
    (["pipeline", "solve", "--param", "b=3", "--param", "alpha=0", "--param", "beta=1",
      "--param", "gamma=-1", "--seeds", "400", "--rng-seed", "0"], 0,
     "276bb573db5773fc652a75d6a4c869ed0bea478d7e72ec12dc330c175894528d"),
    (["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
      "--right-param", "b=3", "--right-param", "mu=1"], 0,
     "4c6a8d2866118fed4fd2f256d68d5cb093c44f7f4e08eb659ddbaa251cab4e9d"),
    (["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"], 0,
     "7ecb8ce38a4bd9bacd76fc165a13aecbe8878e79ff9dda0e3693ca924847de4b"),
]


def test_readme_commands_byte_identical():
    for argv, want_code, digest in _README_COMMANDS:
        code, out = run(argv)
        assert code == want_code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_readme_library_snippet_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(snippet, scope)
    assert scope["report"].points_skipped == 6


# correct waves that FAIL with max_abs "inf": on the default grid |xi| runs
# far from 0 where lam is large, powers of cosh in the differentiated tree
# overflow and inf/inf gives NaN (ROADMAP item 5)
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: float overflow at large |xi|")
@pytest.mark.parametrize("argv", [
    "verify --family u6 --param b=100",
    "verify --family u6 --param b=200",
    "verify --family u3 --param b=300",
    "verify --family u1 --param b=-1/2 --param mu=5",
    "cole-hopf --branch plus --param b=-1/2 --param mu=5",
    "cole-hopf --branch minus --param b=-1/2 --param mu=5",
], ids=["verify-u6-b100", "verify-u6-b200", "verify-u3-b300", "verify-u1-mu5",
        "cole-hopf-plus-mu5", "cole-hopf-minus-mu5"])
def test_overflow_commands_pass(argv):
    code, out = run(argv.split())
    assert code == 0, json.loads(out)["report"]["max_abs"]


# (command, exit code, sha256 of stdout) at b < -1, where u11's sign in
# riccati.RADICALS flips so that its root -(b+1) stays its speed; recorded
# from the code before u3..u11 joined that table
_BELOW_B_MINUS_ONE = [
    ("verify --family u11 --param b=-3/2 --param alpha=1 --param beta=2 --param gamma=1",
     0, "5eb91751a00e799edc70897388a3b991e5b5d0ccb5746342fae3656026d5a87d"),
    ("verify --family u11 --param b=-3 --param alpha=1 --param beta=2 --param gamma=1",
     0, "57537d85cae9295d90d44df53c09a78e7cfe9fd4be6f16b6bfcd04d0bc1617b2"),
    ("verify --family u3 --param b=-3/2",
     0, "97b8c203ab9d792d10a149b1d2b116cf182432c72d11f43f93a57431532276e7"),
    ("verify --family u4 --param b=-3",
     0, "30e089f6995e54f0bea4556b0f300a423de000cd4b86fbdc2a83f05e0a91428c"),
    ("verify --family u5 --param b=-3/2",
     0, "94a6b492361aecea1858cc5622deca10eb2f95f5bb56e3e221fe7eddc0f94797"),
    ("verify --family u6 --param b=-3",
     0, "58203f46b351f94a0b7c02df6d71e57d92bf67d08f81e95ac62f5f2b96d761cd"),
    ("verify --family u7 --param b=-3 --param a2=1",
     0, "19b8e8e6d3f3c78a25cd877fc55aeab6a49ac09b885c6285e918600025ad39e9"),
    ("verify --family u8 --param b=-3/2 --param a2=3",
     0, "5c44ff78f87f5d140138c568d6485370745a7531aef18ac95425cbebe460a80d"),
    ("verify --family u9 --param b=-3/2 --param c2=2",
     0, "67bad351546b67e9b9f32f4302eff7380784c1db294b327780fa4ba8e83efa4b"),
    ("verify --family u10 --param b=-3 --param c2=2",
     0, "938f735125568f2005289e3001d20584ab2fdc222c150a7678898a2a1df0abe3"),
    ("verify --family u1 --param b=-3/2 --param mu=1",
     0, "107c5897ae315b4681681d16a33a64a278e61d4deb5a046166f90eb2ee738564"),
    ("verify --family cole_hopf --param b=-3 --param mu=1/2 --param branch=-1",
     0, "287197888d9a180c8d343f9e25e583d83681271ef36b9efe31789c11b6d65209"),
    ("verify --family u20 --param b=-3/2 --param alpha=0 --param beta=1 --param gamma=1",
     0, "766fd411d35ba5cc166eab11e61eecc65bcd0f8cda904405105402d6c7f4de5e"),
    ("verify --family u13 --param b=-3 --param beta=1 --param gamma=1",
     0, "7cf630efbbf45fb24dd7ece76a796f94e0538183e4520fff09dbc9edca998a5b"),
    ("pipeline check --case first --param b=-3/2 --param alpha=1 --param beta=2 --param gamma=1",
     0, "0772e6b33008f844f64a86a6e812c9be34da4bbc582d3afa66cbca0de8e52649"),
    ("pipeline check --case first --param b=-3 --param alpha=1 --param beta=2 --param gamma=1",
     0, "432b357e3216c7f410ba45240ceec9996d6b20dc7a4bc4a9d10cf5fd9cc56168"),
    ("pipeline check --case second --param b=-3 --param alpha=0 --param beta=1 --param gamma=-1",
     0, "8dc8127d79b83d1e66ec3aea4e8f7e0f8988ce516a51ac6cf3f81d65be972224"),
    ("pipeline check --case fourth --param b=-3/2 --param alpha=2 --param beta=3 --param gamma=1",
     0, "47e461b8611d2195bcab1ceedb039e48fc239fba744532f9d6144020a6e9c1b8"),
    ("cole-hopf --branch plus --param b=-3/2 --param mu=1",
     0, "7cbcfc386aa2091d6ec8daffa8bbb85fe42620aebd4d53f425c5060747a524ac"),
    ("rh --family u7 --param b=-3 --param a2=1",
     0, "a765d204d84f9332e39644b05a3a47d77d01a822f9660d2ad313268951161ede"),
]


@pytest.mark.parametrize("command, want_code, digest", _BELOW_B_MINUS_ONE,
                         ids=[re.sub(r"--\w+ ", "", c) for c, _, _ in _BELOW_B_MINUS_ONE])
def test_commands_below_b_minus_one_byte_identical(command, want_code, digest):
    code, out = run(command.split())
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs in a fresh interpreter: imports mdpwave and mdpwave.cli, then runs
# each command line of argv[1] (JSON), printing one JSON row per step:
# (command, exit code, sha256 of stdout, numpy loaded).
_NUMPY_PROBE = """
import contextlib, hashlib, io, json, sys
import mdpwave
import mdpwave.cli
rows = [["import", None, None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mdpwave.cli.main(argv)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    rows.append([argv, code, digest, "numpy" in sys.modules])
print(json.dumps(rows))
"""


def test_numpy_loads_on_first_array_evaluation():
    readme = {tuple(argv): (code, digest) for argv, code, digest in _README_COMMANDS}
    numpy_free = [
        ["catalog", "list"],
        ["pipeline", "generate"],
        ["pipeline", "check", "--case", "first", "--param", "b=3", "--param", "alpha=1",
         "--param", "beta=2", "--param", "gamma=1"],
        ["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"],
    ]
    first_array = ["verify", "--family", "u6", "--param", "b=3"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE,
                           json.dumps(numpy_free + [first_array])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert rows[0] == ["import", None, None, False]
    for argv, code, digest, numpy_loaded in rows[1:]:
        assert [code, digest] == list(readme[tuple(argv)]), argv
        assert numpy_loaded is (argv == first_array), argv


def _collector():
    return gc.isenabled(), gc.get_freeze_count()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_with_argv_leaves_the_collector_alone(enabled):
    # an embedder's (or this suite's) collector is neither frozen nor
    # switched, on a pass, an exit 2 from a command and one from parse_args
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = _collector()
        assert run(["catalog", "list"])[0] == 0
        assert _collector() == before
        assert run(["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"])[0] == 2
        assert _collector() == before
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
            main(["pipeline", "check", "--case", "fifth"])
        assert _collector() == before
    finally:
        (gc.enable if was else gc.disable)()


# Runs in a fresh interpreter: sets sys.argv to argv[1] (JSON) with the
# collector on or off as argv[2] says, calls main() and prints (exit code,
# sha256 of stdout, collections made during the call, collector enabled
# after it, frozen object count after it).
_OWN_ARGV_PROBE = """
import contextlib, gc, hashlib, io, json, sys
from mdpwave.cli import main
argv, enabled = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if not enabled:
    gc.disable()
sys.argv = ["mdpwave", *argv]
collections = lambda: sum(s["collections"] for s in gc.get_stats())
buf, made = io.StringIO(), collections()
with contextlib.redirect_stdout(buf):
    code = main()
made = collections() - made
digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps([code, digest, made, gc.isenabled(), gc.get_freeze_count()]))
"""


def _python(*args, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               **kwargs.pop("env", {}))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          timeout=120, **kwargs)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("index", [1, 3], ids=["verify-u6", "verify-u1-mu2"])
def test_main_on_its_own_argv_makes_no_collection_and_freezes_the_heap(index, enabled):
    argv, want_code, digest = _README_COMMANDS[index]
    proc = _python("-c", _OWN_ARGV_PROBE, json.dumps(argv), json.dumps(enabled))
    assert proc.returncode == 0, proc.stderr
    code, got_digest, made, enabled_after, frozen = json.loads(proc.stdout)
    assert [code, got_digest] == [want_code, digest]
    assert made == 0
    assert enabled_after is enabled
    assert frozen > 0


def test_readme_commands_through_the_console_entry(tmp_path):
    # `python -c CLI_ENTRY`, as the console script and perfbench run it:
    # the exit code, stdout, stderr and an --out file written in full
    # before the interpreter exits with a frozen heap
    from test_imports import _EMPTY, _HELP_AND_USAGE
    readme = {tuple(argv): (code, digest) for argv, code, digest in _README_COMMANDS}
    entry = "import sys; from mdpwave.cli import main; sys.exit(main())"
    sha = lambda data: hashlib.sha256(data).hexdigest()
    argv = ["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"]
    out = tmp_path / "u6.csv"
    proc = _python("-c", entry, *argv, "--out", str(out))
    assert [proc.returncode, sha(out.read_bytes())] == list(readme[tuple(argv)])
    assert proc.stdout == proc.stderr == b""
    argv = ["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"]
    proc = _python("-c", entry, *argv)
    assert [proc.returncode, sha(proc.stdout)] == list(readme[tuple(argv)])
    assert proc.stderr == b""
    # exit 2 from parse_args, through main's `finally`
    [(argv, want_code, out_digest, err_digest)] = [
        row for row in _HELP_AND_USAGE if row[0] == ["pipeline", "check", "--case", "fifth"]]
    proc = _python("-c", entry, *argv, env={"COLUMNS": "80"})
    assert [proc.returncode, sha(proc.stdout)] == [want_code, out_digest] == [2, _EMPTY]
    if sys.version_info[:2] == (3, 11):  # digests are of Python 3.11's argparse layout
        assert sha(proc.stderr) == err_digest
