"""Start-up: what each process imports, and the CLI's help and usage bytes.

Covers:
  - `import mdpwave` loads no `mdpwave.*` submodule, and `__all__`,
    `dir(mdpwave)` and `from mdpwave import *` still give every public
    name; an unknown attribute raises AttributeError
  - `import mdpwave.cli` loads only `mdpwave.cli` and `mdpwave.errors`
  - each README command loads exactly the modules `_README_MODULES` lists,
    and `pipeline check` loads no wave maker in any case
  - `import mdpwave.pipeline` starts no thread, and `pipeline solve` at
    20 seeds does not load `concurrent.futures`
  - `--help` of the program and of every subcommand, and the usage errors,
    byte for byte (sha256 pinned)

The import checks run in fresh interpreters, since a module stays loaded
once any test has imported it.
"""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import mdpwave
from mdpwave.cli import main

_PUBLIC = ["expr", "riccati", "catalog", "colehopf", "rational_hyperbolic",
           "polyalg", "pipeline", "verifier",
           "MdpWaveError", "UnboundSymbol", "ConstraintViolation",
           "UnclassifiableCoefficients", "SampleAtPole", "AllPointsSkipped",
           "__version__"]


def _fresh(code, *args):
    """stdout of `code`, run as `python -c` in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = "sorted(m[len('mdpwave.'):] for m in sys.modules if m.startswith('mdpwave.'))"

_PACKAGE_PROBE = f"""
import json, sys
import mdpwave
loaded = {_LOADED}
names = dir(mdpwave)
star = {{}}
exec("from mdpwave import *", star)
print(json.dumps([loaded, names, sorted(star)]))
"""


def test_import_mdpwave_loads_no_submodule():
    loaded, names, star = _fresh(_PACKAGE_PROBE)
    assert loaded == []
    assert sorted(mdpwave.__all__) == sorted(_PUBLIC)
    assert set(_PUBLIC) <= set(names)
    assert set(star) - {"__builtins__"} == set(_PUBLIC)


def test_lazy_names_are_the_modules_and_classes():
    from mdpwave import catalog, errors
    star = {}
    exec("from mdpwave import *", star)
    assert star["catalog"] is catalog and mdpwave.catalog is catalog
    assert star["ConstraintViolation"] is errors.ConstraintViolation
    assert mdpwave.errors is errors


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mdpwave.no_such_name


def test_import_cli_loads_only_errors():
    assert _fresh(f"import json, sys, mdpwave.cli; print(json.dumps({_LOADED}))") \
        == ["cli", "errors"]


# The mdpwave modules each README command loads besides `cli` and `errors`,
# its exit code, and its arguments (stdout in place of --out).  `catalog`
# brings `expr`, `rational_hyperbolic`, `riccati` and `verifier` with it;
# `pipeline check` reads its radicands from `riccati`, never from `catalog`.
_WAVES = ["catalog", "expr", "rational_hyperbolic", "riccati", "verifier"]
_PIPELINE = ["expr", "pipeline", "polyalg", "riccati"]
_README_MODULES = [
    (["catalog", "list"], 0, _WAVES + ["report"]),
    (["verify", "--family", "u6", "--param", "b=3"], 0, _WAVES + ["report"]),
    (["verify", "--family", "u5", "--param", "b=3"], 0, _WAVES + ["report"]),
    (["verify", "--family", "u1", "--param", "b=3", "--param", "mu=2"], 2,
     _WAVES + ["report"]),
    (["verify", "--family", "u6", "--param", "b=3", "--method", "finite-difference"], 0,
     _WAVES + ["report"]),
    (["riccati", "--param", "alpha=1", "--param", "beta=2", "--param", "gamma=1"], 0,
     ["expr", "report", "riccati"]),
    (["cole-hopf", "--branch", "plus", "--param", "b=3", "--param", "mu=1"], 0,
     _WAVES + ["colehopf", "report"]),
    (["rh", "--family", "u7", "--param", "b=3", "--param", "a2=1"], 0, _WAVES + ["report"]),
    (["pipeline", "generate"], 0, _PIPELINE + ["report"]),
    (["pipeline", "check", "--case", "first", "--param", "b=3", "--param", "alpha=1",
      "--param", "beta=2", "--param", "gamma=1"], 0, _PIPELINE + ["report"]),
    (["pipeline", "solve", "--param", "b=3", "--param", "alpha=0", "--param", "beta=1",
      "--param", "gamma=-1", "--seeds", "400", "--rng-seed", "0"], 0, _PIPELINE + ["report"]),
    (["equiv", "--left", "u3", "--left-param", "b=3", "--right", "u1",
      "--right-param", "b=3", "--right-param", "mu=1"], 0, _WAVES + ["report"]),
    (["plot-data", "--family", "u6", "--param", "b=3", "--t", "0"], 0, _WAVES),
]

_COMMAND_PROBE = f"""
import contextlib, io, json, sys
import mdpwave.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = mdpwave.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, {_LOADED}]))
"""


@pytest.fixture(scope="module")
def readme_runs():
    """(exit code, loaded modules) of each README command, two at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(lambda row: _fresh(_COMMAND_PROBE, json.dumps(row[0])),
                             _README_MODULES))


@pytest.mark.parametrize("i", range(len(_README_MODULES)),
                         ids=[" ".join(argv[:2]) + f" #{i}"
                              for i, (argv, _, _) in enumerate(_README_MODULES)])
def test_readme_command_loads_only_its_modules(readme_runs, i):
    _, want_code, modules = _README_MODULES[i]
    code, loaded = readme_runs[i]
    assert code == want_code
    assert loaded == sorted(modules + ["cli", "errors"])


def test_import_pipeline_starts_no_thread():
    assert _fresh("import json, threading, mdpwave.pipeline; "
                  "print(json.dumps(threading.active_count()))") == 1


_SOLVE_PROBE = """
import contextlib, io, json, sys
import mdpwave.cli
argv = ["pipeline", "solve", "--param", "b=3", "--param", "alpha=0", "--param", "beta=1",
        "--param", "gamma=-1", "--seeds", "20", "--rng-seed", "0"]
with contextlib.redirect_stdout(io.StringIO()):
    code = mdpwave.cli.main(argv)
print(json.dumps([code, "concurrent.futures" in sys.modules]))
"""


def test_small_pipeline_solve_loads_no_thread_pool():
    # cli-readme runs `pipeline solve` at 20 seeds, too few to split a
    # least-squares stack; concurrent.futures brings logging, about 6 ms
    assert _fresh(_SOLVE_PROBE) == [0, False]


# the cases whose families carry sqrt(S), which the README does not run
_RADICAL_CASES = [
    ["second", "alpha=0", "beta=1", "gamma=-1"],
    ["third", "alpha=1/4", "beta=0", "gamma=1/4"],
    ["fourth", "alpha=2", "beta=3", "gamma=1"],
]


@pytest.mark.parametrize("case", _RADICAL_CASES, ids=[c[0] for c in _RADICAL_CASES])
def test_pipeline_check_loads_no_wave_maker(case):
    argv = ["pipeline", "check", "--case", case[0], "--param", "b=3"]
    for binding in case[1:]:
        argv += ["--param", binding]
    code, loaded = _fresh(_COMMAND_PROBE, json.dumps(argv))
    assert code == 0
    assert loaded == sorted(_PIPELINE + ["cli", "errors", "report"])


# (exit code, sha256 of stdout, sha256 of stderr) of the program's help and
# usage errors at COLUMNS=80, recorded from the parser that built every
# subcommand in full; argparse lays help out differently in other Pythons
_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
_HELP_AND_USAGE = [
    (["--help"], 0, "4cfe823b59126272bd16eed0db4c8ded9950c8dcbd88c762ca8d24641753799d", _EMPTY),
    (["catalog", "--help"], 0,
     "6d5a99df21cf1e8daba9a42bcbd55b70f585a40ac7b4bd8bb6e9a850602bf5d8", _EMPTY),
    (["catalog", "list", "--help"], 0,
     "4def2dcb732ec6d0021fa86959d486dc7304c67f1677a1c2f00fd15c25b9a57d", _EMPTY),
    (["verify", "--help"], 0,
     "a36c72ce44b753a43b70d6a9000c216fd171eedc3d6b3f3c47ebb84dde2424fe", _EMPTY),
    (["riccati", "--help"], 0,
     "709a316fa62b10ba34f40c8698cbb9f63e0573e43ecb9fc2a1098561e86c9fb1", _EMPTY),
    (["cole-hopf", "--help"], 0,
     "bfa1508c29cb828f513498af86be0b218b03be31f803952146fbe3759c9429e4", _EMPTY),
    (["rh", "--help"], 0,
     "c348ac3c740d26c73b98cf2a82a62f18834dcc72c4c55bf219bb5cb8f9b13f25", _EMPTY),
    (["pipeline", "--help"], 0,
     "c342ed5b3f3bc8785eeb3ef4967a1bf1d8544ea4872947002535561d12a5de26", _EMPTY),
    (["pipeline", "generate", "--help"], 0,
     "b4713135e7e5bcd32b84e0583f7de20495f48af6b785eb2d15047b5352bd1784", _EMPTY),
    (["pipeline", "check", "--help"], 0,
     "3bca5bc6e8cb6ed93940556ef28efef003a654986d2f32813e96d4ac8f70dde0", _EMPTY),
    (["pipeline", "solve", "--help"], 0,
     "3a49fe437f94c5dc09d268e19e4794876cb3b6949592991a97a21ca46fba527d", _EMPTY),
    (["equiv", "--help"], 0,
     "61f586b4c80e6f3e0761b0ff8e0765d937ad50335861671b0a7d62d1886c2ddb", _EMPTY),
    (["plot-data", "--help"], 0,
     "3ca82bf667d88dcbc4d79b797df7a5b970d7bb7bd58ecdfe498160ada488fe9f", _EMPTY),
    ([], 2, _EMPTY, "c613fddaf6433ef084f52cfa230d47e280e1a8c52ea2a919df0b6ce45d297028"),
    (["frobnicate"], 2, _EMPTY,
     "294547a1d207f00cf5b3cefc0df22f78b2445d1a39a659627bef72ce5581d072"),
    (["rh", "--family", "u99"], 2, _EMPTY,
     "be1d1e56d4219f1cade3d88d7a4b2a04153a693b39438dac71a50a7b5bd4af6a"),
    (["pipeline", "check", "--case", "fifth"], 2, _EMPTY,
     "686034ba4ead859018fb342c9e1487446c8e513975faa2f87b3abfa11f467c1e"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="digests are of Python 3.11's argparse layout")
@pytest.mark.parametrize("argv, want_code, out_digest, err_digest", _HELP_AND_USAGE,
                         ids=[" ".join(argv) or "(none)" for argv, *_ in _HELP_AND_USAGE])
def test_help_and_usage_bytes(monkeypatch, argv, want_code, out_digest, err_digest):
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == want_code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == out_digest
    assert hashlib.sha256(err.getvalue().encode()).hexdigest() == err_digest
