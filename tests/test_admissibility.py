"""Admissibility decisions, pinned byte for byte.

Covers:
  - catalog.validate for all 24 families over a parameter sweep that hits
    b in {-1, -2}, mu = 0, beta = 0, alpha*gamma <= 0, Delta <= 0, S < 0,
    branch outside {+1, -1} and cole_hopf's lambda = 0 corner
  - the tuples and violation lists of pipeline.ansatz_tuple for all four
    cases over the same sweep
  - rational_hyperbolic.family_violations and colehopf.branch_params
  - the `catalog list` report

Each sweep renders one text line per call; the sha256 of each text was
recorded from the code before the admissibility checks moved into one
table, so any change in a label, its order or a value fails here.
"""
import contextlib
import hashlib
import io
import itertools
from fractions import Fraction as F

import pytest

from mdpwave import catalog, colehopf
from mdpwave import pipeline as pl
from mdpwave import rational_hyperbolic as rh
from mdpwave.cli import main
from mdpwave.errors import ConstraintViolation

B = (-2, -1, F(-1, 2), 0, 1, 3)
MU = (0, F(1, 2), F(7, 10), 1, -1, 2)
ALPHA = (-1, 0, F(1, 4), F(1, 2), 1, 2)
BETA = (0, F(1, 2), 1, F(7, 10), 2, -2)
GAMMA = (-1, 0, F(1, 4), F(1, 2), 1, 2)
BRANCH = (1, -1, 0, 2)
A2 = (None, 0, F(1, 2), 1, -3, 2)
C2 = (None, 0, F(1, 2), -1, F(3, 2), 2)

_AXES = {"b": B, "mu": MU, "alpha": ALPHA, "beta": BETA, "gamma": GAMMA,
         "branch": BRANCH, "a2": A2[1:], "c2": C2[1:]}


def _outcome(call):
    try:
        return repr(call())
    except (ConstraintViolation, ValueError) as err:
        return f"{type(err).__name__}: {err}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _catalog_lines(fid):
    names = [f["parameters"] for f in catalog.list_families() if f["id"] == fid][0]
    for values in itertools.product(*(_AXES[n] for n in names)):
        params = dict(zip(names, values))
        yield f"{values} -> {catalog.validate(fid, params)}"


def _ansatz_lines(case):
    for fid in pl.CASE_FAMILIES[case]:
        for a, be, g, b in itertools.product(ALPHA, BETA, GAMMA, B):
            yield f"{fid} {(a, be, g, b)} -> " + _outcome(
                lambda: pl.ansatz_tuple(fid, a, be, g, b))


def _rh_lines():
    for fid, b, a2, c2 in itertools.product(rh.FAMILY_IDS, B, A2, C2):
        yield f"{fid} {(b, a2, c2)} -> " + _outcome(
            lambda: rh.family_violations(fid, b, a2=a2, c2=c2))


def _branch_lines():
    floats = (tuple(float(v) for v in B), tuple(float(v) for v in MU))
    for bs, mus in ((B, MU), floats):
        for branch, b, mu in itertools.product(("plus", "minus", "up"), bs, mus):
            yield f"{branch} {(b, mu)} -> " + _outcome(
                lambda: colehopf.branch_params(branch, b, mu))


_CATALOG_DIGESTS = {
    "u1": "93c7e1676f09ffe2125e8f359e4ccb3d95cef785fcd89e3069c733648d972ac7",
    "u2": "93c7e1676f09ffe2125e8f359e4ccb3d95cef785fcd89e3069c733648d972ac7",
    "u3": "fbf8e6b2530bce04cf63b0c685b5cceb953ee40cc56845514609031bdfd24689",
    "u4": "fbf8e6b2530bce04cf63b0c685b5cceb953ee40cc56845514609031bdfd24689",
    "u5": "fbf8e6b2530bce04cf63b0c685b5cceb953ee40cc56845514609031bdfd24689",
    "u6": "fbf8e6b2530bce04cf63b0c685b5cceb953ee40cc56845514609031bdfd24689",
    "u7": "66b33318df7cd86b444a77220a6b99579e6ffc917922a403afdeaf47785b159a",
    "u8": "66b33318df7cd86b444a77220a6b99579e6ffc917922a403afdeaf47785b159a",
    "u9": "cdfd7de4d74524e3eee7317885f535fac1df217a602adb898deced225402ada6",
    "u10": "cdfd7de4d74524e3eee7317885f535fac1df217a602adb898deced225402ada6",
    "u11": "b8a09d0b08295ae60b714ce40116e9e4befa97a252135555c6196da4003aaeec",
    "u12": "f40785383d5a7351bb5774c439b35f6ddaceacafdc16f591c9ea460be7ec0fec",
    "u13": "f40785383d5a7351bb5774c439b35f6ddaceacafdc16f591c9ea460be7ec0fec",
    "u14": "421e2bbcb383096a489f74c21dfcd501831ef43caa711045208ae3093cfb52e5",
    "u15": "421e2bbcb383096a489f74c21dfcd501831ef43caa711045208ae3093cfb52e5",
    "u16": "92f5a00aedddf509ae8a1e7b75266050145617e905fbd8cbea0777336e10feaf",
    "u17": "92f5a00aedddf509ae8a1e7b75266050145617e905fbd8cbea0777336e10feaf",
    "u18": "92f5a00aedddf509ae8a1e7b75266050145617e905fbd8cbea0777336e10feaf",
    "u19": "92f5a00aedddf509ae8a1e7b75266050145617e905fbd8cbea0777336e10feaf",
    "u20": "62704fef0ff25ae8877d7bddafc36be0aea2dfa9063bcdc234bd75895240aed8",
    "u21": "62704fef0ff25ae8877d7bddafc36be0aea2dfa9063bcdc234bd75895240aed8",
    "u22": "62704fef0ff25ae8877d7bddafc36be0aea2dfa9063bcdc234bd75895240aed8",
    "u23": "62704fef0ff25ae8877d7bddafc36be0aea2dfa9063bcdc234bd75895240aed8",
    "cole_hopf": "4b6fe276e702ebdaebf5db34a8bf136fa305742a243495b08af41351b97fd4bc",
}

_OTHER_DIGESTS = {
    "ansatz first": "ed9b15819ba988bde8cbd9643c7684c93ca02d53644580cfb7e0d6c1878ab445",
    "ansatz fourth": "3a09ea35eac251bd5126f02c7ae6817c4259c2b22ef363931bb9bafd88b42274",
    "ansatz second": "5d4fc0e7f7414d38d09b1717bc1c9a70098db664dec487ba0230167e504382ab",
    "ansatz third": "3686563ae25940e37b4c65ebbcdb537abfb93bcfd5ff1036e08bb2815ac76582",
    "rh": "1334b491df129b3bc5c28132ed54f25280abdb8fb22554f880a2abca9d503084",
    "branch_params": "a34f7ad34e8cb094d68f5caf1692731a85be23920358a61752a3108998d5a769",
    "catalog list": "c04145e886a555d8088c5e79f1ad25022449bc2e9e466ff74ef8996813d8e5cf",
}


@pytest.mark.parametrize("fid, params, labels", [
    ("cole_hopf", dict(b=0, mu=1, branch=1), ["lambda != 0"]),
    ("cole_hopf", dict(b=-2, mu=0, branch=2), ["b != -2", "mu != 0", "branch in {+1, -1}"]),
    ("cole_hopf", dict(b=3, mu=2, branch=0), ["branch in {+1, -1}", "discriminant S >= 0"]),
    ("u1", dict(b=3, mu=2), ["discriminant S >= 0"]),
    ("u11", dict(b=-1, alpha=1, beta=0, gamma=1), ["b != -1", "beta != 0"]),
    ("u11", dict(b=3, alpha=1, beta=1, gamma=1), ["beta^2 = 4*alpha*gamma"]),
    ("u12", dict(b=3, beta=2, gamma=1), ["discriminant S >= 0"]),
    ("u14", dict(b=3, alpha=-1, gamma=1), ["alpha*gamma > 0", "discriminant S >= 0"]),
    ("u16", dict(b=1, alpha=0, gamma=1), ["alpha*gamma > 0"]),
    ("u20", dict(b=3, alpha=1, beta=0, gamma=1), ["Delta > 0"]),
    ("u22", dict(b=3, alpha=-1, beta=2, gamma=1), ["discriminant S >= 0"]),
    ("u7", dict(b=-1, a2=2), ["b != -1", "(b+1)^2*a2^2 >= 1"]),
    ("u9", dict(b=1, c2=F(1, 2)), ["c2^2 >= 1"]),
])
def test_sweep_corners(fid, params, labels):
    # each corner lies on the sweep grid, so the digests cover it
    assert all(v in _AXES[k] for k, v in params.items())
    assert catalog.validate(fid, params) == labels


@pytest.mark.parametrize("fid", catalog.family_ids())
def test_catalog_validate_golden(fid):
    assert _digest(_catalog_lines(fid)) == _CATALOG_DIGESTS[fid]


@pytest.mark.parametrize("case", sorted(pl.CASE_FAMILIES))
def test_ansatz_tuple_golden(case):
    assert _digest(_ansatz_lines(case)) == _OTHER_DIGESTS[f"ansatz {case}"]


def test_rh_family_violations_golden():
    assert _digest(_rh_lines()) == _OTHER_DIGESTS["rh"]


def test_colehopf_branch_params_golden():
    assert _digest(_branch_lines()) == _OTHER_DIGESTS["branch_params"]


def test_catalog_list_golden():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["catalog", "list"]) == 0
    assert _digest([buf.getvalue()]) == _OTHER_DIGESTS["catalog list"]
