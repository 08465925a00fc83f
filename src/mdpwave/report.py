"""Deterministic JSON and CSV emission.

Exact rationals serialize as "numerator/denominator" strings; floats are
printed with 17 significant digits (lossless round trip); non-finite
floats become the strings "inf", "-inf", "nan" to keep the output strict
JSON.  Identical inputs produce byte-identical output.
"""
from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

__all__ = ["dumps", "format_float", "format_value"]

INDENT = 2


def format_float(x):
    x = float(x)
    if not math.isfinite(x):
        return json.dumps(str(x))
    return format(x, ".17g")


def format_value(v):
    """Render one scalar as a JSON fragment."""
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if isinstance(v, bool) or np and isinstance(v, np.bool_):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, Fraction):
        return json.dumps(f"{v.numerator}/{v.denominator}")
    if isinstance(v, int) or np and isinstance(v, np.integer):
        return str(int(v))
    if isinstance(v, float) or np and isinstance(v, np.floating):
        return format_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps(obj):
    """Serialize nested dicts/lists of scalars; keys keep insertion order."""
    out = []

    def enc(v, level):
        pad = " " * (INDENT * level)
        pad_in = " " * (INDENT * (level + 1))
        if isinstance(v, dict):
            if not v:
                out.append("{}")
                return
            out.append("{\n")
            for i, (k, item) in enumerate(v.items()):
                out.append(f"{pad_in}{json.dumps(str(k))}: ")
                enc(item, level + 1)
                out.append(",\n" if i < len(v) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(v, (list, tuple)):
            if not v:
                out.append("[]")
                return
            simple = all(not isinstance(i, (dict, list, tuple)) for i in v)
            if simple and len(v) <= 8:
                out.append("[" + ", ".join(format_value(i) for i in v) + "]")
                return
            out.append("[\n")
            for i, item in enumerate(v):
                out.append(pad_in)
                enc(item, level + 1)
                out.append(",\n" if i < len(v) - 1 else "\n")
            out.append(pad + "]")
        else:
            out.append(format_value(v))

    enc(obj, 0)
    out.append("\n")
    return "".join(out)
