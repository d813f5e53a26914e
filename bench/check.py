"""Compare one operation's result with its reference.

Numbers agree when ``|a - b| <= ATOL + RTOL * max(|a|, |b|)``; everything
else (text cells, CSV metadata, JSON keys, best family, uninformative
families, depth, exit code) must match exactly.  Output documents are
compared as JSON when both parse as JSON, otherwise line by line with each
line split into comma-separated cells.
"""

from __future__ import annotations

import json
import math

RTOL = 1e-9
ATOL = 1e-12


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def _same_tree(got, want, path: str) -> str | None:
    if isinstance(want, bool) or isinstance(got, bool) or want is None or got is None:
        return None if got is want or got == want else f"{path}: {got!r} != {want!r}"
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        return None if _close(float(got), float(want)) else f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            problem = _same_tree(got[key], want[key], f"{path}.{key}")
            if problem:
                return problem
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            problem = _same_tree(g, w, f"{path}[{i}]")
            if problem:
                return problem
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _same_cell(got: str, want: str) -> bool:
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return got == want
    return _close(g, w)


def _same_text(got: str, want: str, path: str) -> str | None:
    try:
        return _same_tree(json.loads(got), json.loads(want), path)
    except ValueError:
        pass
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{path}: {len(got_lines)} lines != {len(want_lines)}"
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        g_cells, w_cells = g.split(","), w.split(",")
        if len(g_cells) != len(w_cells) or not all(map(_same_cell, g_cells, w_cells)):
            return f"{path}:{lineno}: {g[:120]!r} != {w[:120]!r}"
    return None


def compare(got: dict, want: dict) -> str | None:
    """None when ``got`` matches the reference ``want``, else the first difference."""
    if "error" in got:
        return f"raised {got['error']}"
    if got.get("exit") != want["exit"]:
        return f"exit code {got.get('exit')} != {want['exit']}"
    outputs, expected = got.get("outputs", {}), want["outputs"]
    if sorted(outputs) != sorted(expected):
        return f"outputs {sorted(outputs)} != {sorted(expected)}"
    for name, value in expected.items():
        if isinstance(value, str):
            problem = _same_text(outputs[name], value, name)
        else:
            problem = _same_tree(outputs[name], value, name)
        if problem:
            return problem
    return None
