"""Seeded workload generator.

Each workload draws its inputs from a fixed pool whose reference outputs are
committed under ``bench/reference``: the CLI workloads pick one of a few
pre-drawn variants, and ``bound-chain`` picks a subset of a pool of random
thermal instances.  Everything is derived from ``random.Random(...).random()``,
whose stream the Python standard library guarantees across versions, and
written with ``json.dumps(..., sort_keys=True)``, so one seed always yields
byte-identical input files.

``generate(workload, seed, workdir, root)`` writes the inputs into
``workdir`` and returns the list of operations; every operation carries the
``key`` under which its reference output is stored.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("certify-grid", "certify-chain", "bound-chain", "protocol")

VARIANTS = {"certify-grid": 8, "certify-chain": 8, "protocol": 8}
BOUND_POOL = 300
BOUND_INSTANCES = 100

CERTIFY_GRID = {"start": 0.05, "stop": 4.0, "points": 40}
CHAIN_TAUS = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0]

# This config writes JSON to stdout; every other one writes CSV to --out.
JSON_TO_STDOUT = "tfim7"

EXAMPLE_CONFIGS = (
    ("custom-certify", "certify"),
    ("qubit-certify", "certify"),
    ("tfim-certify", "certify"),
    ("ghz-protocol", "protocol"),
)


def _uniform(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(lo + (hi - lo) * rng.random(), digits)


def _normal(rng: random.Random) -> float:
    """Box-Muller on the guaranteed ``random()`` stream."""
    u1 = 1.0 - rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * rng.random())


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        items[i], items[j] = items[j], items[i]
    return items


def _write_json(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def variant_of(workload: str, seed: int) -> int:
    return int(random.Random(f"{workload}:seed:{seed}").random() * VARIANTS[workload])


def bound_selection(seed: int) -> list[int]:
    rng = random.Random(f"bound-chain:seed:{seed}")
    return _shuffled(rng, list(range(BOUND_POOL)))[:BOUND_INSTANCES]


# ---------------------------------------------------------------------------
# CLI workloads: configs of one variant


def _certify_grid_configs(variant: int) -> dict[str, dict]:
    rng = random.Random(f"certify-grid:variant:{variant}")
    beta_a, beta_b = _uniform(rng, 0.5, 2.5), _uniform(rng, 0.5, 2.5)
    h = _uniform(rng, 0.3, 1.5)
    j, omega = _uniform(rng, 0.5, 1.5), _uniform(rng, 0.3, 1.2)
    bounds = {"kp": [3, 4, 5], "fsum": True}

    def ghz(n: int, beta: float) -> dict:
        return {"model": {"kind": "ghz", "params": {"n": n, "j": j, "omega": omega}},
                "state": {"thermal": {"beta": beta}}, "tau_grid": CERTIFY_GRID,
                "bounds": dict(bounds, depth_sites=n)}

    return {
        "tfim8": {"model": {"kind": "tfim", "params": {"n": 8, "j": 1.0, "h": h}},
                  "state": {"thermal": {"beta": beta_a}}, "tau_grid": CERTIFY_GRID,
                  "bounds": bounds},
        "ghz8": ghz(8, beta_b),
        "ghz7": ghz(7, beta_a),
    }


def _certify_chain_configs(variant: int) -> dict[str, dict]:
    rng = random.Random(f"certify-chain:variant:{variant}")
    h = _uniform(rng, 0.3, 1.5)
    j, omega = _uniform(rng, 0.5, 1.5), _uniform(rng, 0.3, 1.2)
    bounds = {"kp": [3, 4, 5], "fsum": False}
    return {
        "tfim10": {"model": {"kind": "tfim", "params": {"n": 10, "j": 1.0, "h": h}},
                   "state": {"thermal": {"beta": "inf"}}, "tau_grid": CHAIN_TAUS,
                   "bounds": bounds},
        "ghz10": {"model": {"kind": "ghz", "params": {"n": 10, "j": j, "omega": omega}},
                  "state": {"pure": {"index": 1}}, "tau_grid": CHAIN_TAUS,
                  "bounds": bounds},
    }


def _protocol_configs(variant: int) -> dict[str, dict]:
    rng = random.Random(f"protocol:variant:{variant}")
    configs = {}
    for n in (8, 7):
        h, beta = _uniform(rng, 0.3, 1.5), _uniform(rng, 0.5, 3.0)
        tau = _uniform(rng, 0.2, 1.5)
        widths = sorted((_uniform(rng, 0.005, 0.2, 4) for _ in range(3)), reverse=True)
        configs[f"tfim{n}"] = {
            "model": {"kind": "tfim", "params": {"n": n, "j": 1.0, "h": h}},
            "state": {"thermal": {"beta": beta}},
            "protocol": {"tau": tau, "shots": 1_000_000,
                         "seed": int(rng.random() * 2**32), "widths": widths,
                         "coupling": 1.0},
        }
    return configs


CONFIGS = {
    "certify-grid": _certify_grid_configs,
    "certify-chain": _certify_chain_configs,
    "protocol": _protocol_configs,
}


def _fixed_protocol_ops(root: Path, workdir: Path) -> list[dict]:
    """docs/examples configs and preset commands, each run once."""
    ops = []
    for name, command in EXAMPLE_CONFIGS:
        path = str(root / "docs" / "examples" / f"{name}.json")
        argv = [command, "--config", path]
        out = None
        if command == "certify":
            out = str(workdir / f"{name}.out")
            argv += ["--out", out]
        ops.append({"key": f"examples/{name}", "kind": "cli", "argv": argv, "out": out})
    gamma_out = str(workdir / "gamma-table.out")
    ghz_out = str(workdir / "ghz.out")
    ops += [
        {"key": "presets/qubit", "kind": "cli", "argv": ["qubit"], "out": None},
        {"key": "presets/tfim", "kind": "cli",
         "argv": ["tfim", "--sites", "8", "--format", "json"], "out": None},
        {"key": "presets/ghz", "kind": "cli",
         "argv": ["ghz", "--sites", "8", "--out", ghz_out], "out": ghz_out},
        {"key": "presets/gamma-table", "kind": "cli",
         "argv": ["gamma-table", "--out", gamma_out], "out": gamma_out},
    ]
    return ops


def _cli_ops(workload: str, variant: int, workdir: Path, root: Path) -> list[dict]:
    ops = []
    command = "protocol" if workload == "protocol" else "certify"
    for name, config in CONFIGS[workload](variant).items():
        path = workdir / f"{name}.json"
        _write_json(path, config)
        argv = [command, "--config", str(path)]
        out = None
        if name == JSON_TO_STDOUT:
            argv += ["--format", "json"]
        else:
            out = str(workdir / f"{name}.out")
            argv += ["--out", out]
        ops.append({"key": f"v{variant}/{name}", "kind": "cli", "argv": argv, "out": out})
    if workload == "protocol":
        ops += _fixed_protocol_ops(root, workdir)
    return ops


# ---------------------------------------------------------------------------
# bound-chain: random thermal instances


def _hermitian(rng: random.Random, dim: int) -> list[list[list[float]]]:
    a = [[(_normal(rng), _normal(rng)) for _ in range(dim)] for _ in range(dim)]
    return [[[0.5 * (a[r][c][0] + a[c][r][0]), 0.5 * (a[r][c][1] - a[c][r][1])]
             for c in range(dim)] for r in range(dim)]


def bound_instance(index: int) -> dict:
    """Pool instance ``index``: H, Q (||Q|| <= 1), beta ~ U(0.1, 10), tau ~ U(0.01, 5)."""
    rng = random.Random(f"bound-chain:instance:{index}")
    dim = 2 + int(rng.random() * 7)
    beta = 0.1 + 9.9 * rng.random()
    tau = 0.01 + 4.99 * rng.random()
    h = _hermitian(rng, dim)
    q = _hermitian(rng, dim)
    # The largest absolute row sum bounds the spectral norm of a Hermitian matrix.
    norm = max(sum(math.hypot(re, im) for re, im in row) for row in q)
    q = [[[re / norm, im / norm] for re, im in row] for row in q]
    return {"key": f"i{index:03d}", "kind": "bound", "dim": dim, "beta": beta,
            "tau": tau, "h": h, "q": q}


def _bound_ops(indices: list[int], workdir: Path) -> list[dict]:
    instances = [bound_instance(i) for i in indices]
    path = workdir / "instances.json"
    _write_json(path, instances)
    return [{"key": inst["key"], "kind": "bound", "input": str(path)} for inst in instances]


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, workdir: Path, root: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``; return its ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "bound-chain":
        ops = _bound_ops(bound_selection(seed), workdir)
    else:
        ops = _cli_ops(workload, variant_of(workload, seed), workdir, root)
    _write_json(workdir / "ops.json", ops)
    return ops


def generate_pool(workload: str, workdir: Path, root: Path) -> list[dict]:
    """Every operation any seed can draw, for writing the reference outputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "bound-chain":
        return _bound_ops(list(range(BOUND_POOL)), workdir)
    ops: dict[str, dict] = {}
    for variant in range(VARIANTS[workload]):
        vdir = workdir / f"v{variant}"
        vdir.mkdir(exist_ok=True)
        for op in _cli_ops(workload, variant, vdir, root):
            ops.setdefault(op["key"], op)
    return list(ops.values())
