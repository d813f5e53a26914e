"""Command-line front end: scenario runners and report emission.

Subcommands
-----------
``gamma-table``
    Tabulate the universal kernel maximum gamma(y) against its closed form
    y^2/4, marking the branch and the critical value y_c = sqrt(8/7).
``certify``
    Evaluate the full bound chain over a tau grid described by a JSON run
    configuration; emits a per-tau grid plus a best-bound JSON report.
``qubit`` / ``tfim`` / ``ghz``
    Preset scenario runners: the exact qubit identity residual, the
    short-time curvature convergence of the transverse-field chain, and the
    GHZ saturation/Heisenberg-scaling summary.
``protocol``
    Compare measurement-protocol correlators (projective exact, projective
    Monte Carlo, weak two-meter) against the spectral reference.

Conventions
-----------
Grids are CSV by default (JSON via ``--format json``); single reports are
JSON.  ``certify`` and ``ghz`` also produce a summary document (``best`` and
``summary``): JSON output carries it next to the rows, and when a CSV grid
goes to a file the summary is printed to stdout as its own JSON document.
Every CSV starts with a metadata comment ``# lgqfi <version>
seed=<seed> config=<hash12>`` followed by a header row; numbers are printed
with 17 significant digits so outputs are byte-stable for fixed inputs at a
fixed BLAS thread count (the last digits can change with the thread count).
Exit codes: 0 success, 1 user or configuration error, 2 internal invariant
violation (an implementation bug, never a physics outcome).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .bounds import BoundReport, best_bound, depth_witness
from .errors import ConfigError, InvariantViolation, NumericsError
from .kernels import R_kernel, Y_CRIT, gamma_batch
from .linalg import hermitian_eig
from .models import ModelSpec, build_model
from .protocols import (
    _MAX_SEED,
    MeterConfig,
    ProtocolInstance,
    projective_joint,
    projective_mc,
    weak_two_meter,
)
from .response import m2_commutator, m2_moment
from .spectral import _pair_correlator, correlator, lgi_K, make_state, qfi, spectral_data

__all__ = ["main", "entry_point"]

#: Run-size ceilings, checked while parsing and before anything is allocated:
#: the Monte Carlo holds about 32 bytes per shot, and every tau point costs a
#: full bound evaluation.
_MAX_SHOTS = 10**7
_MAX_TAU_POINTS = 10**4

#: Run-config family switch -> the bound family it turns off.
_BOUND_FAMILIES = {"pure": "pure", "thermal": "thermal", "weak": "thermal_weak",
                   "two_time": "two_time"}


# ---------------------------------------------------------------------------
# formatting and emission helpers


def _fmt(value: object) -> str:
    """Render one CSV cell: 17 significant digits for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    value = _jsonable(value)
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _jsonable(value: object) -> object:
    """Convert to strict-JSON-safe types (no Infinity/NaN literals)."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, type(None), str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return str(value)


def _meta_line(seed: int, config_hash: str) -> str:
    return f"lgqfi {__version__} seed={seed} config={config_hash}"


def _hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _preset_hash(args: argparse.Namespace) -> str:
    """Config hash of a preset run: its name and every flag it declares in ``_PRESETS``."""
    params = {"command": args.command, **{k: getattr(args, k) for k in _PRESETS[args.command][2]}}
    canonical = json.dumps(_jsonable(params), sort_keys=True, separators=(",", ":"))
    return _hash_bytes(canonical.encode("utf-8"))


def _csv_document(meta: str, header: Sequence[str],
                  rows: Sequence[Sequence[object]]) -> str:
    lines = [f"# {meta}", ",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_document(meta_fields: Mapping[str, object], body: Mapping[str, object]) -> str:
    doc = {"meta": _jsonable(meta_fields)}
    doc.update({k: _jsonable(v) for k, v in body.items()})
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


def _seed(args: argparse.Namespace, default: int = 0) -> int:
    """--seed when given, else the command's own seed (0 unless a config sets one)."""
    return default if args.seed is None else args.seed


def _emit_grid(args: argparse.Namespace, *, config_hash: str,
               header: Sequence[str], rows: Sequence[Sequence[object]],
               summary: Mapping[str, object] | None = None, seed: int = 0,
               out: str | None = None, fmt: str | None = None) -> None:
    """Write one grid as CSV (default) or JSON, honoring --out/--format/--seed.

    ``summary`` holds the command's summary document (one top-level key).
    JSON output carries it next to the rows; with a CSV grid written to a
    file it goes to stdout as its own JSON document.  ``seed``, ``out`` and
    ``fmt`` are the command's own values, which the flags override.
    """
    seed = _seed(args, seed)
    out = args.out if args.out is not None else out
    fmt = args.format or fmt or "csv"
    meta_fields = {"version": __version__, "seed": seed, "config": config_hash}
    if fmt == "csv":
        _emit(_csv_document(_meta_line(seed, config_hash), header, rows), out)
        if summary and out not in (None, "-"):
            _emit(_json_document(meta_fields, summary), None)
    else:
        body = {"rows": [dict(zip(header, row)) for row in rows], **(summary or {})}
        _emit(_json_document(meta_fields, body), out)


# ---------------------------------------------------------------------------
# configuration ingestion: number rules and the run-config key table


class _Invalid(ValueError):
    """A value outside its rule; args (kind_ok, got), kind_ok when only the range failed."""


class _Rule:
    """A number rule of run-config keys and preset flags.

    A value passes when it is of the rule's kind, an integer or a finite
    float (with ``inf`` also +inf, and the strings "inf" and "Infinity"),
    and lies in [lo, hi], lo excluded when ``open_lo``.
    """

    def __init__(self, lo: float = -math.inf, hi: float = math.inf, *,
                 integer: bool = False, open_lo: bool = False, inf: bool = False):
        self.lo, self.hi, self.integer, self.open_lo, self.inf = lo, hi, integer, open_lo, inf
        self.kind = "an integer" if integer else "a finite number" + " or inf" * inf
        self.interval = f"{'(' if open_lo else '['}{lo}, {hi}{']' if hi < math.inf else ')'}"

    def check(self, value: object, text: bool = False):
        """``value`` as this rule's number, read from a flag's text when ``text``."""
        got = repr(value)
        if text or self.inf and value in ("inf", "Infinity"):
            try:
                value = (int if self.integer else float)(value)
            except ValueError:
                raise _Invalid(False, got) from None
        if isinstance(value, bool) or not isinstance(value, int if self.integer else (int, float)):
            raise _Invalid(False, got)
        # abs(x) <= float max is false for NaN, infinities and integers too large for a float
        if not (self.integer or abs(value) <= sys.float_info.max or self.inf and value == math.inf):
            raise _Invalid(False, got)
        if not (self.lo < value if self.open_lo else self.lo <= value) or value > self.hi:
            raise _Invalid(True, got)
        return value if self.integer else float(value)


#: A time tau: tau^2 stays a normal float (the tfim preset divides by it).
_TIME = _Rule(math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max))
_POSITIVE, _REAL, _INTEGER = _Rule(0, open_lo=True), _Rule(), _Rule(integer=True)
_POINTS = _Rule(2, _MAX_TAU_POINTS, integer=True)
_SEED = _Rule(0, _MAX_SEED - 1, integer=True)
_REQUIRED = object()


def _tau_grid(cfg: RunConfig, value: object) -> tuple[float, ...]:
    """Ascending times: a list, or np.linspace of a start/stop/points object."""
    if isinstance(value, dict):
        if sorted(value) != ["points", "start", "stop"]:
            raise cfg.fail("tau_grid", "'tau_grid' object needs exactly 'start', 'stop' and "
                                       "'points'")
        start, stop = (_check(cfg, "tau_grid", _TIME, value[key]) for key in ("start", "stop"))
        points = _check(cfg, "tau_grid.points", _POINTS, value["points"])
        taus = np.linspace(start, stop, points).tolist()
    elif isinstance(value, list) and 0 < len(value) <= _MAX_TAU_POINTS:
        taus = [_check(cfg, "tau_grid", _TIME, tau) for tau in value]
    else:
        raise cfg.fail("tau_grid", f"'tau_grid' must be a list of 1 to {_MAX_TAU_POINTS} "
                                   "times or a start/stop/points object")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise cfg.fail("tau_grid", "'tau_grid' values must be strictly ascending")
    return tuple(taus)


#: The run-config keys, nested as in the file: key -> (type, default, doc line)
#: or a block.  A type is a number rule, a list of one rule (a list of such
#: numbers), a tuple of choices, ``str``, ``bool``, ``dict`` or ``_tau_grid``.
#: The key tables of ``docs/run-config.md`` give the same keys, defaults and doc lines.
_SCHEMA = {
    "model": {
        "kind": (str, _REQUIRED, "`qubit`, `tfim`, `ghz`, `ghz_effective`, `custom`"),
        "params": (dict, {}, "kind-specific, see below"),
        "observable": (str, "default", "optional; only `ghz` supports non-default values"),
    },
    "state": {
        "thermal": {"beta": (_Rule(inf=True), _REQUIRED, "inverse temperature, or \"inf\"")},
        "pure": {"index": (_Rule(0, integer=True), _REQUIRED, "eigenlevel, ascending in energy")},
    },
    "tau_grid": (_tau_grid, None, "times of the bound grid"),
    "bounds": {
        "pure": (bool, True, "include the pure-state bound column when valid"),
        "thermal": (bool, True, "include the thermal kernel bound"),
        "weak": (bool, True, "include the weak-coupling (K - 1) variant"),
        "two_time": (bool, True, "include the two-time bound"),
        "kp": ([_Rule(3, integer=True)], [3, 4, 5],
               "multi-time orders to evaluate (integers >= 3)"),
        "fsum": (bool, True, "include the f-sum upper bound column"),
        "depth_sites": (_Rule(1, integer=True), None,
                        "site count N enabling the depth-witness column"),
    },
    "protocol": {
        "tau": (_TIME, _REQUIRED, "time spacing of the three-time chain"),
        "shots": (_Rule(1, _MAX_SHOTS, integer=True), 100_000,
                  "Monte Carlo sample count, 1 to 10^7"),
        "seed": (_SEED, 0, "counter-based RNG key (u64)"),
        "widths": ([_Rule(0)], [0.1, 0.01, 0.001], "weak-meter position spreads"),
        "coupling": (_POSITIVE, 1.0, "weak-meter coupling strength"),
    },
    "output": {
        "path": (str, None, "write the grid here instead of stdout"),
        "format": (("csv", "json"), None, "`csv` (default for grids) or `json`"),
    },
}
_TYPE_NAMES = {str: "a string", bool: "true or false", dict: "a JSON object"}


def _check(cfg: RunConfig, path: str, kind, value: object):
    """The value of the key at ``path`` under its schema type.  A number of the
    wrong kind is named by its key as written, one out of range by its path."""
    leaf = path.rpartition(".")[2]
    if kind is _tau_grid:
        return _tau_grid(cfg, value)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise cfg.fail(leaf, f"'{path}' must be a list")
        return [_check(cfg, path, kind[0], item) for item in value]
    if isinstance(kind, tuple):
        if value not in kind:
            raise cfg.fail(leaf, f"'{path}' must be {' or '.join(map(repr, kind))}")
        return value
    if isinstance(kind, type):
        if not isinstance(value, kind):
            raise cfg.fail(leaf, f"'{path}' must be {_TYPE_NAMES[kind]}")
        return value
    try:
        return kind.check(value)
    except _Invalid as exc:
        kind_ok, got = exc.args
        label, need = (path, f"{kind.kind} in {kind.interval}") if kind_ok else (leaf, kind.kind)
        raise cfg.fail(leaf, f"'{label}' must be {need}, got {got}") from None


def _walk(cfg: RunConfig, schema: dict, block: dict | None,
          name: str = "") -> dict[str, object]:
    """The checked values of ``block`` (None when absent) under ``schema``, by path.

    Unknown keys are errors.  An absent or null key takes its default; a
    required key is an error in a block that is there and None in one that
    is not.
    """
    leaf = name.rpartition(".")[2]
    unknown = sorted(set(block or ()) - set(schema))
    if unknown:
        raise cfg.fail(unknown[0], f"unknown key '{unknown[0]}' in '{leaf}' block" if name
                       else f"unknown top-level key '{unknown[0]}'")
    values: dict[str, object] = {}
    for key, row in schema.items():
        path, value = f"{name}.{key}" if name else key, (block or {}).get(key)
        if isinstance(row, dict):
            if value is None and path in ("model", "state"):
                raise ConfigError(f"{cfg.path}:1: config is missing the required '{path}' block")
            if value is not None and not isinstance(value, dict):
                raise cfg.fail(key, f"'{path}' must be a JSON object")
            values.update(_walk(cfg, row, value, path))
        elif value is not None:
            values[path] = _check(cfg, path, row[0], value)
        elif row[1] is _REQUIRED and block is not None:
            raise cfg.fail(leaf, f"'{name}' needs the key '{key}'")
        else:
            values[path] = None if row[1] is _REQUIRED else row[1]
    return values


class RunConfig:
    """A run configuration file, checked against ``_SCHEMA``: model, state,
    tasks and output, with line-anchored errors."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as handle:
                self.text = handle.read()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        try:
            doc = json.loads(self.text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}: invalid JSON at column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}:1: config root must be a JSON object")
        self.hash = _hash_bytes(self.text.encode("utf-8"))
        key = _walk(self, _SCHEMA, doc)
        self.model_spec = ModelSpec(key["model.kind"], key["model.params"], key["model.observable"])
        self.beta, self.index = key["state.thermal.beta"], key["state.pure.index"]
        if (self.beta is None) == (self.index is None):
            raise self.fail("state", "'state' must contain exactly one of 'thermal' or 'pure'")
        self.tau_grid: tuple[float, ...] = key["tau_grid"] or ()
        self.families = {family: key[f"bounds.{switch}"]
                         for switch, family in _BOUND_FAMILIES.items()}
        self.kp, self.fsum = tuple(key["bounds.kp"]), key["bounds.fsum"]
        self.depth_sites = key["bounds.depth_sites"]
        self.protocol = None if key["protocol.tau"] is None else {
            name: key[f"protocol.{name}"] for name in _SCHEMA["protocol"]}
        self.out_path, self.out_format = key["output.path"], key["output.format"]
        if not self.tau_grid and self.protocol is None:
            raise ConfigError(f"{path}:1: no task enabled: provide 'tau_grid' (bounds) "
                              "and/or a 'protocol' block")

    def fail(self, key: str, message: str) -> ConfigError:
        """An error anchored at the first line holding the quoted key (else line 1)."""
        lines = enumerate(self.text.splitlines(), start=1)
        lineno = next((n for n, line in lines if f'"{key}"' in line), 1)
        return ConfigError(f"{self.path}:{lineno}: {message}")


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raise ConfigError("this command requires --config PATH")
    return RunConfig(args.config)


def _instantiate(spec: ModelSpec, *, beta: float | None = None,
                 index: int | None = None, config_path: str | None = None):
    """Build (H, Q, eigensystem, state, spectral data) for one model spec.

    The state is thermal at ``beta`` or pure on level ``index``.  Model and
    state errors become ``ConfigError``: prefixed with ``config_path`` for
    config runs, with the builder's message alone for preset commands.
    """
    def fail(what: str, exc: ValueError) -> ConfigError:
        if config_path is None:
            return ConfigError(str(exc))
        return ConfigError(f"{config_path}: invalid {what}: {exc}")

    try:
        h_op, q_op = build_model(spec)
        eig = hermitian_eig(h_op)
    except ValueError as exc:
        raise fail("model", exc) from exc
    try:
        state = make_state(eig, beta=beta, index=index)
    except ValueError as exc:
        raise fail("state", exc) from exc
    return h_op, q_op, eig, state, spectral_data(eig, q_op, state)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gamma_table(args: argparse.Namespace) -> int:
    if not args.y_min < args.y_max:
        raise ConfigError(f"need y_min < y_max, got y_min={args.y_min}, y_max={args.y_max}")
    header = ["y", "gamma", "closed_form", "branch", "y_c"]
    rows = [[r.y, r.value, r.y * r.y / 4.0, "closed" if r.y >= Y_CRIT else "numeric", Y_CRIT]
            for r in gamma_batch(3, np.linspace(args.y_min, args.y_max, args.points))]
    _emit_grid(args, config_hash=_preset_hash(args), header=header, rows=rows)
    return 0


def _report_cells(report: BoundReport, families: Mapping[str, bool], fsum: bool,
                  depth_sites: int | None) -> list[tuple[str, object]]:
    lowers = report.lowers(families)
    cells: list[tuple[str, object]] = [
        ("tau", report.tau),
        ("c_tau", report.c_tau),
        ("c_2tau", report.c_2tau),
        ("k_tau", report.k_tau),
    ]
    cells.extend((f"lower_{family}", value) for family, value in lowers)
    cells.append(("f_q", report.f_q))
    if fsum:
        cells.append(("fsum_upper", report.fsum))
    cells.extend((f"slack_{family}", report.slack[family]) for family, _ in lowers)
    if fsum and report.fsum is not None:
        cells.append(("slack_fsum", report.slack["fsum"]))
    if depth_sites is not None:
        cells.append(("depth", report.depth))
    return cells


def _cmd_certify(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    if not cfg.tau_grid:
        raise ConfigError(f"{cfg.path}: 'certify' requires a 'tau_grid'")
    sd = _instantiate(cfg.model_spec, beta=cfg.beta, index=cfg.index,
                      config_path=cfg.path)[-1]
    grid = best_bound(sd, cfg.tau_grid, kp=cfg.kp, include_fsum=cfg.fsum,
                      collective_n=cfg.depth_sites, families=cfg.families)

    cell_rows = [_report_cells(r, cfg.families, cfg.fsum, cfg.depth_sites)
                 for r in grid.reports]
    header = [name for name, _ in cell_rows[0]]
    rows = [[value for _, value in cells] for cells in cell_rows]

    at_best = next(r for r in grid.reports if r.tau == grid.tau)
    best = {
        "tau": grid.tau,
        "lower": grid.value,
        "family": grid.family,
        "f_q": at_best.f_q,
        "uninformative": list(at_best.uninformative),
        "depth": at_best.depth,
    }
    _emit_grid(args, config_hash=cfg.hash, header=header, rows=rows,
               summary={"best": best}, out=cfg.out_path, fmt=cfg.out_format)
    return 0


def _cmd_qubit(args: argparse.Namespace) -> int:
    if not args.tau_min <= args.tau_max:
        raise ConfigError(f"need tau-min <= tau-max, got {args.tau_min}, {args.tau_max}")
    spec = ModelSpec("qubit", {"epsilon": args.epsilon, "theta": args.theta})
    sd = _instantiate(spec, beta=args.beta)[-1]
    reports = best_bound(sd, np.linspace(args.tau_min, args.tau_max, args.points),
                         kp=(3,), include_fsum=False).reports
    f_q = reports[0].f_q

    header = ["tau", "c_tau", "k_tau", "k_excess", "f_times_r", "residual",
              "lower_thermal", "f_q"]
    rows = []
    for report in reports:
        tau = report.tau
        k_excess = report.k_tau - 1.0
        f_times_r = f_q * float(R_kernel(float(sd.delta[-1]) * tau, 2.0 * tau / args.beta))
        rows.append([tau, report.c_tau, report.k_tau, k_excess, f_times_r,
                     f_times_r - k_excess, report.lower_thermal, f_q])
    _emit_grid(args, config_hash=_preset_hash(args), header=header, rows=rows)
    return 0


def _cmd_tfim(args: argparse.Namespace) -> int:
    spec = ModelSpec("tfim", {"n": args.sites, "j": args.j, "h": args.h})
    h_op, q_op, eig, _, sd = _instantiate(spec, beta=math.inf)
    f_q = qfi(sd)
    m2_spec = m2_moment(sd)
    m2_comm = m2_commutator(h_op, q_op, eig.basis[:, 0])

    header = ["tau", "k_tau", "k_excess_over_tau2", "m2_spectral",
              "m2_commutator", "rel_error_vs_m2", "f_q"]
    rows = []
    for tau in args.taus:
        k_tau = 2 * _pair_correlator(sd, tau) - _pair_correlator(sd, 2 * tau)
        curvature = (k_tau - 1.0) / (tau * tau)
        rows.append([tau, k_tau, curvature, m2_spec, m2_comm,
                     abs(curvature - m2_spec) / m2_spec, f_q])
    _emit_grid(args, config_hash=_preset_hash(args), header=header, rows=rows)
    return 0


def _cmd_ghz(args: argparse.Namespace) -> int:
    spec = ModelSpec("ghz_effective", {"n": args.sites, "j": args.j,
                                       "omega": args.omega})
    sd = _instantiate(spec, index=1)[-1]
    omega_taus = [float(w) for w in np.linspace(math.pi / args.points, math.pi, args.points)]
    reports = best_bound(sd, [w / args.omega for w in omega_taus], kp=(3,),
                         include_fsum=False).reports
    f_q = reports[0].f_q
    n = args.sites
    f_tilde = n * n * f_q / 4.0

    omega_tau_max = math.pi / 3.0
    tau_max = omega_tau_max / args.omega
    k_max = lgi_K(sd, tau_max)
    saturation_residual = abs(f_q - 8.0 * (k_max - sd.q2_expect))
    two_time_at_pi = reports[-1].raw_lower["two_time"]  # the grid ends at omega tau = pi
    summary = {
        "sites": n,
        "k_max": k_max,
        "omega_tau_at_max": omega_tau_max,
        "saturation_residual": saturation_residual,
        "f_q": f_q,
        "f_q_collective_rescaled": f_tilde,
        "heisenberg_ratio": f_tilde / (n * n),
        "depth": depth_witness(f_tilde, n),
        "two_time_bound_at_pi": two_time_at_pi,
    }

    header = ["omega_tau", "tau", "c_tau", "k_tau", "lower_pure"]
    rows = [[w, r.tau, r.c_tau, r.k_tau, r.lower_pure]
            for w, r in zip(omega_taus, reports)]
    _emit_grid(args, config_hash=_preset_hash(args), header=header, rows=rows,
               summary={"summary": summary})
    return 0


def _cmd_protocol(args: argparse.Namespace) -> int:
    cfg = _load_run_config(args)
    if cfg.protocol is None:
        raise ConfigError(f"{cfg.path}: 'protocol' requires a 'protocol' block")
    _, q_op, eig, state, sd = _instantiate(
        cfg.model_spec, beta=cfg.beta, index=cfg.index, config_path=cfg.path)
    inst = ProtocolInstance(eig, q_op, state)

    tau, shots, widths, coupling = (cfg.protocol[key]
                                    for key in ("tau", "shots", "widths", "coupling"))
    seed = _seed(args, cfg.protocol["seed"])

    c_ref = float(correlator(sd, tau))
    k_ref = lgi_K(sd, tau)

    mc = projective_mc(inst, 0.0, tau, shots, seed)
    c_01 = mc.exact_ref  # the (0, tau) joint distribution's correlator, computed once
    c_12 = projective_joint(inst, tau, 2.0 * tau).correlator()
    c_02 = projective_joint(inst, 0.0, 2.0 * tau).correlator()
    k_value = c_01 + c_12 - c_02

    header = ["protocol", "quantity", "value", "stderr", "spectral_ref",
              "abs_error", "within_gate"]
    rows: list[list[object]] = [
        ["spectral", "C(tau)", c_ref, 0.0, c_ref, 0.0, None],
        ["projective_exact", "C(tau)", c_01, 0.0, c_ref, abs(c_01 - c_ref), None],
        ["projective_mc", f"C(tau) shots={shots}", mc.value, mc.stderr, c_ref,
         abs(mc.value - c_ref), mc.within_gate],
    ]
    meters = [MeterConfig(coupling, width) for width in widths]
    for width, est in zip(widths, weak_two_meter(inst, tau, meters)):
        rows.append(["weak_two_meter", f"C(tau) width={width:g}", est.value, 0.0,
                     c_ref, abs(est.value - c_ref), None])
    rows.append(["projective_chain", "K(tau)", k_value, 0.0, k_ref,
                 abs(k_value - k_ref), None])

    _emit_grid(args, seed=seed, config_hash=cfg.hash, header=header, rows=rows,
               out=cfg.out_path, fmt=cfg.out_format)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to exit code 1."""

    def error(self, message: str):  # noqa: D102 - argparse contract
        raise ConfigError(message)


def _flag_type(flag: str, rule: _Rule, many: bool = False):
    """argparse ``type=`` of a flag under ``rule`` (``many``: a comma-separated
    list).  It raises ConfigError, which argparse passes through unwrapped,
    so the message starts with the flag's name."""
    def parse(raw: str):
        try:
            items = [item for item in raw.split(",") if item.strip()] if many else [raw]
            values = tuple(rule.check(item, text=True) for item in items)
        except _Invalid as exc:
            kind_ok, got = exc.args
            raise ConfigError(f"{flag} must be {'in ' + rule.interval if kind_ok else rule.kind}"
                              f", got {got}") from None
        if not values:
            raise ConfigError(f"{flag} must name at least one number")
        return values if many else values[0]
    return parse


#: Preset subcommand -> (runner, help, flag defaults).  The parser offers
#: each preset exactly these flags and its config hash covers exactly them.
#: A flag's rule is in ``_FLAG_RULES`` (``_REAL`` when not listed); a flag
#: with a string default takes a comma-separated list.
_PRESETS = {
    "gamma-table": (_cmd_gamma_table, "tabulate the universal kernel maximum gamma(y)",
                    {"y_min": 0.01, "y_max": 3.0, "points": 300}),
    "qubit": (_cmd_qubit, "thermal qubit: exact identity residual table",
              {"epsilon": 1.0, "theta": math.pi / 4.0, "beta": 2.0, "tau_min": 0.05,
               "tau_max": 3.0, "points": 40}),
    "tfim": (_cmd_tfim, "transverse-field chain: curvature convergence table",
             {"sites": 8, "j": 1.0, "h": 0.5, "taus": "0.2,0.1,0.05,0.02,0.01"}),
    "ghz": (_cmd_ghz, "GHZ scenario: saturation and Heisenberg scaling",
            {"sites": 8, "j": 1.0, "omega": 1.0, "points": 60}),
}
_FLAG_RULES = {"y_min": _POSITIVE, "y_max": _POSITIVE, "beta": _POSITIVE, "points": _POINTS,
               "tau_min": _TIME, "tau_max": _TIME, "taus": _TIME, "sites": _INTEGER}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for grids)")
    common.add_argument("--seed", type=_flag_type("--seed", _SEED), default=None, metavar="U64",
                        help="random seed (overrides any config value)")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", default=None,
                        help="JSON run configuration")

    parser = _Parser(prog="lgqfi",
                     description="Temporal correlations, quantum Fisher "
                                 "information, and certified lower bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _PRESETS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for dest, default in flags.items():
            flag = "--" + dest.replace("_", "-")
            rule = _FLAG_RULES.get(dest, _REAL)
            p.add_argument(flag, type=_flag_type(flag, rule, isinstance(default, str)),
                           default=default, help=f"default: {default}")
        p.set_defaults(func=func)
    for name, func, help_text in (
            ("certify", _cmd_certify, "run the bound chain over a tau grid from a config"),
            ("protocol", _cmd_protocol,
             "compare measurement protocols against the spectral reference")):
        sub.add_parser(name, parents=[common, config], help=help_text).set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the CLI; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolation, NumericsError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    """Console-script entry point."""
    sys.exit(main())
