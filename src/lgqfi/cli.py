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


def _preset_hash(args: argparse.Namespace, **parsed: object) -> str:
    """Config hash of a preset run: its name and every flag it declares in
    ``_PRESETS``, with ``parsed`` values in place of the raw flags."""
    params = {"command": args.command, **{k: getattr(args, k) for k in _PRESETS[args.command][2]}}
    canonical = json.dumps(_jsonable({**params, **parsed}), sort_keys=True, separators=(",", ":"))
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
# configuration ingestion


def _key_line(text: str, key: str) -> int:
    """Best-effort line anchor: first line containing the quoted key."""
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 1


class _ConfigReader:
    """A parsed JSON config plus helpers producing line-anchored errors."""

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
        self.doc = doc
        self.hash = _hash_bytes(self.text.encode("utf-8"))

    def fail(self, key: str, message: str) -> ConfigError:
        return ConfigError(f"{self.path}:{_key_line(self.text, key)}: {message}")

    def block(self, key: str, required: bool = False) -> dict | None:
        value = self.doc.get(key)
        if value is None:
            if required:
                raise ConfigError(
                    f"{self.path}:1: config is missing the required '{key}' block"
                )
            return None
        if not isinstance(value, dict):
            raise self.fail(key, f"'{key}' must be a JSON object")
        return dict(value)


def _check_no_extras(reader: _ConfigReader, block_name: str, block: dict) -> None:
    if block:
        key = sorted(block)[0]
        raise reader.fail(key, f"unknown key '{key}' in '{block_name}' block")


def _number(reader: _ConfigReader, key: str, value: object, *,
            allow_inf: bool = False) -> float:
    if isinstance(value, str) and allow_inf and value in ("inf", "Infinity"):
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise reader.fail(key, f"'{key}' must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise reader.fail(key, f"'{key}' is an integer too large for a float") from None
    if math.isnan(number) or (math.isinf(number) and not allow_inf):
        raise reader.fail(key, f"'{key}' must be a finite number, got {number!r}")
    return number


def _parse_tau_grid(reader: _ConfigReader, raw: object) -> tuple[float, ...]:
    if isinstance(raw, dict):
        spec = dict(raw)
        try:
            start = _number(reader, "tau_grid", spec.pop("start"))
            stop = _number(reader, "tau_grid", spec.pop("stop"))
            points = spec.pop("points")
        except KeyError as exc:
            raise reader.fail(
                "tau_grid", "tau_grid object needs 'start', 'stop' and 'points'"
            ) from exc
        _check_no_extras(reader, "tau_grid", spec)
        if (not isinstance(points, int) or isinstance(points, bool)
                or not 2 <= points <= _MAX_TAU_POINTS):
            raise reader.fail("tau_grid", f"'points' must be an integer in "
                                          f"[2, {_MAX_TAU_POINTS}], got {points!r}")
        taus = [float(t) for t in np.linspace(start, stop, points)]
    elif isinstance(raw, list):
        if len(raw) > _MAX_TAU_POINTS:
            raise reader.fail("tau_grid", f"'tau_grid' has {len(raw)} values, "
                                          f"over {_MAX_TAU_POINTS}")
        taus = [_number(reader, "tau_grid", t) for t in raw]
    else:
        raise reader.fail("tau_grid", "'tau_grid' must be a list or a start/stop/points object")
    if not taus:
        raise reader.fail("tau_grid", "'tau_grid' must not be empty")
    if any(t <= 0.0 for t in taus):
        raise reader.fail("tau_grid", "'tau_grid' values must be positive")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise reader.fail("tau_grid", "'tau_grid' values must be strictly ascending")
    return tuple(taus)


class RunConfig:
    """Validated run configuration (model, state, tasks, output)."""

    def __init__(self, reader: _ConfigReader):
        self.reader = reader
        self.hash = reader.hash

        model = reader.block("model", required=True)
        kind = model.pop("kind", None)
        if not isinstance(kind, str):
            raise reader.fail("model", "'model.kind' must be a string")
        params = model.pop("params", {})
        if not isinstance(params, dict):
            raise reader.fail("params", "'model.params' must be a JSON object")
        observable = model.pop("observable", "default")
        if not isinstance(observable, str):
            raise reader.fail("observable", "'model.observable' must be a string")
        _check_no_extras(reader, "model", model)
        self.model_spec = ModelSpec(kind=kind, params=params, observable=observable)

        state = reader.block("state", required=True)
        thermal = state.pop("thermal", None)
        pure = state.pop("pure", None)
        _check_no_extras(reader, "state", state)
        if (thermal is None) == (pure is None):
            raise reader.fail(
                "state", "'state' must contain exactly one of 'thermal' or 'pure'"
            )
        self.beta: float | None = None
        self.index: int | None = None
        if thermal is not None:
            if not isinstance(thermal, dict) or "beta" not in thermal:
                raise reader.fail("thermal", "'state.thermal' must be {\"beta\": ...}")
            self.beta = _number(reader, "beta", thermal["beta"], allow_inf=True)
            extra = {k: v for k, v in thermal.items() if k != "beta"}
            _check_no_extras(reader, "thermal", extra)
        else:
            if not isinstance(pure, dict) or "index" not in pure:
                raise reader.fail("pure", "'state.pure' must be {\"index\": ...}")
            index = pure["index"]
            if not isinstance(index, int) or isinstance(index, bool) or index < 0:
                raise reader.fail("index", f"'state.pure.index' must be an integer >= 0, got {index!r}")
            self.index = index
            extra = {k: v for k, v in pure.items() if k != "index"}
            _check_no_extras(reader, "pure", extra)

        raw_grid = reader.doc.get("tau_grid")
        self.tau_grid: tuple[float, ...] = ()
        if raw_grid is not None:
            self.tau_grid = _parse_tau_grid(reader, raw_grid)

        bounds = reader.block("bounds") or {}
        self.families: dict[str, bool] = {}
        for switch, family in _BOUND_FAMILIES.items():
            flag = bounds.pop(switch, True)
            if not isinstance(flag, bool):
                raise reader.fail(switch, f"bounds flag '{switch}' must be true or false")
            self.families[family] = flag
        kp = bounds.pop("kp", [3, 4, 5])
        if (not isinstance(kp, list)
                or any(not isinstance(p, int) or isinstance(p, bool) or p < 3 for p in kp)):
            raise reader.fail("kp", "'bounds.kp' must be a list of integers >= 3")
        self.kp = tuple(kp)
        fsum = bounds.pop("fsum", True)
        if not isinstance(fsum, bool):
            raise reader.fail("fsum", "'bounds.fsum' must be true or false")
        self.fsum = fsum
        depth_sites = bounds.pop("depth_sites", None)
        if depth_sites is not None and (
                not isinstance(depth_sites, int) or isinstance(depth_sites, bool)
                or depth_sites < 1):
            raise reader.fail("depth_sites", "'bounds.depth_sites' must be an integer >= 1")
        self.depth_sites = depth_sites
        _check_no_extras(reader, "bounds", bounds)

        protocol = reader.block("protocol")
        self.protocol: dict[str, object] | None = None
        if protocol is not None:
            tau = _number(reader, "tau", protocol.pop("tau", None))
            if tau <= 0.0:
                raise reader.fail("tau", f"'protocol.tau' must be positive, got {tau}")
            shots = protocol.pop("shots", 100_000)
            if (not isinstance(shots, int) or isinstance(shots, bool)
                    or not 1 <= shots <= _MAX_SHOTS):
                raise reader.fail("shots", f"'protocol.shots' must be an integer in "
                                           f"[1, {_MAX_SHOTS}], got {shots!r}")
            seed = protocol.pop("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < _MAX_SEED:
                raise reader.fail("seed", f"'protocol.seed' must be an integer in [0, 2^64), got {seed!r}")
            widths = protocol.pop("widths", [1e-1, 1e-2, 1e-3])
            if not isinstance(widths, list) or not widths:
                raise reader.fail("widths", "'protocol.widths' must be a nonempty list")
            widths = [_number(reader, "widths", w) for w in widths]
            if any(w < 0.0 for w in widths):
                raise reader.fail("widths", "'protocol.widths' entries must be nonnegative")
            coupling = _number(reader, "coupling", protocol.pop("coupling", 1.0))
            if coupling <= 0.0:
                raise reader.fail("coupling", f"'protocol.coupling' must be positive, got {coupling}")
            _check_no_extras(reader, "protocol", protocol)
            self.protocol = {"tau": tau, "shots": shots, "seed": seed,
                             "widths": widths, "coupling": coupling}

        output = reader.block("output") or {}
        self.out_path = output.pop("path", None)
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise reader.fail("path", "'output.path' must be a string")
        self.out_format = output.pop("format", None)
        if self.out_format is not None and self.out_format not in ("csv", "json"):
            raise reader.fail("format", "'output.format' must be 'csv' or 'json'")
        _check_no_extras(reader, "output", output)

        known = {"model", "state", "tau_grid", "bounds", "protocol", "output"}
        for key in reader.doc:
            if key not in known:
                raise reader.fail(key, f"unknown top-level key '{key}'")

        if not self.tau_grid and self.protocol is None:
            raise ConfigError(
                f"{reader.path}:1: no task enabled: provide 'tau_grid' (bounds) "
                "and/or a 'protocol' block"
            )


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    if args.config is None:
        raise ConfigError("this command requires --config PATH")
    return RunConfig(_ConfigReader(args.config))


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
    except ValueError as exc:
        raise fail("model", exc) from exc
    eig = hermitian_eig(h_op)
    try:
        state = make_state(eig, beta=beta, index=index)
    except ValueError as exc:
        raise fail("state", exc) from exc
    return h_op, q_op, eig, state, spectral_data(eig, q_op, state)


# ---------------------------------------------------------------------------
# subcommands


def _check_points(points: int, minimum: int) -> None:
    if not minimum <= points <= _MAX_TAU_POINTS:
        raise ConfigError(f"--points must be in [{minimum}, {_MAX_TAU_POINTS}], got {points}")


def _cmd_gamma_table(args: argparse.Namespace) -> int:
    y_min, y_max, points = args.y_min, args.y_max, args.points
    if not 0.0 < y_min < y_max:
        raise ConfigError(f"need 0 < y_min < y_max, got y_min={y_min}, y_max={y_max}")
    _check_points(points, 2)
    header = ["y", "gamma", "closed_form", "branch", "y_c"]
    rows = [[r.y, r.value, r.y * r.y / 4.0, "closed" if r.y >= Y_CRIT else "numeric", Y_CRIT]
            for r in gamma_batch(3, np.linspace(y_min, y_max, points))]
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
        raise ConfigError(f"{cfg.reader.path}: 'certify' requires a 'tau_grid'")
    sd = _instantiate(cfg.model_spec, beta=cfg.beta, index=cfg.index,
                      config_path=cfg.reader.path)[-1]
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
    _check_points(args.points, 1)
    if not 0.0 < args.tau_min <= args.tau_max:
        raise ConfigError(
            f"need 0 < tau-min <= tau-max, got {args.tau_min}, {args.tau_max}"
        )
    if not 0.0 < args.beta < math.inf:
        raise ConfigError(f"--beta must be finite and positive, got {args.beta}")
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
        f_times_r = f_q * float(R_kernel(args.epsilon * tau, 2.0 * tau / args.beta))
        rows.append([tau, report.c_tau, report.k_tau, k_excess, f_times_r,
                     f_times_r - k_excess, report.lower_thermal, f_q])
    _emit_grid(args, config_hash=_preset_hash(args), header=header, rows=rows)
    return 0


def _cmd_tfim(args: argparse.Namespace) -> int:
    try:
        taus = [float(t) for t in args.taus.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"--taus must be a comma-separated list of numbers: {exc}") from exc
    if not taus or any(t <= 0 for t in taus):
        raise ConfigError("--taus must contain positive times")
    spec = ModelSpec("tfim", {"n": args.sites, "j": args.j, "h": args.h})
    h_op, q_op, eig, _, sd = _instantiate(spec, beta=math.inf)
    f_q = qfi(sd)
    m2_spec = m2_moment(sd)
    m2_comm = m2_commutator(h_op, q_op, eig.basis[:, 0])

    header = ["tau", "k_tau", "k_excess_over_tau2", "m2_spectral",
              "m2_commutator", "rel_error_vs_m2", "f_q"]
    rows = []
    for tau in taus:
        k_tau = 2 * _pair_correlator(sd, tau) - _pair_correlator(sd, 2 * tau)
        curvature = (k_tau - 1.0) / (tau * tau)
        rows.append([tau, k_tau, curvature, m2_spec, m2_comm,
                     abs(curvature - m2_spec) / m2_spec, f_q])
    _emit_grid(args, config_hash=_preset_hash(args, taus=taus), header=header, rows=rows)
    return 0


def _cmd_ghz(args: argparse.Namespace) -> int:
    _check_points(args.points, 2)
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
        raise ConfigError(f"{cfg.reader.path}: 'protocol' requires a 'protocol' block")
    _, q_op, eig, state, sd = _instantiate(
        cfg.model_spec, beta=cfg.beta, index=cfg.index, config_path=cfg.reader.path)
    inst = ProtocolInstance(eig, q_op, state)

    tau = float(cfg.protocol["tau"])
    shots = int(cfg.protocol["shots"])
    seed = _seed(args, int(cfg.protocol["seed"]))
    widths = list(cfg.protocol["widths"])
    coupling = float(cfg.protocol["coupling"])

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


def _seed_type(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {raw!r}") from exc
    if not 0 <= value < _MAX_SEED:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {value}")
    return value


#: Preset subcommand -> (runner, help, flag defaults).  The parser offers
#: each preset exactly these flags, typed by their defaults, and its config
#: hash covers exactly them.
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None,
                        help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default: csv for grids)")
    common.add_argument("--seed", type=_seed_type, default=None, metavar="U64",
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
            p.add_argument("--" + dest.replace("_", "-"), type=type(default), default=default,
                           help=f"default: {default}")
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
