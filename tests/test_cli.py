"""End-to-end command-line behavior: emission, configs, and exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from lgqfi.cli import main
from lgqfi.errors import InvariantViolation
from lgqfi.kernels import Y_CRIT


def _parse_csv(text: str):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# lgqfi ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def _write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _certify_doc(**overrides):
    doc = {
        "model": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": 1.1}},
        "state": {"thermal": {"beta": 2.0}},
        "tau_grid": [0.2, 0.5, 0.9, 1.4],
    }
    doc.update(overrides)
    return doc


# --------------------------------------------------------------------------
# gamma-table


def test_gamma_table_structure(capsys):
    assert main(["gamma-table", "--y-min", "0.2", "--y-max", "2.0",
                 "--points", "40"]) == 0
    meta, header, rows = _parse_csv(capsys.readouterr().out)
    assert "seed=0" in meta
    assert header == ["y", "gamma", "closed_form", "branch", "y_c"]
    branches = [row[3] for row in rows]
    # numeric below the critical coupling, closed above, one switch only
    assert branches[0] == "numeric" and branches[-1] == "closed"
    flips = sum(a != b for a, b in zip(branches, branches[1:]))
    assert flips == 1
    for row in rows:
        y = float(row[0])
        assert float(row[4]) == pytest.approx(Y_CRIT, abs=1e-15)
        if row[3] == "closed":
            assert float(row[1]) == float(row[2]) == y * y / 4.0
        else:
            assert float(row[1]) >= float(row[2]) - 1e-12


def test_gamma_table_byte_stable(capsys):
    args = ["gamma-table", "--points", "25"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_gamma_table_bad_range(capsys):
    assert main(["gamma-table", "--y-min", "2.0", "--y-max", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------------
# certify


def test_certify_csv_and_best_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc())
    out = tmp_path / "grid.csv"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    best = summary["best"]
    assert set(best) >= {"tau", "lower", "family", "f_q", "uninformative", "depth"}
    assert best["tau"] in (0.2, 0.5, 0.9, 1.4)
    assert best["lower"] <= best["f_q"] + 1e-9

    meta, header, rows = _parse_csv(out.read_text(encoding="utf-8"))
    assert len(rows) == 4
    assert header[0] == "tau"
    assert "lower_thermal" in header and "lower_kp_4" in header
    assert "slack_thermal" in header and "fsum_upper" in header
    digest = hashlib.sha256((tmp_path / "run.json").read_bytes()).hexdigest()[:12]
    assert f"config={digest}" in meta
    assert summary["meta"]["config"] == digest


def test_certify_repeat_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc(
        tau_grid={"start": 0.1, "stop": 2.0, "points": 12}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["certify", "--config", cfg, "--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert main(["certify", "--config", cfg, "--out", str(out2)]) == 0
    stdout2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1 == stdout2


def test_certify_threads_flag_rejected(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["certify", "--config", cfg, "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


def test_certify_csv_to_stdout_has_no_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["certify", "--config", cfg, "--out", "-"]) == 0
    text = capsys.readouterr().out
    _, header, rows = _parse_csv(text)
    assert header[0] == "tau" and len(rows) == 4
    assert "best" not in text


@pytest.mark.parametrize("command,summary_key", [("certify", "best"), ("ghz", "summary")])
def test_json_to_file_leaves_stdout_empty(command, summary_key, tmp_path, capsys):
    flags = {"certify": ["--config", _write_config(tmp_path, _certify_doc())],
             "ghz": ["--sites", "4", "--points", "10"]}[command]
    out = tmp_path / "doc.json"
    assert main([command, *flags, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"meta", "rows", summary_key}


def test_certify_json_format(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["certify", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 4
    assert doc["rows"][0]["tau"] == 0.2
    assert "best" in doc and "meta" in doc


def test_certify_respects_family_switches(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc(
        bounds={"two_time": False, "kp": [3], "fsum": False}))
    assert main(["certify", "--config", cfg]) == 0
    _, header, _ = _parse_csv(capsys.readouterr().out)
    assert "lower_two_time" not in header
    assert "fsum_upper" not in header
    assert "lower_kp_3" in header and "lower_kp_4" not in header


def test_certify_best_skips_disabled_families(tmp_path, capsys):
    # At beta = 0.5 the two-time bound wins while every family is on.
    doc = _certify_doc(state={"thermal": {"beta": 0.5}}, bounds={"kp": [3]})
    assert main(["certify", "--config", _write_config(tmp_path, doc),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["best"]["family"] == "two_time"

    doc["bounds"].update(thermal=False, two_time=False)
    assert main(["certify", "--config", _write_config(tmp_path, doc),
                 "--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)
    best = result["best"]
    assert best["family"] not in ("thermal", "two_time", "none")
    lowers = [value for row in result["rows"] for key, value in row.items()
              if key.startswith("lower_")]
    assert best["lower"] == max(lowers)
    row = next(row for row in result["rows"] if row["tau"] == best["tau"])
    assert row[f"lower_{best['family']}"] == best["lower"]


def test_certify_instance_work_runs_once(tmp_path, capsys, monkeypatch):
    import lgqfi.bounds

    calls = {"fsum_upper": 0, "qfi": 0}

    def counted(name):
        fn = getattr(lgqfi.bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lgqfi.bounds, name, counted(name))
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["certify", "--config", cfg]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 4 and "fsum_upper" in header
    assert calls == {"fsum_upper": 1, "qfi": 1}


def test_certify_merges_lines_once(tmp_path, capsys, monkeypatch):
    import lgqfi.spectral

    merges = []
    merge = lgqfi.spectral._merge_lines

    def counted(*args):
        merges.append(args[0].shape[0])
        return merge(*args)

    monkeypatch.setattr(lgqfi.spectral, "_merge_lines", counted)
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["certify", "--config", cfg]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 4 and "fsum_upper" in header
    assert merges == [2]


def test_certify_depth_column(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc(bounds={"depth_sites": 4}))
    assert main(["certify", "--config", cfg]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert header[-1] == "depth"


# --------------------------------------------------------------------------
# configuration failures


def test_missing_config_flag(capsys):
    assert main(["certify"]) == 1
    assert "requires --config" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["certify", "--config", "/nonexistent/run.json"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "model": ,\n}\n', encoding="utf-8")
    assert main(["certify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:" in err and "invalid JSON" in err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc(extra={"x": 1}))
    assert main(["certify", "--config", cfg]) == 1
    assert "unknown top-level key 'extra'" in capsys.readouterr().err


def test_unknown_model_param(tmp_path, capsys):
    doc = _certify_doc()
    doc["model"]["params"]["gap"] = 1.0
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    assert "gap" in capsys.readouterr().err


def test_descending_tau_grid(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc(tau_grid=[1.0, 0.5]))
    assert main(["certify", "--config", cfg]) == 1
    assert "strictly ascending" in capsys.readouterr().err


def test_state_blocks_are_exclusive(tmp_path, capsys):
    doc = _certify_doc()
    doc["state"] = {"thermal": {"beta": 1.0}, "pure": {"index": 0}}
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    assert "exactly one of" in capsys.readouterr().err


def test_kernel_probe_cap_exits_one(tmp_path, capsys):
    doc = _certify_doc()
    doc["bounds"] = {"kp": [3, 10**6]}
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    assert "gamma_p with p = 1000000" in capsys.readouterr().err


def test_certify_maximizes_each_family_once_per_grid(tmp_path, capsys, monkeypatch):
    import lgqfi.kernels

    maximize, calls = lgqfi.kernels._maximize, []

    def counting(kernel, ys, *args):
        calls.append(len(ys))
        return maximize(kernel, ys, *args)

    monkeypatch.setattr(lgqfi.kernels, "_maximize", counting)
    doc = _certify_doc(tau_grid={"start": 0.05, "stop": 4.0, "points": 40})
    doc["bounds"] = {"kp": [3, 4, 5]}
    assert main(["certify", "--config", _write_config(tmp_path, doc)]) == 0
    # gamma (its numeric rows), gamma_tilde, gamma_4 and gamma_5; p = 3 shares gamma
    assert len(calls) <= 4
    assert sorted(calls)[-3:] == [40, 40, 40]


@pytest.mark.parametrize("grid, accepted", [
    ({"start": 0.1, "stop": 2.0, "points": 10_000}, True),
    ({"start": 0.1, "stop": 2.0, "points": 10_001}, False),
    ([0.001 * (k + 1) for k in range(10_001)], False),
])
def test_tau_grid_ceiling(tmp_path, capsys, grid, accepted):
    # run under 'protocol', which parses the grid but never evaluates it
    doc = _protocol_doc()
    doc["tau_grid"] = grid
    cfg = _write_config(tmp_path, doc)
    assert main(["protocol", "--config", cfg]) == (0 if accepted else 1)
    if not accepted:
        assert "10000" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    [0.2, float("nan"), 0.9],
    {"start": float("nan"), "stop": 2.0, "points": 5},
    [0.2, float("inf")],
])
def test_tau_grid_rejects_non_finite(tmp_path, capsys, grid):
    cfg = _write_config(tmp_path, _certify_doc(tau_grid=grid))
    assert main(["certify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:" in err and "'tau_grid' must be a finite number" in err


@pytest.mark.parametrize("beta, accepted", [
    (float("inf"), True), ("inf", True), (float("nan"), False)])
def test_beta_accepts_inf_but_not_nan(tmp_path, capsys, beta, accepted):
    cfg = _write_config(tmp_path, _certify_doc(state={"thermal": {"beta": beta}}))
    assert main(["certify", "--config", cfg]) == (0 if accepted else 1)
    if not accepted:
        assert "'beta' must be a finite number" in capsys.readouterr().err


_HUGE = 10**400  # an integer literal that no float can hold


@pytest.mark.parametrize("key, doc", [
    ("beta", _certify_doc(state={"thermal": {"beta": _HUGE}})),
    ("tau_grid", _certify_doc(tau_grid=[0.2, _HUGE])),
    ("epsilon", _certify_doc(model={"kind": "qubit",
                                    "params": {"epsilon": _HUGE, "theta": 1.1}})),
])
def test_huge_integer_literal_is_a_config_error(tmp_path, capsys, key, doc):
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}") and f"'{key}'" in err


def test_non_finite_model_entries_exit_one(tmp_path, capsys):
    nan_h = [[[float("nan"), 0.0], [0.2, 0.0]], [[0.2, 0.0], [1.0, 0.0]]]
    q = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"dim": 2, "H": nan_h, "Q": q}), encoding="utf-8")
    docs = [_certify_doc(model={"kind": "custom", "params": {"path": str(model)}}),
            _certify_doc(model={"kind": "tfim",
                                "params": {"n": 4, "j": 1.0, "h": float("nan")}})]
    for doc in docs:
        cfg = _write_config(tmp_path, doc)
        assert main(["certify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "non-finite" in captured.err


@pytest.mark.parametrize("key, model", [
    ("epsilon", {"kind": "qubit", "params": {"epsilon": "1.5", "theta": 0.3}}),
    ("j", {"kind": "tfim", "params": {"n": 3, "j": True, "h": 0.5}}),
    ("h", {"kind": "tfim", "params": {"n": 3, "j": 1.0, "h": "nan"}}),
    ("omega", {"kind": "ghz", "params": {"n": 3, "j": 1.0, "omega": float("nan")}}),
])
def test_model_reals_must_be_finite_numbers(tmp_path, capsys, key, model):
    cfg = _write_config(tmp_path, _certify_doc(model=model))
    assert main(["certify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {cfg}") and f"'{key}'" in captured.err


@pytest.mark.parametrize("argv", [
    ["gamma-table"], ["qubit"], ["ghz", "--sites", "4"]], ids=lambda a: a[0])
def test_preset_points_ceiling(monkeypatch, capsys, argv):
    import numpy as np

    asked = []
    linspace = np.linspace

    def spy(start, stop, num=50, *args, **kwargs):
        asked.append(num)
        assert num <= 10_000, f"np.linspace asked for {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", spy)
    assert main(argv + ["--points", "1000000000"]) == 1
    assert "--points must be in" in capsys.readouterr().err
    assert asked == []


@pytest.mark.parametrize("shots, accepted", [(10**7, True), (10**7 + 1, False)])
def test_protocol_shots_ceiling(tmp_path, capsys, shots, accepted):
    # run under 'certify', which parses the protocol block but draws no shots
    doc = _certify_doc(protocol={"tau": 0.8, "shots": shots})
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == (0 if accepted else 1)
    if not accepted:
        assert "'protocol.shots' must be an integer in [1, 10000000]" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("flag, argv", [
    ("--taus", ["tfim", "--sites", "3", "--taus", "nan"]),
    ("--taus", ["tfim", "--sites", "3", "--taus", "inf,1"]),
    ("--tau-max", ["qubit", "--tau-max", "inf", "--points", "2"]),
    ("--y-max", ["gamma-table", "--y-max", "inf", "--points", "3"]),
], ids=["tfim-nan", "tfim-inf", "qubit", "gamma-table"])
def test_preset_flags_reject_non_finite_numbers(capsys, flag, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails the test
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be a finite number")


@pytest.mark.parametrize("argv, message", [
    # tau^2 underflows to 0 or overflows in the curvature column
    (["tfim", "--sites", "3", "--taus", "1e-300"], "--taus must be in [1.49166814624"),
    (["tfim", "--sites", "3", "--taus", "0.1,1e200"], "1.34078079299"),
    # y = 2 tau / beta squared overflows in the kernel maximum
    (["qubit", "--beta", "1e-300", "--points", "2"], "is not finite at scaled time y"),
    # Delta^2 overflows in M_2; the phase 2 tau omega overflows in the pair sum
    (["tfim", "--sites", "3", "--j", "1e200", "--taus", "0.01"], "M_2 is not finite"),
    (["tfim", "--sites", "3", "--j", "3e153", "--taus", "1.3e154"],
     "C(tau) is not finite at tau = 2.6e+154"),
], ids=["tiny-tau", "huge-tau", "tiny-beta", "tfim-moment", "tfim-phase"])
def test_extreme_preset_inputs_exit_one_without_traceback(argv, message):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "lgqfi", *argv], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


_QUBIT_1E300 = {"kind": "qubit", "params": {"epsilon": 1e300, "theta": 1.0}}


@pytest.mark.parametrize("command, doc, message", [
    # every entry of H is 1.7e308: eigh returns the energies [0, inf]
    ("certify", _certify_doc(model={"kind": "custom", "params": {"path": "h.json"}}),
     "invalid model: the spectrum of a dim-2 operator overflows"),
    # delta * tau = inf at tau = 1e10
    ("certify", _certify_doc(model=_QUBIT_1E300, state={"thermal": {"beta": 1.0}},
                             tau_grid=[1e-10, 1e10]), "C(tau) is not finite at tau = 1"),
    ("protocol", {"model": _QUBIT_1E300, "state": {"thermal": {"beta": 1.0}},
                  "protocol": {"tau": 1e10}}, "C(tau) is not finite at tau = 1"),
], ids=["eigenvalue", "certify-phase", "protocol-phase"])
def test_overflow_exits_one_instead_of_nan_rows(tmp_path, command, doc, message):
    big = [1.7e308, 0.0]
    _write_config(tmp_path, {"dim": 2, "H": [[big, big], [big, big]],
                             "Q": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}, "h.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lgqfi", command,
                           "--config", _write_config(tmp_path, doc)],
                          capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_qubit_residual_at_huge_splitting(capsys):
    assert main(["qubit", "--epsilon", "1e300", "--points", "2"]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    for row in rows:
        assert abs(float(row[header.index("residual")])) <= 1e-15


def test_config_time_whose_square_underflows(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc(tau_grid=[1e-300, 0.5]))
    assert main(["certify", "--config", cfg]) == 1
    assert "'tau_grid' must be a finite number in [1.49166814624" in capsys.readouterr().err


def test_null_keys_take_their_defaults(tmp_path, capsys):
    grids = []
    for bounds in ({}, {"kp": None, "fsum": None, "depth_sites": None}):
        assert main(["certify", "--config", _write_config(tmp_path, _certify_doc(
            bounds=bounds))]) == 0
        grids.append(capsys.readouterr().out.splitlines()[1:])
    assert grids[0] == grids[1]


def _doc_key_tables():
    """The key tables of docs/run-config.md: block -> key -> column -> cell."""
    text = (REPO_ROOT / "docs" / "run-config.md").read_text(encoding="utf-8")
    tables = {}
    for section in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
        block = re.match(r"`(\w+)`", section)
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
                for line in section.splitlines() if line.startswith("|")]
        if block and rows:
            tables[block.group(1)] = {row[0].strip("`"): dict(zip(rows[0], row))
                                      for row in rows[2:]}
    return tables


def test_docs_key_tables_match_the_schema():
    from lgqfi.cli import _REQUIRED, _SCHEMA

    tables = _doc_key_tables()
    assert set(tables) == {"model", "bounds", "protocol", "output"}
    for block, rows in tables.items():
        assert set(rows) == set(_SCHEMA[block]), block
        for key, cells in rows.items():
            _, default, doc = _SCHEMA[block][key]
            assert cells.get("meaning", cells.get("notes")) == doc, (block, key)
            if "default" in cells:
                cell = cells["default"]
                documented = ({"required": _REQUIRED, "absent": None}[cell]
                              if not cell.startswith("`") else json.loads(cell.strip("`")))
                assert documented == default, (block, key)


def test_no_task_enabled(tmp_path, capsys):
    doc = _certify_doc()
    del doc["tau_grid"]
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    assert "no task enabled" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["gamma-table", "--frobnicate"]) == 1


@pytest.mark.parametrize("preset", ["gamma-table", "qubit", "tfim", "ghz"])
def test_presets_reject_config(preset, capsys):
    # only certify and protocol read a run configuration
    assert main([preset, "--config", "/nonexistent.json"]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert capsys.readouterr().out == ""


def test_preset_hash_covers_every_flag():
    from lgqfi.cli import _PRESETS, _build_parser, _preset_hash

    parser = _build_parser()
    for name, (_, _, flags) in _PRESETS.items():
        base = _preset_hash(parser.parse_args([name]))
        for dest, default in flags.items():
            value = "0.3" if isinstance(default, str) else str(2 * default)
            args = parser.parse_args([name, "--" + dest.replace("_", "-"), value])
            assert _preset_hash(args) != base, (name, dest)


def test_invalid_seed_exits_one(capsys):
    assert main(["gamma-table", "--seed", "-3"]) == 1


def test_internal_failure_exits_two(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr("lgqfi.cli.best_bound", boom)
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["certify", "--config", cfg]) == 2
    assert "internal error: synthetic failure" in capsys.readouterr().err


# --------------------------------------------------------------------------
# scenario commands


def test_qubit_identity_residual_column(capsys):
    assert main(["qubit", "--epsilon", "1.0", "--theta", "0.8",
                 "--beta", "2.0", "--points", "12"]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    residual_idx = header.index("residual")
    for row in rows:
        assert abs(float(row[residual_idx])) < 1e-10


def test_tfim_curvature_converges(capsys):
    assert main(["tfim", "--sites", "6", "--h", "0.5",
                 "--taus", "0.2,0.02"]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    rel_idx = header.index("rel_error_vs_m2")
    m2_idx = header.index("m2_spectral")
    coarse, fine = float(rows[0][rel_idx]), float(rows[1][rel_idx])
    assert fine < 0.01
    assert fine < coarse
    assert abs(float(rows[0][m2_idx]) - 1.0) < 1e-9  # 4 h^2 at h = 1/2


def test_ghz_summary(capsys):
    assert main(["ghz", "--sites", "8", "--points", "30",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    summary = doc["summary"]
    assert abs(summary["k_max"] - 1.5) < 1e-12
    assert summary["saturation_residual"] < 1e-10
    assert abs(summary["two_time_bound_at_pi"] - 4.0) < 1e-10
    assert summary["depth"] == 8
    assert abs(summary["heisenberg_ratio"] - 1.0) < 1e-12
    assert any(abs(row["k_tau"] - 1.5) < 1e-12 for row in doc["rows"])


def test_ghz_csv_with_summary_on_stdout(tmp_path, capsys):
    out = tmp_path / "ghz.csv"
    assert main(["ghz", "--sites", "4", "--points", "10",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["summary"]["depth"] == 4
    _, header, rows = _parse_csv(out.read_text(encoding="utf-8"))
    assert header == ["omega_tau", "tau", "c_tau", "k_tau", "lower_pure"]
    assert len(rows) == 10


# --------------------------------------------------------------------------
# protocol command


def _protocol_doc():
    return {
        "model": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": 0.9}},
        "state": {"thermal": {"beta": 1.5}},
        "protocol": {"tau": 0.8, "shots": 4000, "seed": 5,
                     "widths": [0.1, 0.01], "coupling": 1.0},
    }


def test_protocol_table(tmp_path, capsys):
    cfg = _write_config(tmp_path, _protocol_doc())
    assert main(["protocol", "--config", cfg]) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    names = [row[0] for row in rows]
    assert names == ["spectral", "projective_exact", "projective_mc",
                     "weak_two_meter", "weak_two_meter", "projective_chain"]
    err_idx = header.index("abs_error")
    gate_idx = header.index("within_gate")
    by_name = dict(zip(names, rows))
    assert float(by_name["projective_exact"][err_idx]) < 1e-10
    assert float(by_name["weak_two_meter"][err_idx]) < 1e-10  # dichotomic probe
    assert float(by_name["projective_chain"][err_idx]) < 1e-10
    assert by_name["projective_mc"][gate_idx] == "true"


def test_protocol_instance_work_runs_once(tmp_path, capsys, monkeypatch):
    import numpy as np

    import lgqfi.cli
    import lgqfi.protocols
    from lgqfi.linalg import hermitian_eig
    from lgqfi.models import build_qubit

    calls = {"hermitian_eig": 0, "_state": 0, "projective_joint": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    eig = counted("hermitian_eig", lgqfi.cli.hermitian_eig)
    monkeypatch.setattr(lgqfi.cli, "hermitian_eig", eig)
    monkeypatch.setattr(lgqfi.protocols, "hermitian_eig", eig)
    monkeypatch.setattr(lgqfi.protocols, "_state", counted("_state", lgqfi.protocols._state))
    joint = counted("projective_joint", lgqfi.protocols.projective_joint)
    monkeypatch.setattr(lgqfi.cli, "projective_joint", joint)
    monkeypatch.setattr(lgqfi.protocols, "projective_joint", joint)
    doc = {
        "model": {"kind": "tfim", "params": {"n": 3, "j": 1.0, "h": 0.7}},
        "state": {"thermal": {"beta": 1.2}},
        "protocol": {"tau": 0.6, "shots": 2000, "seed": 3,
                     "widths": [0.1, 0.01, 0.001]},
    }
    cfg = _write_config(tmp_path, doc)
    assert main(["protocol", "--config", cfg]) == 0
    _, _, rows = _parse_csv(capsys.readouterr().out)
    assert [row[0] for row in rows].count("weak_two_meter") == 3
    # the stationary state goes in as its weights, not as a dense density matrix
    assert calls == {"hermitian_eig": 2, "_state": 0, "projective_joint": 3}
    # protocols work in the eigenbases: no dense propagator, no outcome projectors
    h, q = build_qubit(1.0, 0.5)
    inst = lgqfi.protocols.ProtocolInstance(hermitian_eig(h), q, np.eye(2) / 2.0)
    assert not hasattr(inst, "propagator") and not hasattr(inst, "projectors")


def test_protocol_seed_override(tmp_path, capsys):
    cfg = _write_config(tmp_path, _protocol_doc())
    assert main(["protocol", "--config", cfg]) == 0
    base = capsys.readouterr().out
    assert main(["protocol", "--config", cfg, "--seed", "99"]) == 0
    overridden = capsys.readouterr().out
    assert main(["protocol", "--config", cfg]) == 0
    repeat = capsys.readouterr().out
    assert base == repeat
    assert base != overridden
    assert "seed=99" in overridden.splitlines()[0]


def test_protocol_requires_block(tmp_path, capsys):
    cfg = _write_config(tmp_path, _certify_doc())
    assert main(["protocol", "--config", cfg]) == 1
    assert "'protocol' block" in capsys.readouterr().err


# --------------------------------------------------------------------------
# shipped example configs


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name,command", [
    ("qubit-certify.json", "certify"),
    ("tfim-certify.json", "certify"),
    ("ghz-protocol.json", "protocol"),
    ("custom-certify.json", "certify"),
])
def test_shipped_examples_run(name, command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # custom-model path is repo-root relative
    cfg = str(REPO_ROOT / "docs" / "examples" / name)
    out = tmp_path / "grid.out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# lgqfi ")
    capsys.readouterr()


# --------------------------------------------------------------------------
# installed entry points


def test_module_entry_point():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "lgqfi", "gamma-table", "--points", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# lgqfi ")
