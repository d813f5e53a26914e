"""End-to-end command-line behavior: emission, configs, and exit codes."""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys

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

    calls = {"build_spectrum": 0, "qfi": 0}

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
    assert calls == {"build_spectrum": 1, "qfi": 1}


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


def test_no_task_enabled(tmp_path, capsys):
    doc = _certify_doc()
    del doc["tau_grid"]
    cfg = _write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 1
    assert "no task enabled" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert main(["gamma-table", "--frobnicate"]) == 1


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
    proc = subprocess.run(
        [sys.executable, "-m", "lgqfi", "gamma-table", "--points", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# lgqfi ")
