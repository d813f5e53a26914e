"""Tests of the benchmark's own code: ``python3 -m pytest bench/tests -q``."""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import load_reference  # noqa: E402


def _snapshot(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    workdir = tmp_path / "inputs"
    workloads.generate(workload, 5, workdir, run.ROOT)
    first = _snapshot(workdir)
    shutil.rmtree(workdir)
    workloads.generate(workload, 5, workdir, run.ROOT)
    assert _snapshot(workdir) == first
    assert "ops.json" in first


def test_seeds_draw_different_inputs():
    assert workloads.bound_selection(1) != workloads.bound_selection(2)
    assert len({workloads.variant_of("certify-grid", s) for s in range(20)}) > 1


def test_every_drawable_op_has_a_reference(tmp_path):
    for workload in workloads.WORKLOADS:
        reference = load_reference(workload)
        for seed in range(10):
            ops = workloads.generate(workload, seed, tmp_path / f"{workload}{seed}", run.ROOT)
            assert all(op["key"] in reference for op in ops)


def test_bound_instances_are_hermitian_with_unit_bounded_q():
    inst = workloads.bound_instance(7)
    h, q = inst["h"], inst["q"]
    n = inst["dim"]
    for r in range(n):
        for c in range(n):
            assert h[r][c] == [h[c][r][0], -h[c][r][1]]
    assert max(sum(abs(complex(*z)) for z in row) for row in q) <= 1.0 + 1e-12


def _span(name, start, end, parent, attr=None):
    return [name, start, end, parent, attr]


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("bounds.build_report", 1.0, 4.0, 0),
        _span("kernels.gamma", 2.0, 3.0, 1, "(0.5,)"),
        _span("response.build_spectrum", 5.0, 6.0, 0, "sd"),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("linalg.hermitian_eig", 1.0, 4.0, 0, "a"),
        _span("linalg.hermitian_eig", 3.0, 6.0, 0, "a"),
        _span("linalg.hermitian_eig", 9.0, 12.0, 0, "b"),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_on_a_synthetic_pass():
    tree = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("trace.attr", 0.5, 1.0, 0),
        _span("linalg.hermitian_eig", 1.0, 3.0, 0, "a"),
        _span("bounds.build_report", 3.0, 7.0, 0),
        _span("kernels.gamma_p", 4.0, 5.0, 3, "(4, 0.5)"),
        _span("kernels.gamma_p", 5.0, 5.5, 3, "(4, 0.5)"),
        _span("response.build_spectrum", 5.5, 6.5, 3, "sd"),
        _span("response.build_spectrum", 6.5, 7.0, 3, "sd"),
    ]
    m = spans.layer_metrics(tree, wall_s=11.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 0.5 - 2.0 - 4.0)
    assert m["linalg.eig_calls"] == 1
    assert m["linalg.eig_self_s"] == pytest.approx(2.0)
    assert m["bounds.self_s"] == pytest.approx(1.0)
    assert m["kernels.calls"] == 2
    assert m["kernels.self_s"] == pytest.approx(1.5)
    assert m["kernels.distinct_ratio"] == pytest.approx(0.5)
    assert m["response.spectrum_per_instance"] == pytest.approx(2.0)
    assert m["unattributed_s"] == pytest.approx(11.0 - 10.0)
    assert m["trace.tracer_s"] == pytest.approx(0.5)


def test_recorder_spans_nest_and_keep_results():
    recorder = spans.Recorder()
    inner = recorder.wrap("kernels.gamma", lambda y: 2 * y)
    outer = recorder.wrap("bounds.build_report", lambda y: inner(y) + 1)
    assert outer(3) == 7
    names = [s[0] for s in recorder.spans]
    assert names == ["bounds.build_report", "trace.attr", "kernels.gamma"]
    assert recorder.spans[2][3] == 0 and recorder.spans[2][4] == "(3,)"


def test_recorder_keys_keyword_calls_like_positional_ones():
    recorder = spans.Recorder()
    gamma_p = recorder.wrap("kernels.gamma_p", lambda p, y: p * y)
    gamma_p(4, 0.5)
    gamma_p(4, y=0.5)
    gamma_p(p=4, y=0.5)
    keys = [s[4] for s in recorder.spans if s[0] == "kernels.gamma_p"]
    assert keys == ["(4, 0.5)"] * 3


GOLDEN_KEY = "examples/qubit-certify"


def _golden():
    return copy.deepcopy(load_reference("protocol")[GOLDEN_KEY])


def test_checker_accepts_the_reference_itself():
    want = _golden()
    assert check.compare(copy.deepcopy(want), want) is None


def _perturb_first_number(text: str, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[2].split(",")
    cells[1] = repr(float(cells[1]) * factor)
    lines[2] = ",".join(cells)
    return "".join(lines)


def test_checker_flags_a_perturbed_number():
    want = _golden()
    got = copy.deepcopy(want)
    got["outputs"]["out"] = _perturb_first_number(got["outputs"]["out"], 1.0 + 1e-6)
    assert check.compare(got, want) is not None


def test_checker_tolerates_rounding_below_its_tolerance():
    want = _golden()
    got = copy.deepcopy(want)
    got["outputs"]["out"] = _perturb_first_number(got["outputs"]["out"], 1.0 + 1e-13)
    assert check.compare(got, want) is None


def test_checker_flags_a_changed_family_and_a_nonzero_exit():
    want = _golden()
    got = copy.deepcopy(want)
    got["outputs"]["stdout"] = got["outputs"]["stdout"].replace('"family": "', '"family": "x')
    assert check.compare(got, want) is not None
    got = copy.deepcopy(want)
    got["exit"] = 1
    assert "exit code" in check.compare(got, want)
    assert "raised" in check.compare({"exit": None, "error": "ValueError: x"}, want)


def test_failed_worker_fails_every_op():
    ops = [{"key": "a"}, {"key": "b"}]
    assert len(run._failures({"returncode": 1}, ops, {})) == 2


def test_cli_op_does_not_read_an_output_left_by_an_earlier_pass(tmp_path):
    class SilentCli:
        @staticmethod
        def main(argv):
            return 0

    stale = tmp_path / "tfim8.out"
    stale.write_text("output of an earlier pass\n", encoding="utf-8")
    op = {"key": "v0/tfim8", "kind": "cli", "argv": [], "out": str(stale)}
    with pytest.raises(FileNotFoundError):
        worker._run_cli(type("lgqfi", (), {"cli": SilentCli}), op)
