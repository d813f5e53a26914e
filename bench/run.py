"""Benchmark of the lgqfi certify pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                     # every workload, one table

For one workload, the inputs are generated from ``--seed`` before timing
starts.  Then a set-up probe (import plus calibration loops) and a pass
(the whole workload) alternate, each in a fresh worker process (cold
imports, cold kernel caches) on one CPU, until ``--seconds`` is used up;
every output of every pass is checked against ``bench/reference``.  With
``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the traced ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from check import compare  # noqa: E402
from reference import load_reference  # noqa: E402
from spans import combine, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150.0
# setup_s is each process's import time rescaled to a machine on which the
# compute loop right after it takes this long (about its median on the
# machine the baseline was measured on).
SETUP_REF_S = 0.25
# A workload's calibration time is (1 - m) * mean compute_s + m * mean
# memory_s over the processes of a run, with m = MEMORY_SHARE[workload].
# Under contention from other tenants, cache-resident work slows down by up
# to 1.5x and work on large arrays by about 1.1x; m matches each workload's
# mix, so that its wall time and its calibration slow down alike.
MEMORY_SHARE = {"certify-grid": 0.8, "certify-chain": 0.8, "bound-chain": 0.0,
                "protocol": 0.33}


@functools.lru_cache(maxsize=None)
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workdir: Path, tag: str, flags: list[str]) -> dict:
    """Run bench/worker.py once; adds its exit status, elapsed time and peak RSS."""
    result_path = workdir / f"{tag}.result.json"
    with open(workdir / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC),
             str(workdir / "ops.json"), str(result_path), *flags],
            cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if proc.returncode == 0 and result_path.exists():
        result = json.loads(result_path.read_text(encoding="utf-8"))
    result.update(returncode=proc.returncode, elapsed_s=elapsed,
                  peak_rss_mb=usage.ru_maxrss / 1024.0)
    return result


def _failures(result: dict, ops: list[dict], reference: dict) -> list[str]:
    if result["returncode"] != 0 or "results" not in result:
        return [f"{op['key']}: worker exited with {result['returncode']}" for op in ops]
    problems = []
    for op in ops:
        want = reference.get(op["key"])
        got = result["results"].get(op["key"], {"error": "no result"})
        problem = "no reference output" if want is None else compare(got, want)
        if problem:
            problems.append(f"{op['key']}: {problem}")
    return problems


def _run_passes(workdir: Path, seconds: float, trace: bool):
    """A probe, then a pass, until ``seconds`` is used up (at least MIN_PASSES)."""
    deadline = time.perf_counter() + seconds
    run_child(workdir, "warmup", ["--setup-only"])
    probes: list[dict] = []
    passes: list[tuple[bool, dict]] = []
    while True:
        if len(passes) >= MIN_PASSES - (1 if trace else 0):
            step = (statistics.median(r["elapsed_s"] for r in probes)
                    + statistics.median(r["elapsed_s"] for _, r in passes))
            if time.perf_counter() + step > deadline:
                return probes, passes
        probes.append(run_child(workdir, f"probe{len(probes)}", ["--setup-only"]))
        traced = trace and len(passes) % 2 == 1
        flags = ["--trace"] if traced else []
        passes.append((traced, run_child(workdir, f"pass{len(passes)}", flags)))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds``; return its metrics and checks."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        ops = generate(workload, seed, workdir, ROOT)
        reference = load_reference(workload)
        probes, passes = _run_passes(workdir, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for _, r in passes for p in _failures(r, ops, reference)]
    problems += [f"setup probe exited with {r['returncode']}" for r in probes
                 if r["returncode"] != 0]
    plain = [r for t, r in passes if not t and "wall_s" in r]
    spanned = [r for t, r in passes if t and "wall_s" in r]
    processes = [r for r in probes + [r for _, r in passes] if "compute_s" in r]
    memory = [r["memory_s"] for r in probes if "memory_s" in r]
    summary = {
        "workload": workload, "seed": seed, "ops": len(ops),
        "attempted": len(ops) * len(passes) + len(probes), "failed": len(problems),
        "problems": problems,
        "samples": {"setup_s": len(processes), "setup_wall_s": len(processes),
                    "wall_s": len(plain), "calibration_s": len(processes),
                    "wall_norm": len(plain), "peak_rss_mb": len(plain),
                    "traced": len(spanned)},
        "wall_samples": [r["wall_s"] for r in plain],
        "end_to_end": {},
        "per_layer": {},
    }
    if plain and memory:
        share = MEMORY_SHARE[workload]
        calibration = ((1.0 - share) * statistics.fmean(r["compute_s"] for r in processes)
                       + share * statistics.fmean(memory))
        summary["end_to_end"] = {
            "setup_s": SETUP_REF_S * statistics.median(
                r["setup_s"] / r["compute_s"] for r in processes),
            "setup_wall_s": statistics.median(r["setup_s"] for r in processes),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "calibration_s": calibration,
            "wall_norm": statistics.median(r["wall_s"] for r in plain) / calibration,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    if spanned and plain:
        layers = combine([layer_metrics(r["spans"], r["wall_s"]) for r in spanned])
        # Passes alternate untraced, traced; each traced pass is compared
        # with the untraced one just before it.
        pairs = [(a, b) for (ta, a), (tb, b) in zip(passes, passes[1:])
                 if not ta and tb and "wall_s" in a and "wall_s" in b]
        layers["trace.overhead_s"] = statistics.median(
            b["wall_s"] - a["wall_s"] for a, b in pairs)
        summary["per_layer"] = layers
    return summary


def _meta(seed: int) -> str:
    import numpy
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"seed={seed} nproc={nproc} numpy={numpy.__version__} "
            f"python={platform.python_version()} blas_threads={BLAS_THREADS}")


def _print_summary(s: dict, trace: bool) -> None:
    w = s["workload"]
    for problem in s["problems"][:10]:
        print(f"FAIL {w}: {problem}", file=sys.stderr)
    units = {"wall_s": "s", "setup_wall_s": "s", "calibration_s": "s",
             **{m["name"]: m["unit"] for m in spec()["end_to_end"]}}
    for name, value in s["end_to_end"].items():
        print(f"{w:14s} {name:14s} {value:12.6f} {units[name]:5s} "
              f"from {s['samples'][name]} processes")
    share = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"{w:14s} {'fail_share':14s} {share:12.6f} {'1':5s} "
          f"{s['failed']} of {s['attempted']} ops and setup probes failed")
    print(f"{w:14s} {'ops':14s} {s['ops']:12d} {'count':5s} per pass")
    print(f"{w:14s} wall_s samples: " + " ".join(f"{v:.3f}" for v in s["wall_samples"]))
    if trace:
        for name, value in s["per_layer"].items():
            print(f"{w:14s} {name:32s} {value:14.6f}  median of {s['samples']['traced']}")


def _result_line(summaries: list[dict], trace: bool, prefix: bool) -> str:
    specs = spec()["per_layer"] if trace else spec()["end_to_end"]
    metrics = {}
    for s in summaries:
        values = s["per_layer"] if trace else s["end_to_end"]
        for m in specs:
            key = f"{s['workload']}.{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lgqfi" / "__init__.py").is_file():
        print(f"error: no lgqfi sources under {SRC}", file=sys.stderr)
        return 2
    print(f"# lgqfi bench {_meta(args.seed)} trace={args.trace}")
    if hasattr(os, "sched_setaffinity"):
        # Every worker runs on the same CPU, so that the probes and the
        # passes see the same core.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    summaries = []
    for name in names:
        summary = measure(name, args.seed, args.seconds, trace)
        _print_summary(summary, trace)
        summaries.append(summary)
    if any(not (s["per_layer"] if trace else s["end_to_end"]) for s in summaries):
        print("error: no pass completed", file=sys.stderr)
        return 1
    print(_result_line(summaries, trace, prefix=args.workload is None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
