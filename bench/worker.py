"""One benchmark pass, or one set-up probe, in a fresh process.

Usage: ``python3 bench/worker.py SRC OPS RESULT [--trace] [--setup-only]``

Times a cold ``import lgqfi`` (plus ``lgqfi.cli``) and, right after it, a
calibration loop that uses NumPy but not lgqfi and stays in cache; it
measures how fast the machine is at that moment.  A pass then loads the
generated inputs, runs every operation of ``OPS`` in order and writes the
wall time, the outputs and, with ``--trace``, the recorded spans to
``RESULT``.  A failing operation is recorded and the pass goes on.  A probe
(``--setup-only``) instead times a second calibration loop, on arrays of
tens of MB, which would raise a pass's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _import_lgqfi(src: Path):
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import lgqfi
    import lgqfi.cli
    setup_s = time.perf_counter() - start
    if Path(lgqfi.__file__).resolve().parent != (src / "lgqfi").resolve():
        raise SystemExit(f"lgqfi was imported from {lgqfi.__file__}, not from {src}")
    return lgqfi, setup_s


def _run_cli(lgqfi, op: dict) -> dict:
    if op["out"] is not None:
        # A file left by an earlier pass must not stand in for a missing one.
        Path(op["out"]).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = lgqfi.cli.main(op["argv"])
    outputs = {"stdout": stdout.getvalue()}
    if op["out"] is not None and code == 0:
        outputs["out"] = Path(op["out"]).read_text(encoding="utf-8")
    return {"exit": code, "outputs": outputs, "stderr": stderr.getvalue()}


def _load_bound(np, ops: list[dict]) -> dict[str, tuple]:
    """Matrices of every bound-chain instance, converted before timing starts."""
    loaded = {}
    for path in sorted({op["input"] for op in ops if op["kind"] == "bound"}):
        for inst in json.loads(Path(path).read_text(encoding="utf-8")):
            h = np.array(inst["h"], dtype=np.float64) @ np.array([1.0, 1.0j])
            q = np.array(inst["q"], dtype=np.float64) @ np.array([1.0, 1.0j])
            loaded[inst["key"]] = (h, q, inst["beta"], inst["tau"])
    return loaded


def _run_bound(lgqfi, instance: tuple) -> dict:
    h, q, beta, tau = instance
    h_op, q_op = lgqfi.Operator(h), lgqfi.Operator(q)
    eig = lgqfi.hermitian_eig(h_op)
    sd = lgqfi.spectral_data(eig, q_op, lgqfi.make_state(eig, beta=beta))
    r = lgqfi.build_report(sd, tau, kp=(3, 4, 5), include_fsum=True)
    report = {
        "c_tau": r.c_tau, "c_2tau": r.c_2tau, "k_tau": r.k_tau, "f_q": r.f_q,
        "kp_values": {str(p): v for p, v in r.kp_values.items()},
        "lower_thermal": r.lower_thermal, "lower_thermal_weak": r.lower_thermal_weak,
        "lower_two_time": r.lower_two_time,
        "lower_kp": {str(p): v for p, v in r.lower_kp.items()},
        "fsum": r.fsum, "slack": dict(r.slack),
        "uninformative": list(r.uninformative),
    }
    return {"exit": 0, "outputs": {"report": report}}


def _calibrate_compute(np) -> float:
    """Seconds for interpreted, vectorised and LAPACK work that stays in cache."""
    start = time.perf_counter()
    total = 0.0
    for i in range(600_000):
        total += i * 0.5
    x = np.linspace(0.0, 10.0, 20_000)
    for _ in range(250):
        np.cos(x) * np.sin(0.5 * x) / (1.0 + x * x)
    k = np.arange(120.0)
    a = np.cos(0.01 * np.outer(k, k)) + 1j * np.sin(0.1 * np.subtract.outer(k, k))
    for _ in range(12):
        np.linalg.eigh(a)
    return time.perf_counter() - start


def _calibrate_memory(np) -> float:
    """Seconds for array work on tens of MB: it waits on memory more than on the core."""
    start = time.perf_counter()
    z = np.exp(1j * np.linspace(0.0, 50.0, 1_000_000))
    for _ in range(6):
        np.abs(z * z.conj() + 0.5 * z)
    k = np.arange(1.0, 513.0)
    a = np.sin(np.outer(k, k)) + 1j * np.cos(np.outer(k, k + 1.0))
    np.linalg.eigh(a + a.conj().T)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    src, ops_path, result_path = (Path(a) for a in argv[:3])
    lgqfi, setup_s = _import_lgqfi(src)
    import numpy as np
    # Right after the import, the machine is as fast as it was during it.
    result: dict = {"setup_s": setup_s, "compute_s": _calibrate_compute(np)}
    if "--setup-only" in argv:
        result["memory_s"] = _calibrate_memory(np)
    else:
        ops = json.loads(ops_path.read_text(encoding="utf-8"))
        instances = _load_bound(np, ops)
        recorder = None
        if "--trace" in argv:
            from spans import Recorder
            recorder = Recorder()
            recorder.install()
        results = {}
        start = time.perf_counter()
        for op in ops:
            try:
                if op["kind"] == "cli":
                    results[op["key"]] = _run_cli(lgqfi, op)
                else:
                    results[op["key"]] = _run_bound(lgqfi, instances[op["key"]])
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                results[op["key"]] = {"exit": None, "error": f"{type(exc).__name__}: {exc}",
                                      "traceback": traceback.format_exc()}
        result["wall_s"] = time.perf_counter() - start
        result["results"] = results
        if recorder is not None:
            result["spans"] = recorder.spans
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
