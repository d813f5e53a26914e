"""Reference outputs of every operation any seed can draw.

    python3 bench/reference.py [WORKLOAD ...]

regenerates them by running the whole pool of each workload once through
``bench/worker.py``.  They were written on the commit that introduced the
benchmark; regenerating them accepts the current outputs as correct, so a
change that does so must say why.

Layout: ``reference/<workload>.json.gz`` holds the pool drawn from seeds;
the docs/examples configs and preset commands that the ``protocol``
workload runs are kept as plain golden files under ``reference/golden``,
one file per output stream plus ``golden/exit.json`` with the exit codes.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
GOLDEN = REFERENCE / "golden"
GOLDEN_PREFIXES = ("examples/", "presets/")


def _golden() -> dict[str, dict]:
    exits = json.loads((GOLDEN / "exit.json").read_text(encoding="utf-8"))
    results = {}
    for key, code in exits.items():
        outputs = {}
        for stream in ("stdout", "out"):
            path = GOLDEN / f"{key}.{stream}"
            if path.exists():
                outputs[stream] = path.read_text(encoding="utf-8")
        results[key] = {"exit": code, "outputs": outputs}
    return results


def load_reference(workload: str) -> dict[str, dict]:
    path = REFERENCE / f"{workload}.json.gz"
    results = json.loads(gzip.decompress(path.read_bytes()))["results"]
    if workload == "protocol":
        results.update(_golden())
    return results


def _write(workload: str, results: dict[str, dict]) -> None:
    from check import ATOL, RTOL
    pooled, golden = {}, {}
    for key, result in results.items():
        if result.get("exit") is None:
            raise SystemExit(f"{workload} {key}: {result.get('error')}")
        kept = {"exit": result["exit"], "outputs": result["outputs"]}
        (golden if key.startswith(GOLDEN_PREFIXES) else pooled)[key] = kept
    doc = {"rtol": RTOL, "atol": ATOL, "results": pooled}
    data = json.dumps(doc, sort_keys=True, indent=0).encode("utf-8")
    (REFERENCE / f"{workload}.json.gz").write_bytes(gzip.compress(data, mtime=0))
    if golden:
        shutil.rmtree(GOLDEN, ignore_errors=True)
        for key, result in golden.items():
            for stream, text in result["outputs"].items():
                path = GOLDEN / f"{key}.{stream}"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
        exits = {key: result["exit"] for key, result in sorted(golden.items())}
        (GOLDEN / "exit.json").write_text(json.dumps(exits, indent=1) + "\n",
                                          encoding="utf-8")


def main(argv: list[str]) -> int:
    import run
    from workloads import WORKLOADS, generate_pool

    for workload in argv or WORKLOADS:
        workdir = run.WORK / f"reference-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            ops = generate_pool(workload, workdir, run.ROOT)
            (workdir / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
            result = run.run_child(workdir, "pool", [])
            if result["returncode"] != 0:
                raise SystemExit(f"{workload}: worker exited with {result['returncode']}")
            _write(workload, result["results"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {len(ops)} reference outputs in {result['elapsed_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
