"""Byte-for-byte golden outputs of the shipped examples and preset commands.

The reference files under ``bench/reference/golden/`` were recorded before
any refactor of the command-line front end; every run below must reproduce
its exit code, its stdout and (when it writes one) its ``--out`` file
exactly.  The argument lists are the ones the benchmark runs.

The references were recorded with one BLAS thread, and a multithreaded
OpenBLAS ``eigh`` changes the last digits of the 8-site tfim preset.  All
cases therefore run in-process in one child interpreter whose BLAS thread
count is pinned to 1 before NumPy loads.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "bench" / "reference" / "golden"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (golden key, argv before any --out, writes an --out file)
CASES = [
    ("examples/custom-certify",
     ["certify", "--config", "docs/examples/custom-certify.json"], True),
    ("examples/qubit-certify",
     ["certify", "--config", "docs/examples/qubit-certify.json"], True),
    ("examples/tfim-certify",
     ["certify", "--config", "docs/examples/tfim-certify.json"], True),
    ("examples/ghz-protocol",
     ["protocol", "--config", "docs/examples/ghz-protocol.json"], False),
    ("presets/qubit", ["qubit"], False),
    ("presets/tfim", ["tfim", "--sites", "8", "--format", "json"], False),
    ("presets/ghz", ["ghz", "--sites", "8"], True),
    ("presets/gamma-table", ["gamma-table"], True),
]

_RUNNER = """
import contextlib, io, json, pathlib, sys
from lgqfi.cli import main
results = {}
for key, argv, out in json.loads(sys.stdin.read()):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    text = pathlib.Path(out).read_bytes().decode("utf-8") if out else None
    results[key] = {"exit": code, "stdout": stdout.getvalue(), "out": text}
sys.stdout.write(json.dumps(results))
"""


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    jobs = []
    for key, argv, writes_out in CASES:
        out = str(outdir / (key.replace("/", "-") + ".out")) if writes_out else None
        jobs.append([key, argv + ["--out", out] if out else argv, out])
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _RUNNER], input=json.dumps(jobs),
                          capture_output=True, text=True, cwd=REPO_ROOT, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("key,writes_out", [(c[0], c[2]) for c in CASES],
                         ids=[c[0] for c in CASES])
def test_golden_output(key, writes_out, golden_runs):
    run = golden_runs[key]
    exits = json.loads((GOLDEN / "exit.json").read_text(encoding="utf-8"))
    assert run["exit"] == exits[key]
    assert run["stdout"] == (GOLDEN / f"{key}.stdout").read_bytes().decode("utf-8")
    if writes_out:
        assert run["out"] == (GOLDEN / f"{key}.out").read_bytes().decode("utf-8")
