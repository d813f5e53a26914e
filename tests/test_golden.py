"""Byte-for-byte golden outputs of the shipped examples and preset commands.

The reference files under ``bench/reference/golden/`` were recorded before
any refactor of the command-line front end; every run below must reproduce
its exit code, its stdout and (when it writes one) its ``--out`` file
exactly.  The argument lists are the ones the benchmark runs.

Outputs listed in ``NUMERIC_CASES`` carry numbers that pass through a
numeric kernel maximum, whose last digits depend on where the maximizer
samples the kernel.  For those outputs the text with every number masked
must match byte for byte, and each number must agree with the reference to
``NUMERIC_RTOL`` relative to max(1, |a|, |b|).  Every other output must
match byte for byte.

The references were recorded with one BLAS thread, and a multithreaded
OpenBLAS ``eigh`` changes the last digits of the 8-site tfim preset.  All
cases therefore run in-process in one child interpreter whose BLAS thread
count is pinned to 1 before NumPy loads.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
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

# golden files whose numbers may differ from the reference in the last digits
NUMERIC_CASES = {
    "examples/custom-certify.out",
    "examples/custom-certify.stdout",
    "examples/qubit-certify.out",
    "examples/qubit-certify.stdout",
    "examples/tfim-certify.out",
    "examples/tfim-certify.stdout",
    "presets/qubit.stdout",
    "presets/gamma-table.out",
}
NUMERIC_RTOL = 1e-12
# a whole number token, not digits inside a name such as kp_3 or a hash
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.])")

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
    _assert_matches(f"{key}.stdout", run["stdout"])
    if writes_out:
        _assert_matches(f"{key}.out", run["out"])


def _assert_matches(name: str, text: str) -> None:
    golden = (GOLDEN / name).read_bytes().decode("utf-8")
    if name not in NUMERIC_CASES:
        assert text == golden
        return
    assert NUMBER.sub("#", text) == NUMBER.sub("#", golden)
    for got, want in zip(NUMBER.findall(text), NUMBER.findall(golden)):
        a, b = float(got), float(want)
        assert abs(a - b) <= NUMERIC_RTOL * max(1.0, abs(a), abs(b)), (name, got, want)


def test_number_mask_skips_names_and_hashes():
    line = "config=1967c212960d lower_kp_3,-2.5e-05,0.125,7"
    assert NUMBER.findall(line) == ["-2.5e-05", "0.125", "7"]
