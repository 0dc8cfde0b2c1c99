"""Process entry points: what a fresh process loads, and on how many
BLAS threads it computes.

Both are properties of a new interpreter, so each test starts one, with
``repro`` imported from the same tree as this suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.blas import THREAD_VARS
from repro.cli import main

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: What a serving process imports; none of it may load scipy.
SERVING_STACK = (
    "repro.cli",
    "repro.core.rafiki",
    "repro.middleware",
    "repro.bench.collection",
    "repro.ml.ensemble",
    "repro.lsm.engine",
)


def start_python(args, threads="1") -> subprocess.Popen:
    """Start ``python *args`` with every thread variable at ``threads``."""
    env = {**os.environ, "PYTHONPATH": SRC, **{var: threads for var in THREAD_VARS}}
    return subprocess.Popen(
        [sys.executable, *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def stdout_of(proc: subprocess.Popen) -> str:
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    return out


class TestImportFootprint:
    def test_root_loads_no_numpy_and_serving_loads_no_scipy(self):
        script = (
            "import json, sys\n"
            "def loaded(*roots):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
            "import repro\n"
            "root = loaded('numpy', 'scipy')\n"
            f"import {', '.join(SERVING_STACK)}\n"
            "print(json.dumps([root, loaded('scipy')]))\n"
        )
        root, serving = json.loads(stdout_of(start_python(["-c", script])))
        assert root == []
        assert serving == []


class TestOneBlasThread:
    def test_train_writes_the_same_bytes_at_any_thread_count(self, tmp_path):
        """``python -m repro`` pins one BLAS thread before numpy loads, so
        neither the caller's thread variables nor a worker pool reaches
        the artifact.  Unpinned, two threads move the weights' last bits
        even on this 8-sample dataset."""
        dataset = tmp_path / "dataset.json"
        assert main(["collect", "--out", str(dataset), "--workloads", "2",
                     "--configurations", "4", "--faulty", "0", "--run-seconds", "60",
                     "--seed", "5", "--quiet"]) == 0
        runs = {}
        for threads, workers in (("1", "1"), ("2", "1"), ("2", "2")):
            out = tmp_path / f"surrogate-{threads}-{workers}.json"
            runs[out] = start_python(
                ["-m", "repro", "train", "--dataset", str(dataset), "--out", str(out),
                 "--networks", "2", "--seed", "5", "--workers", workers],
                threads,
            )
        for proc in runs.values():
            stdout_of(proc)
        artifacts = [out.read_bytes() for out in runs]
        assert artifacts[1] == artifacts[0]
        assert artifacts[2] == artifacts[0]
