"""The benchmark's command line: refusals, and the layer map."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        check=False)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    done = _run(tmp_path, env)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_refuses_repro_variables():
    env = dict(os.environ, REPRO_CHECK="1")
    done = _run(ROOT, env)
    assert done.returncode == 2
    assert "REPRO_CHECK" in done.stderr
    assert done.stdout == ""


def test_layer_map():
    repro = str(ROOT / "src" / "repro")
    assert layers.layer_of(f"{repro}/nic/dma.py", repro) == "nic.dma"
    assert layers.layer_of(f"{repro}/nic/nic.py", repro) == "nic"
    assert layers.layer_of(f"{repro}/cluster/switch.py", repro) \
        == "cluster.switch"
    assert layers.layer_of(f"{repro}/cluster/workload.py", repro) \
        == "cluster"
    assert layers.layer_of(f"{repro}/config.py", repro) == "config"
    assert layers.layer_of(f"{repro}/experiments/runner.py", repro) \
        == "other"
    assert layers.layer_of("/usr/lib/python3/random.py", repro) is None
