#!/usr/bin/env python3
"""The repository benchmark: simulator speed and model guards.

One workload, one seed, one process (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every workload, each in its own process, untraced and traced::

    python3 perfbench/run.py --all --seeds 1,2 --out results.jsonl

Compare two such result files (exit code 1 if anything is flagged)::

    python3 perfbench/run.py --compare base.jsonl cand.jsonl

Regenerate ``BENCHMARK.json`` from :mod:`spec`::

    python3 perfbench/run.py --write-manifest

The simulator is imported from ``src/`` of the checkout this file lives
in, in default mode: the benchmark refuses to run with any ``REPRO_*``
variable set, since those switch code paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import spec

#: Compiled files would land in the checkout (some are tracked there).
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _refused_env() -> list:
    return sorted(key for key in os.environ if key.startswith("REPRO_"))


def _import_repro() -> str:
    """Put the checkout's ``src`` on the path and return the resolved
    ``repro`` package directory; raises if it is not the checkout's."""
    sys.path.insert(1, str(SRC))
    import repro
    package = Path(repro.__file__).resolve()
    if ROOT not in package.parents:
        raise ImportError(f"repro resolved to {package}, outside {ROOT}")
    return str(package.parent)


def _git(*args: str):
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(package_dir: str) -> str:
    """SHA-256 over the simulator's sources (names and bytes)."""
    digest = hashlib.sha256()
    base = Path(package_dir)
    for path in sorted(base.rglob("*.py")):
        digest.update(str(path.relative_to(base)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(args, package_dir: str) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(package_dir),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repro_file": str(Path(package_dir) / "__init__.py"),
    }


def run_one(args, package_dir: str) -> int:
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    info = manifest(args, package_dir)
    print("manifest " + json.dumps(info, sort_keys=True), flush=True)
    result = measure.run(workload, args.seed, args.seconds,
                         bool(args.trace), package_dir)
    details = result["details"]
    for key, value in sorted(details.items()):
        print(f"detail {key} {json.dumps(value, sort_keys=True)}")
    for name, value in result["metrics"].items():
        print(f"metric {name} {value!r} {spec.BY_NAME[name].unit}")
    for error in result["errors"]:
        print(f"CHECK FAILED: {error}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "manifest": info, **result}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value,
                           "unit": spec.BY_NAME[name].unit}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    seeds = [int(s) for s in args.seeds.split(",")]
    status = 0
    for name in WORKLOADS:
        for seed in seeds:
            for trace in (0, 1):
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if args.out:
                    command += ["--out", args.out]
                print(f"== {name} seed {seed} trace {trace}", flush=True)
                done = subprocess.run(command, check=False)
                status = status or done.returncode
    return status


def write_manifest() -> int:
    from workloads import WORKLOADS

    text = json.dumps(spec.benchmark_json(WORKLOADS.values()), indent=2)
    (ROOT / "BENCHMARK.json").write_text(text + "\n", encoding="utf-8")
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record here")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a subprocess")
    parser.add_argument("--seeds", default="1",
                        help="comma-separated seeds for --all")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CAND"))
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    refused = _refused_env()
    if refused:
        print(f"refusing to run with {', '.join(refused)} set: REPRO_* "
              "variables switch simulator code paths", file=sys.stderr)
        return 2
    try:
        package_dir = _import_repro()
    except ImportError as error:
        print(f"cannot import the simulator from {SRC}: {error}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.write_manifest:
        return write_manifest()
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return run_one(args, package_dir)


if __name__ == "__main__":
    sys.exit(main())
