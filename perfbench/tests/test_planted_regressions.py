"""Planted regressions: the benchmark must flag each one on the workloads
that run the patched code, and nothing on a workload that does not.

Patches apply inside this test process only; no source file changes.
Run with ``python3 -m pytest perfbench/tests``.
"""

import ast
import inspect
import textwrap
import time
from pathlib import Path

import pytest

import compare
import measure
from repro.cc import plane
from repro.cc.plane import NicCongestionControl
from repro.net.link import Cable
from workloads import WORKLOADS

REPRO_DIR = str(Path(plane.__file__).resolve().parent.parent)
SEED = 5
#: Sub-seeds per run.  The exact metrics compare seed by seed, so the
#: full pool would add time but no evidence.
POOL = 1
#: Busy-wait planted in every ``pace`` call.
BUSY_S = 100e-6


@pytest.fixture(autouse=True)
def small_pools(monkeypatch):
    for workload in WORKLOADS.values():
        monkeypatch.setattr(workload, "pool", POOL)


def _record(name: str, trace: bool, seconds: float = 0.0) -> dict:
    result = measure.run(WORKLOADS[name], SEED, seconds, trace, REPRO_DIR)
    assert result["correct"], result["errors"]
    metrics = dict(result["metrics"])
    # The peak resident set is per process; in one test process it only
    # ever grows, so it says nothing about the patch.
    metrics.pop("peak_rss_mb", None)
    return {"workload": name, "seed": SEED, "trace": int(trace),
            "metrics": metrics}


def test_extra_timeout_per_frame_raises_events_per_op(monkeypatch):
    base = [_record(name, trace=False) for name in WORKLOADS]
    original = Cable.send

    def send_with_extra_timeout(self, side, packet, ready=None):
        self.env.timeout(1)
        return original(self, side, packet, ready)

    with monkeypatch.context() as patch:
        patch.setattr(Cable, "send", send_with_extra_timeout)
        cand = [_record(name, trace=False) for name in WORKLOADS]

    findings = compare.compare(base, cand)
    for old, new in zip(base, cand):
        name = old["workload"]
        assert (new["metrics"]["events_per_op"]
                > old["metrics"]["events_per_op"]), name
        assert "events_per_op" in compare.flagged(findings, name)
        for metric in ("sim_p50_us", "sim_tail_us", "sim_goodput_gbps"):
            assert new["metrics"][metric] == old["metrics"][metric]


def _busy_wait() -> None:
    end = time.perf_counter() + BUSY_S
    while time.perf_counter() < end:
        pass


def _pace_with_busy_wait():
    """``NicCongestionControl.pace`` recompiled with a busy-wait as its
    first statement.  It keeps its source file name, so the profile
    still charges the busy-wait to the ``cc`` layer."""
    original = NicCongestionControl.pace
    tree = ast.parse(textwrap.dedent(inspect.getsource(original)))
    body = tree.body[0].body
    body.insert(1, ast.parse("_planted_busy_wait()").body[0])
    ast.increment_lineno(tree, original.__code__.co_firstlineno - 1)
    ast.fix_missing_locations(tree)
    namespace = dict(vars(plane), _planted_busy_wait=_busy_wait)
    exec(compile(tree, plane.__file__, "exec"), namespace)
    return namespace["pace"]


def test_busy_wait_in_pace_is_flagged_on_incast_cc_only(monkeypatch):
    slow_pace = _pace_with_busy_wait()
    base, cand = [], []
    for name, rounds, seconds in (("incast-cc", 2, 4.0),
                                  ("kv-zipf", 3, 2.0)):
        for _ in range(rounds):
            for trace in (False, True):
                base.append(_record(name, trace, seconds))
                with monkeypatch.context() as patch:
                    patch.setattr(NicCongestionControl, "pace", slow_pace)
                    cand.append(_record(name, trace, seconds))

    findings = compare.compare(base, cand)
    flagged_cc = compare.flagged(findings, "incast-cc")
    assert "ops_per_s" in flagged_cc
    assert "cc.self_share" in flagged_cc
    assert not [m for m in flagged_cc if m.startswith("sim_")]
    assert compare.flagged(findings, "kv-zipf") == []
