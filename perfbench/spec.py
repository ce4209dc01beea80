"""Every metric the benchmark reports: name, unit, direction and kind.

``BENCHMARK.json`` at the repository root is generated from this table
(``python3 perfbench/run.py --write-manifest``), so the two never
disagree.

Kinds decide how :mod:`compare` treats a metric:

- ``host``: measured on the host's clock; flagged when the candidate's
  median is worse than the base's by more than ``bound`` (per-layer
  host metrics have none and are never flagged);
- ``exact``: a deterministic count or simulated value; flagged on any
  difference at a seed both sides ran;
- ``share``: a traced self-time share; flagged when it rises by more
  than :data:`SHARE_REL` of the base and :data:`SHARE_ABS` in absolute
  terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

#: Host seconds one run measures by default.
RUN_SECONDS = 30
#: A ``share`` metric is flagged when it rises by both of these.
SHARE_REL = 0.25
SHARE_ABS = 0.01


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    kind: str
    bound: Optional[float] = None


END_TO_END: List[Metric] = [
    Metric("ops_per_s", "ops/s", "higher", "host", 0.25),
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.1),
    Metric("events_per_op", "events/op", "lower", "exact", 0.05),
    Metric("sim_p50_us", "us", "lower", "exact", 0.15),
    Metric("sim_tail_us", "us", "lower", "exact", 0.25),
    Metric("sim_goodput_gbps", "Gbit/s", "higher", "exact", 0.15),
    Metric("completed_frac", "ratio", "higher", "exact", 0.01),
]

#: Layers of the traced run: the packages under ``src/repro``, with
#: ``nic/dma``, ``net/link`` and ``cluster/switch`` split out.  Code
#: outside ``src/repro`` counts toward the layer that called it;
#: ``other`` holds the rest (the benchmark's own code, idle packages).
LAYERS = ("sim", "nic", "nic.dma", "roce", "net", "net.link", "cluster",
          "cluster.switch", "cc", "core", "kernels", "memory", "obs",
          "config", "host", "apps", "algos", "other")

#: Split-out modules, as paths relative to ``src/repro``.
SPLIT_MODULES = {"nic/dma.py": "nic.dma", "net/link.py": "net.link",
                 "cluster/switch.py": "cluster.switch"}

PER_LAYER: List[Metric] = (
    [Metric(f"{layer}.self_share", "ratio", "lower", "share")
     for layer in LAYERS]
    + [Metric(f"{layer}.calls_per_op", "calls/op", "lower", "exact")
       for layer in LAYERS]
    + [Metric("trace.overhead", "ratio", "lower", "host"),
       Metric("sim.ns_per_event", "ns/event", "lower", "host"),
       Metric("nic.pkts_tx_per_op", "pkts/op", "lower", "exact"),
       Metric("nic.acks_tx_per_op", "pkts/op", "lower", "exact"),
       Metric("mmio.commands_per_op", "cmds/op", "lower", "exact"),
       Metric("roce.retransmit_ratio", "ratio", "lower", "exact"),
       Metric("roce.timer_expirations_per_op", "count/op", "lower",
              "exact"),
       Metric("nic.duplicates_per_op", "pkts/op", "lower", "exact"),
       Metric("nic.dma.ops_per_op", "count/op", "lower", "exact"),
       Metric("nic.dma.copy_bytes_per_op", "B/op", "lower", "exact"),
       Metric("nic.dma.ref_share", "ratio", "higher", "exact"),
       Metric("net.link.wire_bytes_per_op", "B/op", "lower", "exact"),
       Metric("cluster.switch.tail_drops_per_op", "pkts/op", "lower",
              "exact"),
       Metric("cluster.switch.ce_marks_per_op", "pkts/op", "lower",
              "exact"),
       Metric("cluster.switch.max_queue_depth", "frames", "lower",
              "exact"),
       Metric("cc.cnps_per_op", "pkts/op", "lower", "exact"),
       Metric("cc.rate_cuts_per_op", "count/op", "lower", "exact")])

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json(workloads) -> dict:
    """The content of ``BENCHMARK.json`` for ``workloads``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
