"""One benchmark run of one workload: time it, trace it, check it.

A run replays a fixed *pool* of sub-seeds derived from the seed (one
batch each: set up, then run the simulator to drain), repeating the pool
until the time budget is spent.  Pooling several seeds keeps a run's
simulated figures steady from one seed to the next.

Host times are normalised to a :class:`Calibration` sample taken right
before and right after each batch: on a shared host the same batch can
run 1.5x slower for half a minute at a time, and the sample slows down
with it.  A pass's times are divided by the mean sample of that pass and
multiplied by :data:`CALIBRATION_REF_S`, so they read in seconds of a
host on which a sample takes that long.  (One sample alone is too noisy
to scale one batch by.)

End-to-end metrics (``trace=False``):

- ``ops_per_s``: pooled ops over the median across passes of the
  pass's normalised drive time (set-up excluded);
- ``setup_s``: the median normalised set-up time (each batch sets up
  twice and drives the second, so samples spread over the whole run);
- ``peak_rss_mb``: the process's peak resident set;
- ``events_per_op`` and the ``sim_*`` figures: exact, from the pool.

Per-layer metrics (``trace=True``) come from one extra pass over the
pool under cProfile; the untraced passes before it give
``sim.ns_per_event`` and the base of ``trace.overhead``.

Every run checks that each repeat of a sub-seed reproduces the first
exactly, that the first sub-seed (the seed itself) matches the shipped
experiment's own function, that no op failed and no QP errored, and the
workload's output checks.
"""

from __future__ import annotations

import cProfile
import gc
import heapq
import math
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List

import layers
from spec import LAYERS
from workloads import Batch, Workload, counter_sum

#: Distance between consecutive sub-seeds of a pool.
SEED_STRIDE = 7919
#: A run takes at least this many set-up samples for ``setup_s``.
MIN_SETUPS = 16
#: Candidate tail percentiles; the reported one is the highest with at
#: least :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_FRACTIONS = (0.9, 0.99, 0.999, 0.9999)
TAIL_MIN_BEYOND = 10
#: A :class:`Calibration` sample on the 2-core x86-64 host this
#: benchmark was built on, under CPython 3.11.
CALIBRATION_REF_S = 0.006


def sub_seeds(seed: int, pool: int) -> List[int]:
    return [seed + i * SEED_STRIDE for i in range(pool)]


def tail_fraction(samples: int) -> float:
    fits = [f for f in TAIL_FRACTIONS
            if samples * (1.0 - f) >= TAIL_MIN_BEYOND]
    return max(fits, default=0.5)


class Calibration:
    """Two fixed loops that run no simulator code, timed together.

    :meth:`compute` keeps a tiny working set (allocation, method calls, a
    generator, a dict and a heap); :meth:`chase` follows a shuffled ring
    of objects, so most of its reads miss the CPU caches.  A busy shared
    host slows the two by different factors and the simulator falls in
    between, so a sample is the geometric mean of the two times.
    """

    NODES = 1 << 17

    def __init__(self) -> None:
        order = list(range(self.NODES))
        random.Random(SEED_STRIDE).shuffle(order)
        nodes = [_Node() for _ in order]
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._start = nodes[order[0]]

    def chase(self, steps: int = 50_000) -> None:
        node = self._start
        for _ in range(steps):
            node = node.next

    @staticmethod
    def compute(rounds: int = 5_000) -> int:
        def accumulate():
            total = 0
            while True:
                total += yield total

        heap: list = []
        table: Dict[int, int] = {}
        box = _Node()
        gen = accumulate()
        next(gen)
        for i in range(rounds):
            heapq.heappush(heap, ((i * 7919) % 1009, i, _Node()))
            table[i & 255] = table.get(i & 255, 0) + 1
            gen.send(i)
            box.bump()
            if len(heap) > 64:
                heapq.heappop(heap)
        return box.hits

    def sample(self) -> float:
        """Seconds the loops take right now (geometric mean)."""
        t0 = time.perf_counter()
        self.compute()
        t1 = time.perf_counter()
        self.chase()
        t2 = time.perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))


class _Node:
    __slots__ = ("next", "hits")

    def __init__(self) -> None:
        self.next = None
        self.hits = 0

    def bump(self) -> int:
        self.hits += 1
        return self.hits


@dataclass
class Timings:
    #: Raw seconds per sample, and the pass each sample belongs to.
    setup_s: List[float] = field(default_factory=list)
    setup_pass: List[int] = field(default_factory=list)
    #: Raw drive seconds per pass, one dict ``{sub-seed: seconds}`` each.
    drive_s: List[Dict[int, float]] = field(default_factory=list)
    #: Calibration loop seconds, per pass.
    calibration_s: List[List[float]] = field(default_factory=list)
    #: Raw seconds of each untraced pass.
    pass_s: List[float] = field(default_factory=list)
    calibration: Calibration = field(default_factory=Calibration)

    def start_pass(self) -> None:
        self.drive_s.append({})
        self.calibration_s.append([])

    def calibrate(self) -> None:
        self.calibration_s[-1].append(self.calibration.sample())

    def add_setup(self, seconds: float) -> None:
        self.setup_s.append(seconds)
        self.setup_pass.append(len(self.drive_s) - 1)

    def scale(self, index: int) -> float:
        """Host seconds of pass ``index`` to normalised seconds."""
        return CALIBRATION_REF_S / statistics.mean(self.calibration_s[index])

    def drive_median(self, normalised: bool = True) -> float:
        """Median over passes of the pass's drive seconds."""
        return statistics.median(
            sum(drive.values()) * (self.scale(i) if normalised else 1.0)
            for i, drive in enumerate(self.drive_s))

    def setup_median(self) -> float:
        return statistics.median(
            seconds * self.scale(index)
            for seconds, index in zip(self.setup_s, self.setup_pass))


def _fingerprint(batch: Batch) -> tuple:
    return (batch.attempted, batch.completed, batch.failed, batch.events,
            batch.payload_bytes, batch.makespan_ps, len(batch.latency),
            repr(batch.signature), tuple(sorted(batch.counters.items())))


def _pass(workload: Workload, seeds: List[int], timings: Timings,
          first: Dict[int, Batch], errors: List[str]) -> None:
    """One untraced pass over the pool."""
    started = time.perf_counter()
    timings.start_pass()
    for seed in seeds:
        gc.collect()
        timings.calibrate()
        t0 = time.perf_counter()
        workload.setup(seed)
        t1 = time.perf_counter()
        state = workload.setup(seed)
        t2 = time.perf_counter()
        batch = workload.drive(state)
        t3 = time.perf_counter()
        timings.calibrate()
        timings.add_setup(t1 - t0)
        timings.add_setup(t2 - t1)
        timings.drive_s[-1][seed] = t3 - t2
        if seed not in first:
            first[seed] = batch
            errors.extend(f"seed {seed}: {message}"
                          for message in workload.check_outputs(state))
        elif _fingerprint(batch) != _fingerprint(first[seed]):
            errors.append(f"seed {seed}: a repeat differs from the first "
                          "batch (nondeterminism)")
    timings.pass_s.append(time.perf_counter() - started)


def _traced_pass(workload: Workload, seeds: List[int],
                 calibration: Calibration):
    profile = cProfile.Profile()
    started = time.perf_counter()
    for seed in seeds:
        gc.collect()
        # The same steps as an untraced pass, so the overhead compares.
        calibration.sample()
        workload.setup(seed)
        profile.enable()
        workload.drive(workload.setup(seed))
        profile.disable()
        calibration.sample()
    return profile, time.perf_counter() - started


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        repro_dir: str) -> dict:
    """Measure ``workload``; returns the result record (see run.py)."""
    seeds = sub_seeds(seed, workload.pool)
    errors: List[str] = []
    reference = workload.reference(seeds[0])  # also warms every cache
    timings = Timings()
    first: Dict[int, Batch] = {}
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    # Start another pass only if it should end within the budget.
    while not timings.pass_s or (time.perf_counter() - started
                                 + statistics.mean(timings.pass_s)
                                 <= budget):
        _pass(workload, seeds, timings, first, errors)
    while len(timings.setup_s) < MIN_SETUPS:
        t0 = time.perf_counter()
        workload.setup(seeds[len(timings.setup_s) % len(seeds)])
        timings.add_setup(time.perf_counter() - t0)

    batches = [first[s] for s in seeds]
    errors.extend(workload.fidelity(first[seeds[0]], reference))
    ops = sum(b.completed for b in batches)
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    qp_errors = sum(counter_sum(b.counters, ".nic.qp_errors")
                    for b in batches)
    if failed or ops != attempted:
        errors.append(f"{failed} of {attempted} ops failed")
    if qp_errors:
        errors.append(f"{qp_errors} QPs entered the error state")

    details = {"sub_seeds": seeds, "passes": len(timings.pass_s),
               "ops_per_pass": ops,
               "calibration_s": statistics.median(
                   c for cs in timings.calibration_s for c in cs),
               "raw_ops_per_s": ops / timings.drive_median(False)}
    if trace:
        metrics = _per_layer(workload, seeds, batches, ops, timings,
                             repro_dir, details)
    else:
        metrics = _end_to_end(batches, ops, attempted, timings, details)
    repeats = len(timings.pass_s)
    return {"correct": not errors, "attempted": attempted * repeats,
            "failed": failed * repeats, "metrics": metrics,
            "errors": errors, "details": details}


def _end_to_end(batches, ops, attempted, timings,
                details) -> Dict[str, float]:
    latency = batches[0].latency.merge([b.latency for b in batches])
    tail = tail_fraction(len(latency))
    pct = latency.percentiles([0.50, tail])
    details.update(samples=len(latency), tail_percentile=tail * 100)
    ok = sum(b.completed - b.failed for b in batches)
    return {
        "ops_per_s": ops / timings.drive_median(),
        "setup_s": timings.setup_median(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "events_per_op": sum(b.events for b in batches) / ops,
        "sim_p50_us": pct[0.50],
        "sim_tail_us": pct[tail],
        "sim_goodput_gbps": (sum(b.payload_bytes for b in batches) * 8e3
                             / sum(b.makespan_ps for b in batches)),
        "completed_frac": ok / attempted,
    }


def _counters(batches: List[Batch], pattern: str) -> List[float]:
    regex = re.compile(pattern)
    return [value for b in batches for key, value in b.counters.items()
            if regex.search(key) and isinstance(value, (int, float))]


def _per_layer(workload, seeds, batches, ops, timings, repro_dir,
               details) -> Dict[str, float]:
    profile, traced_s = _traced_pass(workload, seeds, timings.calibration)
    grouped = layers.group(profile, repro_dir)
    total = sum(grouped["self_s"].values())
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = grouped["self_s"][layer] / total
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = grouped["calls"][layer] / ops
    metrics["trace.overhead"] = traced_s / statistics.median(
        timings.pass_s)
    events = sum(b.events for b in batches)
    metrics["sim.ns_per_event"] = timings.drive_median() / events * 1e9

    def per_op(pattern: str) -> float:
        return sum(_counters(batches, pattern)) / ops

    pkts_tx = per_op(r"\.nic\.pkts_tx$")
    ref = per_op(r"\.nic\.dma\.payload_ref_bytes$")
    copy = per_op(r"\.nic\.dma\.payload_copy_bytes$")
    depths = _counters(batches, r"\.max_queue_depth$")
    metrics.update({
        "nic.pkts_tx_per_op": pkts_tx,
        "nic.acks_tx_per_op": per_op(r"\.nic\.acks_tx$"),
        "mmio.commands_per_op": per_op(r"\.mmio\.commands$"),
        "roce.retransmit_ratio": per_op(r"\.nic\.retransmits$") / pkts_tx,
        "roce.timer_expirations_per_op": per_op(
            r"\.nic\.timer\.expirations$"),
        "nic.duplicates_per_op": per_op(r"\.nic\.duplicates$"),
        "nic.dma.ops_per_op": per_op(r"\.nic\.dma\.(reads|writes)$"),
        "nic.dma.copy_bytes_per_op": copy,
        "nic.dma.ref_share": ref / (ref + copy) if ref + copy else 0.0,
        "net.link.wire_bytes_per_op": per_op(r"\.link\..*\.wire_bytes$"),
        "cluster.switch.tail_drops_per_op": per_op(
            r"\.sw\d+\.p\d+\.tail_drops$"),
        "cluster.switch.ce_marks_per_op": per_op(
            r"\.sw\d+\.p\d+\.ce_marks$"),
        "cluster.switch.max_queue_depth": max(depths, default=0),
        "cc.cnps_per_op": per_op(r"\.nic\.cc\.cnps_tx$"),
        "cc.rate_cuts_per_op": per_op(r"\.nic\.cc\.qp\d+\.rate_cuts$"),
    })
    details.update(traced_s=traced_s, layer_self_s=grouped["self_s"])
    return metrics
