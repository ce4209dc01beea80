"""The benchmark's workloads, driven only through public entry points.

Each workload is one operating point of a shipped experiment:

- ``kv-zipf`` is the 2-shard strom point of ``cluster-scaling``;
- ``incast-cc`` is the 8:1, cc=1 point of ``incast-sweep``, with the
  ECN marker seeded from the seed.

A workload splits one batch into :meth:`setup` (build the topology,
populate, connect, enable CC) and :meth:`drive` (run the simulator to
drain), so set-up and simulation are timed apart.  :meth:`reference`
runs the same point through the experiment's own function, and
:meth:`fidelity` lists every field on which the two disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.cc import CcConfig, EcnConfig
from repro.cluster import (
    ShardedKvClient,
    ShardedKvService,
    WorkloadConfig,
    build_star,
    populate,
    run_open_loop,
)
from repro.cluster.workload import value_for_key
from repro.experiments.cluster_scaling import run_cluster_point
from repro.experiments.incast_sweep import run_incast_point
from repro.obs.runtime import registry_for
from repro.sim import MS, LatencySample, Simulator


@dataclass
class Batch:
    """What one batch produced: everything the checks and the exact
    metrics need, and nothing that depends on the host."""

    attempted: int
    completed: int
    failed: int
    events: int
    payload_bytes: int
    makespan_ps: int
    latency: LatencySample
    counters: Dict[str, object]
    #: Fields compared against :meth:`Workload.reference`.
    signature: Dict[str, object] = field(default_factory=dict)


class Workload:
    name = ""
    why = ""
    #: Sub-seeds one run replays (see measure.py).
    pool = 1

    def setup(self, seed: int):
        raise NotImplementedError

    def drive(self, state) -> Batch:
        raise NotImplementedError

    def reference(self, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def check_outputs(self, state) -> List[str]:
        """Output checks run after a batch, outside any timing."""
        return []

    def fidelity(self, batch: Batch,
                 expected: Dict[str, object]) -> List[str]:
        """Fields where ``batch`` disagrees with :meth:`reference`."""
        return [f"{key}: benchmark {batch.signature.get(key)!r} != "
                f"experiment {value!r}"
                for key, value in expected.items()
                if batch.signature.get(key) != value]


class KvZipf(Workload):
    """Open-loop sharded KV: 2 shards, 2 clients, one 10G switch."""

    name = "kv-zipf"
    why = ("cluster-scaling strom point: smallest messages, so per-packet "
           "and per-RPC cost dominate; kernels, core and sharded KV work")

    shards = 2
    offered_per_shard = 120_000.0
    window_ps = 2 * MS
    num_keys = 256
    value_bytes = 128
    read_fraction = 0.95
    get_path = "strom"
    pool = 8
    fractions = (0.50, 0.90, 0.95, 0.98, 0.99)

    def setup(self, seed: int):
        env = Simulator()
        cluster = build_star(env, num_hosts=2 * self.shards, seed=seed)
        servers = cluster.hosts[:self.shards]
        service = ShardedKvService(cluster, servers)
        populate(service, num_keys=self.num_keys,
                 value_bytes=self.value_bytes)
        clients = [ShardedKvClient(cluster, service, node, seed=seed + i)
                   for i, node in enumerate(cluster.hosts[self.shards:])]
        config = WorkloadConfig(
            offered_ops_per_s=self.offered_per_shard * self.shards,
            window_ps=self.window_ps, num_keys=self.num_keys,
            read_fraction=self.read_fraction, value_bytes=self.value_bytes,
            get_path=self.get_path, seed=seed)
        return env, clients, config

    def drive(self, state) -> Batch:
        env, clients, config = state
        report = run_open_loop(env, clients, config)
        merged = report.merged
        return Batch(
            attempted=report.issued, completed=report.completed,
            failed=report.failed, events=env.events_created,
            payload_bytes=report.completed_in_window * self.value_bytes,
            makespan_ps=self.window_ps, latency=merged,
            counters=registry_for(env).snapshot().as_flat_dict(),
            signature=self._signature(report))

    def _signature(self, report) -> Dict[str, object]:
        return {"issued": report.issued, "completed": report.completed,
                "completed_in_window": report.completed_in_window,
                "failed": report.failed, "drain_ps": report.drain_ps,
                "samples": len(report.merged),
                "percentiles_us": report.merged.percentiles(self.fractions)}

    def reference(self, seed: int) -> Dict[str, object]:
        return self._signature(run_cluster_point(
            self.shards, offered_per_shard=self.offered_per_shard,
            window_ps=self.window_ps, get_path=self.get_path,
            num_keys=self.num_keys, value_bytes=self.value_bytes,
            read_fraction=self.read_fraction, seed=seed))

    def check_outputs(self, state) -> List[str]:
        """One GET per key after the run must return its value."""
        env, clients, config = state
        client = clients[0]
        wrong: List[int] = []

        def reader():
            for key in range(1, self.num_keys + 1):
                result = yield from client.get(
                    key, path=self.get_path, value_size=self.value_bytes)
                if result.value != value_for_key(key, self.value_bytes):
                    wrong.append(key)

        env.run_until_complete(env.process(reader()),
                               limit=env.now + 1000 * MS)
        return [f"GET of key {key} returned a wrong value"
                for key in wrong]


class IncastCc(Workload):
    """8:1 RDMA WRITE fan-in with ECN, DCQCN and pacing on; each sender
    keeps 4 WRITEs in flight (closed loop)."""

    name = "incast-cc"
    why = ("incast-sweep cc=1 at 8:1: zero-copy 16 KiB WRITEs cross one "
           "congested port while ECN, DCQCN and pacing fire")
    pool = 8
    senders = 8
    messages = 100
    message_bytes = 16384
    window = 4
    deadline_ps = 1000 * MS

    def setup(self, seed: int):
        env = Simulator()
        cluster = build_star(env, num_hosts=self.senders + 1, seed=seed)
        receiver = cluster.hosts[0]
        qpns = {host.name: cluster.connect(host, receiver)[0]
                for host in cluster.hosts[1:]}
        cluster.enable_congestion_control(self._cc_config(seed))
        return IncastState(env, cluster, qpns, seed)

    def drive(self, state: "IncastState") -> Batch:
        env, cluster = state.env, state.cluster
        receiver = cluster.hosts[0]
        tally = {"completed": 0, "errors": 0, "finish_ps": 0}
        latency = LatencySample("incast")
        buffers = state.buffers

        def sender_proc(host, qpn, pattern):
            local = host.alloc(self.message_bytes).vaddr
            remote = receiver.alloc(self.message_bytes).vaddr
            host.space.write(local, pattern)
            buffers.append((remote, pattern))
            outstanding = []

            def reap(posted_ps, completion):
                if isinstance(completion.value, Exception):
                    tally["errors"] += 1
                    return
                latency.record(env.now - posted_ps)
                tally["completed"] += 1
                tally["finish_ps"] = max(tally["finish_ps"], env.now)

            for _ in range(self.messages):
                completion = yield from host.write(qpn, local, remote,
                                                   self.message_bytes)
                outstanding.append((env.now, completion))
                if len(outstanding) >= self.window:
                    posted_ps, head = outstanding.pop(0)
                    yield head
                    reap(posted_ps, head)
            for posted_ps, head in outstanding:
                yield head
                reap(posted_ps, head)

        rng = random.Random(state.seed)
        for host in cluster.hosts[1:]:
            pattern = rng.randbytes(self.message_bytes)
            env.process(sender_proc(host, state.qpns[host.name], pattern))
        env.run(until=self.deadline_ps)

        counters = registry_for(env).snapshot().as_flat_dict()
        makespan_ps = tally["finish_ps"] or env.now
        batch = Batch(
            attempted=self.senders * self.messages,
            completed=tally["completed"], failed=tally["errors"],
            events=env.events_created,
            payload_bytes=tally["completed"] * self.message_bytes,
            makespan_ps=makespan_ps, latency=latency, counters=counters)
        pct = (latency.percentiles([0.50, 0.99]) if len(latency)
               else {0.50: 0.0, 0.99: 0.0})
        batch.signature = {
            "completed": tally["completed"], "errors": tally["errors"],
            "goodput_gbps": round(batch.payload_bytes * 8
                                  / (makespan_ps / 1e12) / 1e9, 4),
            "p50_us": round(pct[0.50], 3), "p99_us": round(pct[0.99], 3),
            "makespan_ms": round(makespan_ps / 1e9, 4),
            "tail_drops": counter_sum(counters, ".tail_drops"),
            "ce_marks": counter_sum(counters, ".ce_marks"),
            "cnps": counter_sum(counters, ".cc.cnps_rx"),
            "rate_cuts": counter_sum(counters, ".rate_cuts"),
            "retransmits": counter_sum(counters, ".nic.retransmits"),
            "qp_errors": counter_sum(counters, ".nic.qp_errors"),
        }
        return batch

    def _cc_config(self, seed: int) -> CcConfig:
        """The shipped point's CC settings, with the ECN marker seeded
        from ``seed`` (the only draw in a cc=1 run the seed can move)."""
        return CcConfig(ecn=EcnConfig(seed=seed))

    def reference(self, seed: int) -> Dict[str, object]:
        row = run_incast_point(self.senders, True, seed=seed,
                               cc_config=self._cc_config(seed),
                               messages=self.messages,
                               message_bytes=self.message_bytes,
                               window=self.window,
                               deadline_ps=self.deadline_ps)
        return {key: value for key, value in row.items()
                if key not in ("senders", "cc")}

    def check_outputs(self, state: "IncastState") -> List[str]:
        """Every receive buffer holds its sender's bytes."""
        space = state.cluster.hosts[0].space
        return [f"receive buffer at {remote:#x} differs from its sender's"
                for remote, pattern in state.buffers
                if space.read(remote, len(pattern)) != pattern]


@dataclass
class IncastState:
    env: Simulator
    cluster: object
    qpns: Dict[str, int]
    seed: int
    #: ``(receive address, sender bytes)`` per sender, filled by a batch.
    buffers: list = field(default_factory=list)


def counter_sum(counters: Dict[str, object], suffix: str) -> int:
    return int(sum(value for key, value in counters.items()
                   if key.endswith(suffix)
                   and isinstance(value, (int, float))))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (KvZipf(), IncastCc())}
