"""Compare two sets of benchmark results and flag regressions.

Input is two JSON-lines files of result records, as written by
``run.py --out``.  Records are grouped by workload; a metric's rule
comes from its kind in :mod:`spec`:

- ``exact``: values at the seeds both sides ran must be equal.  A
  change for the worse is flagged; so is any change of a ``sim_*``
  metric, which guards the simulated model itself.  Without a common
  seed, medians are compared like ``host`` metrics.
- ``host``: flagged when the candidate's median is worse than the
  base's by more than the metric's bound.  Per-layer host metrics have
  no bound and are reported for information only.
- ``share``: flagged when the median share rises by more than
  ``SHARE_REL`` of the base and by more than ``SHARE_ABS``.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from typing import List, Tuple

from spec import BY_NAME, SHARE_ABS, SHARE_REL


@dataclass
class Finding:
    workload: str
    metric: str
    verdict: str  # "flag", "improved", "same" or "info"
    base: float
    cand: float

    def line(self) -> str:
        change = ((self.cand - self.base) / self.base * 100
                  if self.base else 0.0)
        return (f"{self.verdict.upper():8s} {self.workload:12s} "
                f"{self.metric:36s} {self.base:14.6g} -> "
                f"{self.cand:14.6g} ({change:+.1f}%)")


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _values(records: List[dict], workload: str,
            metric: str) -> List[Tuple[int, float]]:
    """``(seed, value)`` of every record of ``workload`` with ``metric``."""
    return [(r["seed"], r["metrics"][metric]) for r in records
            if r["workload"] == workload and metric in r["metrics"]]


def _worse(better: str, base: float, cand: float) -> float:
    """How much worse ``cand`` is than ``base``, as a share of base."""
    if base == 0:
        return 0.0 if cand == base else float("inf")
    change = (cand - base) / abs(base)
    return -change if better == "higher" else change


def judge(name: str, base: List[Tuple[int, float]],
          cand: List[Tuple[int, float]]) -> str:
    spec = BY_NAME[name]
    if spec.kind == "exact":
        base_at, cand_at = dict(base), dict(cand)
        common = sorted(set(base_at) & set(cand_at))
        diffs = [_worse(spec.better, base_at[s], cand_at[s])
                 for s in common if base_at[s] != cand_at[s]]
        if diffs:
            worse = name.startswith("sim_") or max(diffs) > 0
            return "flag" if worse else "improved"
        if common:
            return "same"
    b = statistics.median(v for _, v in base)
    c = statistics.median(v for _, v in cand)
    if spec.kind == "share":
        if c - b > SHARE_ABS and c > b * (1 + SHARE_REL):
            return "flag"
        if b - c > SHARE_ABS and b > c * (1 + SHARE_REL):
            return "improved"
        return "same"
    if spec.bound is None:
        return "info"
    worse = _worse(spec.better, b, c)
    if worse > spec.bound:
        return "flag"
    return "improved" if worse < -spec.bound else "same"


def compare(base: List[dict], cand: List[dict]) -> List[Finding]:
    findings = []
    workloads = sorted({r["workload"] for r in base}
                       & {r["workload"] for r in cand})
    for workload in workloads:
        for name in BY_NAME:
            b = _values(base, workload, name)
            c = _values(cand, workload, name)
            if not b or not c:
                continue
            findings.append(Finding(
                workload, name, judge(name, b, c),
                statistics.median(v for _, v in b),
                statistics.median(v for _, v in c)))
    return findings


def flagged(findings: List[Finding], workload: str) -> List[str]:
    return [f.metric for f in findings
            if f.workload == workload and f.verdict == "flag"]


def main(base_path: str, cand_path: str) -> int:
    findings = compare(load(base_path), load(cand_path))
    for finding in findings:
        if finding.verdict in ("flag", "improved"):
            print(finding.line())
    flags = sum(f.verdict == "flag" for f in findings)
    print(f"{flags} flagged, {len(findings)} compared")
    return 1 if flags else 0
