"""Group a cProfile run's self time and call counts into layers.

cProfile hooks every Python call and every generator resumption, so the
simulator's processes, which do most of their work between ``yield``
points, are timed too (wrappers around entry points would miss them).

A function defined under ``src/repro`` belongs to its package's layer
(:data:`spec.LAYERS`).  Any other function (a builtin, the standard
library, the benchmark itself) is charged to the layers of its callers,
in proportion to the time (or calls) each caller spent in it; chains of
such functions are followed back to the nearest ``src/repro`` caller.
Functions with no such caller are charged to ``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

from spec import LAYERS, SPLIT_MODULES

Func = Tuple[str, int, str]


def layer_of(filename: str, repro_dir: str):
    """Layer of a source file, or None if it is outside ``repro_dir``."""
    prefix = repro_dir + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):].replace(os.sep, "/")
    if rel in SPLIT_MODULES:
        return SPLIT_MODULES[rel]
    head = rel.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else "other"


def _charge(stats: Dict[Func, tuple], own: Dict[Func, str],
            weight_index: int) -> Dict[Func, Dict[str, float]]:
    """Layer shares of each non-repro function, weighting callers by
    ``callers[c][weight_index]`` (0 = calls, 2 = self time)."""
    funcs = sorted(f for f in stats if own[f] is None)
    shares: Dict[Func, Dict[str, float]] = {f: {"other": 1.0}
                                            for f in funcs}
    for _ in range(32):
        changed = False
        for func in funcs:
            callers = stats[func][4]
            total = 0.0
            mix: Dict[str, float] = {}
            for caller in sorted(callers):
                weight = callers[caller][weight_index]
                if weight <= 0:
                    continue
                total += weight
                caller_layer = own.get(caller)
                source = ({caller_layer: 1.0} if caller_layer is not None
                          else shares.get(caller, {"other": 1.0}))
                for layer, part in sorted(source.items()):
                    mix[layer] = mix.get(layer, 0.0) + weight * part
            if total <= 0:
                continue
            mix = {layer: value / total for layer, value in mix.items()}
            if mix != shares[func]:
                shares[func] = mix
                changed = True
        if not changed:
            break
    return shares


def group(profile, repro_dir: str) -> Dict[str, Dict[str, float]]:
    """``{"self_s": {layer: seconds}, "calls": {layer: count}}``."""
    stats = pstats.Stats(profile).stats
    own = {func: layer_of(func[0], repro_dir) for func in stats}
    by_time = _charge(stats, own, 2)
    by_calls = _charge(stats, own, 0)
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0.0 for layer in LAYERS}
    for func in sorted(stats):
        _cc, nc, tt, _ct, _callers = stats[func]
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            continue
        for name, part in sorted(by_time[func].items()):
            self_s[name] += tt * part
        for name, part in sorted(by_calls[func].items()):
            calls[name] += nc * part
    return {"self_s": self_s, "calls": calls}
