"""Outside-in span tracing of the rankgames layers.

``Tracer.install`` rebinds each named function, in every loaded
``rankgames`` module that refers to it (aliases such as
``cli.optimize_ranked`` included), to a wrapper that records a span:
name, start, end and parent.  Spans stay in memory; ``report`` turns them
into per-layer metrics at the end of the run.  A span's self time is its
duration minus the durations of its direct children, which nest inside
it because the process is single-threaded.  A named function that the
package no longer has is reported as absent and measures zero.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

PACKAGE = "rankgames"

# (module, function) pairs that get a span, outermost layer first.
SPANS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("fileformat", "parse_game"),
    ("fileformat", "write_strategy"),
    ("fileformat", "read_strategy"),
    ("fileformat", "check_strategy_against"),
    ("verify", "verify_strategy"),
    ("rrcost", "optimize"),
    ("rrcost", "solve_with_bound"),
    ("rrcost", "build_reduction"),
    ("quantred", "lift_strategy"),
    ("ranked", "optimize"),
    ("ranked", "solve_sup_with_bound"),
    ("ranked", "solve_lim_with_bound"),
    ("resilience", "max_resilience"),
    ("resilience", "compute_val"),
    ("qualsolve", "solve_request_response"),
    ("qualsolve", "rr_memory"),
    ("qualsolve", "solve_buchi"),
    ("qualsolve", "solve_cobuchi"),
    ("qualsolve", "solve_safety"),
    ("qualsolve", "solve_safety_cobuchi"),
    ("memory", "expand"),
    ("memory", "product_memory"),
    ("memory", "compose_strategy"),
    ("memory", "positional_strategy"),
    ("arena", "attractor"),
    ("arena", "restrict_any"),
)

# Per-layer metrics: name -> (unit, better).  Every value is per traced
# instance, except ratios.
PER_LAYER: Dict[str, Tuple[str, str]] = {}


def _metric(name, unit, better="lower"):
    PER_LAYER[name] = (unit, better)


for _mod, _fn in SPANS:
    _metric(f"{_mod}.{_fn}.calls" if _fn != "main" else "cli.calls", "count/inst")
    _metric(f"{_mod}.{_fn}.self_s" if _fn != "main" else "cli.self_s", "s/inst")
# Sizes of what a layer built, summed over its calls (see _SIZERS).
_SIZE_METRICS = {
    "rrcost.build_reduction.product_vertices": "count/inst",
    "rrcost.build_reduction.memory_states": "count/inst",
    "quantred.lift_strategy.strategy_states": "count/inst",
    "qualsolve.rr_memory.update_entries": "count/inst",
    "memory.expand.out_vertices": "count/inst",
    "memory.product_memory.update_entries": "count/inst",
    "fileformat.write_strategy.bytes": "B/inst",
}
for _name, _unit in _SIZE_METRICS.items():
    _metric(_name, _unit)
_metric("rrcost.probes_per_optimize", "count")
_metric("qualsolve.rr_memory.used_ratio", "ratio", "higher")
_metric("trace.coverage", "ratio", "higher")
_metric("trace.overhead_ratio", "ratio")


def _span_name(mod: str, fn: str) -> str:
    return "cli" if fn == "main" else f"{mod}.{fn}"


class Tracer:
    """Records spans of the named functions while installed.

    Create it after ``rankgames`` is imported: the binding sites are
    looked up once, here.
    """

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, size info]
        self.stack: List[int] = []
        self.absent: List[str] = []
        self._sites: List[Tuple[object, str, object, object]] = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod, fn in SPANS:
            owner = sys.modules.get(f"{PACKAGE}.{mod}")
            orig = getattr(owner, fn, None)
            if not callable(orig):
                self.absent.append(_span_name(mod, fn))
                continue
            wrapper = self._wrap(_span_name(mod, fn), orig)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is orig:
                        self._sites.append((m, attr, orig, wrapper))

    def install(self) -> None:
        for m, attr, _orig, wrapper in self._sites:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig, _wrapper in self._sites:
            setattr(m, attr, orig)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        sizer = _SIZERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if sizer is not None:
                span[4] = sizer(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def report(self, instances: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-layer metrics over ``instances`` traced instances whose
        requests took ``traced_wall`` seconds traced and ``untraced_wall``
        seconds untraced."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _name, start, end, parent, _size in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        sizes = defaultdict(int)
        probes = 0
        rr_entries = rr_used = 0
        pending_rr = None
        for i, (name, start, end, parent, size) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if size is not None:
                for key, value in size.items():
                    sizes[f"{name}.{key}"] += value
            if (name == "ranked.solve_sup_with_bound" and parent >= 0
                    and spans[parent][0] == "rrcost.optimize"):
                probes += 1
            # used_ratio: edges of the product that the next expand builds,
            # over the entries rr_memory tabulated for it.
            if name == "qualsolve.rr_memory" and size is not None:
                pending_rr = size["update_entries"]
            elif name == "memory.expand" and pending_rr is not None and size is not None:
                rr_entries += pending_rr
                rr_used += size["out_edges"]
                pending_rr = None
        per = max(instances, 1)
        out = {}
        for mod, fn in SPANS:
            base = _span_name(mod, fn)
            out[f"{base}.calls"] = calls[base] / per
            out[f"{base}.self_s"] = self_s[base] / per
        for key in _SIZE_METRICS:
            out[key] = sizes[key] / per
        out["rrcost.probes_per_optimize"] = probes / max(calls["rrcost.optimize"], 1)
        out["qualsolve.rr_memory.used_ratio"] = rr_used / rr_entries if rr_entries else 0.0
        named = sum(v for k, v in self_s.items() if k != "cli")
        out["trace.coverage"] = named / traced_wall if traced_wall else 0.0
        out["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
        return {k: out[k] for k in PER_LAYER}


def _product_size(args, result):
    return {"product_vertices": len(result.target.arena.vertices),
            "memory_states": len(result.memory.states)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


_SIZERS = {
    "rrcost.build_reduction": _product_size,
    "quantred.lift_strategy": lambda args, result: {"strategy_states": result.size()},
    "qualsolve.rr_memory": lambda args, result: {"update_entries": len(result[0].update)},
    "memory.expand": lambda args, result: {"out_vertices": len(result.vertices),
                                           "out_edges": len(result.edges)},
    "memory.product_memory": lambda args, result: {"update_entries": len(result.update)},
    "fileformat.write_strategy": _file_bytes,
}
