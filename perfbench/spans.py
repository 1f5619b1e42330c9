"""In-memory span recorder and the wrappers that feed it.

The traced run of the benchmark installs plain Python wrappers around
the public calls of each layer of ``repro`` (and around ``Event.fire``,
so that every callback the ``Simulator`` dispatches is a span), runs one
repetition, and removes them again. Nothing inside ``src/`` is edited: a
span is recorded at the boundary where the benchmark's wrapper calls
into the layer.

A span is ``(name, start, end, parent)``. The arrays stay in memory
during the run and are written once it ends. A span's *self time* is
its duration minus the durations of its direct children, so the self
times of every span under a root add up to the root's duration.

The wrappers cost time of their own, and most of it lands in the self
time of the span that called the wrapped function. :func:`calibrate`
times the wrappers around a no-op; :func:`layer_metrics` subtracts that
cost (and the tracer's own counting, see :meth:`Recorder.charge`) from
each span's self time, so a layer with many small child calls is not
charged for the tracer.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

#: Handlers whose dispatch is itself a named layer span. Other callbacks
#: get ``handler.<module>`` spans, whose self time is engine residual.
HANDLER_SPANS = {
    "SoaFloodEngine._process_wave": "overlay.soa.wave",
    "SoaFloodEngine._roll_minute": "core.police.roll",
    "SoaFloodEngine._conclude": "core.police.conclude",
    "OverlayNetwork._deliver": "overlay.net.deliver",
}

#: Span name -> the per-layer metric it feeds: the self time of those
#: spans as a share of the traced ``run_s``. Shares, not seconds, so that
#: a layer a workload never enters reads 0 as a ratio, not as a time.
SELF_TIME_METRICS = {
    "simkit.heap.run": "simkit.heap.self_share",
    "simkit.heap.schedule": "simkit.heap.self_share",
    "simkit.seen.insert": "simkit.seen.insert_share",
    "simkit.seen.lookup": "simkit.seen.lookup_share",
    "simkit.bucket.grant": "simkit.bucket.grant_share",
    "overlay.soa.wave": "overlay.soa.wave_share",
    "overlay.net.transmit": "overlay.net.transmit_share",
    "overlay.net.deliver": "overlay.net.deliver_share",
    "overlay.peer.on_message": "overlay.peer.on_message_share",
    "core.police.roll": "core.police.roll_share",
    "core.police.conclude": "core.police.conclude_share",
    "core.indicators": "core.indicators_share",
    "core.monitor.record": "core.monitor.record_share",
    "evidence.hash": "evidence.hash_share",
    "evidence.store": "evidence.store_share",
    "metrics.accounting": "metrics.accounting_share",
    "fluid.step": "fluid.step_share",
    "fluid.propagate": "fluid.propagate_share",
    "fluid.police": "fluid.police_share",
    "fluid.edge_arrays": "fluid.edge_arrays_share",
}

#: Span name -> call-count metric.
CALL_METRICS = {
    "simkit.seen.insert": "simkit.seen.insert_calls",
    "overlay.net.transmit": "overlay.net.transmit_calls",
    "overlay.peer.on_message": "overlay.peer.on_message_calls",
    "core.indicators": "core.indicators.calls",
    "evidence.hash": "evidence.hash_calls",
    "metrics.accounting": "metrics.accounting_calls",
}


class Recorder:
    """Append-only span arrays plus named integer counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: Tracer time spent outside child spans, charged to this span.
        self.extra = array("d")
        self._stack = [-1]
        self.counts: Dict[str, int] = {}
        #: id(GraphState) -> topology_version at its previous edge_arrays call.
        self.edge_versions: Dict[int, int] = {}
        self._handler_names: Dict[Any, str] = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.extra.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(value)

    def charge(self, seconds: float) -> None:
        """Book tracer work done inside the open span as wrapper cost."""
        self.extra[self._stack[-1]] += seconds

    def handler_name(self, callback: Callable[..., Any]) -> str:
        """Span name for a dispatched callback, from the code it runs.

        ``PeriodicTask`` and ``Timeout`` callbacks are classified by the
        callback they wrap, which a ``Timeout`` only stores after
        scheduling -- hence classification at fire time, not schedule time.
        """
        func = getattr(callback, "__func__", callback)
        owner = getattr(callback, "__self__", None)
        inner = getattr(owner, "_callback", None)
        if inner is not None and type(owner).__module__ == "repro.simkit.timers":
            func = getattr(inner, "__func__", inner)
        name = self._handler_names.get(func)
        if name is None:
            qual = getattr(func, "__qualname__", type(func).__name__)
            module = getattr(func, "__module__", "") or ""
            name = HANDLER_SPANS.get(qual) or "handler." + module.replace("repro.", "", 1)
            self._handler_names[func] = name
        return name

    def is_handler(self, name: str) -> bool:
        return name.startswith("handler.") or name in HANDLER_SPANS.values()

    # ------------------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        _, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def wrapper_costs(self, costs: Dict[str, float]) -> np.ndarray:
        """Per-span tracer cost inside its own [start, end], from :func:`calibrate`.

        A span pays the inside cost of its own wrapper, the outside cost of
        each direct child's wrapper, and whatever the tracer
        :meth:`charge`-d to it.
        """
        nid, _, _, parent = self.arrays()
        handler = np.array([self.is_handler(n) for n in self.names], dtype=bool)
        kid_handler = handler[nid] if len(nid) else np.zeros(0, dtype=bool)
        inside = np.where(kid_handler, costs["handler_in"], costs["span_in"])
        outside = np.where(kid_handler, costs["handler_out"], costs["span_out"])
        cost = inside + np.frombuffer(self.extra, dtype=np.float64)
        has_parent = parent >= 0
        np.add.at(cost, parent[has_parent], outside[has_parent])
        return cost

    def save(self, path: str) -> None:
        name, start, end, parent = self.arrays()
        np.savez(
            path, names=np.array(self.names), name=name, start=start, end=end,
            parent=parent,
        )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _span(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return wrapper


def _fire(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``Event.fire``: every dispatched callback becomes a span named by it."""
    def fire(self):
        i = rec.open(rec.handler_name(self.callback))
        try:
            return fn(self)
        finally:
            rec.close(i)

    return fire


def _insert_new(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    def insert_new(self, keys, vals):
        i = rec.open("simkit.seen.insert")
        try:
            fresh = fn(self, keys, vals)
        finally:
            rec.close(i)
        t = perf_counter()
        rec.add("simkit.seen.keys", len(keys))
        rec.add("simkit.seen.fresh", int(np.count_nonzero(fresh)))
        rec.charge(perf_counter() - t)
        return fresh

    return insert_new


def _grant(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    def grant(self, peers, counts, now):
        i = rec.open("simkit.bucket.grant")
        try:
            granted = fn(self, peers, counts, now)
        finally:
            rec.close(i)
        t = perf_counter()
        rec.add("simkit.bucket.requested", int(np.sum(counts)))
        rec.add("simkit.bucket.granted", int(np.sum(granted)))
        rec.charge(perf_counter() - t)
        return granted

    return grant


def _edge_arrays(rec: Recorder, fn: Callable[..., Any]) -> Callable[..., Any]:
    def edge_arrays(self):
        t = perf_counter()
        version = self.topology_version
        if rec.edge_versions.get(id(self)) == version:
            rec.add("fluid.edge_cache_hits", 1)
        rec.edge_versions[id(self)] = version
        rec.add("fluid.edge_calls", 1)
        rec.charge(perf_counter() - t)
        i = rec.open("fluid.edge_arrays")
        try:
            return fn(self)
        finally:
            rec.close(i)

    return edge_arrays


def _noop(*args: Any, **kwargs: Any) -> None:
    return None


def _per_call(fn: Callable[[], Any], calls: int) -> float:
    """Median over five batches of the seconds one ``fn()`` call takes."""
    batches = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        batches.append((perf_counter() - t0) / calls)
    return float(np.median(batches))


class _Event:
    callback = staticmethod(_noop)


def calibrate(calls: int = 20_000) -> Dict[str, float]:
    """Seconds a wrapper adds per span, split by where the time lands.

    ``*_in`` is the share inside the span's own [start, end] (the no-op's
    measured span duration), ``*_out`` the rest, which the caller's span
    pays. ``span`` is a plain wrapper around a method call, ``handler``
    the ``Event.fire`` wrapper, which also names the span.
    """
    ev = _Event()
    direct = _per_call(lambda: _noop(ev, 1), calls)
    out: Dict[str, float] = {}
    for kind, fn, call in (("span", _span, lambda f: f(ev, 1)),
                           ("handler", _fire, lambda f: f(ev))):
        rec = Recorder()
        wrapped = fn(rec, "x", _noop) if fn is _span else fn(rec, _noop)
        total = _per_call(lambda: call(wrapped), calls)
        _, start, end, _ = rec.arrays()
        inside = float(np.median(end - start))
        out[kind + "_in"] = inside
        out[kind + "_out"] = max(0.0, total - direct - inside)
    return out


# (module, class or None, attribute, span name or wrapper factory).
# ``None`` class means a module-level function: every ``repro`` module
# that imported it by name is patched too.
_TARGETS: List[Tuple[str, Any, str, Any]] = [
    ("repro.simkit.engine", "Simulator", "run", "simkit.heap.run"),
    ("repro.simkit.engine", "Simulator", "schedule_at", "simkit.heap.schedule"),
    ("repro.simkit.engine", "Simulator", "schedule_in", "simkit.heap.schedule"),
    ("repro.simkit.engine", "Simulator", "schedule_bulk", "simkit.heap.schedule"),
    ("repro.simkit.events", "Event", "fire", _fire),
    ("repro.simkit.soa", "Int64Map", "insert_new", _insert_new),
    ("repro.simkit.soa", "Int64Map", "lookup", "simkit.seen.lookup"),
    ("repro.simkit.soa", "TokenBucketArray", "grant", _grant),
    ("repro.overlay.topology", None, "generate_topology", "overlay.topology.build"),
    ("repro.overlay.soa_network", "SoaFloodEngine", "__init__", "overlay.soa.build"),
    ("repro.overlay.soa_network", "SoaFloodEngine", "run", "engine.run"),
    ("repro.overlay.network", "OverlayNetwork", "transmit", "overlay.net.transmit"),
    ("repro.overlay.peer", "Peer", "on_message", "overlay.peer.on_message"),
    ("repro.core.police", "DDPoliceEngine", "_on_minute", "core.police.roll"),
    ("repro.core.police", "DDPoliceEngine", "_conclude", "core.police.conclude"),
    ("repro.core.indicators", None, "indicators_from_reports", "core.indicators"),
    ("repro.core.monitor", "TrafficMonitor", "record_window", "core.monitor.record"),
    ("repro.evidence.hashing", None, "mix64", "evidence.hash"),
    ("repro.fluid.model", "FluidSimulation", "run", "engine.run"),
    ("repro.fluid.model", "FluidSimulation", "step", "fluid.step"),
    ("repro.fluid.flows", None, "propagate_flows", "fluid.propagate"),
    ("repro.fluid.police", "FluidPolice", "step", "fluid.police"),
    ("repro.fluid.graphstate", "GraphState", "edge_arrays", _edge_arrays),
]

_ACCOUNTING_METHODS = (
    "on_issued", "on_issued_many", "on_first_response", "on_minute_rolled",
    "totals", "success_rate", "mean_response_time",
)

#: Evidence-layer classes whose own public methods become ``evidence.store``
#: spans (traffic stores, GUID seen caches, report-dedup windows).
_STORE_CLASSES = (
    ("repro.evidence.store", ("TrafficStore", "ExactTrafficStore", "CountMinTrafficStore")),
    ("repro.evidence.dedup", ("ExactSeenCache", "BloomSeenCache")),
    ("repro.evidence.dedup", ("ExactDedupWindow", "BloomDedupWindow")),
)
_STORE_METHODS = (
    "record_window", "forget", "latest", "suspicious_neighbors", "history",
    "tracked_neighbors", "out_query", "in_query", "report_pair",
    "add", "__contains__", "clear", "should_send", "record",
)


class Installed:
    """Wrappers in place; ``remove()`` restores every original attribute."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def install(rec: Recorder) -> Installed:
    """Wrap every traced call site; the caller must ``remove()`` afterwards."""
    inst = Installed()
    targets = list(_TARGETS)
    targets += [
        ("repro.metrics.accounting", "QueryAccounting", m, "metrics.accounting")
        for m in _ACCOUNTING_METHODS
    ]
    for module, classes in _STORE_CLASSES:
        for c in classes:
            own = vars(getattr(importlib.import_module(module), c))
            targets += [(module, c, m, "evidence.store") for m in _STORE_METHODS if m in own]
    for module_name, cls_name, attr, how in targets:
        module = importlib.import_module(module_name)
        owner = module if cls_name is None else getattr(module, cls_name)
        if cls_name is not None and attr not in vars(owner):
            raise AttributeError(f"{cls_name}.{attr} is not defined on the class")
        original = getattr(owner, attr)
        wrapped = _span(rec, how, original) if isinstance(how, str) else how(rec, original)
        if cls_name is not None:
            inst.patch(owner, attr, wrapped)
            continue
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") and (
                getattr(mod, attr, None) is original
            ):
                inst.patch(mod, attr, wrapped)
    return inst


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _ratio(counts: Dict[str, int], num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def layer_metrics(
    rec: Recorder, root: str, setup_s: float, costs: Dict[str, float]
) -> Dict[str, Any]:
    """Per-layer self-time shares and call counts of one traced repetition.

    Run-time shares cover the subtree of the (single) ``root`` span, the
    engine's timed event loop, with the wrapper cost of :func:`calibrate`
    taken out of every span. ``trace.run_s`` is the root's raw duration,
    ``trace.wrapper_s`` the cost taken out; shares are of the difference.
    ``engine.residual_s`` is the corrected run time not claimed by any
    named layer, so the named self times plus the residual add up to
    ``trace.run_s - trace.wrapper_s``. ``self_s`` holds the claimed seconds
    per metric; ``overlay.soa.build_share`` is a share of ``setup_s``.
    """
    names = rec.names
    nid, start, end, parent = rec.arrays()
    raw = rec.self_times()
    selfs = raw - rec.wrapper_costs(costs)
    roots = np.flatnonzero(nid == names.index(root)) if root in names else []
    if len(roots) != 1:
        raise RuntimeError(f"expected one {root!r} span, found {len(roots)}")
    r = int(roots[0])
    run_s = float(end[r] - start[r])
    inside = (start >= start[r]) & (end <= end[r])
    corrected_run_s = float(selfs[inside].sum())

    self_s = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    out: Dict[str, Any] = dict.fromkeys(CALL_METRICS.values(), 0)
    topology_s = soa_build_s = 0.0
    for k, name in enumerate(names):
        is_k = nid == k
        if name in SELF_TIME_METRICS:
            self_s[SELF_TIME_METRICS[name]] += float(selfs[is_k & inside].sum())
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] += int(is_k.sum())
        if name == "overlay.topology.build":
            topology_s += float(selfs[is_k].sum())
        if name == "overlay.soa.build":
            soa_build_s += float(selfs[is_k].sum())
    out.update({metric: t / corrected_run_s for metric, t in self_s.items()})
    out["overlay.topology.build_s"] = topology_s
    out["overlay.soa.build_share"] = soa_build_s / setup_s
    c = rec.counts
    calls = out["simkit.seen.insert_calls"]
    out["simkit.seen.keys_per_call"] = c.get("simkit.seen.keys", 0) / calls if calls else 0.0
    out["simkit.seen.fresh_ratio"] = _ratio(c, "simkit.seen.fresh", "simkit.seen.keys")
    out["simkit.bucket.pass_ratio"] = _ratio(c, "simkit.bucket.granted", "simkit.bucket.requested")
    out["fluid.edge_cache_hit_ratio"] = _ratio(c, "fluid.edge_cache_hits", "fluid.edge_calls")
    out["trace.run_s"] = run_s
    out["trace.wrapper_s"] = run_s - corrected_run_s
    out["engine.residual_s"] = corrected_run_s - sum(self_s.values())
    out["trace.spans"] = len(nid)
    out["trace.min_self_s"] = float(raw.min()) if len(raw) else 0.0
    out["self_s"] = self_s
    return out
