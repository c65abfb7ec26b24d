"""Span tracing and counting around the public functions of each layer.

Everything here wraps functions from the outside, at the module
attribute each caller looks up (``from x import f`` copies are patched
too), so the simulator itself carries no instrumentation. Two tools:

* :class:`Counters` -- cheap counts for the *timed* passes: simulated
  requests completed (shared with forked pool workers through a
  ``multiprocessing.Value``) and ``WorkerPool.map`` dispatches.
* :class:`Tracer` -- the traced (serial) pass: one span per call, with
  name, start, end, parent span and the cell it belongs to, kept in
  memory and written out at the end; per-layer self times are derived
  from the span tree.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: A span: [name, start, end, parent index (-1 = root), cell id or None].
Span = List[Any]


def patch_everywhere(owner: Any, attr: str,
                     make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` and every ``repro.*`` module attribute
    bound to the same object with ``make_wrapper(original)``."""
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def patch_method(cls: type, attr: str,
                 make_wrapper: Callable[[Callable], Callable]) -> None:
    """Wrap a method (or classmethod) on its class."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, attr, make_wrapper(raw))


def _bound_arg(fn: Callable, name: str, args: tuple, kwargs: dict) -> Any:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def completed_requests(kind: str, fn: Callable, args: tuple,
                       kwargs: dict, result: Any) -> int:
    """Simulated requests a ``run_trace`` / ``run_colocated_server``
    call completed (the colocated result drops each core's warm-up
    prefix from its latencies, so it is added back)."""
    if kind == "run_trace":
        return len(result.requests)
    warmup = _bound_arg(fn, "warmup_per_core", args, kwargs)
    return len(result.lc_response_times) + result.num_cores * warmup


class Counters:
    """Counts for the untraced passes.

    Install before the shared pool forks: workers inherit the wrappers
    and the shared request counter.
    """

    def __init__(self) -> None:
        self.sim_requests = multiprocessing.Value("q", 0)
        self.pool_map_calls = 0
        self.pool_map_wall_s = 0.0
        self.pool_workers = 0

    def install(self) -> None:
        coloc_server = importlib.import_module("repro.coloc.server")
        sim_server = importlib.import_module("repro.sim.server")
        WorkerPool = importlib.import_module("repro.perf.parallel").WorkerPool

        def counting(kind: str):
            def make(fn: Callable) -> Callable:
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    n = completed_requests(kind, fn, args, kwargs, result)
                    with self.sim_requests.get_lock():
                        self.sim_requests.value += n
                    return result
                return wrapper
            return make

        patch_everywhere(sim_server, "run_trace", counting("run_trace"))
        patch_everywhere(coloc_server, "run_colocated_server",
                         counting("run_colocated_server"))

        def make_map(fn: Callable) -> Callable:
            def wrapper(pool, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(pool, *args, **kwargs)
                finally:
                    self.pool_map_wall_s += time.perf_counter() - t0
                    self.pool_map_calls += 1
                    if pool.spawned:
                        self.pool_workers = max(self.pool_workers,
                                                pool.size)
            return wrapper

        patch_method(WorkerPool, "map", make_map)


class Tracer:
    """In-memory span recorder plus the layer counters spans cannot give.

    Meant for a serial pass (``processes=1``): every span stays in this
    process and spans nest strictly, so a span's self time is its
    duration minus the summed durations of its direct children.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._cell: Optional[int] = None
        self._next_cell = 0
        self.counts: Dict[str, float] = {}
        self._pending_rubiks: List[Any] = []
        self._bound_cache: Any = None

    # -- recording ---------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record: Span = [name, time.perf_counter(), 0.0, parent, self._cell]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def spanned(self, name: str,
                after: Optional[Callable[[tuple, dict, Any], None]] = None,
                namer: Optional[Callable[[tuple, dict], str]] = None):
        """Wrapper factory for :func:`patch_everywhere`."""
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = namer(args, kwargs) if namer else name
                result = self.span(label, fn, *args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            return wrapper
        return make

    def _cell_fn(self, fn: Callable) -> Callable:
        def cell(item):
            outer = self._cell
            self._cell = self._next_cell
            self._next_cell += 1
            try:
                return self.span("cell", fn, item)
            finally:
                self._cell = outer
        return cell

    # -- instrumentation ---------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics name."""
        # Modules by full name: some packages re-export a function under
        # its module's name (``repro.schemes.replay``).
        mod = importlib.import_module
        adrenaline = mod("repro.schemes.adrenaline")
        artifacts = mod("repro.experiments.artifacts")
        coloc_server = mod("repro.coloc.server")
        common = mod("repro.experiments.common")
        datacenter = mod("repro.coloc.datacenter")
        dynamic_oracle = mod("repro.schemes.dynamic_oracle")
        replay = mod("repro.schemes.replay")
        routing = mod("repro.fleet.routing")
        runner = mod("repro.experiments.runner")
        sim_server = mod("repro.sim.server")
        static_oracle = mod("repro.schemes.static_oracle")
        tail_tables = mod("repro.core.tail_tables")
        Rubik = mod("repro.core.controller").Rubik
        Trace = mod("repro.sim.trace").Trace
        WorkerPool = mod("repro.perf.parallel").WorkerPool

        patch_method(runner.ExperimentSpec, "run", self.spanned(
            "driver", namer=lambda a, k: f"driver.{a[0].name}"))
        patch_everywhere(common, "run_cells",
                         self.spanned("experiments.run_cells"))

        def make_pmap(fn: Callable) -> Callable:
            def wrapper(worker, items, *args, **kwargs):
                return fn(self._cell_fn(worker), items, *args, **kwargs)
            return wrapper
        patch_everywhere(common, "parallel_map", make_pmap)

        self._bound_cache = common.latency_bound
        patch_everywhere(common, "latency_bound", self.spanned(
            "experiments.latency_bound",
            after=lambda a, k, r: self.add("latency_bound.requested", 1)))

        patch_method(artifacts.ArtifactStore, "get",
                     self.spanned("store.get"))
        patch_method(artifacts.ArtifactStore, "put",
                     self.spanned("store.put"))
        patch_everywhere(artifacts, "cell_fingerprint",
                         self.spanned("store.fingerprint"))
        patch_method(WorkerPool, "map", self.spanned("pool.map"))

        def after_run_trace(a, k, result):
            self.add("sim.requests", len(result.requests))
            self.add("sim.events", result.events_processed)
            self._harvest_rubiks()
        patch_everywhere(sim_server, "run_trace", self.spanned(
            "sim.run_trace", after=after_run_trace))
        patch_method(Trace, "generate", self.spanned("sim.trace_gen"))

        run_coloc = coloc_server.run_colocated_server

        def after_coloc(a, k, result):
            self.add("coloc.lc_requests", completed_requests(
                "run_colocated_server", run_coloc, a, k, result))
            self.add("coloc.sim_s", result.duration_s)
            self._harvest_rubiks()
        patch_everywhere(coloc_server, "run_colocated_server", self.spanned(
            "coloc.server", after=after_coloc,
            namer=lambda a, k: "coloc.server." + _bound_arg(
                run_coloc, "scheme_name", a, k)))

        def make_setup(fn: Callable) -> Callable:
            def wrapper(rubik, *args, **kwargs):
                self._pending_rubiks.append(rubik)
                return fn(rubik, *args, **kwargs)
            return wrapper
        patch_method(Rubik, "setup", make_setup)
        patch_method(tail_tables.TargetTailTables, "__init__",
                     self.spanned("core.tables.build"))

        patch_everywhere(replay, "replay", self.spanned("schemes.replay"))
        patch_everywhere(adrenaline, "tune_adrenaline",
                         self.spanned("schemes.adrenaline_tune"))
        patch_everywhere(static_oracle, "find_static_frequency",
                         self.spanned("schemes.static_find"))
        patch_everywhere(dynamic_oracle, "evaluate_dynamic_oracle",
                         self.spanned("schemes.dynamic_oracle"))

        patch_everywhere(datacenter, "compare_datacenters",
                         self.spanned("fleet.datacenter"))
        patch_everywhere(routing, "build_power_curves",
                         self.spanned("fleet.calibrate"))

        def after_route(a, k, result):
            self.add("fleet.servers_routed", len(result[0]))
        patch_everywhere(routing, "route_epoch", self.spanned(
            "fleet.route_epoch", after=after_route))

    def _harvest_rubiks(self) -> None:
        """Fold the decision counters of controllers whose run ended."""
        for rubik in self._pending_rubiks:
            self.add(f"core.decision_path.{rubik.decision_path}", 1)
            stats = rubik.kernel_stats
            if stats is not None:
                self.add("core.decisions", stats.decisions)
            self.add("core.refresh.snapshots", rubik.refresh_stats.snapshots)
        self._pending_rubiks.clear()

    def bound_cache_misses(self) -> int:
        """Latency bounds computed (misses of its memo) so far."""
        return self._bound_cache.cache_info().misses

    # -- derived numbers ---------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, float, float]]:
        """span name -> (calls, total duration s, total self time s)."""
        self_s = self_times(self.spans)
        out: Dict[str, Tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self_s):
            calls, total, self_total = out.get(span[0], (0, 0.0, 0.0))
            out[span[0]] = (calls + 1, total + span[2] - span[1],
                            self_total + own)
        return out


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def check_span_tree(spans: List[Span], wall_s: float,
                    tolerance_s: float) -> List[str]:
    """Problems with a span tree (empty list when well formed): every
    child lies inside its parent, no self time is negative, and the
    self times sum to ``wall_s`` within ``tolerance_s``."""
    problems: List[str] = []
    eps = 1e-9
    for i, (name, start, end, parent, _cell) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            p = spans[parent]
            if parent >= i or start < p[1] - eps or end > p[2] + eps:
                problems.append(f"span {i} {name} lies outside its "
                                f"parent {parent} {p[0]}")
    own = self_times(spans)
    for i, value in enumerate(own):
        if value < -eps:
            problems.append(f"span {i} {spans[i][0]} has negative self "
                            f"time {value:.3g} s")
    total = sum(own)
    if abs(total - wall_s) > tolerance_s:
        problems.append(f"self times sum to {total:.6f} s, traced wall "
                        f"is {wall_s:.6f} s (tolerance {tolerance_s:.6f})")
    return problems
