"""One benchmark process: a cold regeneration pass (or set-up only).

Started by ``perfbench/run.py`` in a fresh interpreter, with the
environment pinned (no fault plan, no cache or worker overrides) and
``REPRO_ARTIFACT_DIR`` pointing at a fresh temporary store. Writes one
JSON result to ``--out``; the drivers' own report printing is
swallowed.

* ``--mode cold``: imports, native library load (or build), then one
  timed :func:`repro.experiments.runner.regenerate` from the empty
  store. Untraced, it then replays the pass from the store it just
  filled (the warm path) and checks the warm reports equal the cold
  ones with no cell recomputed.
* ``--mode setup``: imports and native library load only (one more
  set-up sample).

``--trace 1`` runs the pass under :class:`spans.Tracer` (the caller
passes ``--processes 1``) and adds the per-layer numbers and the span
file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core import table_cache  # noqa: E402
from repro.core._native import build as native_build  # noqa: E402
from repro.core.controller import Rubik  # noqa: E402
from repro.experiments import artifacts, runner  # noqa: E402
from repro.perf import pools_created  # noqa: E402

import spans  # noqa: E402
import spec  # noqa: E402


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def apply_seed(offset: int) -> None:
    """Shift every driver's configured seed(s) by ``offset``.

    The drivers receive the shifted value only through their public
    ``run_*`` seed keywords (``main`` looks each one up as a module
    attribute per call) or, for ``fig07_08``, ``main``'s own keyword.
    Offset 0 leaves the CLI's configured seeds untouched.
    """
    if offset == 0:
        return

    def shifted(fn: Callable) -> Callable:
        params = inspect.signature(fn).parameters
        if "seeds" in params:
            key = "seeds"
            value = tuple(s + offset for s in params["seeds"].default)
        else:
            key = "seed"
            value = params["seed"].default + offset

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            kwargs.setdefault(key, value)
            return fn(*args, **kwargs)
        return wrapper

    for module_name, names in spec.SEEDED_RUNS.items():
        module = sys.modules[module_name]
        for name in names:
            setattr(module, name, shifted(getattr(module, name)))
    for name in spec.SEEDED_MAINS:
        old = runner.EXPERIMENTS[name]
        new = runner.ExperimentSpec(old.config, shifted(old.main))
        for key, value in list(runner.EXPERIMENTS.items()):
            if value is old:
                runner.EXPERIMENTS[key] = new


def peak_rss_mb() -> Dict[str, float]:
    """Peak RSS in MB of this process and of its largest reaped child
    (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self": own / 1024.0, "workers": kids / 1024.0}


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*.pkl"))


def one_pass(drivers: List[str], num_requests: int,
             processes: int) -> Dict[str, Any]:
    """Run one regeneration through the CLI's path; time it; count the
    cells the store saw (every cell of every driver is one ``get``)."""
    store = artifacts.default_store()
    before = store.stats()
    error: Optional[str] = None
    reports: Dict[str, str] = {}
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            reports = runner.regenerate(drivers, num_requests=num_requests,
                                        processes=processes, use_cache=True)
    except Exception as exc:  # a failing driver is a benchmark result
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    after = store.stats()
    per_driver = {}
    for name, row in after["per_driver"].items():
        old = before["per_driver"].get(name, {"hits": 0, "misses": 0})
        per_driver[name] = (row["hits"] + row["misses"]
                            - old["hits"] - old["misses"])
    return {
        "wall_s": wall,
        "reports": reports,
        "error": error,
        "hits": after["hits"] - before["hits"],
        "misses": after["misses"] - before["misses"],
        "errors": after["errors"] - before["errors"],
        "cells_by_driver": per_driver,
    }


def provenance(processes: int) -> Dict[str, Any]:
    return {
        "build_info": native_build.build_info(),
        "default_decision_path": Rubik().decision_path,
        "nproc": len(os.sched_getaffinity(0)),
        "processes": processes,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def traced_metrics(tracer: spans.Tracer,
                   p: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of the traced pass ``p``."""
    totals = tracer.layer_totals()

    def calls(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def wall(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1]

    def count(key: str) -> float:
        return tracer.counts.get(key, 0.0)

    m: Dict[str, float] = {}
    for driver in spec.ALL_DRIVERS:
        m[f"driver.{driver}.wall_s"] = wall(f"driver.{driver}")
    m["cells.computed"] = p["misses"]
    m["cells.replayed"] = p["hits"]
    m["latency_bound.computed"] = tracer.bound_cache_misses()
    m["latency_bound.requested"] = count("latency_bound.requested")
    m["store.get.calls"] = calls("store.get")
    m["store.get.self_s"] = self_s("store.get")
    m["store.put.calls"] = calls("store.put")
    m["store.put.self_s"] = self_s("store.put")
    m["store.fingerprint.self_s"] = self_s("store.fingerprint")
    m["store.hits"] = m["cells.replayed"]
    m["store.misses"] = m["cells.computed"]
    m["store.errors"] = p["errors"]
    m["sim.run_trace.calls"] = calls("sim.run_trace")
    m["sim.run_trace.self_s"] = self_s("sim.run_trace")
    m["sim.requests"] = count("sim.requests")
    m["sim.events"] = count("sim.events")
    m["sim.events_per_request"] = (m["sim.events"] / m["sim.requests"]
                                   if m["sim.requests"] else 0.0)
    m["sim.trace_gen.self_s"] = self_s("sim.trace_gen")
    for path in spec.DECISION_PATHS:
        m[f"core.decision_path.{path}"] = count(f"core.decision_path.{path}")
    m["core.decisions"] = count("core.decisions")
    m["core.refresh.snapshots"] = count("core.refresh.snapshots")
    m["core.tables.builds"] = calls("core.tables.build")
    m["core.tables.build_s"] = wall("core.tables.build")
    hits = table_cache.TABLE_CACHE.hits
    misses = table_cache.TABLE_CACHE.misses
    m["core.table_cache.hits"] = hits
    m["core.table_cache.misses"] = misses
    m["core.table_cache.hit_ratio"] = hits / (hits + misses) if hits else 0.0
    m["schemes.replay.calls"] = calls("schemes.replay")
    m["schemes.replay.self_s"] = self_s("schemes.replay")
    m["schemes.adrenaline_tune.self_s"] = self_s("schemes.adrenaline_tune")
    m["schemes.static_find.self_s"] = self_s("schemes.static_find")
    m["schemes.dynamic_oracle.self_s"] = self_s("schemes.dynamic_oracle")
    for scheme in spec.COLOC_SCHEMES:
        m[f"coloc.server.{scheme}.calls"] = calls(f"coloc.server.{scheme}")
        m[f"coloc.server.{scheme}.self_s"] = self_s(f"coloc.server.{scheme}")
    m["coloc.lc_requests"] = count("coloc.lc_requests")
    m["coloc.sim_s"] = count("coloc.sim_s")
    m["fleet.datacenter.self_s"] = self_s("fleet.datacenter")
    m["fleet.calibrate.self_s"] = self_s("fleet.calibrate")
    m["fleet.route_epoch.calls"] = calls("fleet.route_epoch")
    m["fleet.route_epoch.self_s"] = self_s("fleet.route_epoch")
    routed = count("fleet.servers_routed")
    m["fleet.servers_per_s"] = (routed / m["fleet.route_epoch.self_s"]
                                if m["fleet.route_epoch.self_s"] else 0.0)
    m["trace.traced_wall_s"] = p["wall_s"]
    m["trace.spans"] = len(tracer.spans)
    return m


def run(args: argparse.Namespace) -> Dict[str, Any]:
    drivers = args.drivers.split(",")
    apply_seed(args.seed)
    native_build.load_library()
    if args.mode == "setup":
        return {"setup_s": time.monotonic() - args.spawn}
    counters = spans.Counters()
    counters.install()
    tracer: Optional[spans.Tracer] = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    out: Dict[str, Any] = {"provenance": provenance(args.processes),
                           "setup_s": time.monotonic() - args.spawn}
    if tracer is not None:
        p = tracer.span("pass", one_pass, drivers, args.num_requests,
                        args.processes)
    else:
        p = one_pass(drivers, args.num_requests, args.processes)
    p["sim_requests"] = counters.sim_requests.value
    out["pool"] = {"pools_created": pools_created(),
                   "workers": counters.pool_workers,
                   "map_calls": counters.pool_map_calls,
                   "map_wall_s": counters.pool_map_wall_s}
    out["store_bytes"] = store_bytes(artifacts.default_store().root)
    if tracer is not None:
        out["layers"] = traced_metrics(tracer, p)
        write_spans(args.spans_out, tracer)
    elif p["error"] is None:
        warm = one_pass(drivers, args.num_requests, args.processes)
        p["warm_wall_s"] = warm["wall_s"]
        p["warm_matches_cold"] = (warm["error"] is None
                                  and warm["reports"] == p["reports"]
                                  and warm["misses"] == 0)
    p["digests"] = {k: digest(v) for k, v in p["reports"].items()}
    del p["reports"]
    out["pass"] = p
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def write_spans(path: Optional[str], tracer: spans.Tracer) -> None:
    if not path:
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "cell"],
                   "spans": tracer.spans}, fh)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "cold"), required=True)
    parser.add_argument("--drivers", required=True)
    parser.add_argument("--num-requests", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--processes", type=int,
                        default=spec.POOL_PROCESSES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn", type=float, required=True,
                        help="time.monotonic() when the parent started "
                             "this process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
