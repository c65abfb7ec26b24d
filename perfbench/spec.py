"""Workloads, sizes, seeds and metric names of the regeneration benchmark.

The benchmark times what users of this reproduction wait for: the
figure/table regeneration behind ``python -m repro.experiments``, run
through :func:`repro.experiments.runner.regenerate` (the CLI's own path)
against a temporary artifact store, with the shared pool at
``processes=2``.

Every workload is a closed loop of passes, each a regeneration from an
empty store in a fresh process (so in-process memos start empty). The
two workloads partition ``all``:

* ``uniproc_cold`` -- the single-core drivers. Exercises ``sim`` + the
  native span loop, ``core`` tail tables and decisions, and ``schemes``
  oracle tuning; never reaches ``coloc``.
* ``coloc_cold`` -- Fig. 15 and Fig. 16. Exercises the shared-clock
  multi-core loop in ``coloc``; hardly touches ``schemes`` tuning or
  the span loop.

A third workload, replaying all 13 drivers from a filled store, was
left out: its ~0.1 s passes follow this machine's slow and fast phases
(each seconds long, ~1.6x apart), so no statistic of a run stayed
steady. The warm path still runs after every cold pass, untimed, as the
cold==warm output check, and its wall is a per-layer number.

Which end-to-end metric each layer's numbers should move (the traced
per-layer breakdown):

* ``experiments`` (runner/common): ``wall_s`` of the workload holding
  the driver.
* ``experiments.artifacts`` (``store.*``): a small share of cold
  ``wall_s`` (puts, fingerprints, miss lookups); ``store.replay_wall_s``
  times the warm read side.
* ``perf`` (``pool.*``): cold ``wall_s`` on both cold workloads (Fig. 16's
  six long cells on two workers are a straggler case).
* ``sim``: ``uniproc_cold`` ``wall_s`` and ``sim_requests_per_s``.
* ``core``: ``wall_s`` on both cold workloads.
* ``schemes``: ``uniproc_cold`` ``wall_s``; no change on ``coloc_cold``.
* ``coloc``: ``coloc_cold`` ``wall_s`` and ``sim_requests_per_s``; no
  change on ``uniproc_cold``.
* ``fleet``: ``uniproc_cold`` ``wall_s`` through the fleet driver's
  routing epochs (recomputed on every pass, warm or cold) and
  ``coloc_cold`` through Fig. 16.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

#: Shared-pool size of every timed pass (the traced pass runs serial).
POOL_PROCESSES = 2

UNIPROC_DRIVERS: Tuple[str, ...] = (
    "fig01", "fig02", "fig06", "fig07_08", "fig09", "fig10", "fig11",
    "fig12", "table1", "ablations", "fleet")
COLOC_DRIVERS: Tuple[str, ...] = ("fig15", "fig16")
ALL_DRIVERS: Tuple[str, ...] = UNIPROC_DRIVERS + COLOC_DRIVERS


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: workload name (``--workload``).
        drivers: registered driver names one pass regenerates.
        num_requests: the CLI's ``-n`` for every pass.
        tiny_num_requests: ``-n`` used by ``--self-test`` (at least
            the colocation warm-up of 50 requests per core).
    """

    name: str
    drivers: Tuple[str, ...]
    num_requests: int
    tiny_num_requests: int


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("uniproc_cold", UNIPROC_DRIVERS, num_requests=400,
             tiny_num_requests=60),
    Workload("coloc_cold", COLOC_DRIVERS, num_requests=80,
             tiny_num_requests=60),
)}

#: Cold workloads: at least this many fresh-process passes per run.
MIN_COLD_PASSES = 3

#: Cold workloads: set-up-only processes (imports and native library
#: load) started after the passes, for more ``setup_s`` samples.
EXTRA_SETUPS = 5

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_p90_s": "s",
    "cells_per_s": "1/s",
    "sim_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Colocation schemes timed separately in the ``coloc`` layer.
COLOC_SCHEMES: Tuple[str, ...] = ("RubikColoc", "StaticColoc", "HW-T",
                                  "HW-TPW")

#: Decision paths a Rubik controller can bind.
DECISION_PATHS: Tuple[str, ...] = ("scalar", "vectorized", "kernel",
                                   "native")


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics (``--trace 1``), name -> unit, in layer order."""
    units: Dict[str, str] = {}
    for driver in ALL_DRIVERS:
        units[f"driver.{driver}.wall_s"] = "s"
    units.update({
        "cells.computed": "count",
        "cells.replayed": "count",
        "cells_failed_frac": "frac",
        "latency_bound.computed": "count",
        "latency_bound.requested": "count",
        "store.get.calls": "count",
        "store.get.self_s": "s",
        "store.put.calls": "count",
        "store.put.self_s": "s",
        "store.fingerprint.self_s": "s",
        "store.bytes": "bytes",
        "store.replay_wall_s": "s",
        "store.hits": "count",
        "store.misses": "count",
        "store.errors": "count",
        "pool.pools_created": "count",
        "pool.workers": "count",
        "pool.map.calls": "count",
        "pool.map.wall_s": "s",
        "pool.efficiency": "frac",
        "sim.run_trace.calls": "count",
        "sim.run_trace.self_s": "s",
        "sim.requests": "count",
        "sim.events": "count",
        "sim.events_per_request": "1/request",
        "sim.trace_gen.self_s": "s",
        "core.native.loaded": "count",
        "core.native.build_s": "s",
    })
    for path in DECISION_PATHS:
        units[f"core.decision_path.{path}"] = "count"
    units.update({
        "core.decisions": "count",
        "core.refresh.snapshots": "count",
        "core.tables.builds": "count",
        "core.tables.build_s": "s",
        "core.table_cache.hit_ratio": "frac",
        "core.table_cache.hits": "count",
        "core.table_cache.misses": "count",
        "schemes.replay.calls": "count",
        "schemes.replay.self_s": "s",
        "schemes.adrenaline_tune.self_s": "s",
        "schemes.static_find.self_s": "s",
        "schemes.dynamic_oracle.self_s": "s",
    })
    for scheme in COLOC_SCHEMES:
        units[f"coloc.server.{scheme}.calls"] = "count"
        units[f"coloc.server.{scheme}.self_s"] = "s"
    units.update({
        "coloc.lc_requests": "count",
        "coloc.sim_s": "s",
        "fleet.datacenter.self_s": "s",
        "fleet.calibrate.self_s": "s",
        "fleet.route_epoch.calls": "count",
        "fleet.route_epoch.self_s": "s",
        "fleet.servers_per_s": "1/s",
        "trace.traced_wall_s": "s",
        "trace.serial_wall_s": "s",
        "trace.pool_wall_s": "s",
        "trace.overhead_frac": "frac",
        "trace.spans": "count",
    })
    return units


#: Driver run functions whose ``seed``/``seeds`` keyword ``--seed``
#: shifts (``main`` looks each up as a module attribute at call time).
SEEDED_RUNS: Dict[str, Tuple[str, ...]] = {
    "repro.experiments.fig01_intro": ("run_fig1a",),
    "repro.experiments.fig02_variability": ("run_fig2a", "run_fig2c"),
    "repro.experiments.fig06_power_savings": ("run_fig6",),
    "repro.experiments.fig09_load_sweep": ("run_fig9",),
    "repro.experiments.fig10_load_steps": ("run_fig10",),
    "repro.experiments.fig11_real_system": ("run_fig11",),
    "repro.experiments.fig12_system_power": ("run_fig12",),
    "repro.experiments.fig15_coloc_tails": ("run_fig15",),
    "repro.experiments.fig16_datacenter": ("run_fig16",),
    "repro.experiments.table1_correlations": ("run_table1",),
    "repro.experiments.ablations": ("run_ablations",),
    "repro.experiments.fleet_scenario": ("run_fleet_scenario",),
}

#: Drivers whose own ``main`` takes the ``seed`` keyword.
SEEDED_MAINS: Tuple[str, ...] = ("fig07_08",)
