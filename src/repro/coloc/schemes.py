"""Colocation frequency-management schemes (paper Sec. 7).

Four schemes manage a server whose cores each time-share one LC app copy
with one batch app (memory system partitioned):

* **RubikColoc** — Rubik drives LC frequency; batch runs at its best
  throughput-per-watt frequency when the LC queue is empty.
* **StaticColoc** — LC at the StaticOracle frequency (tuned without
  interference, which is why it under-provisions); batch at best TPW.
* **HW-T** — every 100 us, a chip-level controller assigns per-core
  frequencies maximizing aggregate instruction throughput under the
  package power budget (TDP minus the fixed uncore/DRAM floor),
  oblivious to LC deadlines (Turbo-Boost-style).
* **HW-TPW** — same cadence, maximizing aggregate throughput per *package*
  watt (fixed platform power amortizes into the ratio, as hardware
  energy-efficiency governors see package power, not core power).

HW-T/HW-TPW allocate watts by marginal utility, so compute-bound batch
cores win the budget and LC cores are starved exactly when they queue —
the mechanism behind the tail blowups in Fig. 15. Server LC apps also
retire fewer instructions per cycle than SPEC compute apps
(``LC_IPC_FACTOR``), so they systematically lose the watts race.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import CmpConfig
from repro.core.controller import Rubik
from repro.power.model import CorePowerModel, CoreState
from repro.schemes.base import Scheme, SchemeContext
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request

#: HW schemes re-evaluate every 100 us (paper Sec. 7).
HW_SCHEME_PERIOD_S = 100e-6

#: Fixed package power (uncore + DRAM idle floor) the HW governors see.
PACKAGE_FIXED_POWER_W = 13.0

#: Server LC apps retire fewer instructions per cycle than SPEC compute
#: apps (branchy, pointer-chasing code), so oblivious throughput-greedy
#: allocators systematically deprioritize them.
LC_IPC_FACTOR = 0.6

#: One core's allocator rows over the DVFS grid: IPS and power at the
#: lowest level, then per-level step rows ``d_ips``, ``d_p`` and
#: ``gain = d_ips / d_p`` for the step to the next level up.
_GridRows = Tuple[float, float, List[float], List[float], List[float]]


class RubikColocScheme(Rubik):
    """Rubik, unchanged, on a core with a background batch task.

    The core model itself hands the core to the batch app (at the batch
    app's preferred frequency) whenever the LC queue drains; Rubik only
    ever constrains frequency while LC requests are in the system.
    """

    @property
    def name(self) -> str:  # type: ignore[override]
        return "RubikColoc"


class StaticColocScheme(Scheme):
    """StaticOracle frequency for LC work; batch at best TPW when idle."""

    name = "StaticColoc"

    def __init__(self, lc_freq_hz: float) -> None:
        if lc_freq_hz <= 0:
            raise ValueError("frequency must be positive")
        self.lc_freq_hz = lc_freq_hz

    def initial_frequency(self) -> float:
        return self.lc_freq_hz

    def on_arrival(self, core: Core, request: Request) -> None:
        core.request_frequency(self.lc_freq_hz)

    def on_completion(self, core: Core, request: Request) -> None:
        if core.queue_length > 0:
            core.request_frequency(self.lc_freq_hz)
        # else: the core hands over to batch at its preferred frequency.


class ChipLevelAllocator:
    """Shared chip controller for the HW-T / HW-TPW schemes.

    Every ``period_s`` it observes what each core is running (an LC
    request or its batch app), models each occupant's instruction
    throughput versus frequency, and assigns per-core frequencies:

    * objective ``"throughput"`` (HW-T): greedy marginal-IPS-per-watt
      ascent until the TDP is exhausted;
    * objective ``"tpw"`` (HW-TPW): greedy ascent while a step's
      marginal IPS/W beats the aggregate IPS per package watt.
    """

    def __init__(
        self,
        sim: Simulator,
        cores: Sequence[Core],
        cmp_config: CmpConfig,
        power: CorePowerModel,
        objective: str = "throughput",
        lc_ips_model: Optional[Callable[[Core, float], float]] = None,
        period_s: float = HW_SCHEME_PERIOD_S,
        horizon_s: Optional[float] = None,
    ) -> None:
        if objective not in ("throughput", "tpw"):
            raise ValueError("objective must be 'throughput' or 'tpw'")
        self.sim = sim
        self.cores = list(cores)
        self.cmp = cmp_config
        self.power = power
        self.objective = objective
        self.lc_ips_model = lc_ips_model or _default_lc_ips_model
        self.period_s = period_s
        self.horizon_s = horizon_s
        self._grid = self.cores[0].dvfs.config.frequencies
        # Allocations are memoized on each core's occupant *type* (which
        # batch app, or the LC app), so there are at most 2^cores
        # distinct keys. The key is coarser than the model: an LC core's
        # IPS and power depend on its in-service request's compute/memory
        # split, so an ``"lc"`` entry freezes the split of whichever
        # request was in service at the miss that filled it.
        self._cache: Dict[Tuple[str, ...], List[float]] = {}
        # Batch/idle grid rows, keyed by occupant key.
        self._rows: Dict[str, _GridRows] = {}
        sim.schedule_after(period_s, self._tick)

    def _occupant_key(self, core: Core) -> str:
        if core.current is not None:
            return "lc"
        if core.background is not None:
            return core.background.profile.name  # type: ignore[attr-defined]
        return "idle"

    # ------------------------------------------------------------------
    def _occupant_ips(self, core: Core, freq_hz: float) -> float:
        """Instruction throughput of whatever the core is running."""
        if core.current is not None:
            return self.lc_ips_model(core, freq_hz)
        if core.background is not None:
            return core.background.profile.throughput(freq_hz)  # type: ignore[attr-defined]
        return 0.0

    def _occupant_power(self, core: Core, freq_hz: float) -> float:
        if core.current is None and core.background is None:
            return self.power.sleep_power_w
        if core.current is not None:
            total = (core.current.compute_cycles / freq_hz
                     + core.current.memory_time_s)
            mem_frac = core.current.memory_time_s / total if total > 0 else 0.0
        else:
            mem_frac = core.background.mem_stall_frac(freq_hz)
        return self.power.busy_power(freq_hz, mem_frac)

    def _grid_rows(self, core: Core) -> _GridRows:
        """One core's ``(ips, power)`` rows over the grid, as step rows.

        Row values come from :meth:`_occupant_ips` and
        :meth:`_occupant_power`, and each step's deltas and gain are the
        same subtractions and division the per-step greedy performs, so
        indexing the rows reproduces it bitwise. The top level carries a
        zero power step, which both greedy loops already skip.
        """
        ips = [self._occupant_ips(core, f) for f in self._grid]
        power = [self._occupant_power(core, f) for f in self._grid]
        d_ips = [b - a for a, b in zip(ips, ips[1:])] + [0.0]
        d_p = [b - a for a, b in zip(power, power[1:])] + [0.0]
        gain = [di / dp if dp > 0 else 0.0 for di, dp in zip(d_ips, d_p)]
        return ips[0], power[0], d_ips, d_p, gain

    def _tables(self) -> List[_GridRows]:
        """Grid rows for every core, built once per memo miss.

        Batch and idle rows depend only on the occupant key and are
        cached for the allocator's lifetime; LC rows are rebuilt from the
        in-service request on every miss.
        """
        tables = []
        for core in self.cores:
            key = self._occupant_key(core)
            rows = None if key == "lc" else self._rows.get(key)
            if rows is None:
                rows = self._grid_rows(core)
                if key != "lc":
                    self._rows[key] = rows
            tables.append(rows)
        return tables

    def _assign_throughput(self) -> List[float]:
        """Greedy marginal IPS/W ascent under the package power budget."""
        _, base_p, _, d_ps, gains = zip(*self._tables())
        levels = [0] * len(self.cores)
        budget = self.cmp.tdp_watts - PACKAGE_FIXED_POWER_W
        spent = sum(base_p)
        while True:
            best_gain, best_core = 0.0, -1
            for ci, li in enumerate(levels):
                d_p = d_ps[ci][li]
                if d_p <= 0 or spent + d_p > budget:
                    continue
                gain = gains[ci][li]
                if gain > best_gain:
                    best_gain, best_core = gain, ci
            if best_core < 0:
                break
            spent += d_ps[best_core][levels[best_core]]
            levels[best_core] += 1
        return [self._grid[l] for l in levels]

    def _assign_tpw(self) -> List[float]:
        """Greedy ascent maximizing aggregate IPS per package watt.

        Raising a core one step improves the global ratio iff the step's
        marginal IPS/W exceeds the current aggregate ratio; the fixed
        package power keeps the optimum away from the bottom of the grid.
        """
        base_ips, base_p, d_ipss, d_ps, gains = zip(*self._tables())
        levels = [0] * len(self.cores)
        total_ips = sum(base_ips)
        total_p = PACKAGE_FIXED_POWER_W + sum(base_p)
        while True:
            best_gain, best_core = total_ips / total_p, -1
            for ci, li in enumerate(levels):
                if d_ps[ci][li] <= 0:
                    continue
                gain = gains[ci][li]
                if gain > best_gain:
                    best_gain, best_core = gain, ci
            if best_core < 0:
                break
            li = levels[best_core]
            total_ips += d_ipss[best_core][li]
            total_p += d_ps[best_core][li]
            levels[best_core] += 1
        return [self._grid[l] for l in levels]

    def _tick(self) -> None:
        # _occupant_key, inlined: this runs every period on every core.
        key = tuple(["lc" if c.current is not None
                     else "idle" if c.background is None
                     else c.background.profile.name  # type: ignore[attr-defined]
                     for c in self.cores])
        freqs = self._cache.get(key)
        if freqs is None:
            freqs = (self._assign_throughput()
                     if self.objective == "throughput"
                     else self._assign_tpw())
            self._cache[key] = freqs
        for core, f in zip(self.cores, freqs):
            dvfs = core.dvfs
            # DvfsDomain.request's first early return, without the call:
            # nothing in flight and already at the target.
            if dvfs._pending_target is None and f == dvfs._current_hz:
                continue
            dvfs.request(f)
        sim = self.sim
        if self.horizon_s is None or sim.now + self.period_s <= self.horizon_s:
            sim.schedule_entry(sim.now + self.period_s, self._tick)


def _default_lc_ips_model(core: Core, freq_hz: float) -> float:
    """Generic LC throughput model for the HW allocator.

    Treats the in-service LC request as a stream of instructions whose
    compute/memory split matches the request's demand split, so the
    model depends on that request, not just on the occupant type. The
    allocator memoizes on occupant type anyway: the first request seen
    under a key fixes the frequencies every later tick with that key
    reuses. Normalized units cancel in the allocator's marginal
    comparisons.
    """
    req = core.current
    assert req is not None
    total_cycles = req.compute_cycles
    mem_s = req.memory_time_s
    if total_cycles <= 0:
        return 0.0
    # Seconds per "cycle of demand": 1/f compute + proportional memory.
    sec_per_cycle = 1.0 / freq_hz + mem_s / total_cycles
    return LC_IPC_FACTOR / sec_per_cycle


class HwScheme(Scheme):
    """Per-core stub for HW-T / HW-TPW: the chip allocator owns frequency.

    The scheme itself does nothing on arrivals/completions — exactly the
    point: hardware DVFS is oblivious to the application's deadlines.
    """

    def __init__(self, objective: str) -> None:
        if objective not in ("throughput", "tpw"):
            raise ValueError("objective must be 'throughput' or 'tpw'")
        self.objective = objective

    @property
    def name(self) -> str:  # type: ignore[override]
        return "HW-T" if self.objective == "throughput" else "HW-TPW"

    def initial_frequency(self) -> float:
        return self.context.dvfs.nominal_hz
