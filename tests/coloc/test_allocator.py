"""Unit tests for the chip-level HW-T/HW-TPW frequency allocator."""

import pytest

from repro.coloc.batch import SPEC_BY_NAME, BatchTask
from repro.coloc.schemes import (
    ChipLevelAllocator,
    PACKAGE_FIXED_POWER_W,
)
from repro.config import DEFAULT_CMP, DEFAULT_DVFS
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request


def make_cores(batch_names, sim=None):
    sim = sim or Simulator()
    cores = []
    for name in batch_names:
        task = BatchTask(SPEC_BY_NAME[name], DEFAULT_DVFS,
                         DEFAULT_CORE_POWER)
        cores.append(Core(sim, DEFAULT_DVFS, DEFAULT_CORE_POWER,
                          background=task))
    return sim, cores


class TestThroughputObjective:
    def test_budget_respected(self):
        sim, cores = make_cores(["namd", "povray", "hmmer",
                                 "mcf", "lbm", "milc"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER,
                                   objective="throughput")
        freqs = alloc._assign_throughput()
        spent = sum(
            alloc._occupant_power(c, f) for c, f in zip(cores, freqs))
        assert spent <= DEFAULT_CMP.tdp_watts - PACKAGE_FIXED_POWER_W + 1e-9

    def test_compute_bound_apps_win_watts(self):
        """Compute-bound batch apps get higher frequencies than
        memory-bound ones (the Fig. 15 starvation mechanism)."""
        sim, cores = make_cores(["namd", "mcf", "povray", "lbm",
                                 "hmmer", "libquantum"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER,
                                   objective="throughput")
        freqs = alloc._assign_throughput()
        by_name = {c.background.profile.name: f
                   for c, f in zip(cores, freqs)}
        assert by_name["namd"] > by_name["mcf"]
        assert by_name["povray"] > by_name["lbm"]


class TestTpwObjective:
    def test_not_parked_at_minimum(self):
        """The fixed package power keeps the TPW optimum off the grid
        floor (real governors amortize uncore power)."""
        sim, cores = make_cores(["namd", "povray", "hmmer",
                                 "gobmk", "sjeng", "calculix"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        freqs = alloc._assign_tpw()
        assert max(freqs) > DEFAULT_DVFS.min_hz

    def test_below_throughput_assignment(self):
        """TPW allocations never exceed throughput-max allocations in
        aggregate power."""
        sim, cores = make_cores(["namd", "mcf", "povray", "lbm",
                                 "hmmer", "libquantum"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        p_tpw = sum(alloc._occupant_power(c, f)
                    for c, f in zip(cores, alloc._assign_tpw()))
        p_thr = sum(alloc._occupant_power(c, f)
                    for c, f in zip(cores, alloc._assign_throughput()))
        assert p_tpw <= p_thr + 1e-9


class TestTicking:
    def test_periodic_reallocation(self):
        sim, cores = make_cores(["namd", "mcf"])
        ChipLevelAllocator(sim, cores, DEFAULT_CMP, DEFAULT_CORE_POWER,
                           objective="tpw", horizon_s=1e-3)
        sim.run(until=1.1e-3)
        # Ticks fired every 100 us up to the horizon.
        assert sim.events_processed >= 9

    def test_allocation_cached_by_occupant_key(self):
        sim, cores = make_cores(["namd", "mcf"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw",
                                   horizon_s=1e-3)
        sim.run(until=1.1e-3)
        # Occupants never changed (no LC work), so one cache entry.
        assert len(alloc._cache) == 1

    def test_last_tick_time_and_event_count_pinned(self):
        """The raw-entry reschedule fires ticks at exactly the times the
        ``schedule_after`` chain did (values recorded before the switch)."""
        for objective in ("throughput", "tpw"):
            sim, cores = make_cores(["namd", "mcf"])
            ChipLevelAllocator(sim, cores, DEFAULT_CMP, DEFAULT_CORE_POWER,
                               objective=objective, horizon_s=1e-3)
            sim.run()
            assert sim.now == float.fromhex("0x1.d7dbf487fcb94p-11")
            assert sim.events_processed == 9

    def test_rejects_bad_objective(self):
        sim, cores = make_cores(["namd"])
        with pytest.raises(ValueError):
            ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                               DEFAULT_CORE_POWER, objective="nope")


def spy_requests(cores):
    """Count DvfsDomain.request and on_retarget calls per core."""
    requests = [0] * len(cores)
    retargets = [0] * len(cores)
    for i, core in enumerate(cores):
        dvfs = core.dvfs
        request, on_retarget = dvfs.request, dvfs.on_retarget

        def counted_request(f, i=i, request=request):
            requests[i] += 1
            request(f)

        def counted_retarget(i=i, on_retarget=on_retarget):
            retargets[i] += 1
            on_retarget()

        dvfs.request = counted_request
        dvfs.on_retarget = counted_retarget
    return requests, retargets


class TestTickFastPath:
    def settled(self, objective="tpw"):
        sim, cores = make_cores(["namd", "mcf"])
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective=objective)
        sim.run(until=1e-3)
        (freqs,) = alloc._cache.values()
        for core, f in zip(cores, freqs):
            assert core.dvfs.planned_transitions() == ()
            assert core.dvfs.current_hz == f
        return sim, cores, alloc, freqs

    def test_noop_tick_skips_request(self):
        sim, cores, _, _ = self.settled()
        transitions = [c.dvfs.transitions for c in cores]
        requests, retargets = spy_requests(cores)
        sim.run(until=2e-3)
        assert requests == [0, 0]
        assert retargets == [0, 0]
        assert [c.dvfs.transitions for c in cores] == transitions

    def test_tick_with_transition_in_flight_still_requests(self):
        sim, cores, alloc, freqs = self.settled()
        grid = DEFAULT_DVFS.frequencies
        other = next(f for f in grid if f != freqs[0])
        cores[0].dvfs.request(other)
        requests, retargets = spy_requests(cores)
        alloc._tick()
        # Core 0 has a transition in flight, so the tick must go through
        # request() (which latches the allocator's target behind it);
        # core 1 sits at its target and is skipped.
        assert requests == [1, 0]
        assert retargets == [1, 0]
        assert cores[0].dvfs.effective_target() == freqs[0]


class TestLcMemo:
    """The memo key is the occupant *type*, but an LC core's model
    depends on its in-service request's compute/memory split: the
    first request seen under a key fixes the frequencies."""

    MIX = ["namd", "mcf", "povray", "lbm", "hmmer", "milc"]
    COMPUTE_ONLY = dict(compute_cycles=3e6, memory_time_s=0.0)
    MEMORY_HEAVY = dict(compute_cycles=1e4, memory_time_s=5e-4)

    def allocator(self):
        sim, cores = make_cores(self.MIX)
        alloc = ChipLevelAllocator(sim, cores, DEFAULT_CMP,
                                   DEFAULT_CORE_POWER, objective="tpw")
        return cores, alloc

    def test_first_split_under_a_key_wins(self):
        cores, fresh = self.allocator()
        cores[0].current = Request(rid=1, arrival_time=0.0,
                                   **self.MEMORY_HEAVY)
        memory_heavy_freqs = fresh._assign_tpw()

        cores, alloc = self.allocator()
        cores[0].current = Request(rid=0, arrival_time=0.0,
                                   **self.COMPUTE_ONLY)
        alloc._tick()
        (first_freqs,) = alloc._cache.values()
        # The two splits really do allocate differently...
        assert first_freqs[0] != memory_heavy_freqs[0]

        cores[0].current = Request(rid=1, arrival_time=0.0,
                                   **self.MEMORY_HEAVY)
        alloc._tick()
        # ...but the second request hits the first one's "lc" entry.
        assert len(alloc._cache) == 1
        assert list(alloc._cache.values()) == [first_freqs]
        assert [c.dvfs.effective_target() for c in cores] == first_freqs
