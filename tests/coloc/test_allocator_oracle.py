"""The table-driven HW-T/HW-TPW greedy against the per-step oracle.

``reference_assign_throughput`` / ``reference_assign_tpw`` are the
allocator's original greedy loops: they call the occupant models at
both neighbouring grid levels of every core on every step. The library
indexes precomputed grid rows instead; these property tests pin that
the two agree exactly, float for float, on random occupant sets.
"""

import dataclasses
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloc.batch import SPEC_BY_NAME, BatchTask
from repro.coloc.schemes import PACKAGE_FIXED_POWER_W, ChipLevelAllocator
from repro.config import DEFAULT_CMP, DEFAULT_DVFS
from repro.power.model import DEFAULT_CORE_POWER
from repro.sim.core import Core
from repro.sim.engine import Simulator
from repro.sim.request import Request


def reference_assign_throughput(alloc: ChipLevelAllocator) -> List[float]:
    """Per-step greedy marginal IPS/W ascent under the power budget."""
    grid = alloc.cores[0].dvfs.config.frequencies
    levels = [0] * len(alloc.cores)
    budget = alloc.cmp.tdp_watts - PACKAGE_FIXED_POWER_W
    spent = sum(alloc._occupant_power(c, grid[0]) for c in alloc.cores)
    while True:
        best_gain, best_core = 0.0, -1
        for ci, core in enumerate(alloc.cores):
            li = levels[ci]
            if li + 1 >= len(grid):
                continue
            d_ips = (alloc._occupant_ips(core, grid[li + 1])
                     - alloc._occupant_ips(core, grid[li]))
            d_p = (alloc._occupant_power(core, grid[li + 1])
                   - alloc._occupant_power(core, grid[li]))
            if spent + d_p > budget or d_p <= 0:
                continue
            gain = d_ips / d_p
            if gain > best_gain:
                best_gain, best_core = gain, ci
        if best_core < 0:
            break
        li = levels[best_core]
        spent += (alloc._occupant_power(alloc.cores[best_core], grid[li + 1])
                  - alloc._occupant_power(alloc.cores[best_core], grid[li]))
        levels[best_core] += 1
    return [grid[l] for l in levels]


def reference_assign_tpw(alloc: ChipLevelAllocator) -> List[float]:
    """Per-step greedy ascent maximizing IPS per package watt."""
    grid = alloc.cores[0].dvfs.config.frequencies
    levels = [0] * len(alloc.cores)
    total_ips = sum(alloc._occupant_ips(c, grid[0]) for c in alloc.cores)
    total_p = PACKAGE_FIXED_POWER_W + sum(
        alloc._occupant_power(c, grid[0]) for c in alloc.cores)
    improved = True
    while improved:
        improved = False
        ratio = total_ips / total_p
        best_gain, best_core, best_d = ratio, -1, (0.0, 0.0)
        for ci, core in enumerate(alloc.cores):
            li = levels[ci]
            if li + 1 >= len(grid):
                continue
            d_ips = (alloc._occupant_ips(core, grid[li + 1])
                     - alloc._occupant_ips(core, grid[li]))
            d_p = (alloc._occupant_power(core, grid[li + 1])
                   - alloc._occupant_power(core, grid[li]))
            if d_p <= 0:
                continue
            gain = d_ips / d_p
            if gain > best_gain:
                best_gain, best_core, best_d = gain, ci, (d_ips, d_p)
        if best_core >= 0:
            levels[best_core] += 1
            total_ips += best_d[0]
            total_p += best_d[1]
            improved = True
    return [grid[l] for l in levels]


REFERENCE = {"throughput": reference_assign_throughput,
             "tpw": reference_assign_tpw}

batch_occupant = st.tuples(st.just("batch"),
                           st.sampled_from(sorted(SPEC_BY_NAME)))
lc_occupant = st.tuples(
    st.just("lc"),
    st.one_of(st.just(0.0), st.floats(1e3, 1e9)),
    st.one_of(st.just(0.0), st.floats(1e-7, 1e-2)),
    st.sampled_from([None] + sorted(SPEC_BY_NAME)),
).filter(lambda o: o[1] > 0 or o[2] > 0)
idle_occupant = st.just(("idle",))
occupants = st.lists(st.one_of(batch_occupant, lc_occupant, idle_occupant),
                     min_size=1, max_size=8)


def build_allocator(occupant_list, objective, tdp_watts):
    """An allocator over cores frozen in the given occupant states."""
    sim = Simulator()
    cores = []
    for occ in occupant_list:
        background_name = occ[1] if occ[0] == "batch" else (
            occ[3] if occ[0] == "lc" else None)
        background = None
        if background_name is not None:
            background = BatchTask(SPEC_BY_NAME[background_name],
                                   DEFAULT_DVFS, DEFAULT_CORE_POWER)
        core = Core(sim, DEFAULT_DVFS, DEFAULT_CORE_POWER,
                    background=background)
        if occ[0] == "lc":
            core.current = Request(rid=len(cores), arrival_time=0.0,
                                   compute_cycles=occ[1],
                                   memory_time_s=occ[2])
        cores.append(core)
    cmp_config = dataclasses.replace(DEFAULT_CMP, tdp_watts=tdp_watts)
    return ChipLevelAllocator(sim, cores, cmp_config, DEFAULT_CORE_POWER,
                              objective=objective)


def assign(alloc):
    return (alloc._assign_throughput() if alloc.objective == "throughput"
            else alloc._assign_tpw())


@pytest.mark.parametrize("objective", ["throughput", "tpw"])
@settings(max_examples=100, deadline=None)
@given(occupant_list=occupants, tdp_watts=st.floats(1.0, 150.0))
def test_table_assignment_matches_oracle(occupant_list, objective,
                                         tdp_watts):
    alloc = build_allocator(occupant_list, objective, tdp_watts)
    got = assign(alloc)
    assert got == REFERENCE[objective](alloc)
    assert all(isinstance(f, float) for f in got)
    # A later miss reuses the cached batch/idle rows but must rebuild
    # LC rows from the request now in service.
    for core in alloc.cores:
        if core.current is not None:
            req = core.current
            core.current = Request(
                rid=req.rid, arrival_time=0.0,
                compute_cycles=2.0 * req.compute_cycles + 1e3,
                memory_time_s=0.5 * req.memory_time_s)
    assert assign(alloc) == REFERENCE[objective](alloc)

