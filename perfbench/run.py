"""Regeneration benchmark: what a user of ``python -m repro.experiments``
waits for, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uniproc_cold --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload coloc_cold --trace 1
    python3 perfbench/run.py                # every workload in turn
    python3 perfbench/run.py --self-test

``--trace 0`` runs the workload's closed loop of untraced passes for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs an
untraced pool pass, an untraced serial pass and a traced serial pass
and prints the per-layer metrics, the tracing overhead and the pool
efficiency. Workloads, sizes and metric meanings are in ``spec.py``.
Every line but the last is for people; the last line of standard output
(of each workload) is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.
``attempted``/``failed`` count experiment cells; ``failed`` counts the
cells that raised plus every cell of a driver whose report failed the
output check.

Output check: with ``--seed 0`` (the CLI's configured seeds) every
driver's report must hash to the digest stored in ``digests.json``.
With any seed, every pass of a run must produce the same reports, a
cold pass replayed from its own store must reproduce them, and the
traced run's serial and pool passes must agree. ``--seed S`` shifts
every driver's configured seed by ``S``; the drivers see it only as
their ``run_*`` seed keywords (the hard-coded seed of the Fig. 1b and
Fig. 2b panels stays).

Results are refused (exit 3) while ``repro.lint.lint_paths()`` reports
findings. Per-run details (provenance: native build info, decision
path, nproc, processes, numpy version; per-pass numbers) and the span
file of a traced run land in ``.perfbench_out/``; temporary stores live
in ``.perfbench_tmp/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spec  # noqa: E402

#: Environment variables a run must not inherit (fault injection,
#: cache and worker-count overrides).
UNSET_ENV = ("REPRO_FAULT_PLAN", "REPRO_ARTIFACT_CACHE", "REPRO_MAX_WORKERS",
             "REPRO_ARTIFACT_DIR")

#: Every run ends well inside three minutes.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not measure (a pass process crashed or ran
    out of time); no result is printed."""


def child_env(store: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_ARTIFACT_DIR"] = str(store)
    return env


def spawn(mode: str, wl: spec.Workload, num_requests: int, seed: int,
          processes: int, deadline: float, trace: bool = False,
          spans_out: Optional[Path] = None) -> Tuple[Dict[str, Any], float]:
    """Run ``child.py`` in a fresh process against a fresh store;
    returns its result and its wall time (spawn to exit)."""
    TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP_DIR))
    out = work / "result.json"
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--drivers", ",".join(wl.drivers),
           "--num-requests", str(num_requests), "--seed", str(seed),
           "--processes", str(processes), "--trace", str(int(trace)),
           "--spawn", repr(start), "--out", str(out)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, env=child_env(work / "store"),
                              cwd=str(ROOT), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - start))
        wall = time.monotonic() - start
        if proc.returncode != 0 or not out.is_file():
            raise BenchError(f"{mode} pass of {wl.name} exited with "
                             f"status {proc.returncode}")
        with open(out) as fh:
            return json.load(fh), wall
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {wl.name} ran past the "
                         "run deadline") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_digests() -> Dict[str, str]:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)["digests"]


class Check:
    """Output check over every pass of a run: cells attempted and
    failed, plus a reason for each failure."""

    def __init__(self, seed: int, num_requests: int) -> None:
        self.stored = load_digests() if seed == 0 else {}
        self.num_requests = num_requests
        self.reference: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests_checked = 0

    def bad(self, cells: int, why: str) -> None:
        self.failed += cells
        self.problems.append(why)

    def pass_(self, label: str, p: Dict[str, Any],
              drivers: Tuple[str, ...]) -> None:
        """One pass: no error, the warm replay equal to the cold pass,
        and each driver's report equal to the stored digest (seed 0) or
        else to the first pass of the run."""
        cells = p["cells_by_driver"]
        total = max(1, sum(cells.values()))
        self.attempted += total
        if p["error"] is not None:
            self.bad(total, f"{label}: {p['error']}")
            return
        if not p.get("warm_matches_cold", True):
            self.bad(total, f"{label}: the replay from the store differs "
                            "from the cold computation")
            return
        digests = p["digests"]
        if set(digests) != set(drivers):
            self.bad(total, f"{label}: drivers {sorted(digests)} != "
                            f"{sorted(drivers)}")
            return
        for name in drivers:
            want = self.stored.get(f"{name}@{self.num_requests}")
            if want is not None:
                self.digests_checked += 1
            elif self.reference is not None:
                want = self.reference[name]
            if want is not None and digests[name] != want:
                self.bad(cells.get(name, 1),
                         f"{label}: {name} report differs from the "
                         "expected output")
        if self.reference is None:
            self.reference = digests


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def rss_mb(r: Dict[str, Any]) -> float:
    """Peak RSS of a pass: its process or its largest pool worker."""
    return max(r["peak_rss_mb"].values())


def timed_run(wl: spec.Workload, num_requests: int, seed: int,
              seconds: float, deadline: float,
              ) -> Tuple[Dict[str, float], Check, Dict[str, Any]]:
    """The closed loop of untraced passes: end-to-end metrics.

    Another pass starts while the run's elapsed time plus the median
    pass so far stays within ``seconds`` (at least
    ``spec.MIN_COLD_PASSES``), so a run measures about ``seconds``
    whatever the machine's speed.
    """
    check = Check(seed, num_requests)
    results = []
    durations: List[float] = []
    start = time.monotonic()
    while True:
        r, wall = spawn("cold", wl, num_requests, seed,
                        spec.POOL_PROCESSES, deadline)
        results.append(r)
        durations.append(wall)
        check.pass_(f"pass {len(results) - 1}", r["pass"], wl.drivers)
        elapsed = time.monotonic() - start
        if check.failed or (
                len(results) >= spec.MIN_COLD_PASSES
                and elapsed + statistics.median(durations) > seconds):
            break
    setups = [r["setup_s"] for r in results] + [
        spawn("setup", wl, num_requests, seed, spec.POOL_PROCESSES,
              deadline)[0]["setup_s"]
        for _ in range(spec.EXTRA_SETUPS)]
    passes = [r["pass"] for r in results]
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_p90_s": p90(walls),
        "cells_per_s": statistics.median(
            (p["hits"] + p["misses"]) / p["wall_s"] for p in passes),
        "sim_requests_per_s": statistics.median(
            p["sim_requests"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(rss_mb(r) for r in results),
    }
    details = {
        "provenance": results[0]["provenance"],
        "passes": len(passes), "setup_samples": len(setups),
        "pass_walls_s": walls, "setups_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "cells_per_pass": passes[0]["hits"] + passes[0]["misses"],
        "sim_requests_per_pass": passes[0]["sim_requests"],
    }
    return metrics, check, details


def traced_run(wl: spec.Workload, num_requests: int, seed: int,
               deadline: float, spans_out: Path,
               ) -> Tuple[Dict[str, float], Check, Dict[str, Any]]:
    """An untraced pool pass, an untraced serial pass, then a traced
    serial pass: per-layer metrics, tracing overhead, pool efficiency."""
    check = Check(seed, num_requests)
    pool_r, _ = spawn("cold", wl, num_requests, seed, spec.POOL_PROCESSES,
                      deadline)
    serial_r, _ = spawn("cold", wl, num_requests, seed, 1, deadline)
    traced, _ = spawn("cold", wl, num_requests, seed, 1, deadline,
                      trace=True, spans_out=spans_out)
    for label, r in (("pool pass", pool_r), ("serial pass", serial_r),
                     ("traced pass", traced)):
        check.pass_(label, r["pass"], wl.drivers)
    pool_wall = pool_r["pass"]["wall_s"]
    serial_wall = serial_r["pass"]["wall_s"]
    pool = pool_r["pool"]
    build = traced["provenance"]["build_info"]
    m = dict(traced["layers"])
    m.update({
        "cells_failed_frac": check.failed / max(1, check.attempted),
        "store.bytes": traced["store_bytes"],
        "store.replay_wall_s": pool_r["pass"]["warm_wall_s"],
        "pool.pools_created": pool["pools_created"],
        "pool.workers": pool["workers"],
        "pool.map.calls": pool["map_calls"],
        "pool.map.wall_s": pool["map_wall_s"],
        "pool.efficiency": serial_wall / (pool_wall * spec.POOL_PROCESSES),
        "core.native.loaded": int(bool(build["loaded"])),
        "core.native.build_s": build["build_seconds"] or 0.0,
        "trace.serial_wall_s": serial_wall,
        "trace.pool_wall_s": pool_wall,
        "trace.overhead_frac": m["trace.traced_wall_s"] / serial_wall - 1.0,
    })
    details = {"provenance": traced["provenance"], "spans": str(spans_out)}
    return m, check, details


def run_workload(wl: spec.Workload, num_requests: int, seed: int,
                 seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the result object plus details."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{wl.name}-n{num_requests}-seed{seed}"
    if trace:
        metrics, check, details = traced_run(
            wl, num_requests, seed, deadline, OUT_DIR / f"spans-{tag}.json")
        units = spec.per_layer_units()
    else:
        metrics, check, details = timed_run(
            wl, num_requests, seed, seconds, deadline)
        units = spec.END_TO_END
    result = {
        "correct": check.failed == 0 and not check.problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    details.update({"workload": wl.name, "num_requests": num_requests,
                    "seed": seed, "trace": trace,
                    "problems": check.problems,
                    "digests_checked": check.digests_checked})
    with open(OUT_DIR / f"result-{tag}-trace{int(trace)}.json", "w") as fh:
        json.dump({"result": result, "details": details}, fh, indent=1)
    return {"result": result, "details": details}


def report_lines(run: Dict[str, Any]) -> List[str]:
    d, res = run["details"], run["result"]
    prov = d["provenance"]
    build = prov["build_info"]
    lines = [
        f"# {d['workload']} -n {d['num_requests']} seed {d['seed']} "
        f"trace {int(d['trace'])}: native loaded={build['loaded']} "
        f"decision path={prov['default_decision_path']} "
        f"nproc={prov['nproc']} processes={prov['processes']} "
        f"numpy={prov['numpy']}",
    ]
    if not d["trace"]:
        lines.append(f"# {d['passes']} passes, {d['setup_samples']} "
                     f"set-up samples, {d['cells_per_pass']} cells and "
                     f"{d['sim_requests_per_pass']} simulated requests "
                     "per pass")
    for name, m in res["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    frac = res["failed"] / max(1, res["attempted"])
    lines.append(f"cells_failed_frac = {frac:.6g} ({res['failed']} of "
                 f"{res['attempted']} cells)")
    for problem in d["problems"]:
        lines.append(f"# FAILED: {problem}")
    return lines


def lint_findings() -> List[str]:
    from repro.lint import lint_paths
    result = lint_paths()
    return [] if result.clean else [f.render() for f in result.findings]


def self_test() -> int:
    """Every workload at its tiny size, timed at seed 0 (stored digests)
    and traced at seed 1 (serial, pool and traced passes must agree):
    every metric printed with its unit, no failed cell, a well-formed
    span tree."""
    import spans
    failures: List[str] = []
    for wl in spec.WORKLOADS.values():
        n = wl.tiny_num_requests
        for trace, seed in ((False, 0), (True, 1)):
            run = run_workload(wl, n, seed, 0.0, trace)
            res = run["result"]
            for line in report_lines(run):
                print(line)
            units = spec.per_layer_units() if trace else spec.END_TO_END
            for name, unit in units.items():
                m = res["metrics"].get(name)
                if m is None or m["unit"] != unit \
                        or not isinstance(m["value"], (int, float)):
                    failures.append(f"{wl.name}: metric {name} missing "
                                    "or without its unit")
            if res["failed"] or not res["correct"]:
                failures.append(f"{wl.name} trace={trace}: "
                                f"{res['failed']} failed cells")
            if seed == 0 and run["details"]["digests_checked"] == 0:
                failures.append(f"{wl.name}: no stored digest at -n {n}")
            if not trace:
                continue
            with open(run["details"]["spans"]) as fh:
                tree = json.load(fh)["spans"]
            m = {k: v["value"] for k, v in res["metrics"].items()}
            traced_wall = m["trace.traced_wall_s"]
            overhead_s = traced_wall - m["trace.serial_wall_s"]
            problems = spans.check_span_tree(
                tree, traced_wall, max(overhead_s, 0.01 * traced_wall))
            failures += [f"{wl.name} spans: {p}" for p in problems[:5]]
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="default: every workload in turn, each "
                             "followed by its own result line")
    parser.add_argument("--seed", type=int, default=0,
                        help="shift of every driver's configured seed "
                             "(default 0: the CLI's seeds)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured time of one run (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size and "
                             "check the benchmark itself")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "experiments" / "runner.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for key in UNSET_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(SRC))
    findings = lint_findings()
    if findings:
        for line in findings:
            print(line, file=sys.stderr)
        print(f"perfbench: refusing to record results: {len(findings)} "
              "lint finding(s) (python -m repro.lint shows them)",
              file=sys.stderr)
        return 3
    try:
        if args.self_test:
            return self_test()
        names = [args.workload] if args.workload else list(spec.WORKLOADS)
        for name in names:
            wl = spec.WORKLOADS[name]
            run = run_workload(wl, wl.num_requests, args.seed, args.seconds,
                               bool(args.trace))
            for line in report_lines(run):
                print(line)
            print(json.dumps(run["result"]), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
