"""Simulator performance tracking: ``python -m repro.bench``.

Times the seed kernels under all four hardware configurations with the
stat-free simulator fast path and writes ``BENCH_simulator.json`` so the
performance trajectory of the cycle-accurate engine is tracked from PR
to PR.  ``--check`` compares a fresh run against a committed baseline
and fails on regression (used by the CI compiled-engine smoke job).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence

from ..compile import compile_function
from ..dataflow import ENGINES, make_simulator
from ..eval.configs import ALL_CONFIGS
from ..eval.runner import make_done_condition
from ..kernels import PAPER_KERNELS, get_kernel

#: Wall-clock of ``benchmarks/bench_table2_timing.py`` (single process,
#: reduced sizes) on the reference machine with the seed worklist engine
#: (today's interpreted ``reference`` engine), before any faster engine
#: landed.  New runs report their speedup against it.
PRE_OPT_TABLE2_SECONDS = 21.94

#: Reduced kernel sizes for ``--quick`` (mirrors benchmarks/conftest.py).
QUICK_SIZES: Dict[str, Dict[str, int]] = {
    "polyn_mult": {"n": 20},
    "2mm": {"n": 5},
    "3mm": {"n": 5},
    "gaussian": {"n": 8},
    "triangular": {"n": 24},
}

#: Allowed slow-down per point before ``--check`` fails.
REGRESSION_TOLERANCE = 0.25


def bench_point(kernel_name: str, config, sizes: Optional[Dict[str, int]],
                max_cycles: int = 2_000_000, engine: str = "auto") -> Dict:
    """Time one (kernel, config, engine) point with the stat-free path.

    The point records both the engine *requested* and the engine
    actually used — a compiled request that fell back to the interpreter
    must be visible in the JSON, not buried in an implausible throughput
    number.
    """
    kernel = get_kernel(kernel_name, **(sizes or {}))
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)
    sim = make_simulator(build.circuit, engine=engine, max_cycles=max_cycles)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    started = time.perf_counter()
    stats = sim.run(make_done_condition(build))
    wall = time.perf_counter() - started
    return {
        "kernel": kernel_name,
        "config": config.name,
        "engine": sim.engine_name,
        "engine_requested": engine,
        "wall_s": round(wall, 4),
        "cycles": stats.cycles,
        "cycles_per_sec": round(stats.cycles / wall) if wall > 0 else None,
        "propagate_calls": stats.propagate_calls,
        "propagate_calls_per_cycle": round(
            stats.propagate_calls / max(1, stats.cycles), 3
        ),
        "evals_per_sec": (
            round(stats.propagate_calls / wall) if wall > 0 else None
        ),
    }


def _bench_worker(args):
    return bench_point(*args)


def run_bench(quick: bool = True, jobs: int = 1,
              kernels: Optional[Sequence[str]] = None,
              configs: Optional[Sequence[str]] = None,
              engines: Optional[Sequence[str]] = None) -> Dict:
    """Run the full grid; returns the BENCH_simulator.json payload.

    ``configs`` filters the hardware-configuration axis by name (e.g.
    ``["prevv16", "prevv64"]``).  ``engines`` adds an engine axis: one
    point per engine per (kernel, config), so cross-engine comparisons
    live in one report.
    """
    knames = list(kernels or PAPER_KERNELS)
    grid_configs = ALL_CONFIGS
    if configs is not None:
        known = {c.name: c for c in ALL_CONFIGS}
        unknown = [name for name in configs if name not in known]
        if unknown:
            raise ValueError(
                f"unknown config(s) {unknown}; choose from {sorted(known)}"
            )
        grid_configs = [known[name] for name in configs]
    engine_axis = list(engines or ("auto",))
    bad = [e for e in engine_axis if e not in ENGINES]
    if bad:
        raise ValueError(f"unknown engine(s) {bad}; choose from {ENGINES}")
    work = [
        (kname, cfg, QUICK_SIZES.get(kname) if quick else None,
         2_000_000, eng)
        for kname in knames
        for cfg in grid_configs
        for eng in engine_axis
    ]
    started = time.perf_counter()
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            points: List[Dict] = list(pool.map(_bench_worker, work))
    else:
        points = [_bench_worker(w) for w in work]
    total = time.perf_counter() - started
    serial = round(sum(p["wall_s"] for p in points), 3)
    return {
        "bench": "simulator",
        "quick": quick,
        "jobs": jobs,
        "configs": [c.name for c in grid_configs],
        "engines": engine_axis,
        "total_wall_s": round(total, 3),
        "serial_wall_s": serial,
        "pre_opt_table2_s": PRE_OPT_TABLE2_SECONDS,
        "points": points,
    }


# ----------------------------------------------------------------------
# Sanitizer sweep: ``python -m repro.bench --sanitize``
# ----------------------------------------------------------------------
#: Default configuration axis for the sanitizer sweep: both baselines
#: from the paper's evaluation, plus a depth-1 premature queue, which
#: maximizes the squash rate (every conflicting pair collides
#: immediately) and therefore stresses the replay/retraction protocol.
SANITIZE_CONFIG_NAMES = ("dynamatic", "prevv16", "prevv64", "prevv1")


def _sanitize_config(name: str):
    from ..eval.configs import BY_NAME, prevv_with_depth

    if name in BY_NAME:
        return BY_NAME[name]
    if name.startswith("prevv") and name[5:].isdigit():
        return prevv_with_depth(int(name[5:]))
    raise ValueError(
        f"unknown sanitize config {name!r}; choose from "
        f"{sorted(BY_NAME)} or prevv<depth>"
    )


def _sanitize_worker(args):
    kname, config, sizes, max_cycles = args
    from ..analysis.sanitizer import sanitize_run

    kernel = get_kernel(kname, **(sizes or {}))
    result = sanitize_run(kernel, config, max_cycles=max_cycles)
    return {
        "kernel": kname,
        "config": config.name,
        "engine": result.engine,
        "cycles": result.cycles,
        "checks": result.checks,
        "completed": result.completed,
        "verified": result.verified,
        "ok": result.ok,
        "errors": [d.format() for d in result.report.errors],
        "warnings": len(result.report.warnings),
    }


def run_sanitize_sweep(quick: bool = True, jobs: int = 1,
                       kernels: Optional[Sequence[str]] = None,
                       configs: Optional[Sequence[str]] = None,
                       max_cycles: int = 2_000_000) -> Dict:
    """Run every (kernel, config) point under the PVSan oracle.

    The sweep is the dynamic half of the repo's correctness gate: each
    point replays the interpreter's program order alongside the cycle
    simulation and fails on any missed violation, spurious squash,
    fake-token disagreement or final-memory divergence.  Unlike the
    timing grid it covers *every* registered kernel, not just the
    paper's evaluation set — correctness has no reason to sample.
    """
    from ..kernels import kernel_names

    knames = list(kernels or kernel_names())
    grid_configs = [
        _sanitize_config(name)
        for name in (configs or SANITIZE_CONFIG_NAMES)
    ]
    work = [
        (kname, cfg, QUICK_SIZES.get(kname) if quick else None, max_cycles)
        for kname in knames
        for cfg in grid_configs
    ]
    started = time.perf_counter()
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            points: List[Dict] = list(pool.map(_sanitize_worker, work))
    else:
        points = [_sanitize_worker(w) for w in work]
    failures = [p for p in points if not (p["ok"] and p["verified"])]
    return {
        "bench": "sanitize",
        "quick": quick,
        "configs": [c.name for c in grid_configs],
        "total_wall_s": round(time.perf_counter() - started, 3),
        "points": points,
        "failures": len(failures),
    }


# ----------------------------------------------------------------------
# PVPerf cross-validation sweep: ``python -m repro.bench --perf``
# ----------------------------------------------------------------------
#: Configuration axis for the perf sweep: the paper's full evaluation
#: grid, so every static bound is exercised against both baselines and
#: both PreVV depths.
PERF_CONFIG_NAMES = ("dynamatic", "fast_lsq", "prevv16", "prevv64")


def _perf_worker(args):
    kname, config, sizes, max_cycles = args
    from ..analysis.perf import compare, measure_kernel

    prediction, measurement = measure_kernel(
        kname, config, sizes=sizes, max_cycles=max_cycles
    )
    checks = [rec.to_dict() for rec in compare(prediction, measurement)]
    ii = prediction.ii_lower_bound
    return {
        "kernel": kname,
        "config": config.name,
        "cycles": measurement.cycles,
        "ii_lower_bound": None if ii is None else str(ii),
        "critical_cycle": (
            None
            if prediction.cycle is None
            else {
                "ratio": (
                    None
                    if prediction.cycle.ratio is None
                    else str(prediction.cycle.ratio)
                ),
                "latency": prediction.cycle.latency,
                "capacity": prediction.cycle.capacity,
                "channels": [
                    ch.name
                    for ch in prediction.graph.cycle_channels(prediction.cycle)
                ],
            }
        ),
        "checks": checks,
        "divergences": sum(1 for c in checks if not c["ok"]),
    }


def run_perf_sweep(quick: bool = True, jobs: int = 1,
                   kernels: Optional[Sequence[str]] = None,
                   configs: Optional[Sequence[str]] = None,
                   max_cycles: int = 2_000_000) -> Dict:
    """Cross-validate the PVPerf static bounds over the full grid.

    Every point pairs each static lower bound with the quantity it
    constrains (critical-cycle firings, validation work, loop floors —
    see :func:`repro.analysis.perf.measure.compare`) and counts
    divergences.  A nonzero divergence count means the *static model*
    is unsound — the same condition PV404 raises — so the sweep is the
    dynamic regression gate for every ``perf_model`` in the component
    library.  Covers every registered kernel: soundness has no reason
    to sample.
    """
    from ..kernels import kernel_names

    knames = list(kernels or kernel_names())
    grid_configs = [
        _sanitize_config(name) for name in (configs or PERF_CONFIG_NAMES)
    ]
    work = [
        (kname, cfg, QUICK_SIZES.get(kname) if quick else None, max_cycles)
        for kname in knames
        for cfg in grid_configs
    ]
    started = time.perf_counter()
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            points: List[Dict] = list(pool.map(_perf_worker, work))
    else:
        points = [_perf_worker(w) for w in work]
    divergences = sum(p["divergences"] for p in points)
    return {
        "bench": "perf",
        "quick": quick,
        "configs": [c.name for c in grid_configs],
        "total_wall_s": round(time.perf_counter() - started, 3),
        "points": points,
        "divergences": divergences,
    }


# ----------------------------------------------------------------------
# PVBound occupancy sweep: ``python -m repro.bench --occupancy``
# ----------------------------------------------------------------------
#: Configuration axis for the occupancy sweep: the paper's grid plus the
#: shallow prevv4 point, where the cross-phase full-queue escapes are
#: actually exercised and the policy model earns its keep.
OCCUPANCY_CONFIG_NAMES = (
    "dynamatic", "fast_lsq", "prevv16", "prevv64", "prevv4",
)


def _occupancy_worker(args):
    kname, config, sizes, max_cycles = args
    from ..analysis.occupancy import compare, measure_kernel

    prediction, measurement = measure_kernel(
        kname, config, sizes=sizes, max_cycles=max_cycles
    )
    checks = [rec.to_dict() for rec in compare(prediction, measurement)]
    return {
        "kernel": kname,
        "config": config.name,
        "engine": measurement.engine,
        "cycles": measurement.cycles,
        "places": len(prediction.bounds),
        "unbounded": sum(
            1 for b in prediction.bounds.values() if b is None
        ),
        "overflow_units": prediction.overflow_units,
        "stalls": [s.unit for s in prediction.stalls],
        "checks": checks,
        "divergences": sum(1 for c in checks if not c["ok"]),
    }


def run_occupancy_sweep(quick: bool = True, jobs: int = 1,
                        kernels: Optional[Sequence[str]] = None,
                        configs: Optional[Sequence[str]] = None,
                        max_cycles: int = 2_000_000) -> Dict:
    """Cross-validate the PVBound occupancy bounds over the full grid.

    Every point pairs each static occupancy upper bound with the peak
    the sampled run actually reached and counts divergences — a nonzero
    count means the transfer function is unsound (the PV504 condition).
    A statically reachable overflow or retirement stall (PV502/PV503)
    also fails the sweep: the committed kernels are all supposed to be
    proven safe.  Covers every registered kernel: soundness has no
    reason to sample.
    """
    from ..kernels import kernel_names

    knames = list(kernels or kernel_names())
    grid_configs = [
        _sanitize_config(name)
        for name in (configs or OCCUPANCY_CONFIG_NAMES)
    ]
    work = [
        (kname, cfg, QUICK_SIZES.get(kname) if quick else None, max_cycles)
        for kname in knames
        for cfg in grid_configs
    ]
    started = time.perf_counter()
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            points: List[Dict] = list(pool.map(_occupancy_worker, work))
    else:
        points = [_occupancy_worker(w) for w in work]
    divergences = sum(p["divergences"] for p in points)
    unsafe = sum(
        1 for p in points if p["overflow_units"] or p["stalls"]
    )
    return {
        "bench": "occupancy",
        "quick": quick,
        "configs": [c.name for c in grid_configs],
        "total_wall_s": round(time.perf_counter() - started, 3),
        "points": points,
        "divergences": divergences,
        "unsafe_points": unsafe,
    }


def time_table2(quick: bool = True) -> Dict:
    """Time a full single-process ``table2`` run (compile + simulate).

    This is the exact workload of ``benchmarks/bench_table2_timing.py``
    and therefore directly comparable to :data:`PRE_OPT_TABLE2_SECONDS`.
    """
    from ..eval import tables as tables_mod

    original = tables_mod.get_kernel
    if quick:
        def sized(name, **kw):
            merged = dict(QUICK_SIZES.get(name, {}))
            merged.update(kw)
            return original(name, **merged)

        tables_mod.get_kernel = sized
    try:
        started = time.perf_counter()
        tables_mod.table2()
        wall = time.perf_counter() - started
    finally:
        tables_mod.get_kernel = original
    return {
        "table2_wall_s": round(wall, 3),
        "table2_speedup_vs_pre_opt": (
            round(PRE_OPT_TABLE2_SECONDS / wall, 2) if quick and wall > 0
            else None
        ),
    }


def check_against_baseline(result: Dict, baseline: Dict,
                           tolerance: float = REGRESSION_TOLERANCE):
    """Compare a fresh run to a committed baseline; returns error strings.

    Points are keyed per engine actually used.  Cycle counts must match
    exactly (the engines are meant to be bit-identical); per-cycle
    evaluation effort may not regress by more than ``tolerance``.  Raw
    wall-clock is *not* compared — CI machines vary too much —
    ``propagate_calls_per_cycle`` is the stable proxy.  A point with no
    baseline row for its engine is an error too: skipping it would let
    a check that compares nothing report "no regression".
    """
    errors: List[str] = []
    base_points = {
        (p["kernel"], p["config"], p["engine"]): p
        for p in baseline.get("points", [])
    }
    for point in result["points"]:
        key = (point["kernel"], point["config"], point["engine"])
        tag = "/".join(key)
        base = base_points.get(key)
        if base is None:
            errors.append(f"{tag}: no baseline point for this engine")
            continue
        if point["cycles"] != base["cycles"]:
            errors.append(
                f"{tag}: cycles {point['cycles']} != baseline "
                f"{base['cycles']}"
            )
        limit = base["propagate_calls_per_cycle"] * (1.0 + tolerance)
        if point["propagate_calls_per_cycle"] > limit:
            errors.append(
                f"{tag}: propagate_calls/cycle "
                f"{point['propagate_calls_per_cycle']} > "
                f"{limit:.3f} (baseline {base['propagate_calls_per_cycle']} "
                f"+{tolerance:.0%})"
            )
    return errors


def dump_emitted_source(path: str,
                        kernel_name: Optional[str] = None,
                        configs: Optional[Sequence[str]] = None,
                        quick: bool = True) -> None:
    """Write the compiled engine's generated step source to ``path``.

    Defaults to the first kernel of the bench grid under the first
    selected config — the CI smoke job uploads this as a build artifact
    so a compiled-engine failure can be debugged from the emitted code
    alone.
    """
    from ..dataflow import emitted_source

    kname = kernel_name or PAPER_KERNELS[0]
    cfg_name = (configs or [ALL_CONFIGS[0].name])[0]
    config = next(c for c in ALL_CONFIGS if c.name == cfg_name)
    sizes = QUICK_SIZES.get(kname) if quick else None
    kernel = get_kernel(kname, **(sizes or {}))
    build = compile_function(kernel.build_ir(), config, args=kernel.args)
    with open(path, "w") as handle:
        handle.write(emitted_source(build.circuit))


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the simulator over the kernel x config grid.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced kernel sizes (CI smoke run)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the grid")
    parser.add_argument("--out", default="BENCH_simulator.json",
                        help="output JSON path")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a baseline JSON; non-zero "
                        "exit on cycle mismatch or >25%% effort regression")
    parser.add_argument("--table2", action="store_true",
                        help="also time a full single-process table2 run "
                        "(the pre-opt baseline's exact workload)")
    parser.add_argument("--configs", metavar="NAMES",
                        help="comma-separated config names to bench "
                        "(e.g. prevv16,prevv64); default: all")
    parser.add_argument("--engine", metavar="NAMES", default="auto",
                        help="comma-separated engine axis (one bench "
                        "point per engine): auto, compiled, reference; "
                        "default: auto")
    parser.add_argument("--dump-source", metavar="PATH",
                        help="write the compiled engine's emitted step "
                        "source for the first (kernel, config) point to "
                        "PATH (debug artifact)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run the PVSan oracle sweep instead of the "
                        "timing grid; non-zero exit on any oracle "
                        "mismatch or memory divergence")
    parser.add_argument("--perf", action="store_true",
                        help="run the PVPerf cross-validation sweep "
                        "instead of the timing grid; non-zero exit when "
                        "any static II bound exceeds its measured "
                        "counterpart")
    parser.add_argument("--occupancy", action="store_true",
                        help="run the PVBound occupancy sweep instead "
                        "of the timing grid; non-zero exit when any "
                        "measured peak escapes its static bound (PV504) "
                        "or a committed kernel is statically unsafe "
                        "(PV502/PV503)")
    opts = parser.parse_args(argv)

    configs = opts.configs.split(",") if opts.configs else None
    if opts.occupancy:
        result = run_occupancy_sweep(quick=opts.quick, jobs=opts.jobs,
                                     kernels=None, configs=configs)
        out = opts.out
        if out == "BENCH_simulator.json":
            out = "BENCH_occupancy.json"
        with open(out, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        for point in result["points"]:
            unsafe = point["overflow_units"] or point["stalls"]
            status = "ok"
            if point["divergences"]:
                status = "DIVERGED"
            elif unsafe:
                status = "UNSAFE"
            print(
                f"{point['kernel']:12s} {point['config']:10s} "
                f"{point['engine']:9s} "
                f"{point['cycles']:>8d} cyc  {point['places']:>4d} places "
                f"({point['unbounded']} unbounded)  "
                f"{len(point['checks'])} checks  {status}"
            )
            for check in point["checks"]:
                if not check["ok"]:
                    print(
                        f"    DIVERGENCE {check['kind']}: static "
                        f"{check['static']} < measured {check['measured']} "
                        f"({check['subject']})"
                    )
            for unit in point["overflow_units"]:
                print(f"    UNSAFE overflow reachable: {unit}")
            for unit in point["stalls"]:
                print(f"    UNSAFE retirement stall: {unit}")
        print(
            f"occupancy sweep: {len(result['points'])} points, "
            f"{result['divergences']} divergence(s), "
            f"{result['unsafe_points']} unsafe point(s) in "
            f"{result['total_wall_s']:.2f}s; wrote {out}"
        )
        return 1 if result["divergences"] or result["unsafe_points"] else 0
    if opts.perf:
        result = run_perf_sweep(quick=opts.quick, jobs=opts.jobs,
                                kernels=None, configs=configs)
        out = opts.out
        if out == "BENCH_simulator.json":
            out = "BENCH_perf.json"
        with open(out, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        for point in result["points"]:
            status = "ok" if point["divergences"] == 0 else "DIVERGED"
            cyc = point["critical_cycle"]
            ratio = cyc["ratio"] if cyc is not None else "-"
            print(
                f"{point['kernel']:12s} {point['config']:10s} "
                f"{point['cycles']:>8d} cyc  ii_lb={point['ii_lower_bound']:<5s} "
                f"mcr={ratio:<5s} {len(point['checks'])} checks  {status}"
            )
            for check in point["checks"]:
                if not check["ok"]:
                    print(
                        f"    DIVERGENCE {check['kind']}: static "
                        f"{check['static']} > measured {check['measured']} "
                        f"({check['subject']})"
                    )
        print(
            f"perf sweep: {len(result['points'])} points, "
            f"{result['divergences']} divergence(s) in "
            f"{result['total_wall_s']:.2f}s; wrote {out}"
        )
        return 1 if result["divergences"] else 0
    if opts.sanitize:
        result = run_sanitize_sweep(quick=opts.quick, jobs=opts.jobs,
                                    kernels=None, configs=configs)
        out = opts.out
        if out == "BENCH_simulator.json":
            out = "BENCH_sanitize.json"
        with open(out, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        for point in result["points"]:
            status = "ok" if point["ok"] and point["verified"] else "FAIL"
            print(
                f"{point['kernel']:12s} {point['config']:10s} "
                f"{point['engine']:9s} "
                f"{point['cycles']:>8d} cyc  {point['checks']:>8d} checks  "
                f"{status}"
            )
            for err in point["errors"][:5]:
                print(f"    {err}")
        print(
            f"sanitize sweep: {len(result['points'])} points, "
            f"{result['failures']} failure(s) in "
            f"{result['total_wall_s']:.2f}s; wrote {out}"
        )
        return 1 if result["failures"] else 0
    engines = [e.strip() for e in opts.engine.split(",") if e.strip()]
    result = run_bench(quick=opts.quick, jobs=opts.jobs,
                       configs=configs, engines=engines)
    if opts.table2:
        result.update(time_table2(quick=opts.quick))
    with open(opts.out, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    if opts.dump_source:
        dump_emitted_source(opts.dump_source, configs=configs,
                            quick=opts.quick)
        print(f"wrote emitted step source to {opts.dump_source}")
    for point in result["points"]:
        print(
            f"{point['kernel']:12s} {point['config']:10s} "
            f"{point['engine']:11s} "
            f"{point['wall_s']:8.3f}s  {point['cycles']:>8d} cyc  "
            f"{point['cycles_per_sec']:>8d} cyc/s  "
            f"{point['propagate_calls_per_cycle']:>8.3f} evals/cyc"
        )
    line = (
        f"total {result['total_wall_s']:.2f}s "
        f"(serial {result['serial_wall_s']:.2f}s)"
    )
    if result.get("table2_wall_s") is not None:
        line += f"; table2 {result['table2_wall_s']:.2f}s"
        if result.get("table2_speedup_vs_pre_opt") is not None:
            line += (
                f" = {result['table2_speedup_vs_pre_opt']:.2f}x vs pre-opt "
                f"{PRE_OPT_TABLE2_SECONDS:.2f}s"
            )
    print(line + f"; wrote {opts.out}")
    if opts.check:
        with open(opts.check) as handle:
            baseline = json.load(handle)
        errors = check_against_baseline(result, baseline)
        if errors:
            for err in errors:
                print("REGRESSION:", err)
            print(
                f"{len(errors)} error(s) over {len(result['points'])} "
                f"point(s) vs {opts.check}"
            )
            return 1
        print(
            f"compared {len(result['points'])} point(s): "
            f"no regression vs {opts.check}"
        )
    return 0
