"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``
(pure Python, nothing to build).

``--trace 0`` runs passes of the workload (fresh seeded inputs in each)
for ``--seconds`` with tracing off and reports the end-to-end metrics.
``--trace 1`` runs each of the workload's first ``MIN_PASSES`` passes
twice, untraced and then traced, checks that both computed exactly the
same thing, and reports the per-layer metrics plus the tracing overhead; the spans are written to
``perfbench/out/trace_<workload>_s<seed>.json`` (Chrome trace-event
format).

Host times are normalized to a reference host speed (see
``hostclock.py``); the raw wall-clock value is printed beside each.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when ``correct`` is true.  See README.md for the
meaning, unit and direction of every metric.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: host-speed sampler; runs from the start of :func:`main`
CLOCK = HostClock()

#: configs the per-layer metrics are split by
CONFIGS = ("dynamatic", "fast_lsq", "prevv16", "prevv64")
PREVV_CONFIGS = ("prevv16", "prevv64")
LSQ_CONFIGS = ("dynamatic", "fast_lsq")
#: percentiles the tail latency may be reported at
TAIL_PERCENTILES = (99, 95, 90, 75)
#: set-up is measured this many times per run (this process + children)
SETUP_SAMPLES = 3
#: (metric, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"), ("run_ms_tail", "ms"),
    ("sim_cycles_per_s", "cycles/s"), ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
)
PAPER_METRICS = (
    ("table2_cycle_err_pct", "%"), ("prevv64_exec_vs_fastlsq_pct", "%"),
    ("prevv16_lut_vs_fastlsq_pct", "%"),
)
PREVV_COUNTERS = ("squashes", "squashed_iterations", "benign_reorders",
                  "fake_tokens", "queue_full_stalls")
ANALYSIS_LAYERS = ("ir", "circuit", "prevv", "sanitize", "perf", "occupancy")


def per_layer_units():
    """(metric, unit) of every per-layer metric, in print order."""
    out = [("trace.overhead_s", "s"), ("trace.overhead_pct", "%")]
    out += [("ir.build_s", "s"), ("ir.golden_s", "s"),
            ("compile.elaborate_s", "s"), ("compile.components", "count"),
            ("compile.channels", "count"), ("codegen.plan_s", "s"),
            ("codegen.plan_misses", "count"), ("codegen.plan_hits", "count"),
            ("dataflow.bind_s", "s"), ("dataflow.simulate_s", "s"),
            ("dataflow.cycles_per_s", "cycles/s"),
            ("dataflow.transfers_per_cycle", "1/cycle"),
            ("dataflow.engine_fallbacks", "count")]
    out += [(f"dataflow.simulate_s.{c}", "s") for c in CONFIGS]
    out += [(f"dataflow.cycles.{c}", "cycles") for c in CONFIGS]
    out += [("eval.verify_s", "s")]
    out += [(f"eval.{m}", u) for m, u in PAPER_METRICS]
    for c in PREVV_CONFIGS:
        out += [(f"prevv.{m}.{c}", "count") for m in PREVV_COUNTERS]
        out += [(f"prevv.replay_frac.{c}", "ratio"),
                (f"prevv.queue_max_occupancy.{c}", "count")]
    out += [(f"lsq.alloc_stalls.{c}", "count") for c in LSQ_CONFIGS]
    out += [("area.estimate_s", "s")]
    out += [(f"area.clock_period_ns.{c}", "ns") for c in CONFIGS]
    out += [(f"area.luts.{c}", "count") for c in CONFIGS]
    out += [(f"analysis.{layer}_s", "s") for layer in ANALYSIS_LAYERS]
    out += [("analysis.measured_s", "s"), ("analysis.errors", "count"),
            ("analysis.warnings", "count"), ("analysis.infos", "count")]
    out += [("fuzz.lower_s", "s")]
    return out


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def tail_percentile(calls: int) -> int:
    """Highest listed percentile with at least 10 of ``calls`` samples
    beyond it (50 when none has)."""
    for q in TAIL_PERCENTILES:
        if calls - math.ceil(q * calls / 100) >= 10:
            return q
    return 50


def nearest_rank(values, q: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def central_median(values) -> float:
    """Mean of the values from the 40th to the 60th percentile.

    The calls of a pass form clusters (one per structure and config), so
    the plain median often falls in the gap between two clusters and
    jumps from one to the other between runs; this band average moves
    smoothly instead."""
    ordered = sorted(values)
    lo = int(0.4 * (len(ordered) - 1))
    hi = math.ceil(0.6 * (len(ordered) - 1))
    band = ordered[lo:hi + 1]
    return sum(band) / len(band)


def setup_sample(workload: str, seed: int) -> float:
    """Normalized set-up time of a fresh process (imports, inputs,
    warm-up)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Pass:
    """One pass: its stamps, its recorder and its fingerprint."""

    def __init__(self, start, end, rec, prints):
        self.start, self.end, self.rec, self.prints = start, end, rec, prints


def run_passes(wl, seconds: float, traced: bool):
    """Untraced: a list of :class:`Pass` for passes 0, 1, ... until
    ``seconds`` (normalized) have passed and at least ``wl.MIN_PASSES``
    are done.  Traced: exactly ``wl.MIN_PASSES`` pairs ``(untraced Pass,
    traced Pass)`` of one index each, so every count is a function of
    the seed alone."""
    from spans import Recorder

    def one(index, traced_pass):
        wl.prepare(index)
        rec = Recorder(traced=traced_pass)
        start = time.perf_counter()
        if traced_pass:
            with rec.instrument():
                prints = wl.run_pass(rec)
        else:
            prints = wl.run_pass(rec)
        return Pass(start, time.perf_counter(), rec, prints)

    if traced:
        return [(one(i, False), one(i, True)) for i in range(wl.MIN_PASSES)]
    out = []
    started = time.perf_counter()
    while (len(out) < wl.MIN_PASSES
           or CLOCK.norm(started, time.perf_counter()) < seconds):
        out.append(one(len(out), False))
    return out


def failures(recs):
    calls = [c for rec in recs for c in rec.calls]
    bad = [c for c in calls if not c.facts["ok"]]
    for c in bad[:5]:
        print(f"  failed: {c.label}[{c.config}] {c.error or 'not verified'}",
              file=sys.stderr)
    return len(calls), len(bad)


# ----------------------------------------------------------------------
# End-to-end run (tracing off)
# ----------------------------------------------------------------------
def end_to_end(passes, duration, q: int):
    """The timed end-to-end metrics; ``duration(a, b)`` gives seconds.

    Latencies are those of the successful calls: failures are counted
    in ``failed``, and on ``fuzz_stream`` the cycle-capped ones would
    otherwise sit exactly at the tail percentile."""
    calls = [c for p in passes for c in p.rec.calls]
    times = [duration(c.start, c.end) for c in calls if c.facts["ok"]]
    walls = [duration(p.start, p.end) for p in passes]
    return {
        "wall_s": statistics.mean(walls),
        "runs_per_s": sum(c.facts["ok"] for c in calls) / sum(walls),
        "run_ms_p50": 1000 * central_median(times),
        "run_ms_tail": 1000 * (central_median(times) if q == 50
                               else nearest_rank(times, q)),
        "sim_cycles_per_s": sum(c.facts["cycles"] for c in calls) / sum(walls),
    }


def untraced(wl, args, setup_s: float):
    passes = run_passes(wl, args.seconds, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recs = [p.rec for p in passes]
    setups = [setup_s] + [setup_sample(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    q = tail_percentile(sum(c.facts["ok"] for rec in recs[:wl.MIN_PASSES]
                            for c in rec.calls))
    attempted, failed = failures(recs)
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(end_to_end(passes, CLOCK.norm, q))
    metrics["sim_cycles"] = sum(c.facts["cycles"]
                                for rec in recs[:wl.MIN_PASSES]
                                for c in rec.calls)
    metrics["peak_rss_mb"] = peak_rss_mb
    raw = end_to_end(passes, lambda a, b: b - a, q)

    units = dict(END_TO_END)
    n_ok = attempted - failed
    print(f"workload {wl.name} seed {args.seed}: {len(passes)} pass(es),"
          f" {attempted} calls, {failed} failed; host speed"
          f" {CLOCK.factor(passes[0].start, passes[-1].end):.3f}"
          " of nominal")
    print(f"  {'metric':<30}{'value':>14} {'unit':<9}{'raw wall-clock':>16}")
    for name, unit in END_TO_END:
        note = f"{raw[name]:>16.6g}" if name in raw else " " * 16
        if name == "run_ms_tail":
            note += f"  (p{q} of n={n_ok} successful calls)"
        if name == "setup_s":
            note += f"  (median of {len(setups)} processes)"
        print(f"  {name:<30}{metrics[name]:>14.6g} {unit:<9}{note}")
    print(f"  {'fail_frac':<30}{failed / attempted:>14.6g} ratio")
    if hasattr(wl, "paper_metrics"):
        for name, value in wl.paper_metrics().items():
            print(f"  {name:<30}{value:>14.6g} %")
    return {
        "correct": not (wl.fatal_failures and failed),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k, _ in END_TO_END},
    }


# ----------------------------------------------------------------------
# Per-layer run (tracing on)
# ----------------------------------------------------------------------
SPAN_METRICS = {
    "ir.build": "ir.build_s", "ir.golden": "ir.golden_s",
    "compile.elaborate": "compile.elaborate_s",
    "codegen.plan": "codegen.plan_s", "dataflow.bind": "dataflow.bind_s",
    "dataflow.simulate": "dataflow.simulate_s",
    "eval.verify": "eval.verify_s", "area.estimate": "area.estimate_s",
    "fuzz.lower": "fuzz.lower_s",
}


def layer_metrics(wl, pairs):
    """Per-layer metrics, each a per-pass mean over the traced passes."""
    from repro.analysis.lint.registry import LAYERS, passes_for_layer

    n = len(pairs)
    m = {name: 0.0 for name, _ in per_layer_units()}
    plain = [CLOCK.norm(u.start, u.end) for u, _ in pairs]
    extra = [CLOCK.norm(t.start, t.end) - p for (_, t), p in zip(pairs, plain)]
    m["trace.overhead_s"] = statistics.mean(extra)
    m["trace.overhead_pct"] = 100 * sum(extra) / sum(plain)

    layer_of = {p.name: layer for layer in LAYERS
                for p in passes_for_layer(layer)}
    cycles = transfers = 0
    golden_iters = {c: 0 for c in PREVV_CONFIGS}
    for _, traced_pass in pairs:
        rec = traced_pass.rec
        for name, seconds in rec.self_times(CLOCK.norm).items():
            if name in SPAN_METRICS:
                m[SPAN_METRICS[name]] += seconds / n
        by_config = rec.self_times(CLOCK.norm, by_config=True)
        for (name, cfg), seconds in by_config.items():
            if name == "dataflow.simulate" and cfg in CONFIGS:
                m[f"dataflow.simulate_s.{cfg}"] += seconds / n
        for name, start, end, _, _ in rec.spans:
            if name == "analysis.measured":
                m["analysis.measured_s"] += CLOCK.norm(start, end) / n
        m["compile.components"] += rec.totals.get("components", 0) / n
        m["compile.channels"] += rec.totals.get("channels", 0) / n
        m["codegen.plan_hits"] += rec.plan_hits / n
        m["codegen.plan_misses"] += rec.plan_misses / n
        for call in rec.calls:
            cycles += call.facts["cycles"]
            result = call.result
            if call.label == "lint" and result is not None:
                # The program's own per-pass timings, normalized with the
                # host speed over the call.
                factor = CLOCK.factor(call.start, call.end)
                for pass_name, seconds in result.timings.items():
                    layer = layer_of.get(pass_name)
                    if layer is not None:
                        m[f"analysis.{layer}_s"] += seconds * factor / n
                m["analysis.errors"] += len(result.errors) / n
                m["analysis.warnings"] += len(result.warnings) / n
                m["analysis.infos"] += len(result.infos) / n
            if call.label != "run_kernel" or result is None:
                continue
            transfers += result.transfers
            cfg = call.config
            m["dataflow.engine_fallbacks"] += (result.engine != "compiled") / n
            if cfg in CONFIGS:
                m[f"dataflow.cycles.{cfg}"] += result.cycles / n
            if cfg in LSQ_CONFIGS:
                m[f"lsq.alloc_stalls.{cfg}"] += result.lsq_alloc_stalls / n
            if cfg in PREVV_CONFIGS:
                for counter in PREVV_COUNTERS:
                    m[f"prevv.{counter}.{cfg}"] += getattr(result, counter) / n
                key = f"prevv.queue_max_occupancy.{cfg}"
                m[key] = max(m[key], result.queue_max_occupancy)
                golden_iters[cfg] += call.facts.get("golden_iterations", 0)
    if m["dataflow.simulate_s"]:
        m["dataflow.cycles_per_s"] = cycles / (n * m["dataflow.simulate_s"])
    if cycles:
        m["dataflow.transfers_per_cycle"] = transfers / cycles
    for cfg in PREVV_CONFIGS:
        if golden_iters[cfg]:
            m[f"prevv.replay_frac.{cfg}"] = (
                m[f"prevv.squashed_iterations.{cfg}"] * n / golden_iters[cfg])
    if hasattr(wl, "paper_metrics"):
        m.update({f"eval.{k}": v for k, v in wl.paper_metrics().items()})
        m.update(wl.area_metrics())
    return m


def traced(wl, args):
    pairs = run_passes(wl, args.seconds, traced=True)
    mismatches = 0
    for plain, seen in pairs:
        if len(plain.prints) != len(seen.prints):
            mismatches += 1
        mismatches += sum(a != b for a, b in zip(plain.prints, seen.prints))
    if mismatches:
        print(f"error: {mismatches} traced call(s) computed something other"
              " than the untraced call", file=sys.stderr)
    attempted, failed = failures([p.rec for pair in pairs for p in pair])
    metrics = layer_metrics(wl, pairs)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{wl.name}_s{args.seed}.json")
    pairs[0][1].rec.write_chrome_trace(path)

    print(f"workload {wl.name} seed {args.seed}: {len(pairs)} traced"
          f" pass(es), {mismatches} mismatch(es); spans in {path}")
    selfs = {}
    for _, traced_pass in pairs:
        for name, seconds in traced_pass.rec.self_times(CLOCK.norm).items():
            selfs[name] = selfs.get(name, 0.0) + seconds / len(pairs)
    print("  self time per pass, by span (normalized s):")
    for name, seconds in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<30}{seconds:>12.4f}")
    units = dict(per_layer_units())
    for name, unit in per_layer_units():
        print(f"  {name:<36}{metrics[name]:>16.6g} {unit}")
    return {
        "correct": not mismatches and not (wl.fatal_failures and failed),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    CLOCK.start()
    started = time.perf_counter()  # set-up time is measured from here
    try:
        return _main(argv, started)
    finally:
        CLOCK.stop()


def _main(argv, started: float) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print {'setup_s': ...} and exit")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program is not here: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    wl.prepare(0)
    setup_s = CLOCK.norm(started, time.perf_counter())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = traced(wl, args) if args.trace else untraced(wl, args, setup_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
