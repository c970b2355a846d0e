"""PVBound: the PV5xx occupancy layer, its model, its teeth, its CLI.

The load-bearing fixture is the committed cross-phase overflow
reproducer (``tests/fuzz/corpus/queue_overflow_cross_phase_min.json``)
at prevv4 — the exact circuit whose premature queue physically
overflowed before the backpressure fix.  The pinned regression here
proves PV502/PV503 flag the *pre-fix* acceptance policy on that
circuit, and stay silent on the implemented one.
"""

import functools
import json
import os

import pytest

from repro.analysis.lint.diagnostics import CODES, LintReport, Severity
from repro.analysis.lint.driver import lint_kernel, run_passes
from repro.analysis.lint.registry import LAYERS, LintContext, all_passes
from repro.analysis.occupancy import (
    PRE_FIX,
    ArbiterPolicy,
    Interval,
    OccupancyMeasurement,
    TripBudgets,
    analyze_build,
    compare,
    measure_build,
    measure_kernel,
    min_bound,
)
from repro.analysis.lint.cli import main as lint_main
from repro.analysis.occupancy import measure as measure_mod
from repro.compile import compile_function
from repro.dataflow import make_simulator
from repro.eval.configs import BY_NAME, prevv_with_depth
from repro.fuzz.corpus import default_corpus_dir, load_spec
from repro.fuzz.spec import spec_to_kernel
from repro.prevv.unit import PreVVUnit

CORPUS_KERNEL = os.path.join(
    default_corpus_dir(), "queue_overflow_cross_phase_min.json"
)


@pytest.fixture(scope="module")
def corpus_point():
    """(kernel, fn, build) of the cross-phase reproducer at prevv4."""
    kernel = spec_to_kernel(load_spec(CORPUS_KERNEL))
    fn = kernel.build_ir()
    build = compile_function(fn, prevv_with_depth(4), args=kernel.args)
    return kernel, fn, build


@pytest.fixture(scope="module")
def corpus_measurement():
    """Peak-sampled run of the reproducer at prevv4 (fresh build)."""
    kernel = spec_to_kernel(load_spec(CORPUS_KERNEL))
    fn = kernel.build_ir()
    build = compile_function(fn, prevv_with_depth(4), args=kernel.args)
    build.memory.initialize(kernel.memory_init)
    return measure_build(build)


# ----------------------------------------------------------------------
# Interval domain + trip budgets
# ----------------------------------------------------------------------
class TestDomain:
    def test_join_takes_the_hull(self):
        assert Interval(1, 3).join(Interval(0, 7)) == Interval(0, 7)
        assert Interval(0, 3).join(Interval(0, None)) == Interval(0, None)

    def test_widen_jumps_growing_bounds_to_top(self):
        assert Interval(0, 3).widen(Interval(0, 4)) == Interval(0, None)
        assert Interval(0, 3).widen(Interval(0, 3)) == Interval(0, 3)
        assert Interval(0, 3).widen(Interval(0, 2)) == Interval(0, 3)

    def test_grow_saturates_on_unbounded_amounts(self):
        assert Interval(0, 2).grow(3) == Interval(0, 5)
        assert Interval(0, 2).grow(None) == Interval(0, None)
        assert Interval(0, None).grow(1) == Interval(0, None)

    def test_clamp_refines_top_with_an_external_cap(self):
        assert Interval(0, None).clamp(4) == Interval(0, 4)
        assert Interval(0, 2).clamp(4) == Interval(0, 2)
        assert Interval(0, 9).clamp(4) == Interval(0, 4)
        assert Interval(0, None).clamp(None) == Interval(0, None)

    def test_min_bound_treats_none_as_infinity(self):
        assert min_bound(None, 3) == 3
        assert min_bound(3, None) == 3
        assert min_bound(None, None) is None
        assert min_bound(2, 3) == 2

    def test_trip_budgets_multiply_the_ancestor_chain(self, corpus_point):
        # The reproducer has two nests: pi(3) x pj(5), and qi(2).
        kernel, fn, _ = corpus_point
        budgets = TripBudgets(fn, kernel.args)
        assert sorted(
            budgets.trips(loop) for loop in budgets._loops
        ) == [2, 3, 5]
        inner = [loop for loop in budgets._loops if not loop.children]
        assert sorted(budgets.activations(loop) for loop in inner) == [2, 15]
        assert budgets.total == 17  # innermost bodies: 15 + 2


# ----------------------------------------------------------------------
# The pinned PV502 regression: pre-fix policy on the overflow circuit
# ----------------------------------------------------------------------
class TestCrossPhaseRegression:
    def test_implemented_policy_reads_the_arbiter_flags(self):
        assert PreVVUnit.FULL_QUEUE_VERSION_RELEASE is True
        assert PreVVUnit.FULL_QUEUE_PHYSICAL_GUARD is True
        policy = ArbiterPolicy.implemented()
        assert policy.version_release and policy.physical_guard

    def test_prefix_policy_reaches_overflow_and_stalls(self, corpus_point):
        kernel, fn, build = corpus_point
        pred = analyze_build(build, fn, kernel.args, policy=PRE_FIX)
        (claim,) = pred.claims
        # depth 4 + reorder reserve (4+4+4+2+2) + earlier-phase burn
        # (15+15+15): well past the 37 physical slots.
        assert claim.bound == 65
        assert claim.physical_depth == 37
        assert claim.overflow_reachable
        assert pred.overflow_units == [claim.unit]
        assert [s.unit for s in pred.stalls] == [claim.unit]

    def test_implemented_policy_proves_the_physical_bound(self, corpus_point):
        kernel, fn, build = corpus_point
        pred = analyze_build(build, fn, kernel.args)
        (claim,) = pred.claims
        assert claim.bound == claim.physical_depth == 37
        assert not claim.overflow_reachable
        assert not pred.stalls
        assert pred.all_bounded

    def test_pv502_and_pv503_fire_through_the_lint_passes(self, corpus_point):
        kernel, fn, build = corpus_point
        ctx = LintContext(
            fn=fn, build=build, circuit=build.circuit,
            config=build.config, kernel=kernel,
            report=LintReport(subject="prefix"),
        )
        ctx.cache["occupancy_prediction"] = analyze_build(
            build, fn, kernel.args, policy=PRE_FIX
        )
        run_passes(ctx, layers=("occupancy",))
        codes = {d.code for d in ctx.report.errors}
        assert "PV502" in codes
        assert "PV503" in codes

    def test_clean_after_the_fix_through_the_lint_passes(self, corpus_point):
        kernel, fn, build = corpus_point
        ctx = LintContext(
            fn=fn, build=build, circuit=build.circuit,
            config=build.config, kernel=kernel,
            report=LintReport(subject="fixed"),
        )
        run_passes(ctx, layers=("occupancy",))
        assert ctx.report.ok, [d.format() for d in ctx.report.errors]

    def test_prefix_arbiter_flags_reproduce_the_crash(self, monkeypatch):
        """Flipping the policy flags off restores the pre-fix overflow."""
        monkeypatch.setattr(PreVVUnit, "FULL_QUEUE_VERSION_RELEASE", False)
        monkeypatch.setattr(PreVVUnit, "FULL_QUEUE_PHYSICAL_GUARD", False)
        kernel = spec_to_kernel(load_spec(CORPUS_KERNEL))
        fn = kernel.build_ir()
        build = compile_function(fn, prevv_with_depth(4), args=kernel.args)
        build.memory.initialize(kernel.memory_init)
        measurement = measure_build(build, max_cycles=10_000)
        assert measurement.overflowed, (
            "pre-fix acceptance policy no longer overflows the corpus "
            "circuit — the regression fixture has gone stale"
        )
        assert ArbiterPolicy.implemented() == ArbiterPolicy(
            version_release=False, physical_guard=False, phase_handoff=True
        )


# ----------------------------------------------------------------------
# Mutation tests: the measured cross-check must catch a wrong model
# ----------------------------------------------------------------------
class TestMutations:
    def test_dropping_phase_handoff_diverges_pv504(
        self, corpus_point, corpus_measurement
    ):
        kernel, fn, build = corpus_point
        sabotaged = analyze_build(
            build, fn, kernel.args,
            policy=ArbiterPolicy(phase_handoff=False),
        )
        (claim,) = sabotaged.claims
        assert claim.bound == 9  # depth 4 + 5 ports, believed safe
        queue = f"queue:{claim.unit}"
        assert corpus_measurement.peaks[queue] > claim.bound
        failing = [
            r for r in compare(sabotaged, corpus_measurement) if not r.ok
        ]
        assert [(r.kind, r.subject) for r in failing] == [("bound", queue)]

        ctx = LintContext(
            fn=fn, build=build, circuit=build.circuit,
            config=build.config, kernel=kernel,
            occupancy_measured=corpus_measurement,
            report=LintReport(subject="sabotaged"),
        )
        ctx.cache["occupancy_prediction"] = sabotaged
        run_passes(ctx, layers=("occupancy",))
        assert "PV504" in {d.code for d in ctx.report.errors}

    def test_undersized_capacity_in_the_model_is_caught(
        self, corpus_point, corpus_measurement
    ):
        kernel, fn, build = corpus_point
        pred = analyze_build(build, fn, kernel.args)
        victim = next(
            name for name in sorted(corpus_measurement.peaks)
            if name.startswith("buf:") and corpus_measurement.peaks[name] >= 2
        )
        pred.graph.places[victim].capacity = 1  # sabotage the model
        failing = [r for r in compare(pred, corpus_measurement) if not r.ok]
        assert ("capacity", victim) in [(r.kind, r.subject) for r in failing]

        ctx = LintContext(
            fn=fn, build=build, circuit=build.circuit,
            config=build.config, kernel=kernel,
            occupancy_measured=corpus_measurement,
            report=LintReport(subject="undersized"),
        )
        ctx.cache["occupancy_prediction"] = pred
        run_passes(ctx, layers=("occupancy",))
        assert "PV501" in {d.code for d in ctx.report.errors}

    def test_honest_model_survives_both_checks(
        self, corpus_point, corpus_measurement
    ):
        kernel, fn, build = corpus_point
        pred = analyze_build(build, fn, kernel.args)
        assert all(r.ok for r in compare(pred, corpus_measurement))


# ----------------------------------------------------------------------
# Registration + measured path on registered kernels
# ----------------------------------------------------------------------
class TestLayer:
    def test_occupancy_is_the_last_layer(self):
        assert LAYERS[-1] == "occupancy"

    def test_pv5xx_codes_are_errors(self):
        for code in ("PV501", "PV502", "PV503", "PV504"):
            assert CODES[code][0] is Severity.ERROR

    def test_passes_registered(self):
        by_name = {p.name: p for p in all_passes()}
        assert by_name["occupancy-bounds"].layer == "occupancy"
        assert by_name["occupancy-liveness"].layer == "occupancy"
        divergence = by_name["occupancy-divergence"]
        assert "occupancy_measured" in divergence.requires

    def test_lint_kernel_runs_occupancy_statically(self):
        report = lint_kernel("fig2b", BY_NAME["prevv16"])
        assert report.ok
        assert "occupancy-bounds" in report.timings
        assert "occupancy-divergence" not in report.timings  # unarmed

    def test_measured_kernel_point_is_sound(self):
        prediction, measurement = measure_kernel(
            "fig2b", BY_NAME["prevv16"], max_cycles=100_000
        )
        assert prediction.all_bounded
        assert not measurement.overflowed
        records = compare(prediction, measurement)
        assert records and all(r.ok for r in records)
        report = lint_kernel(
            "fig2b", BY_NAME["prevv16"], occupancy_measured=measurement
        )
        assert report.ok
        assert "occupancy-divergence" in report.timings

    def test_lint_kernel_rejects_unknown_layers(self):
        with pytest.raises(ValueError, match="unknown lint layer"):
            lint_kernel("fig2b", BY_NAME["prevv16"], layers=("nope",))


# ----------------------------------------------------------------------
# CLI: --layer selection and the armed-layer set in JSONL output
# ----------------------------------------------------------------------
class TestCli:
    def test_layer_selection_runs_one_layer(self, capsys):
        assert lint_main(
            ["fig2b", "--config", "prevv", "--layer", "occupancy"]
        ) == 0
        out = capsys.readouterr().out
        assert "fig2b[prevv]" in out
        assert "0 error(s), 0 warning(s), 0 info(s)" in out

    def test_layer_selection_reported_in_json_meta(self, capsys):
        assert lint_main(
            ["fig2b", "--config", "prevv", "--layer", "occupancy",
             "--layer", "ir", "--format", "json"]
        ) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert lines[0]["meta"] == "lint-run"
        # driver order, not flag order
        assert lines[0]["armed_layers"] == ["ir", "occupancy"]
        assert all(
            r["pass"].startswith(("ir-", "occupancy-"))
            for r in lines[1:]
        )

    def test_unknown_layer_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            lint_main(["fig2b", "--layer", "bogus"])

    def test_occupancy_flag_arms_pv504_and_stays_clean(self, capsys):
        assert lint_main(
            ["fig2b", "--config", "prevv", "--occupancy"]
        ) == 0


# ----------------------------------------------------------------------
# Fuzz-harness oracle: occupancy-bound divergences
# ----------------------------------------------------------------------
class TestFuzzOracle:
    def test_oracle_counts_checks_and_stays_clean(self):
        from repro.fuzz.harness import KernelReport, _check_occupancy_bounds
        from repro.kernels import get_kernel

        report = KernelReport(kernel="fig2b")
        _check_occupancy_bounds(
            report, get_kernel("fig2b"), BY_NAME["prevv16"], 100_000
        )
        assert report.checks > 0
        assert report.ok

    def test_corpus_entry_lints_clean_with_measured_occupancy(self):
        from repro.fuzz.corpus import load_entry
        from repro.fuzz.lint_corpus import lint_entry

        report = lint_entry(load_entry(CORPUS_KERNEL))
        assert not report.errors, [d.format() for d in report.errors]
        assert any(
            d.code == "PV403" for d in report.warnings
        )  # depth 4 is knowingly undersized; static advice stays

    def test_measurement_to_overflow_flag(self):
        measurement = OccupancyMeasurement(
            subject="x", cycles=1, peaks={}, overflowed_units=["u"]
        )
        assert measurement.overflowed


# ----------------------------------------------------------------------
# Engine independence: the peak sampler reads live component state
# ----------------------------------------------------------------------
def _measure_on(engine, monkeypatch, kernel, config):
    """``measure_build`` with its simulator pinned to ``engine``."""
    monkeypatch.setattr(measure_mod, "make_simulator",
                        functools.partial(make_simulator, engine=engine))
    build = compile_function(kernel.build_ir(), config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)
    measurement = measure_build(build, max_cycles=200_000)
    assert measurement.engine == engine
    return measurement, build.memory.snapshot()


class TestEngineIndependence:
    """The compiled engine commits buffer, controller and queue state onto
    the component objects before the end-of-cycle hooks run, so the
    sampled peaks equal the interpreted reference engine's."""

    @pytest.mark.parametrize("config_name", ["dynamatic", "prevv16", "prevv4"])
    @pytest.mark.parametrize("kernel_name", ["fig2b", "gaussian"])
    def test_peaks_match_reference(self, kernel_name, config_name,
                                   monkeypatch):
        from repro.bench import QUICK_SIZES
        from repro.fuzz.harness import configs_from_names
        from repro.kernels import get_kernel

        kernel = get_kernel(kernel_name, **QUICK_SIZES.get(kernel_name, {}))
        [config] = configs_from_names([config_name])
        ref, ref_mem = _measure_on("reference", monkeypatch, kernel, config)
        com, com_mem = _measure_on("compiled", monkeypatch, kernel, config)
        assert com.peaks == ref.peaks
        assert com.cycles == ref.cycles
        assert com.overflowed_units == ref.overflowed_units
        assert com_mem == ref_mem
        assert any(ref.peaks.values())  # the sampler saw real traffic

    def test_overflow_matches_reference(self, monkeypatch):
        """The pre-fix policy overflows the corpus circuit on both."""
        monkeypatch.setattr(PreVVUnit, "FULL_QUEUE_VERSION_RELEASE", False)
        monkeypatch.setattr(PreVVUnit, "FULL_QUEUE_PHYSICAL_GUARD", False)
        kernel = spec_to_kernel(load_spec(CORPUS_KERNEL))
        config = prevv_with_depth(4)
        ref, _ = _measure_on("reference", monkeypatch, kernel, config)
        com, _ = _measure_on("compiled", monkeypatch, kernel, config)
        assert ref.overflowed
        assert com.overflowed_units == ref.overflowed_units
        assert com.peaks == ref.peaks
        assert com.cycles == ref.cycles
