"""The simulator bench CLI: points, config gating, checking."""

import pytest

from repro.bench import (
    bench_point,
    check_against_baseline,
    run_bench,
)
from repro.eval.configs import BY_NAME


SMALL = {"n": 4}


class TestBenchPoint:
    def test_point_shape(self):
        point = bench_point("polyn_mult", BY_NAME["dynamatic"], SMALL)
        assert point["kernel"] == "polyn_mult"
        assert point["config"] == "dynamatic"
        assert point["cycles"] > 0
        assert point["propagate_calls"] > 0
        # The report must record the engine actually used, not just the
        # one requested — fallbacks have to be visible in the JSON.
        assert point["engine_requested"] == "auto"
        assert point["engine"] == "compiled"
        assert point["evals_per_sec"] > 0

    def test_compiled_point_records_engine(self):
        point = bench_point(
            "polyn_mult", BY_NAME["dynamatic"], SMALL, engine="compiled"
        )
        assert point["engine_requested"] == "compiled"
        assert point["engine"] == "compiled"
        ref = bench_point(
            "polyn_mult", BY_NAME["dynamatic"], SMALL, engine="reference"
        )
        assert ref["engine"] == "reference"
        assert point["cycles"] == ref["cycles"]


class TestRunBench:
    def test_config_filter(self):
        result = run_bench(
            quick=True, kernels=["polyn_mult"],
            configs=["prevv16", "prevv64"],
        )
        assert result["configs"] == ["prevv16", "prevv64"]
        assert {p["config"] for p in result["points"]} == {
            "prevv16", "prevv64"
        }

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            run_bench(quick=True, kernels=["polyn_mult"],
                      configs=["prevv128"])

    def test_engine_axis(self):
        result = run_bench(
            quick=True, kernels=["polyn_mult"], configs=["dynamatic"],
            engines=["reference", "compiled"],
        )
        assert result["engines"] == ["reference", "compiled"]
        assert [p["engine"] for p in result["points"]] == [
            "reference", "compiled"
        ]
        cycles = {p["cycles"] for p in result["points"]}
        assert len(cycles) == 1  # engines agree on architectural time

    def test_unknown_engine_rejected(self):
        for engine in ("turbo", "levelized"):
            with pytest.raises(ValueError, match="unknown engine"):
                run_bench(quick=True, kernels=["polyn_mult"],
                          engines=[engine])


class TestCheck:
    def _payload(self, cycles=100, epc=50.0):
        return {
            "points": [
                {
                    "kernel": "k",
                    "config": "c",
                    "engine": "reference",
                    "cycles": cycles,
                    "propagate_calls_per_cycle": epc,
                }
            ]
        }

    def test_clean(self):
        errors = check_against_baseline(self._payload(), self._payload())
        assert errors == []

    def test_cycle_mismatch_is_error(self):
        errors = check_against_baseline(
            self._payload(cycles=101), self._payload(cycles=100)
        )
        assert len(errors) == 1 and "cycles" in errors[0]

    def test_effort_regression_is_error(self):
        errors = check_against_baseline(
            self._payload(epc=70.0), self._payload(epc=50.0)
        )
        assert len(errors) == 1 and "propagate_calls" in errors[0]

    def test_filtered_run_checks_only_its_points(self):
        baseline = self._payload()
        baseline["points"].append(
            {
                "kernel": "k",
                "config": "other",
                "engine": "reference",
                "cycles": 1,
                "propagate_calls_per_cycle": 1.0,
            }
        )
        errors = check_against_baseline(self._payload(), baseline)
        assert errors == []

    def test_points_are_keyed_per_engine(self):
        """A compiled point never checks against a reference baseline
        point — their evals/cycle differ by design, not by regression."""
        result = self._payload(epc=400.0)
        result["points"][0]["engine"] = "compiled"
        baseline = self._payload(epc=50.0)
        baseline["points"].append(
            dict(result["points"][0])  # compiled row at 400 evals/cycle
        )
        assert check_against_baseline(result, baseline) == []
        baseline["points"][1]["propagate_calls_per_cycle"] = 50.0
        errors = check_against_baseline(result, baseline)
        assert len(errors) == 1 and "compiled" in errors[0]

    def test_point_without_baseline_row_is_error(self):
        """A point whose engine has no baseline row must fail the check:
        skipping it would let a run that compares nothing pass."""
        result = self._payload()
        result["points"][0]["engine"] = "compiled"
        errors = check_against_baseline(result, self._payload())
        assert errors == ["k/c/compiled: no baseline point for this engine"]
