"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench -q

Run from the repository root; takes about a minute (two short benchmark
runs of ``lint_kernels``).
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def test_generators_repeat_per_seed_and_differ_across_seeds():
    assert gen.gaussian_matrix(1, 0, 0, 8) == gen.gaussian_matrix(1, 0, 0, 8)
    assert gen.gaussian_matrix(1, 0, 0, 8) != gen.gaussian_matrix(2, 0, 0, 8)
    keys = gen.histogram_keys(1, 0, 3, 256, 64, 3, 12)
    assert keys == gen.histogram_keys(1, 0, 3, 256, 64, 3, 12)
    assert keys != gen.histogram_keys(2, 0, 3, 256, 64, 3, 12)
    for index in range(4):
        one = gen.fuzz_spec(7, index).to_dict()
        assert one == gen.fuzz_spec(7, index).to_dict()
        other = gen.fuzz_spec(8, index).to_dict()
        one.pop("name"), other.pop("name")
        assert one != other


def test_histogram_strata_cover_the_bucket_range():
    used = [max(gen.histogram_keys(3, 0, i, 256, 64, i, 12)) + 1
            for i in range(12)]
    assert used == sorted(used)
    assert used[0] <= 7 and used[-1] >= 59
    assert all(2 <= u <= 64 for u in used)


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
def test_gaussian_inputs_keep_every_pivot_nonzero(seed):
    from repro.ir import run_golden
    from repro.kernels import get_kernel

    n = 8
    kernel = get_kernel("gaussian", n=n)
    for index in range(3):
        matrix = gen.gaussian_matrix(seed, 1, index, n)
        golden = run_golden(kernel.build_ir(), args=kernel.args,
                            memory={"A": matrix})
        final = golden.memory["A"]
        # Row i's diagonal is final once sweep i starts: it is the pivot.
        pivots = [final[i * n + i] for i in range(n)]
        assert all(p != 0 for p in pivots)
        assert pivots == gen.eliminate(matrix, n)


def test_fuzz_stream_emits_the_same_array_multi_statement_shape():
    from repro.fuzz import spec_to_kernel

    specs = [gen.fuzz_spec(5, i) for i in range(8)]
    shaped = [s for s in specs if gen.is_same_array_multi_statement(s)]
    assert len(shaped) >= 2
    for spec in shaped:
        assert spec_to_kernel(spec).build_ir() is not None


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_and_instrument_restores():
    from repro.dataflow import simulator
    from repro.eval import runner

    rec = Recorder(traced=True)
    before = (runner.make_simulator, simulator.Simulator.run)
    with rec.instrument():
        assert runner.make_simulator is not before[0]
        with rec.span("outer"):
            with rec.span("inner"):
                pass
    assert (runner.make_simulator, simulator.Simulator.run) == before
    outer, inner = rec.spans
    selfs = rec.self_times()
    assert selfs["inner"] == pytest.approx(inner[2] - inner[1])
    assert selfs["outer"] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1]))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(128) == 90
    assert run.tail_percentile(1000) == 99


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
def test_declared_metric_names_are_well_formed_and_complete():
    end_to_end, per_layer, workloads = _declared()
    for name in end_to_end + per_layer + workloads:
        assert NAME.match(name), name
    assert end_to_end == [m for m, _ in run.END_TO_END]
    assert per_layer == [m for m, _ in run.per_layer_units()]
    assert len(per_layer) <= 128


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metric_names_are_declared(trace):
    end_to_end, per_layer, _ = _declared()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "lint_kernels", "--seed", "1", "--seconds", "0", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert list(result["metrics"]) == (per_layer if trace else end_to_end)
    for name in result["metrics"]:
        assert NAME.match(name), name


def test_host_clock_averages_probe_factors_over_an_interval():
    from hostclock import HostClock

    clock = HostClock()
    for at, factor in [(1.0, 1.0), (2.0, 0.5), (3.0, 0.5), (9.0, 2.0)]:
        clock.times.append(at)
        clock._cum.append(clock._cum[-1] + factor)
    assert clock.factor(0.5, 3.5) == pytest.approx(2.0 / 3)
    assert clock.norm(1.5, 3.5) == pytest.approx(2.0 * 0.5)
    # No probe inside: the nearest probe's factor.
    assert clock.factor(8.0, 8.5) == pytest.approx(2.0)
    assert clock.factor(3.2, 3.4) == pytest.approx(0.5)
