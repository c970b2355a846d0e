"""PVPerf prediction: pinned critical cycles and static-vs-measured soundness.

The pins freeze the exact critical cycle of three representative seed
kernels so any change to a ``perf_model`` or to the circuit builder that
moves the binding constraint is caught.  ``critical_cycles.jsonl`` goes
further: the whole cycle (ratio, latency, capacity and the channel
sequence) of every registered kernel at its default size under every
paper configuration, so a solver change that picks a different cycle of
the same ratio is caught too.  The soundness grid is the PV404
contract in miniature: every static lower bound must stay at or below
its measured counterpart (the full grid runs in ``repro.bench --perf``).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.analysis.lint import lint_kernel
from repro.analysis.perf import compare, cycle_report, measure_kernel, predict
from repro.compile import compile_function
from repro.eval.configs import ALL_CONFIGS, BY_NAME
from repro.ir.interpreter import run_golden
from repro.kernels import get_kernel, kernel_names

SIZES = {
    "fig2b": {},
    "gaussian": {"n": 6},
    "recurrence": {},
}

# (kernel, ratio, latency, capacity) of the binding cycle under the
# default PreVV configuration.  All three are control back-edge cycles:
# fig2b/recurrence circulate one token through six slots of storage,
# gaussian's inner-loop steering cycle holds only two.
CRITICAL_CYCLE_PINS = [
    ("fig2b", Fraction(1, 6), 1, 6),
    ("gaussian", Fraction(1, 2), 1, 2),
    ("recurrence", Fraction(1, 6), 1, 6),
]

CRITICAL_CYCLE_TABLE = [
    json.loads(line)
    for line in (Path(__file__).parent / "critical_cycles.jsonl")
    .read_text()
    .splitlines()
]


def _predict(kernel_name, config):
    kernel = get_kernel(kernel_name, **SIZES[kernel_name])
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    return predict(build, fn, kernel.args)


@pytest.mark.parametrize(
    "kernel_name,ratio,latency,capacity", CRITICAL_CYCLE_PINS
)
def test_critical_cycle_pins(kernel_name, ratio, latency, capacity):
    pred = _predict(kernel_name, BY_NAME["prevv16"])
    cycle = pred.cycle
    assert cycle is not None and not cycle.is_combinational
    assert cycle.ratio == ratio
    assert cycle.latency == latency
    assert cycle.capacity == capacity


def test_critical_cycle_table_covers_every_kernel_and_config():
    pinned = {(row["kernel"], row["config"]) for row in CRITICAL_CYCLE_TABLE}
    assert pinned == {
        (name, config.name)
        for name in kernel_names()
        for config in ALL_CONFIGS
    }


@pytest.mark.parametrize(
    "pin",
    CRITICAL_CYCLE_TABLE,
    ids=lambda row: f"{row['kernel']}-{row['config']}",
)
def test_critical_cycle_table(pin):
    kernel = get_kernel(pin["kernel"])
    build = compile_function(
        kernel.build_ir(), BY_NAME[pin["config"]], args=kernel.args
    )
    pred = predict(build)
    assert pred.cycle is not None
    report = cycle_report(pred.graph, pred.cycle)
    assert report == {
        "ratio": pin["ratio"],
        "latency": pin["latency"],
        "capacity": pin["capacity"],
        "combinational": False,
        "channels": pin["channels"],
    }


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_seed_kernels_ii_bound_is_one(config):
    """No seed kernel's netlist forces II > 1: the ratio floor binds."""
    for kernel_name in SIZES:
        pred = _predict(kernel_name, config)
        assert pred.ii_lower_bound == Fraction(1), kernel_name


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("kernel_name", sorted(SIZES))
def test_static_bounds_never_exceed_measured(kernel_name, config):
    prediction, measurement = measure_kernel(
        kernel_name, config, sizes=SIZES[kernel_name]
    )
    records = compare(prediction, measurement)
    assert records, "compare() must produce at least the floor check"
    kinds = {rec.kind for rec in records}
    assert "floor" in kinds
    if config.memory_style == "prevv":
        assert "validation" in kinds
    bad = [rec.to_dict() for rec in records if not rec.ok]
    assert not bad, bad


def test_pv404_clean_on_seed_kernel():
    """Armed divergence check stays silent when the model is sound."""
    config = BY_NAME["prevv16"]
    _, measured = measure_kernel("fig2b", config)
    report = lint_kernel("fig2b", config, measured=measured)
    assert not [d for d in report.diagnostics if d.code == "PV404"]
    assert not report.errors


def test_interpreter_reports_loop_activations():
    kernel = get_kernel("fig2b")
    fn = kernel.build_ir()
    golden = run_golden(fn, args=kernel.args, memory=kernel.memory_init)
    assert golden.loop_activations
    # fig2b is a single loop over n elements: the body activates once
    # per architectural iteration.
    assert max(golden.loop_activations.values()) == kernel.args["n"]


def test_loop_activations_empty_without_trace():
    from repro.ir.interpreter import Interpreter

    kernel = get_kernel("fig2b")
    fn = kernel.build_ir()
    result = Interpreter(fn).run(
        args=kernel.args, memory=kernel.memory_init, record_trace=False
    )
    assert result.loop_activations == {}


def test_cycles_lower_bound_combines_floor_and_validation():
    config = BY_NAME["prevv16"]
    kernel = get_kernel("fig2b")
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    pred = predict(build, fn, kernel.args)
    golden = run_golden(fn, args=kernel.args, memory=kernel.memory_init)
    bound = pred.cycles_lower_bound(golden.loop_activations)
    iters = max(golden.loop_activations.values())
    assert bound >= Fraction(iters)
    # The bound is itself sound against the simulated run.
    _, measurement = measure_kernel("fig2b", config)
    assert bound <= measurement.cycles


def test_prediction_to_dict_roundtrips_to_json():
    import json

    pred = _predict("fig2b", BY_NAME["prevv16"])
    payload = json.loads(json.dumps(pred.to_dict()))
    assert payload["subject"]
    assert payload["ii_lower_bound"] == "1"
    assert payload["critical_cycle"]["ratio"] == "1/6"
    assert payload["validation"], "PreVV build must carry validation facts"
    assert payload["queues"], "PreVV build must carry queue facts"
