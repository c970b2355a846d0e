"""The compiled engine is bit-identical to the seed engine.

:class:`repro.dataflow.Simulator` preserves the seed worklist algorithm
verbatim; these tests pin the code-generating
:class:`~repro.dataflow.CompiledSimulator` to it: same cycle counts,
same transfer counts, same squash behaviour, same final memory — on
every paper kernel under every hardware configuration, and on randomly
generated circuits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_function
from repro.dataflow import (
    Circuit,
    CompiledSimulator,
    Fifo,
    Fork,
    Join,
    OpaqueBuffer,
    Operator,
    Simulator,
    Sink,
    Source,
    TransparentBuffer,
    TransparentFifo,
)
from repro.config import HardwareConfig
from repro.eval.configs import ALL_CONFIGS
from repro.eval.runner import make_done_condition
from repro.kernels import get_kernel

SIZES = {
    "polyn_mult": {"n": 10},
    "2mm": {"n": 4},
    "3mm": {"n": 4},
    "gaussian": {"n": 6},
    "triangular": {"n": 12},
}


def _run(sim_cls, kernel_name, config, **sim_kwargs):
    kernel = get_kernel(kernel_name, **SIZES[kernel_name])
    build = compile_function(
        kernel.build_ir(), config, args=kernel.args
    )
    build.memory.initialize(kernel.memory_init)
    sim = sim_cls(build.circuit, max_cycles=500_000, **sim_kwargs)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))
    ctrl = build.squash_controller
    return {
        "cycles": stats.cycles,
        "transfers": stats.transfers,
        "squashes": ctrl.squashes if ctrl else 0,
        "squashed_iterations": ctrl.squashed_iterations if ctrl else 0,
        "memory": build.memory.snapshot(),
    }


@pytest.mark.parametrize("kernel_name", sorted(SIZES))
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
def test_kernel_grid_bit_identical(kernel_name, config):
    reference = _run(Simulator, kernel_name, config)
    compiled = _run(CompiledSimulator, kernel_name, config)
    assert compiled == reference


# PreVV-specific stress points: a depth-1 queue maximizes backpressure
# and retirement churn, a single validation slot per cycle maximizes the
# arbiter's pending backlog, and gaussian/triangular are the high-squash
# kernels (real RAW violations -> squash/replay traffic).  These pin the
# PreVV fast paths (indexed arbiter search, decode cache, cached head
# candidate) bit-identically to the seed engine,
# including the *internal* validation verdict counters, not just the
# architectural outcome.
PREVV_STRESS_CONFIGS = [
    HardwareConfig(name="prevv_d1", memory_style="prevv", prevv_depth=1),
    HardwareConfig(
        name="prevv_v1",
        memory_style="prevv",
        prevv_depth=16,
        prevv_validations_per_cycle=1,
    ),
    HardwareConfig(
        name="prevv_d1_v1",
        memory_style="prevv",
        prevv_depth=1,
        prevv_validations_per_cycle=1,
    ),
]

PREVV_STRESS_KERNELS = ["gaussian", "triangular"]


def _run_prevv(sim_cls, kernel_name, config, **sim_kwargs):
    kernel = get_kernel(kernel_name, **SIZES[kernel_name])
    build = compile_function(
        kernel.build_ir(), config, args=kernel.args
    )
    build.memory.initialize(kernel.memory_init)
    sim = sim_cls(build.circuit, max_cycles=500_000, **sim_kwargs)
    sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))
    ctrl = build.squash_controller
    violations = {"raw": 0, "war": 0, "waw": 0}
    benign = 0
    for unit in build.units:
        for kind, count in unit.violations_by_kind.items():
            violations[kind] += count
        benign += unit.benign_reorders
    return {
        "cycles": stats.cycles,
        "transfers": stats.transfers,
        "squashes": ctrl.squashes,
        "squashed_iterations": ctrl.squashed_iterations,
        "violations_by_kind": violations,
        "benign_reorders": benign,
        "memory": build.memory.snapshot(),
    }


@pytest.mark.parametrize("kernel_name", PREVV_STRESS_KERNELS)
@pytest.mark.parametrize(
    "config", PREVV_STRESS_CONFIGS, ids=lambda c: c.name
)
def test_prevv_stress_grid_bit_identical(kernel_name, config):
    reference = _run_prevv(Simulator, kernel_name, config)
    compiled = _run_prevv(CompiledSimulator, kernel_name, config)
    assert compiled == reference
    # The stress points must actually exercise the squash/replay path;
    # otherwise this grid silently tests nothing.
    if kernel_name == "gaussian":
        assert reference["squashes"] > 0


def _random_circuit(stages, fork_at, limit):
    """A linear elastic pipeline with one fork/join diamond.

    ``stages`` draws from a small component menu; the diamond at
    ``fork_at`` exercises eager-fork done bits and join synchronization
    under both engines.
    """
    circuit = Circuit("rand")
    source = circuit.add(Source("src", value=3, limit=limit))
    prev, prev_port = source, "out"
    for i, kind in enumerate(stages):
        if kind == 0:
            comp = circuit.add(OpaqueBuffer(f"oehb{i}"))
        elif kind == 1:
            comp = circuit.add(TransparentBuffer(f"tehb{i}"))
        elif kind == 2:
            comp = circuit.add(Fifo(f"fifo{i}", depth=2))
        elif kind == 3:
            comp = circuit.add(TransparentFifo(f"tfifo{i}", depth=2))
        elif kind == 4:
            comp = circuit.add(
                Operator(f"inc{i}", lambda a: a + 1, 1, latency=0)
            )
        else:
            comp = circuit.add(
                Operator(f"mul{i}", lambda a: a * 2, 1, latency=2)
            )
        circuit.connect(prev, prev_port, comp, "in" if kind < 4 else "in0")
        prev, prev_port = comp, "out"
    fork = circuit.add(Fork("fk", 2))
    circuit.connect(prev, prev_port, fork, "in")
    slow = circuit.add(OpaqueBuffer("slow"))
    circuit.connect(fork, "out0", slow, "in")
    join = circuit.add(Join("jn", 2))
    circuit.connect(slow, "out", join, "in0")
    circuit.connect(fork, "out1", join, "in1")
    sink = circuit.add(Sink("snk"))
    circuit.connect(join, "out", sink, "in")
    return circuit, sink


@settings(max_examples=30, deadline=None)
@given(
    stages=st.lists(st.integers(0, 5), min_size=1, max_size=6),
    limit=st.integers(1, 8),
    cycles=st.integers(1, 40),
)
def test_random_circuits_bit_identical(stages, limit, cycles):
    results = []
    for build_sim in (Simulator, CompiledSimulator):
        circuit, sink = _random_circuit(stages, 0, limit)
        sim = build_sim(circuit)
        sim.run_cycles(cycles)
        results.append(
            (sim.stats.cycles, sim.stats.transfers, sink.values)
        )
    assert results[1] == results[0]
