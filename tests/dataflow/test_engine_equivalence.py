"""The compiled engine is bit-identical to the seed engine.

:class:`repro.dataflow.Simulator` preserves the seed worklist algorithm
verbatim; these tests pin the code-generating
:class:`~repro.dataflow.CompiledSimulator` to it: same cycle counts,
same transfer counts, same squash behaviour, same final memory — on
every paper kernel under every hardware configuration, and on randomly
generated circuits.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compile import compile_function
from repro.dataflow import (
    Circuit,
    CompiledSimulator,
    ControlMerge,
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


def _chain(circuit, prefix, stages, prev, prev_port):
    """Append one component per entry of ``stages`` (a small menu of
    buffers and operators) after ``prev.prev_port``; return the end."""
    for i, kind in enumerate(stages):
        if kind == 0:
            comp = circuit.add(OpaqueBuffer(f"{prefix}oehb{i}"))
        elif kind == 1:
            comp = circuit.add(TransparentBuffer(f"{prefix}tehb{i}"))
        elif kind == 2:
            comp = circuit.add(Fifo(f"{prefix}fifo{i}", depth=2))
        elif kind == 3:
            comp = circuit.add(TransparentFifo(f"{prefix}tfifo{i}", depth=2))
        elif kind == 4:
            comp = circuit.add(
                Operator(f"{prefix}inc{i}", lambda a: a + 1, 1, latency=0)
            )
        else:
            comp = circuit.add(
                Operator(f"{prefix}mul{i}", lambda a: a * 2, 1, latency=2)
            )
        circuit.connect(prev, prev_port, comp, "in" if kind < 4 else "in0")
        prev, prev_port = comp, "out"
    return prev, prev_port


def _random_circuit(stages, fork_at, limit):
    """A linear elastic pipeline with one fork/join diamond.

    ``stages`` draws from a small component menu; the diamond at
    ``fork_at`` exercises eager-fork done bits and join synchronization
    under both engines.
    """
    circuit = Circuit("rand")
    source = circuit.add(Source("src", value=3, limit=limit))
    prev, prev_port = _chain(circuit, "", stages, source, "out")
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


def _cmerge_circuit(in0, in1, out, index, limits):
    """Two sources race into a two-input ControlMerge.

    ``out`` and ``index`` take different buffer/latency chains into one
    pairing operator, so one side of the merge's implicit fork fires
    cycles before the other: the done bits and the winner lock carry
    the handshake across cycles.
    """
    circuit = Circuit("cmerge_rand")
    merge = circuit.add(ControlMerge("cm", 2))
    for k, (stages, limit) in enumerate(zip((in0, in1), limits)):
        source = circuit.add(
            Source(f"src{k}", value=100 * (k + 1), limit=limit)
        )
        end, port = _chain(circuit, f"in{k}_", stages, source, "out")
        circuit.connect(end, port, merge, f"in{k}")
    a, a_port = _chain(circuit, "out_", out, merge, "out")
    b, b_port = _chain(circuit, "idx_", index, merge, "index")
    pair = circuit.add(Operator("pair", lambda v, i: (v, i), 2, latency=0))
    circuit.connect(a, a_port, pair, "in0")
    circuit.connect(b, b_port, pair, "in1")
    sink = circuit.add(Sink("snk"))
    circuit.connect(pair, "out", sink, "in")
    return circuit, merge, sink


def _run_cmerge(sim_cls, cycles, **shape):
    """Step ``cycles`` cycles; also report whether a token was offered on
    the higher-priority input while the merge was locked to input 1."""
    circuit, merge, sink = _cmerge_circuit(**shape)
    sim = sim_cls(circuit)
    contended = False
    for _ in range(cycles):
        locked = merge._locked
        sim.step()
        contended |= locked == 1 and merge.inputs["in0"].valid
    state = (merge._locked, merge._done_out, merge._done_index)
    result = (sim.stats.cycles, sim.stats.transfers, sink.values, state)
    return result, contended


# in1 wins at cycle 0 while in0's token is still three buffers away;
# ``index`` fires into its slow chain at once but ``out`` waits at the
# pairing operator, so the merge locks to in1 exactly when in0 arrives.
CMERGE_LOCK_EXAMPLE = dict(
    in0=[0, 0, 0], in1=[], out=[], index=[0, 5], limits=(3, 3), cycles=40
)

_STAGES = st.lists(st.integers(0, 5), max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    in0=_STAGES,
    in1=_STAGES,
    out=_STAGES,
    index=_STAGES,
    limits=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    cycles=st.integers(1, 60),
)
@example(**CMERGE_LOCK_EXAMPLE)
def test_random_cmerge_circuits_bit_identical(
    in0, in1, out, index, limits, cycles
):
    shape = dict(in0=in0, in1=in1, out=out, index=index, limits=limits)
    reference, _ = _run_cmerge(Simulator, cycles, **shape)
    compiled, _ = _run_cmerge(CompiledSimulator, cycles, **shape)
    assert compiled == reference


def test_cmerge_lock_example_contends():
    """The pinned example really reaches the winner lock under a
    higher-priority arrival, and both inputs' tokens get through."""
    shape = dict(CMERGE_LOCK_EXAMPLE)
    cycles = shape.pop("cycles")
    (_, _, values, _), contended = _run_cmerge(Simulator, cycles, **shape)
    assert contended
    assert sorted(v for v, _ in values) == [100] * 3 + [200] * 3
