"""The MCR bound is sound on random feedback circuits, on every engine.

These circuits have what the kernel grid cannot vary freely: a token
ring whose storage mix (opaque/transparent/fifo/pipelined-operator) is
drawn at random, so the critical cycle's latency and capacity change
shape on every example.  The property is the same one ``compare()``
checks on kernels — in a window of ``W`` clocks, a cycle of latency
``L`` and capacity ``C`` completes at most ``(W + L + C) * C / L``
traversals — and it must hold on the reference engine and on the
compiled engine, which is the one ``perf.measure_kernel`` measures with.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.perf import perf_graph
from repro.dataflow import (
    Circuit,
    Fifo,
    Fork,
    Merge,
    OpaqueBuffer,
    Operator,
    Sink,
    Source,
    TransparentBuffer,
    TransparentFifo,
    make_simulator,
    why_not_compilable,
)


def _ring_circuit(stages, limit):
    """A token ring with a random storage mix.

    ``src -> merge -> [stages] -> oehb -> fork -> {sink, back to merge}``;
    the forced opaque buffer keeps the ring sequential whatever the draw
    (an all-transparent ring would be a combinational cycle).  Tokens
    never leave the ring, so the sink counts one copy per circulation.
    """
    circuit = Circuit("ring")
    source = circuit.add(Source("src", value=1, limit=limit))
    merge = circuit.add(Merge("mrg", 2))
    circuit.connect(source, "out", merge, "in0")
    prev, prev_port = merge, "out"
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
    ring_buf = circuit.add(OpaqueBuffer("ring_buf"))
    circuit.connect(prev, prev_port, ring_buf, "in")
    fork = circuit.add(Fork("fk", 2))
    circuit.connect(ring_buf, "out", fork, "in")
    sink = circuit.add(Sink("snk", record=False))
    circuit.connect(fork, "out0", sink, "in")
    circuit.connect(fork, "out1", merge, "in1")
    return circuit, sink, source


@settings(max_examples=30, deadline=None)
@given(
    stages=st.lists(st.integers(0, 5), min_size=0, max_size=6),
    limit=st.integers(1, 8),
    cycles=st.integers(1, 60),
)
# A transparent stage cuts the ring's ready cycle, so the compiled leg
# runs on at least this draw.
@example(stages=[1, 5], limit=4, cycles=40)
def test_mcr_bound_holds_on_random_rings(stages, limit, cycles):
    counts = []
    for engine_name in ("reference", "compiled"):
        circuit, sink, source = _ring_circuit(stages, limit)
        graph = perf_graph(circuit)
        cycle = graph.critical_cycle()
        # The forced opaque buffer guarantees a sequential, bounded ring.
        assert cycle is not None and not cycle.is_combinational
        assert cycle.latency >= 1 and cycle.capacity >= 1

        sim = make_simulator(circuit, engine=engine_name)
        if sim.engine_name != engine_name:
            # A ring with no transparent stage has a cyclic ready
            # network, which the compiler declines: the compiled request
            # falls back to the reference engine already checked above.
            assert engine_name == "compiled"
            assert sim.engine_name == "reference"
            assert "ready" in why_not_compilable(circuit)
            break
        sim.run_cycles(cycles)

        # Ring storage is finite: the source can never inject more
        # tokens than the critical cycle's modelled capacity.
        assert source.emitted <= cycle.capacity, engine_name

        # Sound throughput bound.  The sink hangs one eager-fork output
        # off the ring, so its count tracks any on-cycle channel's
        # firings within one token of skew.
        firings = max(0, sink.count - 1)
        slack = cycle.latency + cycle.capacity
        assert cycle.ratio * firings <= Fraction(cycles + slack), engine_name
        counts.append((sink.count, source.emitted, sim.stats.cycles))

    # The engines agree on the observable outcome.
    assert counts[-1] == counts[0]


@settings(max_examples=20, deadline=None)
@given(
    stages=st.lists(st.integers(0, 5), min_size=0, max_size=6),
    limit=st.integers(1, 8),
)
def test_ring_ratio_reflects_its_storage(stages, limit):
    """The critical cycle is the ring itself, with additive L and C."""
    circuit, _, _ = _ring_circuit(stages, limit)
    graph = perf_graph(circuit)
    cycle = graph.critical_cycle()
    latency = 1  # forced ring_buf
    capacity = 1
    for kind in stages:
        lat, cap = {
            0: (1, 1),
            1: (0, 1),
            2: (1, 2),
            3: (0, 2),
            4: (0, 0),
            5: (2, 2),
        }[kind]
        latency += lat
        capacity += cap
    assert cycle.latency == latency
    assert cycle.capacity == capacity
    assert cycle.ratio == Fraction(latency, capacity)
