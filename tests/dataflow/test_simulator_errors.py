"""Simulator failure modes: deadlock detection, budgets, fail-fast, tracing."""

import pytest

from repro.dataflow import (
    ChannelTrace,
    Circuit,
    CompiledSimulator,
    OpaqueBuffer,
    Simulator,
    Sink,
    Source,
)
from repro.errors import CircuitError, DeadlockError, SimulationError


def stalled_circuit():
    """A source feeding a consumer that never raises ready."""
    circuit = Circuit("stall")
    source = circuit.add(Source("s", value=1))
    sink = circuit.add(Sink("k"))
    circuit.connect(source, "out", sink, "in")
    sink.propagate = lambda: None  # never ready
    return circuit


class TestDeadlockDetection:
    def test_deadlock_raised_with_stuck_channels(self):
        circuit = stalled_circuit()
        sim = Simulator(circuit, deadlock_window=8)
        with pytest.raises(DeadlockError) as info:
            sim.run(lambda: False)
        assert info.value.stuck_channels
        assert "no progress" in str(info.value)

    def test_busy_component_defers_deadlock(self):
        """A pipelined operator with bubbles counts as progress."""
        circuit = Circuit("busy")
        source = circuit.add(Source("s", value=2, limit=1))
        from repro.dataflow import Operator

        op = circuit.add(Operator("slow", lambda a: a, 1, latency=6))
        sink = circuit.add(Sink("k"))
        circuit.connect(source, "out", op, "in0")
        circuit.connect(op, "out", sink, "in")
        sim = Simulator(circuit, deadlock_window=4)
        sim.run(lambda: sink.count >= 1)  # no deadlock despite quiet cycles
        assert sink.values == [2]

    def test_max_cycles_budget(self):
        circuit = stalled_circuit()
        sim = Simulator(circuit, max_cycles=5, deadlock_window=1000)
        with pytest.raises(SimulationError, match="exceeded 5 cycles"):
            sim.run(lambda: False)


@pytest.mark.parametrize("engine", [Simulator, CompiledSimulator],
                         ids=lambda cls: cls.engine_name)
def test_abort_condition_stops_the_run(engine):
    """Both engines honour the fail-fast predicate PVSan installs."""
    circuit = Circuit("abort")
    source = circuit.add(Source("s", value=1))
    sink = circuit.add(Sink("k"))
    circuit.connect(source, "out", sink, "in")
    sim = engine(circuit, max_cycles=100)
    sim.abort_condition = lambda: sim.stats.cycles >= 3
    stats = sim.run(lambda: False)
    assert stats.cycles == 3
    assert sink.count == 3


class TestValidation:
    def test_unconnected_port_rejected_at_simulator_construction(self):
        circuit = Circuit("bad")
        buf = circuit.add(OpaqueBuffer("b"))
        src = circuit.add(Source("s", value=1))
        circuit.connect(src, "out", buf, "in")
        # buf.out dangling: Simulator validates via expected ports only for
        # attached ones; a consumer-less channel is caught.
        sink = circuit.add(Sink("k"))
        chan = circuit.connect(buf, "out", sink, "in")
        chan.consumer = None
        with pytest.raises(CircuitError):
            Simulator(circuit)


class TestTracing:
    def test_trace_records_fires_and_stalls(self):
        circuit = Circuit("t")
        source = circuit.add(Source("s", value=5, limit=2))
        buf = circuit.add(OpaqueBuffer("b"))
        sink = circuit.add(Sink("k"))
        c1 = circuit.connect(source, "out", buf, "in")
        circuit.connect(buf, "out", sink, "in")
        trace = ChannelTrace()
        sim = Simulator(circuit, trace=trace)
        sim.run(lambda: sink.count >= 2)
        fires = trace.fires(c1.name)
        assert [v for _, v in fires] == [5, 5]
        assert "fire" in trace.format()

    def test_trace_filter(self):
        circuit = Circuit("t")
        source = circuit.add(Source("s", value=5, limit=1))
        sink = circuit.add(Sink("k"))
        circuit.connect(source, "out", sink, "in")
        trace = ChannelTrace(lambda name: False)
        sim = Simulator(circuit, trace=trace)
        sim.run(lambda: sink.count >= 1)
        assert not trace.events

    def test_channel_stats(self):
        circuit = Circuit("t")
        source = circuit.add(Source("s", value=5, limit=3))
        sink = circuit.add(Sink("k"))
        chan = circuit.connect(source, "out", sink, "in")
        sim = Simulator(circuit)
        sim.run_cycles(6)
        assert chan.transfers == 3
        assert chan.idle_cycles == 3
