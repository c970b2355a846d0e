"""The step-code compiler: plan caching, declines, fallbacks, counters.

Bit-identity of :class:`~repro.dataflow.CompiledSimulator` against the
seed engine lives in ``test_engine_equivalence.py``; this file pins the
compiler's *machinery* — the structural plan cache (one compilation per
circuit structure, across :func:`repro.eval.runner.run_batch`), the
decline diagnostics, engine-selection fallback, the fused transfer
counters, and the emitted-source debug artifact.
"""

import sys

import pytest

from repro.compile import compile_function
from repro.dataflow import (
    ChannelTrace,
    Circuit,
    CompiledSimulator,
    ControlMerge,
    OpaqueBuffer,
    Operator,
    Simulator,
    Sink,
    Source,
    class_support,
    clear_plan_cache,
    emitted_source,
    make_simulator,
    plan_cache_stats,
    plan_for,
    why_not_compilable,
)
from repro.dataflow.component import Component
from repro.dataflow.codegen import CODEGEN_VERSION, structural_key
from repro.errors import CodegenUnsupportedError
from repro.eval.configs import DYNAMATIC, PREVV16
from repro.eval.runner import make_done_condition, run_batch
from repro.kernels import get_kernel
from repro.prevv.replay import DomainGate


def _build(kernel_name="polyn_mult", config=DYNAMATIC, **sizes):
    kernel = get_kernel(kernel_name, **sizes)
    build = compile_function(kernel.build_ir(), config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)
    return build


def _pipeline():
    """src -> inc -> oehb -> sink: tiny all-inline compilable circuit."""
    circuit = Circuit("pipe")
    src = circuit.add(Source("src", value=2, limit=5))
    inc = circuit.add(Operator("inc", lambda a: a + 1, 1, latency=0))
    buf = circuit.add(OpaqueBuffer("buf"))
    sink = circuit.add(Sink("snk"))
    circuit.connect(src, "out", inc, "in0")
    circuit.connect(inc, "out", buf, "in")
    circuit.connect(buf, "out", sink, "in")
    return circuit, sink


def _comp(circuit, name):
    return next(c for c in circuit.components if c.name == name)


class Rogue(Component):
    """Deliberately outside the audited codegen set."""


# ----------------------------------------------------------------------
# Structural plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_same_structure_compiles_once(self):
        clear_plan_cache()
        a = _build()
        b = _build()
        plan_a = plan_for(a.circuit)
        plan_b = plan_for(b.circuit)
        assert plan_a is plan_b
        assert plan_cache_stats() == {"hits": 1, "misses": 1}

    def test_run_batch_compiles_once(self):
        """The run_batch docstring's promise: size sweeps of one kernel
        share a single compilation (sizes flow through constant *values*
        and memory contents, which the structural key excludes)."""
        clear_plan_cache()
        results = run_batch(
            [get_kernel("polyn_mult", n=n) for n in (4, 6, 5)],
            DYNAMATIC,
            max_cycles=200_000,
        )
        assert [r.verified for r in results] == [True, True, True]
        assert [r.engine for r in results] == ["compiled"] * 3
        # Distinct sizes, distinct cycle counts — one compilation.
        assert len({r.cycles for r in results}) == 3
        stats = plan_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    def test_count_transfers_is_a_distinct_plan(self):
        circuit, _ = _pipeline()
        plain = structural_key(circuit, count_transfers=False)
        counting = structural_key(circuit, count_transfers=True)
        assert plain != counting
        assert plain[0] == CODEGEN_VERSION

    def test_structure_change_changes_key(self):
        a, _ = _pipeline()
        b, _ = _pipeline()
        b.add(Sink("extra"))
        assert structural_key(a) != structural_key(b)

    def test_miss_is_logged_at_debug(self, caplog):
        """Each compilation logs one DEBUG record (circuit, component
        count, emit+compile time); a cache hit logs nothing."""
        clear_plan_cache()
        circuit, _ = _pipeline()
        with caplog.at_level("DEBUG", logger="repro.dataflow.simulator"):
            plan_for(circuit)
            plan_for(circuit)
        [record] = caplog.records
        assert record.levelname == "DEBUG"
        message = record.getMessage()
        assert message.startswith("pipe: plan-cache miss")
        assert "4 components" in message
        assert message.endswith(" ms")


# ----------------------------------------------------------------------
# Declines
# ----------------------------------------------------------------------
class TestDeclines:
    def test_unknown_class_declines(self):
        circuit, _ = _pipeline()
        circuit.add(Rogue("rogue"))
        reason = why_not_compilable(circuit)
        assert "audited codegen set" in reason
        assert "rogue" in reason
        with pytest.raises(CodegenUnsupportedError):
            plan_for(circuit)

    def test_subclass_of_audited_class_is_not_supported(self):
        """Exact-class matching: a subclass may override behaviour the
        template bakes in, so it is not compilable until audited."""

        class MyBuffer(OpaqueBuffer):
            pass

        assert class_support(OpaqueBuffer) == "inline"
        assert class_support(MyBuffer) is None

    def test_control_merge_is_inline_domain_gate_is_called(self):
        assert class_support(ControlMerge) == "inline"
        assert class_support(DomainGate) == "call"

    def test_instance_override_declines(self):
        circuit, _ = _pipeline()
        buf = _comp(circuit, "buf")
        buf.propagate = type(buf).propagate.__get__(buf)  # behaviour kept
        reason = why_not_compilable(circuit)
        assert "instance-level propagate" in reason

    def test_trace_and_stats_decline(self):
        circuit, _ = _pipeline()
        with pytest.raises(CodegenUnsupportedError):
            CompiledSimulator(circuit, trace=object())
        with pytest.raises(CodegenUnsupportedError):
            CompiledSimulator(circuit, collect_stats=True)


# ----------------------------------------------------------------------
# Engine selection and fallback
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_auto_picks_compiled_on_kernel_circuits(self):
        build = _build()
        sim = make_simulator(build.circuit, engine="auto")
        assert sim.engine_name == "compiled"

    def test_compiled_request_falls_back_when_declined(self):
        circuit, sink = _pipeline()
        buf = _comp(circuit, "buf")
        buf.propagate = type(buf).propagate.__get__(buf)  # decline trigger
        sim = make_simulator(circuit, engine="compiled")
        assert sim.engine_name == "reference"
        sim.run_cycles(20)
        assert sink.values == [3, 3, 3, 3, 3]

    def test_decline_is_logged(self, caplog):
        """Every decline warns once, naming the circuit and the reason."""
        circuit, _ = _pipeline()
        buf = _comp(circuit, "buf")
        buf.propagate = type(buf).propagate.__get__(buf)  # decline trigger
        with caplog.at_level("WARNING", logger="repro.dataflow.simulator"):
            make_simulator(circuit, engine="auto")
        [record] = caplog.records
        assert record.levelname == "WARNING"
        assert "pipe" in record.getMessage()
        assert "instance-level propagate" in record.getMessage()

    def test_interpreted_requests_are_not_logged(self, caplog):
        """An explicit trace, stats or reference request is no decline."""
        circuit, _ = _pipeline()
        # Warm the plan cache: a compilation logs its own DEBUG record
        # (TestPlanCache.test_miss_is_logged_at_debug); only declines
        # are under test here.
        plan_for(circuit)
        with caplog.at_level("DEBUG", logger="repro.dataflow.simulator"):
            make_simulator(circuit, engine="reference")
            make_simulator(circuit, collect_stats=True)
            make_simulator(circuit, trace=ChannelTrace())
            make_simulator(circuit, engine="compiled")
        assert caplog.records == []

    def test_explicit_interpreted_engines(self):
        circuit, _ = _pipeline()
        sim = make_simulator(circuit, engine="reference")
        assert sim.engine_name == "reference"
        assert type(sim) is Simulator

    def test_unknown_engine_rejected(self):
        circuit, _ = _pipeline()
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(circuit, engine="bogus")
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(circuit, engine="vector")
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(circuit, engine="incremental")
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulator(circuit, engine="levelized")

    def test_stats_request_uses_interpreted_engine(self):
        """Per-channel stall stats force the interpreted engine even
        under auto — the compiled engine cannot supply them."""
        circuit, _ = _pipeline()
        sim = make_simulator(circuit, engine="auto", collect_stats=True)
        assert sim.engine_name == "reference"


# ----------------------------------------------------------------------
# Fused transfer counters
# ----------------------------------------------------------------------
class TestTransferCounts:
    @pytest.mark.parametrize("config", [DYNAMATIC, PREVV16],
                             ids=lambda c: c.name)
    def test_per_channel_transfers_match_interpreted(self, config):
        ref = _build("polyn_mult", config, n=6)
        sim_ref = Simulator(ref.circuit, max_cycles=200_000,
                            collect_stats=True)
        if ref.squash_controller is not None:
            sim_ref.end_of_cycle_hooks.append(
                ref.squash_controller.end_of_cycle
            )
        sim_ref.run(make_done_condition(ref))

        got = _build("polyn_mult", config, n=6)
        sim = CompiledSimulator(got.circuit, max_cycles=200_000,
                                count_transfers=True)
        if got.squash_controller is not None:
            sim.end_of_cycle_hooks.append(
                got.squash_controller.end_of_cycle
            )
        sim.run(make_done_condition(got))

        want = {ch.name: ch.transfers for ch in ref.circuit.channels}
        have = {ch.name: ch.transfers for ch in got.circuit.channels}
        assert have == want
        assert sum(have.values()) == sim.stats.transfers

    def test_flush_is_idempotent(self):
        circuit, _ = _pipeline()
        sim = CompiledSimulator(circuit, count_transfers=True)
        sim.run_cycles(12)  # flushes at the end
        snapshot = {ch.name: ch.transfers for ch in circuit.channels}
        sim.flush_channel_stats()
        assert {ch.name: ch.transfers for ch in circuit.channels} == snapshot


# ----------------------------------------------------------------------
# Emitted source artifact
# ----------------------------------------------------------------------
class TestEmittedSource:
    def test_source_shape(self):
        build = _build()
        source = emitted_source(build.circuit)
        assert "def make_step(" in source
        assert "def step(" in source
        compile(source, "<resynth>", "exec")  # stays valid Python

    def test_tag_free_emission_without_domain_gates(self):
        """Only a DomainGate tags tokens: circuits without one build
        plain tokens, gated (PreVV) circuits keep merging tags."""
        plain = emitted_source(_build("gaussian", DYNAMATIC, n=4).circuit)
        gated = emitted_source(_build("gaussian", PREVV16, n=4).circuit)
        assert "combine(" not in plain
        assert "Token(" in plain
        assert "combine(" in gated

    def test_step_surface_matches_interpreted(self):
        """step()/run_cycles() parity on the tiny pipeline."""
        a, sink_a = _pipeline()
        b, sink_b = _pipeline()
        ref = Simulator(a, collect_stats=True)
        com = CompiledSimulator(b)
        for _ in range(15):
            ref.step()
            com.step()
        assert com.stats.cycles == ref.stats.cycles
        assert com.stats.transfers == ref.stats.transfers
        assert sink_b.values == sink_a.values


# ----------------------------------------------------------------------
# Run-loop frame placement
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    sys.version_info < (3, 11) or sys.platform != "linux",
    reason="frames live on data-stack chunks from CPython 3.11; the "
    "fault counter is read through the Linux getrusage",
)
@pytest.mark.parametrize("depth", [0, 7, 23, 61])
def test_run_loop_does_not_reallocate_frame_chunks(depth):
    """Whatever the caller's stack depth, a warm compiled run must not
    open and free a data-stack chunk per cycle: that shows up as page
    faults on every cycle (4-5 per cycle on this circuit without the
    run-loop holder frame)."""
    import resource

    build = _build("gaussian", PREVV16, n=4)
    sim = CompiledSimulator(build.circuit, max_cycles=200_000)
    sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    done = make_done_condition(build)

    def at_depth(n):
        if n:
            return at_depth(n - 1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        stats = sim.run(done)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        return (after - before) / stats.cycles

    assert at_depth(depth) < 0.5
