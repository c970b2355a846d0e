"""Dynamic PVSan oracle: clean sweeps stay clean, sabotage gets caught."""

from repro.analysis.sanitizer import SCOracle, sanitize_run
from repro.analysis.sanitizer.oracle import _Pending
from repro.bench import run_sanitize_sweep
from repro.config import HardwareConfig
from repro.eval.configs import DYNAMATIC, PREVV16, prevv_with_depth
from repro.kernels import get_kernel

PREVV = HardwareConfig(memory_style="prevv", prevv_depth=16)


class TestAcceptanceGrid:
    def test_every_kernel_every_config_is_oracle_clean(self):
        # All registered kernels x {dynamatic, prevv16, prevv64, depth-1
        # high-squash}: zero oracle mismatches, final memory identical to
        # the interpreter at every point.
        result = run_sanitize_sweep(quick=True, jobs=1)
        bad = [p for p in result["points"] if not (p["ok"] and p["verified"])]
        assert not bad, bad
        assert len(result["points"]) == len(result["configs"]) * 10
        # The PreVV points really exercised the arbiter...
        assert any(
            p["checks"] > 0 for p in result["points"]
            if p["config"].startswith("prevv")
        )
        # ...and every point ran to quiescence.
        assert all(p["completed"] for p in result["points"])

    def test_depth_one_high_squash_point_is_clean(self):
        # gaussian with a depth-1 premature queue squashes on every
        # conflict; the retraction protocol must absorb all of it.
        result = sanitize_run(
            get_kernel("gaussian", n=8), prevv_with_depth(1)
        )
        assert result.ok
        assert result.verified
        assert result.checks > 0


class TestRunnerShape:
    def test_non_prevv_config_reduces_to_memory_check(self):
        result = sanitize_run(get_kernel("fig2b"), DYNAMATIC)
        assert result.ok and result.verified
        assert result.checks == 0  # no units, no arbiter decisions

    def test_result_carries_proofs_and_trace(self):
        result = sanitize_run(get_kernel("fig2b"), PREVV16, keep_trace=True)
        assert result.ok
        assert len(result.proofs) == 2
        assert result.trace is not None
        assert result.trace.of_kind("retire")

    def test_result_records_engine_actually_used(self):
        result = sanitize_run(get_kernel("fig2b"), PREVV16)
        assert result.engine == "compiled"

        def patch_propagate(build):
            comp = build.circuit.components[0]
            comp.propagate = type(comp).propagate.__get__(comp)

        # An instance-level patch makes the compiler decline: the run
        # falls back to the reference engine, and the result says so.
        patched = sanitize_run(
            get_kernel("fig2b"), PREVV16, mutate=patch_propagate
        )
        assert patched.engine == "reference"
        assert patched.ok and patched.verified
        assert patched.cycles == result.cycles
        assert patched.checks == result.checks

    def test_static_false_skips_prover_diagnostics(self):
        result = sanitize_run(get_kernel("fig2b"), PREVV16, static=False)
        assert result.ok
        assert not result.proofs
        assert not result.report.by_code("PV302")


def kill_index_check(build):
    """Disable the Eq. 4 same-index comparison: violations go unseen."""
    for unit in build.units:
        unit._same_index = lambda record: []


def force_equal_value_violation(build):
    """Declare a WAW violation on every store against its own value."""
    for unit in build.units:
        orig = unit._process

        def patched(port_idx, record, _orig=orig, _unit=unit):
            ok = _orig(port_idx, record)
            if not record.fake and not record.done and record.op == "store":
                _unit._flag_violation(
                    "waw", record.value, record.value, record
                )
            return ok

        unit._process = patched


def merge_reduction_groups(build):
    """Apply dimension reduction to two groups that never overlap."""
    a, b = build.groups[0], build.groups[1]
    a.loads.extend(b.loads)
    a.stores.extend(b.stores)
    a.pairs.extend(b.pairs)
    build.groups.remove(b)


class TestMutationsAreCaught:
    def test_disabled_index_check_raises_pv305(self):
        result = sanitize_run(
            get_kernel("recurrence"), PREVV, mutate=kill_index_check
        )
        assert not result.ok
        assert not result.verified
        assert {d.code for d in result.report.errors} == {"PV305"}
        # Both flavours: wrong retired values and final-memory divergence.
        messages = " ".join(d.message for d in result.report.errors)
        assert "program order has" in messages
        assert "diverges from the interpreter" in messages

    def test_spurious_squash_raises_pv306_and_aborts(self):
        result = sanitize_run(
            get_kernel("recurrence"), PREVV,
            mutate=force_equal_value_violation,
        )
        assert not result.ok
        assert any(d.code == "PV306" for d in result.report.errors)
        # PV306 is unretractable, so the run fail-fasts instead of
        # burning the whole cycle budget.
        assert not result.completed

    def test_unsound_dimension_reduction_raises_pv307(self):
        result = sanitize_run(
            get_kernel("fig2b"), PREVV, mutate=merge_reduction_groups
        )
        assert any(d.code == "PV307" for d in result.report.errors)


class TestOracleProtocol:
    def test_pending_retracted_by_covering_squash(self):
        pending = _Pending(
            "PV305", "m", "loc", "h", tags={0: 5}, domain=1, iteration=7
        )
        assert pending.covered_by({0: 3})      # tag inside squash window
        assert pending.covered_by({1: 7})      # own domain, own iteration
        assert not pending.covered_by({0: 6})  # tag before the window
        assert not pending.covered_by({2: 0})  # unrelated domain

    def test_oracle_expected_table_is_iteration_keyed(self):
        kernel = get_kernel("recurrence")
        fn = kernel.build_ir()
        from repro.ir import run_golden

        golden = run_golden(
            fn, args=kernel.args, memory=kernel.memory_init
        )
        oracle = SCOracle(fn, golden)
        keys = list(oracle._expected)
        assert keys
        rom_positions = {k[0] for k in keys}
        iterations = {k[1] for k in keys}
        assert len(rom_positions) > 1     # several static ops
        assert max(iterations) > 0        # several activations
        assert len(keys) == len(set(keys))
