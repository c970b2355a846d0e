"""Compile -> simulate -> verify -> measure, for one kernel and config.

The runner is the reproduction of the paper's evaluation loop: generate
the circuit (Dynamatic/LSQ/PreVV), simulate it cycle-accurately
(ModelSim's role), check the final memory state against the interpreter
golden run (the C++ reference), and attach the area/timing estimates
(Vivado's role).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..compile import BuildResult, compile_function
from ..config import HardwareConfig
from ..dataflow import make_simulator
from ..ir import run_golden


@dataclass
class RunResult:
    """Everything measured for one (kernel, config) evaluation point."""

    kernel: str
    config: HardwareConfig
    cycles: int
    verified: bool
    memory: Dict[str, List[int]]
    golden: Dict[str, List[int]]
    squashes: int = 0
    squashed_iterations: int = 0
    benign_reorders: int = 0
    violations_by_kind: Dict[str, int] = field(default_factory=dict)
    fake_tokens: int = 0
    queue_max_occupancy: int = 0
    queue_full_stalls: int = 0
    lsq_alloc_stalls: int = 0
    transfers: int = 0
    #: simulation engine actually used ("compiled" or "reference");
    #: may differ from the requested engine when the compiler declines.
    engine: str = ""
    build: Optional[BuildResult] = None

    @property
    def mismatch_summary(self) -> str:
        lines = []
        for name in sorted(self.golden):
            got, want = self.memory.get(name), self.golden[name]
            if got != want:
                diffs = [
                    f"[{i}] got {g} want {w}"
                    for i, (g, w) in enumerate(zip(got, want))
                    if g != w
                ][:5]
                lines.append(f"{name}: " + "; ".join(diffs))
        return "\n".join(lines) or "(no mismatch)"


def make_done_condition(build: BuildResult):
    """Completion: exit token seen and the circuit fully quiescent.

    Quiescence means no channel offers a token and no component has
    internal work pending — i.e. every store has drained through its
    memory interface and every PreVV packet has been validated/retired.
    """

    def done() -> bool:
        if build.exit_sink.count < 1:
            return False
        if any(c.valid for c in build.circuit.channels):
            return False
        if any(c.is_busy for c in build.circuit.components):
            return False
        for unit in build.units:
            if unit.queue.occupancy or unit.has_pending:
                return False
        if build.units and build.memory.log_length:
            return False
        return True

    # Split variant for the compiled engine's unsynchronized run loop:
    # the channel scan is replaced by the step function's own any-valid
    # flag, ``pre`` gates the expensive ``post`` scan on the cheap exit
    # check.  Both read only component/subsystem state, never channels.
    def pre() -> bool:
        return build.exit_sink.count >= 1

    def post() -> bool:
        if any(c.is_busy for c in build.circuit.components):
            return False
        for unit in build.units:
            if unit.queue.occupancy or unit.has_pending:
                return False
        if build.units and build.memory.log_length:
            return False
        return True

    done.split = (pre, post)
    return done


def _finalize(
    kernel,
    config: HardwareConfig,
    golden,
    build: BuildResult,
    cycles: int,
    transfers: int,
    engine: str,
    keep_build: bool = False,
) -> RunResult:
    """Collect a finished simulation into a :class:`RunResult`."""
    final = build.memory.snapshot()
    verified = all(
        final.get(name) == values for name, values in golden.memory.items()
    )
    result = RunResult(
        kernel=kernel.name,
        config=config,
        cycles=cycles,
        verified=verified,
        memory=final,
        golden=golden.memory,
        transfers=transfers,
        engine=engine,
        build=build if keep_build else None,
    )
    if build.squash_controller is not None:
        ctrl = build.squash_controller
        result.squashes = ctrl.squashes
        result.squashed_iterations = ctrl.squashed_iterations
    for unit in build.units:
        result.benign_reorders += unit.benign_reorders
        result.fake_tokens += unit.fake_tokens
        result.queue_max_occupancy = max(
            result.queue_max_occupancy, unit.queue.max_occupancy
        )
        result.queue_full_stalls += unit.queue.full_stalls
        for kind, count in unit.violations_by_kind.items():
            result.violations_by_kind[kind] = (
                result.violations_by_kind.get(kind, 0) + count
            )
    for lsq in build.lsqs:
        result.lsq_alloc_stalls += lsq.alloc_stalls
    return result


def run_kernel(
    kernel,
    config: HardwareConfig,
    max_cycles: int = 2_000_000,
    keep_build: bool = False,
    trace=None,
    collect_stats: Optional[bool] = None,
    engine: str = "auto",
) -> RunResult:
    """Evaluate one kernel (a :class:`repro.kernels.Kernel`) under ``config``.

    Per-channel statistics default to *off* (the simulator's stat-free
    fast path) — nothing in the evaluation tables reads them.  Passing a
    ``trace`` turns them back on so captured waveforms stay complete;
    ``collect_stats`` overrides either way.  ``engine`` selects the
    simulation engine (see :func:`repro.dataflow.make_simulator`);
    :attr:`RunResult.engine` records the engine actually used, which may
    be an interpreted fallback when the compiler declines the circuit.
    """
    fn = kernel.build_ir()
    golden = run_golden(fn, args=kernel.args, memory=kernel.memory_init)
    build = compile_function(fn, config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)

    if collect_stats is None:
        collect_stats = trace is not None
    sim = make_simulator(build.circuit, engine=engine,
                         max_cycles=max_cycles, trace=trace,
                         collect_stats=collect_stats)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    sim.run(make_done_condition(build))

    return _finalize(
        kernel, config, golden, build,
        cycles=sim.stats.cycles, transfers=sim.stats.transfers,
        engine=sim.engine_name, keep_build=keep_build,
    )


# ----------------------------------------------------------------------
# Sequential evaluation of many input variants
# ----------------------------------------------------------------------
def run_batch(
    kernels,
    config: HardwareConfig,
    max_cycles: int = 2_000_000,
    engine: str = "compiled",
) -> List[RunResult]:
    """Evaluate many kernel variants under one config, in input order.

    The intended use is sweeping *inputs* of a fixed kernel — different
    sizes, seeds or initial memories produce circuits with the same
    structure (sizes flow through constants and memory contents, not
    through the netlist).  Runs are sequential; the per-structure plan
    cache makes every compiled run after a structure's first skip
    compilation entirely (``tests/dataflow/test_codegen.py`` pins one
    cache miss per structure).
    """
    return [
        run_kernel(k, config, max_cycles=max_cycles, engine=engine)
        for k in kernels
    ]


# ----------------------------------------------------------------------
# Grid evaluation (all kernels x all configs), optionally in parallel
# ----------------------------------------------------------------------
def _grid_worker(point):
    """Top-level (picklable) worker: one (kernel, config) point.

    Returns ``(RunResult, clock period ns)``.  The build itself stays in
    the worker — circuits hold operator lambdas and are not picklable —
    so the clock period the tables need is computed here.
    """
    kernel, config, max_cycles, engine = point
    from ..area import clock_period

    result = run_kernel(kernel, config, max_cycles=max_cycles,
                        keep_build=True, engine=engine)
    period = clock_period(result.build.circuit)
    result.build = None
    return result, period


def run_grid(
    points,
    max_cycles: int = 2_000_000,
    jobs: int = 1,
    engine: str = "auto",
) -> List:
    """Evaluate ``points`` (``(kernel, config)`` pairs) -> results + periods.

    With ``jobs > 1`` the points are distributed over a
    :class:`~concurrent.futures.ProcessPoolExecutor`; results come back
    in input order either way, so reports are deterministic regardless
    of scheduling.  ``engine`` is forwarded to every point (each worker
    process compiles at most once per circuit structure thanks to the
    per-process plan cache).
    """
    work = [(kernel, config, max_cycles, engine) for kernel, config in points]
    if jobs <= 1 or len(work) <= 1:
        return [_grid_worker(w) for w in work]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(_grid_worker, work))
