"""Sanitized evaluation runs: compile, simulate under the SC oracle, report.

:func:`sanitize_run` is the dynamic-side entry point behind
``python -m repro.lint --sanitize <kernel>`` and ``python -m repro.bench
--sanitize``: build one kernel under one config, run the static sanitize
lint layer (prover + soundness + coverage), then simulate with the
:class:`~repro.analysis.sanitizer.oracle.SCOracle` attached to every
PreVV unit and the squash controller, and finalize the oracle against
the final memory state.

``mutate`` lets tests (and ``examples/sanitize_kernel.py``) deliberately
break the arbiter *after* compilation — e.g. disable the Eq. 4 index
comparison — and assert the oracle catches it with a specific PV3xx
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ...compile import compile_function
from ...config import HardwareConfig
from ...dataflow import make_simulator
from ...dataflow.tracing import OrderTrace
from ...errors import SimulationError
from ...ir import run_golden
from ..lint.diagnostics import LintReport, make_diagnostic
from ..lint.driver import run_passes
from ..lint.registry import LintContext
from .oracle import SCOracle
from .prover import PairProof


@dataclass
class SanitizeResult:
    """Outcome of one sanitized (kernel, config) run."""

    kernel: str
    config: HardwareConfig
    report: LintReport
    cycles: int = 0
    #: final memory matched the interpreter (independent of oracle verdicts)
    verified: bool = False
    #: the simulation reached quiescence (False on deadlock/abort)
    completed: bool = False
    #: arbiter decisions the oracle checked (process + retire events)
    checks: int = 0
    #: static prover classifications from the sanitize lint layer
    proofs: List[PairProof] = field(default_factory=list)
    trace: Optional[OrderTrace] = None
    #: simulation engine actually used ("compiled", or "reference" when
    #: the compiler declined the circuit, e.g. a patched ``propagate``)
    engine: str = ""

    @property
    def ok(self) -> bool:
        """No error-severity diagnostic, static or dynamic."""
        return self.report.ok


def sanitize_run(
    kernel,
    config: HardwareConfig,
    max_cycles: int = 2_000_000,
    mutate: Optional[Callable] = None,
    keep_trace: bool = False,
    report: Optional[LintReport] = None,
    static: bool = True,
) -> SanitizeResult:
    """Run ``kernel`` under ``config`` with the full PVSan harness.

    The same :class:`~repro.ir.function.Function` instance feeds the
    interpreter, the compiler and the oracle — trace events reference
    instructions by identity, so rebuilding the IR anywhere in between
    would silently break position matching.

    ``mutate(build)`` runs after compilation but before simulation.
    Non-PreVV configs (dynamatic/LSQ) carry no units, so the oracle's
    arbiter hooks never fire and the check reduces to the final-memory
    comparison against the interpreter.

    Passing an existing ``report`` appends the dynamic findings to it;
    ``static=False`` skips the sanitize lint layer (the CLI uses both to
    merge the oracle verdicts into a report ``lint_kernel`` already
    filled, without duplicating the prover diagnostics).
    """
    fn = kernel.build_ir()
    golden = run_golden(fn, args=kernel.args, memory=kernel.memory_init)
    if report is None:
        report = LintReport(subject=f"{kernel.name}[{config.memory_style}]")

    build = compile_function(fn, config, args=kernel.args)
    build.memory.initialize(kernel.memory_init)

    if mutate is not None:
        mutate(build)

    # Static side over the actual build (prover, soundness, coverage) —
    # after ``mutate`` so doctored builds (e.g. a merged reduction group)
    # are audited too, not just simulated.
    proofs: List[PairProof] = []
    if static:
        ctx = LintContext(
            fn=fn,
            circuit=build.circuit,
            build=build,
            config=config,
            analysis=build.analysis,
            report=report,
            kernel=kernel,
        )
        ctx._golden = golden
        run_passes(ctx, layers=("sanitize",))
        proofs = list(ctx.cache.get("pvsan_proofs", []))

    trace = OrderTrace()
    oracle = SCOracle(fn, golden, report=report, trace=trace)
    oracle.attach(build)

    sim = make_simulator(build.circuit, max_cycles=max_cycles)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    # Fail fast on findings no later squash could retract.
    sim.abort_condition = lambda: oracle.has_errors

    from ...eval.runner import make_done_condition

    done = make_done_condition(build)
    completed = True
    try:
        sim.run(done)
        completed = done() and not oracle.has_errors
    except (SimulationError, ArithmeticError) as exc:
        # DeadlockError is a SimulationError; ArithmeticError covers a
        # premature wrong value reaching e.g. a divider (a mis-arbitrated
        # run crashing downstream is itself a finding, not a harness bug).
        completed = False
        report.add(
            make_diagnostic(
                "PV305",
                f"simulation did not complete: {exc}",
                location=f"{kernel.name}[{config.memory_style}]",
                hint="the sanitizer cannot excuse a hang; debug the circuit "
                "before trusting any ordering verdicts",
                pass_name="sanitize-runner",
            )
        )

    final = build.memory.snapshot()
    oracle.finalize(final_memory=final, completed=completed)
    verified = completed and all(
        final.get(name) == values for name, values in golden.memory.items()
    )
    return SanitizeResult(
        kernel=kernel.name,
        config=config,
        report=report,
        cycles=sim.stats.cycles,
        verified=verified,
        completed=completed,
        checks=oracle.checks,
        proofs=proofs,
        trace=trace if keep_trace else None,
        engine=sim.engine_name,
    )
