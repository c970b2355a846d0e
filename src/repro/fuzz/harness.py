"""Differential checking of one kernel across engines, configs and oracles.

:func:`check_kernel` is the fuzzer's judgment seat.  For each hardware
config it establishes a baseline with the seed worklist oracle
(:class:`~repro.dataflow.Simulator`, engine ``reference``), then demands:

* **golden-memory** — the baseline's final memory equals the
  interpreter's (the architectural contract every config must meet);
* **engine-identity** — every other engine (by default compiled; all
  via :func:`~repro.dataflow.make_simulator`)
  reproduces the baseline bit-identically: cycles, transfers, squashes,
  squashed iterations and final memory;
* **oracle** — on PreVV configs, a :func:`~repro.analysis.sanitizer.
  runner.sanitize_run` with the shadow sequential-consistency oracle
  attached reports no PV3xx error;
* **depth-bound** — when the PVSan prover classifies every ambiguous
  pair BOUNDED_DISTANCE, running at exactly the proven sufficient depth
  must still be clean (an unsound depth bound is a prover bug);
* **perf-bound** — the PVPerf static lower bounds must not exceed the
  measured cycle count (:func:`repro.analysis.perf.measure.compare`,
  the PV404 invariant);
* **occupancy-bound** — the PVBound static occupancy upper bounds must
  cover every measured peak, and its predicted-overflow set must be a
  superset of any observed physical overflow
  (:func:`repro.analysis.occupancy.measure.compare`, the PV504
  invariant);
* **no crash** — any engine raising (deadlock, convergence failure,
  arithmetic error) is itself a finding.

Every violated invariant becomes a :class:`Divergence`; an empty
divergence list is the fuzzer's "this kernel agrees everywhere".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..analysis.perf.measure import PerfMeasurement, compare
from ..analysis.perf.predict import predict
from ..analysis.sanitizer.prover import PairClass
from ..analysis.sanitizer.runner import sanitize_run
from ..compile import compile_function
from ..config import HardwareConfig
from ..dataflow import make_simulator
from ..eval.configs import BY_NAME, prevv_with_depth
from ..eval.runner import make_done_condition, run_kernel
from ..ir import run_golden
from .spec import KernelSpec, spec_to_kernel

#: engines checked against the reference baseline
DEFAULT_ENGINES = ("compiled",)

#: default config sweep: both baselines + PreVV at two depths
DEFAULT_CONFIG_NAMES = ("dynamatic", "fast_lsq", "prevv4", "prevv16")

#: fields of a run that must be bit-identical across engines
_IDENTITY_FIELDS = (
    "cycles", "transfers", "squashes", "squashed_iterations",
)


def configs_from_names(names: Sequence[str]) -> List[HardwareConfig]:
    """Resolve config names; ``prevv<N>`` makes a depth-N PreVV config."""
    configs = []
    for name in names:
        if name in BY_NAME:
            configs.append(BY_NAME[name])
        elif name.startswith("prevv") and name[5:].isdigit():
            configs.append(prevv_with_depth(int(name[5:])))
        else:
            known = ", ".join(sorted(BY_NAME)) + ", prevv<N>"
            raise ValueError(f"unknown config {name!r}; known: {known}")
    return configs


@dataclass
class Divergence:
    """One violated invariant on one (kernel, config, engine) point."""

    kernel: str
    config: str
    engine: str
    invariant: str  # golden-memory | engine-identity | oracle |
    #               # depth-bound | perf-bound | crash
    detail: str

    def to_dict(self) -> Dict[str, str]:
        return {
            "kernel": self.kernel,
            "config": self.config,
            "engine": self.engine,
            "invariant": self.invariant,
            "detail": self.detail,
        }


@dataclass
class KernelReport:
    """Everything :func:`check_kernel` concluded about one kernel."""

    kernel: str
    checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def add(self, config: str, engine: str, invariant: str, detail: str):
        self.divergences.append(
            Divergence(self.kernel, config, engine, invariant, detail)
        )


def sabotage_kill_index_check(build) -> None:
    """Disable the Eq. 4 same-index comparison in every PreVV arbiter.

    The canonical mutation (shared with the PVSan mutation tests):
    premature loads are never validated against conflicting stores, so
    any kernel with a real RAW hazard silently keeps stale values — the
    exact bug class the oracle exists to catch.
    """
    for unit in build.units:
        unit._same_index = lambda record: []


def _run_point(kernel, config, engine, max_cycles):
    return run_kernel(kernel, config, max_cycles=max_cycles, engine=engine)


def _mismatches(baseline, result) -> List[str]:
    problems = []
    for fld in _IDENTITY_FIELDS:
        want, got = getattr(baseline, fld), getattr(result, fld)
        if want != got:
            problems.append(f"{fld}: {got} != {want}")
    if result.memory != baseline.memory:
        arrays = sorted(
            name for name in baseline.memory
            if result.memory.get(name) != baseline.memory[name]
        )
        problems.append(f"final memory differs on {arrays}")
    return problems


def _check_perf_bounds(report, kernel, config, max_cycles):
    """PVPerf lower bounds vs a transfer-counting measured run."""
    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    prediction = predict(build, fn, kernel.args)
    golden = run_golden(fn, args=kernel.args, memory=kernel.memory_init)
    build.memory.initialize(kernel.memory_init)
    sim = make_simulator(build.circuit, engine="auto",
                         max_cycles=max_cycles, count_transfers=True)
    if build.squash_controller is not None:
        sim.end_of_cycle_hooks.append(build.squash_controller.end_of_cycle)
    stats = sim.run(make_done_condition(build))
    measurement = PerfMeasurement(
        subject=build.circuit.name,
        cycles=stats.cycles,
        channel_transfers={
            ch.name: ch.transfers for ch in build.circuit.channels
        },
        loop_activations=dict(golden.loop_activations),
    )
    for record in compare(prediction, measurement):
        report.checks += 1
        if not record.ok:
            report.add(
                config.name, sim.engine_name, "perf-bound",
                f"{record.kind}[{record.subject}]: static {record.static}"
                f" > measured {record.measured}",
            )


def _check_occupancy_bounds(report, kernel, config, max_cycles):
    """PVBound upper bounds vs the peak-sampling measured run.

    Two obligations per point: no measured peak above its static bound
    (or structural capacity), and predicted-overflow ⊇ observed-overflow
    — a physical overflow the model called unreachable is a soundness
    hole, while a predicted-but-unobserved overflow is merely
    conservative and stays silent here (PV502 reports it statically).
    """
    from ..analysis.occupancy import analyze_build, measure_build
    from ..analysis.occupancy import compare as compare_occupancy

    fn = kernel.build_ir()
    build = compile_function(fn, config, args=kernel.args)
    prediction = analyze_build(build, fn, kernel.args)
    build.memory.initialize(kernel.memory_init)
    measurement = measure_build(build, max_cycles=max_cycles)
    for record in compare_occupancy(prediction, measurement):
        report.checks += 1
        if not record.ok:
            report.add(
                config.name, measurement.engine, "occupancy-bound",
                f"{record.kind}[{record.subject}]: static {record.static}"
                f" < measured {record.measured}",
            )


def check_kernel(
    kernel,
    configs: Optional[Sequence[HardwareConfig]] = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    max_cycles: int = 400_000,
    mutate: Optional[Callable] = None,
    perf: bool = True,
) -> KernelReport:
    """Differentially check one :class:`~repro.kernels.Kernel`.

    ``mutate`` is forwarded to the sanitized (oracle) runs only — it
    sabotages the PreVV arbiter after compilation, which is how the
    harness proves its own teeth (and how tests/CI exercise the
    shrinker): a mutated run *must* produce divergences on any kernel
    with a real hazard.
    """
    if configs is None:
        configs = configs_from_names(DEFAULT_CONFIG_NAMES)
    report = KernelReport(kernel=kernel.name)

    proofs = []
    for config in configs:
        # Reference baseline + architectural (golden memory) check.
        try:
            baseline = _run_point(kernel, config, "reference", max_cycles)
        except Exception as exc:  # noqa: BLE001 — any crash is a finding
            report.add(config.name, "reference", "crash",
                       f"{type(exc).__name__}: {exc}")
            continue
        report.checks += 1
        if not baseline.verified:
            report.add(config.name, "reference", "golden-memory",
                       baseline.mismatch_summary)

        # Engine bit-identity against the baseline.
        for engine in engines:
            try:
                result = _run_point(kernel, config, engine, max_cycles)
            except Exception as exc:  # noqa: BLE001
                report.add(config.name, engine, "crash",
                           f"{type(exc).__name__}: {exc}")
                continue
            report.checks += 1
            for problem in _mismatches(baseline, result):
                report.add(config.name, result.engine or engine,
                           "engine-identity", problem)

        # SC oracle + static prover on PreVV configs.
        if config.memory_style == "prevv":
            try:
                sanitized = sanitize_run(
                    kernel, config, max_cycles=max_cycles, mutate=mutate
                )
            except Exception as exc:  # noqa: BLE001
                report.add(config.name, "oracle", "crash",
                           f"{type(exc).__name__}: {exc}")
                continue
            report.checks += sanitized.checks or 1
            if not sanitized.ok or not sanitized.verified:
                codes = sorted({d.code for d in sanitized.report.errors})
                report.add(
                    config.name, "oracle", "oracle",
                    f"sanitize not clean: verified={sanitized.verified}"
                    f" completed={sanitized.completed} errors={codes}",
                )
            if not proofs:
                proofs = sanitized.proofs

        # PVPerf static lower bounds (measured with the auto engine).
        if perf and mutate is None:
            try:
                _check_perf_bounds(report, kernel, config, max_cycles)
            except Exception as exc:  # noqa: BLE001
                report.add(config.name, "perf", "crash",
                           f"{type(exc).__name__}: {exc}")

        # PVBound static occupancy bounds (peak-sampled auto-engine run).
        if perf and mutate is None:
            try:
                _check_occupancy_bounds(report, kernel, config, max_cycles)
            except Exception as exc:  # noqa: BLE001
                report.add(config.name, "occupancy", "crash",
                           f"{type(exc).__name__}: {exc}")

    # Depth-bound soundness: if every ambiguous pair is bounded, the
    # proven sufficient depth must itself be a clean operating point.
    if proofs and mutate is None:
        bounded = [p for p in proofs
                   if p.classification is PairClass.BOUNDED_DISTANCE]
        if bounded and all(
            p.classification is not PairClass.UNKNOWN for p in proofs
        ):
            depth = max(p.depth_bound for p in bounded)
            if 1 <= depth <= 64:
                config = prevv_with_depth(depth)
                try:
                    sanitized = sanitize_run(
                        kernel, config, max_cycles=max_cycles
                    )
                    report.checks += 1
                    if not sanitized.ok or not sanitized.verified:
                        report.add(
                            config.name, "oracle", "depth-bound",
                            f"prover-sufficient depth {depth} is not"
                            f" clean: verified={sanitized.verified}"
                            f" completed={sanitized.completed}",
                        )
                except Exception as exc:  # noqa: BLE001
                    report.add(config.name, "oracle", "depth-bound",
                               f"{type(exc).__name__}: {exc}")
    return report


def check_spec(
    spec: KernelSpec,
    configs: Optional[Sequence[HardwareConfig]] = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    max_cycles: int = 400_000,
    mutate: Optional[Callable] = None,
    perf: bool = True,
) -> KernelReport:
    """:func:`check_kernel` over a spec (builds the kernel first)."""
    return check_kernel(
        spec_to_kernel(spec), configs=configs, engines=engines,
        max_cycles=max_cycles, mutate=mutate, perf=perf,
    )
