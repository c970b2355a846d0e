"""The four benchmark workloads.

Each workload is a closed loop with one client: every request is one
public call into ``repro``, issued after the previous one returned.

* ``setup(seed)`` imports the program and, for ``input_sweep``, fills
  the plan cache with one untimed run per structure;
* ``prepare(index)`` (untimed) readies pass ``index``: it draws that
  pass's inputs from the seed and, on the cold workloads, empties the
  compiled-plan cache;
* ``run_pass(rec)`` makes the pass's calls through a
  :class:`~spans.Recorder` and returns a fingerprint of everything they
  computed, so the traced pass can be compared exactly with the
  untraced pass of the same index.

Inputs are fresh in every pass (no call ever repeats an earlier input),
so a result cache could not make a later pass cheaper.  After a pass,
every recorded :class:`~spans.Call` has ``facts["cycles"]`` (simulated
cycles, 0 when nothing was simulated) and ``facts["ok"]`` (1 for a
verified run or an error-free lint report).
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from gen import FUZZ_SHAPES, fuzz_spec, gaussian_matrix, histogram_keys


def run_fingerprint(result) -> tuple:
    """What a traced run must reproduce: cycles, transfers, squashes,
    final memory (and the engine that produced them)."""
    return (
        result.cycles, result.transfers, result.squashes,
        result.squashed_iterations, result.verified, result.engine,
        tuple(sorted((k, tuple(v)) for k, v in result.memory.items())),
    )


def _finish_run(call) -> tuple:
    """Fill a run_kernel call's facts and return its fingerprint."""
    result = call.result
    if result is None:
        call.facts.update(cycles=0, ok=0)
        return ("error", call.error)
    call.facts.update(cycles=result.cycles, ok=int(result.verified))
    return run_fingerprint(result)


def _clear_plan_cache() -> None:
    from repro.dataflow import clear_plan_cache

    clear_plan_cache()


class Workload:
    name = ""
    #: a run makes at least this many passes, whatever ``--seconds`` says
    MIN_PASSES = 1
    #: a failed call makes the whole benchmark incorrect (exit non-zero)
    fatal_failures = True

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> None:
        _clear_plan_cache()

    def run_pass(self, rec) -> list:
        raise NotImplementedError


class PaperTables(Workload):
    """``table1()`` + ``table2()`` at paper sizes, cold plan cache."""

    name = "paper_tables"

    def setup(self, seed: int) -> None:
        # The paper kernels have fixed inputs: the seed changes nothing.
        from repro.eval import runner, tables

        self.runner, self.tables = runner, tables
        self.rows1 = self.rows2 = None

    def run_pass(self, rec) -> list:
        self.rows1 = self.tables.table1()
        with rec.intercept(self.runner, "run_kernel", "run_kernel",
                           lambda kernel, config, *a, **k: config.name):
            self.rows2 = self.tables.table2()
        prints = [_finish_run(call) for call in rec.calls]
        prints.append(tuple(
            (r.kernel, tuple(sorted(r.luts.items())),
             tuple(sorted(r.ffs.items()))) for r in self.rows1))
        prints.append(tuple(
            (r.kernel, tuple(sorted(r.cycles.items())),
             tuple(sorted(r.period.items())),
             tuple(sorted(r.verified.items()))) for r in self.rows2))
        return prints

    def paper_metrics(self) -> Dict[str, float]:
        """Cycle error against Table II and the two headline deltas."""
        from repro.eval.stats import geomean

        paper = self.tables.PAPER_TABLE2
        errs = [abs(row.cycles[cfg] - paper[row.kernel][cfg][0])
                / paper[row.kernel][cfg][0]
                for row in self.rows2 for cfg in row.cycles]

        def delta(rows, field, cfg):
            return 100.0 * (geomean([
                getattr(r, field)[cfg] / getattr(r, field)["fast_lsq"]
                for r in rows]) - 1.0)

        return {
            "table2_cycle_err_pct": 100.0 * sum(errs) / len(errs),
            "prevv64_exec_vs_fastlsq_pct": delta(self.rows2, "exec_us",
                                                 "prevv64"),
            "prevv16_lut_vs_fastlsq_pct": delta(self.rows1, "luts",
                                                "prevv16"),
        }

    def area_metrics(self) -> Dict[str, float]:
        """Per config: summed LUTs (Table I), mean clock period (Table II)."""
        out = {}
        for cfg in self.rows1[0].luts:
            out[f"area.luts.{cfg}"] = sum(r.luts[cfg] for r in self.rows1)
            out[f"area.clock_period_ns.{cfg}"] = (
                sum(r.period[cfg] for r in self.rows2) / len(self.rows2))
        return out


class InputSweep(Workload):
    """Warm plan cache; a fresh seeded input for every run_kernel call."""

    name = "input_sweep"
    MIN_PASSES = 4
    #: (kernel, sizes); each runs under dynamatic and prevv16
    STRUCTURES = (("gaussian", {"n": 8}),
                  ("histogram", {"n": 256, "buckets": 64}))
    #: inputs per structure and config in one pass; histogram inputs
    #: take one bucket-count stratum each (few, middling, many buckets)
    PER_PASS = 3
    #: bucket-count strata: input i of pass p takes stratum
    #: ``4 * i + p % 4``, so each pass has a low, a middle and a high one
    #: and four passes cover all twelve
    STRATA = 4 * PER_PASS

    def setup(self, seed: int) -> None:
        from repro.eval import DYNAMATIC, PREVV16, runner
        from repro.kernels import get_kernel

        self.seed, self.runner = seed, runner
        self.streams = [
            (2 * s + c, get_kernel(name, **sizes), sizes, cfg)
            for s, (name, sizes) in enumerate(self.STRUCTURES)
            for c, cfg in enumerate((DYNAMATIC, PREVV16))
        ]
        # One untimed run per structure fills the plan cache; index -1
        # keeps its input apart from every pass's.
        for stream, kernel, sizes, cfg in self.streams:
            runner.run_kernel(self._input(stream, kernel, sizes, -1, 0), cfg)

    def _input(self, stream, kernel, sizes, index, stratum):
        if kernel.name == "gaussian":
            memory = {"A": gaussian_matrix(self.seed, stream, index,
                                           sizes["n"])}
        else:
            memory = {"data": histogram_keys(
                self.seed, stream, index, sizes["n"], sizes["buckets"],
                stratum, self.STRATA)}
        return dataclasses.replace(kernel, memory_init=memory)

    def prepare(self, index: int) -> None:
        # Warm workload: the plan cache stays as set-up left it.
        width = self.STRATA // self.PER_PASS
        self.points = [
            (self._input(stream, kernel, sizes, index * self.PER_PASS + i,
                         width * i + index % width), cfg)
            for i in range(self.PER_PASS)
            for stream, kernel, sizes, cfg in self.streams
        ]

    def run_pass(self, rec) -> list:
        prints = []
        for kernel, cfg in self.points:
            try:
                rec.call("run_kernel", cfg.name, self.runner.run_kernel,
                         kernel, cfg)
            except Exception:
                pass  # recorded on the call; counted as a failure
            prints.append(_finish_run(rec.calls[-1]))
        return prints


class FuzzStream(Workload):
    """Distinct generated kernels: IR, elaboration and codegen every call."""

    name = "fuzz_stream"
    MIN_PASSES = 8
    #: kernels per pass, an equal number of each generator shape
    KERNELS = 4 * len(FUZZ_SHAPES)
    #: a cycle-cap hit is a counted failure (livelock), not a hang; the
    #: generated kernels finish in at most ~100 cycles
    MAX_CYCLES = 500
    fatal_failures = False

    def setup(self, seed: int) -> None:
        from repro.eval import DYNAMATIC, PREVV16, runner
        from repro.fuzz import spec_to_kernel

        self.seed, self.runner, self.lower = seed, runner, spec_to_kernel
        self.configs = (DYNAMATIC, PREVV16)

    def prepare(self, index: int) -> None:
        _clear_plan_cache()
        first = index * self.KERNELS
        self.specs = [fuzz_spec(self.seed, first + i)
                      for i in range(self.KERNELS)]

    def run_pass(self, rec) -> list:
        prints = []
        for spec in self.specs:
            with rec.span("fuzz.lower"):
                kernel = self.lower(spec)
            for cfg in self.configs:
                try:
                    rec.call("run_kernel", cfg.name, self.runner.run_kernel,
                             kernel, cfg, max_cycles=self.MAX_CYCLES)
                except Exception:
                    pass  # recorded on the call; counted as a failure
                prints.append(_finish_run(rec.calls[-1]))
        return prints


class LintKernels(Workload):
    """All six lint layers on the paper kernels, plus measured checks."""

    name = "lint_kernels"
    STATIC = ("polyn_mult", "2mm", "3mm", "gaussian", "triangular")
    #: kernels also given ``--sanitize --perf --occupancy``
    MEASURED = ("polyn_mult", "fig2b", "histogram", "recurrence")

    def setup(self, seed: int) -> None:
        # The seed kernels have fixed inputs: the seed changes nothing.
        from repro.analysis.lint.driver import lint_kernel
        from repro.config import HardwareConfig

        self.lint = lint_kernel
        self.config = HardwareConfig(memory_style="prevv")

    def _measured(self, rec, name):
        """What ``python -m repro.lint NAME --sanitize --perf
        --occupancy`` does: two measured runs, the lint, one sanitized
        run.  Returns ``(report, [cycles of each simulation])``."""
        from repro.analysis.occupancy import measure_kernel as occupancy
        from repro.analysis.perf import measure_kernel as perf
        from repro.analysis.sanitizer import sanitize_run
        from repro.kernels import get_kernel

        with rec.span("analysis.measured"):
            _, perf_m = perf(name, self.config)
            _, occ_m = occupancy(name, self.config)
        report = self.lint(name, self.config, measured=perf_m,
                           occupancy_measured=occ_m)
        with rec.span("analysis.measured"):
            san = sanitize_run(get_kernel(name), self.config, report=report,
                               static=False)
        if not san.verified:
            raise RuntimeError(f"{name}: sanitized run not verified")
        return report, [perf_m.cycles, occ_m.cycles, san.cycles]

    def run_pass(self, rec) -> list:
        prints = []
        work = ([(name, False) for name in self.STATIC]
                + [(name, True) for name in self.MEASURED])
        for name, measured in work:
            try:
                if measured:
                    rec.call("lint", "prevv", self._measured, rec, name)
                else:
                    rec.call("lint", "prevv", self.lint, name, self.config)
            except Exception:
                pass  # recorded on the call; counted as a failure
            call = rec.calls[-1]
            if call.result is None:
                call.facts.update(cycles=0, ok=0)
                prints.append(("error", call.error))
                continue
            report, cycles = call.result if measured else (call.result, [])
            call.result = report
            call.facts.update(cycles=sum(cycles), ok=int(report.ok))
            prints.append((
                tuple(sorted((d.code, d.severity.value, d.location, d.message)
                             for d in report.diagnostics)),
                tuple(cycles)))
        return prints


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (PaperTables, InputSweep, FuzzStream, LintKernels)
}
