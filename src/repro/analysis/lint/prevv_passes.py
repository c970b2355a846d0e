"""PreVV-configuration lint passes (PV2xx).

The configuration layer audits the *decisions* the flow made against the
paper's analytical models:

* the premature-queue depth against the matched-depth bound of
  Sec. V-A (Eqs. 6-10) — an undersized queue stalls the predecessor and
  erases the premature-execution win;
* the ambiguous-pair set against an independently derived polyhedral
  dependence set — a stale or doctored analysis silently builds an
  unsound circuit (Definition 1 must be conservative);
* the Sec. V-B dimension reduction — one PreVV unit per *reduced* group,
  never per pair (Eq. 11 complexity blow-up otherwise);
* the memory style against the kernel's hazards.
"""

from __future__ import annotations

from typing import Set, Tuple

from ...ir.instructions import LoadInst
from ..polyhedral import AffineAnalyzer, Dependence
from ..sizing import (
    DEFAULT_P_SQUASH,
    DEFAULT_T_ORG,
    DEFAULT_T_TOKEN,
    suggest_depth,
)
from .diagnostics import Severity
from .registry import LintContext, LintPass, register_pass

PairKey = Tuple[str, str, str]  # (load name, store name, array)


def _reference_pairs(ctx: LintContext) -> Set[PairKey]:
    """Independently re-derive the Definition 1 pair set from polyhedral
    primitives plus loop context (never trusting ``ctx.analysis``)."""
    from ..ambiguous_pairs import classify_with_loops

    fn = ctx.fn
    analyzer = AffineAnalyzer(fn)
    reference: Set[PairKey] = set()
    by_array = {}
    for block in fn.blocks:
        for inst in block.memory_ops():
            slot = by_array.setdefault(
                inst.array.name, {"loads": [], "stores": []}
            )
            if isinstance(inst, LoadInst):
                slot["loads"].append(inst)
            else:
                slot["stores"].append(inst)
    for array, ops in by_array.items():
        for load in ops["loads"]:
            for store in ops["stores"]:
                kind = classify_with_loops(analyzer, ctx.loops, load, store)
                if kind is Dependence.MAY_CONFLICT:
                    reference.add((load.name, store.name, array))
    return reference


@register_pass
class AmbiguousPairCrossCheckPass(LintPass):
    """PV202: the analysis' pair set must match the dependence set.

    Missing pairs (in the dependence set, absent from the analysis) are
    errors — the built circuit has no ordering hardware for a real
    hazard.  Extra pairs are warnings — sound but wasteful.
    """

    name = "prevv-pair-cross-check"
    layer = "prevv"
    codes = ("PV202",)
    requires = ("fn",)

    def run(self, ctx: LintContext) -> None:
        if ctx.has_ir_errors or ctx.analysis is None:
            return
        reference = _reference_pairs(ctx)
        audited: Set[PairKey] = {
            (p.load.name, p.store.name, p.array) for p in ctx.analysis.pairs
        }
        for load_name, store_name, array in sorted(reference - audited):
            ctx.emit(
                "PV202",
                f"pair Am{{{load_name}, {store_name}}}@{array} is in the "
                "polyhedral dependence set but missing from the memory "
                "analysis",
                location=f"{ctx.fn.name}:{array}",
                hint="re-run analyze_function; the compiled circuit has "
                "no ordering hardware for this hazard",
            )
        for load_name, store_name, array in sorted(audited - reference):
            ctx.emit(
                "PV202",
                f"pair Am{{{load_name}, {store_name}}}@{array} is not "
                "justified by the polyhedral dependence set",
                location=f"{ctx.fn.name}:{array}",
                hint="sound but wasteful: the pair spends queue entries "
                "on a proven-independent access",
                severity=Severity.WARNING,
            )


@register_pass
class QueueDepthModelPass(LintPass):
    """PV201/PV205: premature-queue depth against the Eq. 6-10 model."""

    name = "prevv-queue-depth"
    layer = "prevv"
    codes = ("PV201", "PV205")
    requires = ("config",)

    def run(self, ctx: LintContext) -> None:
        config = ctx.config
        if config.memory_style != "prevv":
            return
        needs_queue = bool(
            (ctx.build is not None and getattr(ctx.build, "units", []))
            or (
                ctx.fn is not None
                and not ctx.has_ir_errors
                and ctx.analysis is not None
                and ctx.analysis.pairs
            )
        )
        if not needs_queue:
            return
        depth = config.prevv_depth
        if depth & (depth - 1):
            ctx.emit(
                "PV205",
                f"prevv_depth {depth} is not a power of two",
                location="config:prevv_depth",
                hint="hardware queues are sized in powers of two; round "
                f"up to {1 << depth.bit_length()}",
            )
        bound = suggest_depth(DEFAULT_T_ORG, DEFAULT_P_SQUASH, DEFAULT_T_TOKEN)
        if depth < bound:
            ctx.emit(
                "PV201",
                f"prevv_depth {depth} is below the matched-depth bound "
                f"{bound} (Eqs. 6-10): ambiguous pairs will stall their "
                "predecessors",
                location="config:prevv_depth",
                hint=f"set prevv_depth >= {bound} or justify via the "
                "depth-sweep benchmark",
            )


@register_pass
class MemoryStyleSoundnessPass(LintPass):
    """PV204: the selected memory style must order the kernel's hazards."""

    name = "prevv-style-soundness"
    layer = "prevv"
    codes = ("PV204",)
    requires = ("fn", "config")

    def run(self, ctx: LintContext) -> None:
        if ctx.has_ir_errors or ctx.analysis is None:
            return
        if not ctx.analysis.pairs:
            return
        style = ctx.config.memory_style
        if style == "none":
            ctx.emit(
                "PV204",
                f"kernel has {len(ctx.analysis.pairs)} ambiguous pair(s) "
                "but memory_style='none' provides no ordering",
                location="config:memory_style",
                hint="use 'dynamatic', 'fast' or 'prevv'",
            )
            return
        if ctx.build is None:
            return
        if style == "prevv" and not ctx.build.units:
            ctx.emit(
                "PV204",
                "memory_style='prevv' but the circuit instantiates no "
                "PreVV unit for the kernel's ambiguous pairs",
                location="config:memory_style",
                hint="the builder must emit one PreVVUnit per reduced "
                "group",
            )
        elif style in ("dynamatic", "fast") and not ctx.build.lsqs:
            ctx.emit(
                "PV204",
                f"memory_style={style!r} but the circuit instantiates no "
                "LSQ for the kernel's ambiguous pairs",
                location="config:memory_style",
                hint="the builder must emit one LoadStoreQueue per "
                "conflicted array",
            )


@register_pass
class DimensionReductionPass(LintPass):
    """PV203/PV206: Sec. V-B reduction must be applied where applicable."""

    name = "prevv-dimension-reduction"
    layer = "prevv"
    codes = ("PV203", "PV206")
    requires = ("build",)

    def run(self, ctx: LintContext) -> None:
        build = ctx.build
        units = getattr(build, "units", [])
        groups = getattr(build, "groups", [])
        if not units and not groups:
            return
        if len(units) > len(groups):
            ctx.emit(
                "PV203",
                f"{len(units)} PreVV units for {len(groups)} reduced "
                "group(s): overlapped pairs are being validated more "
                "than once (Eq. 11 complexity)",
                location=f"{ctx.circuit.name if ctx.circuit else 'build'}",
                hint="instantiate exactly one unit per reduce_pairs group",
            )
        analysis = build.analysis if build.analysis is not None else ctx.analysis
        if analysis is None or not groups:
            return
        from ..reduction import max_pairs_per_op

        overlap = max_pairs_per_op(analysis)
        if overlap > 1 and len(units) == len(groups):
            ctx.emit(
                "PV206",
                f"dimension reduction collapsed {len(analysis.pairs)} "
                f"pair(s) (max {overlap} per op) into {len(groups)} "
                "validation group(s)",
                location=f"{ctx.fn.name if ctx.fn else 'build'}",
                hint="Eq. 11 exponential duplication avoided",
            )


@register_pass
class SchedulingContractAuditPass(LintPass):
    """PV207: every component class in a PreVV build must be audited.

    The compiled engine trusts three per-class contract flags
    (``observes_input_valid``, ``forwards_valid``,
    ``observes_output_ready``): they shape its static schedule and its
    one-pass valid and ready waves.  A class whose flags were never
    checked against its ``propagate`` body can silently corrupt results
    (flag too permissive) or force needless codegen declines (flag too
    conservative).  The audit is recorded by setting
    ``scheduling_contract_audited=True`` on the class; this pass refuses
    any PreVV-build component class that does not carry the marker.
    """

    name = "prevv-scheduling-contract"
    layer = "prevv"
    codes = ("PV207",)
    requires = ("circuit", "config")

    def run(self, ctx: LintContext) -> None:
        if ctx.config.memory_style != "prevv":
            return
        flagged = set()
        for comp in ctx.circuit.components:
            cls = type(comp)
            if cls in flagged:
                continue
            if not getattr(cls, "scheduling_contract_audited", False):
                flagged.add(cls)
                ctx.emit(
                    "PV207",
                    f"component class {cls.__name__} (e.g. {comp.name!r}) "
                    "does not declare an audited scheduling contract",
                    location=f"{ctx.circuit.name}:{comp.name}",
                    hint="check observes_input_valid / forwards_valid / "
                    "observes_output_ready against the class' propagate "
                    "body, then set scheduling_contract_audited = True "
                    "on the class",
                )
