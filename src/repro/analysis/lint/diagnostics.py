"""Diagnostic model for the circuit linter.

Every finding is a :class:`Diagnostic`: a stable code (``PV001`` ...), a
severity, a human-readable message, a source location and an optional
fix-it hint.  Codes are grouped by analysis layer:

* ``PV0xx`` — IR well-formedness and memory hygiene;
* ``PV1xx`` — circuit-graph structure (connectivity, deadlock, tokens);
* ``PV2xx`` — PreVV configuration (queue sizing, pair cross-checks);
* ``PV3xx`` — PVSan: the static disambiguation prover and the dynamic
  sequential-consistency oracle (:mod:`repro.analysis.sanitizer`);
* ``PV4xx`` — PVPerf: static throughput bounds (maximum cycle ratio,
  PreVV pressure models) and their measured cross-check
  (:mod:`repro.analysis.perf`).

The full table lives in :data:`CODES`; emitting an unknown code is a
programming error and raises immediately, which keeps the table exhaustive
and the documentation in DESIGN.md honest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Severity(enum.Enum):
    """How bad a diagnostic is; orderable (ERROR > WARNING > INFO)."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r}; choose from "
                f"{[s.value for s in cls]}"
            ) from None


#: code -> (default severity, one-line title).  The single source of truth
#: for every diagnostic the linter can emit (mirrored in DESIGN.md).
CODES: Dict[str, Tuple[Severity, str]] = {
    # --- IR layer (PV0xx) ---------------------------------------------
    "PV001": (Severity.ERROR, "function has no blocks"),
    "PV002": (Severity.ERROR, "block is missing a terminator"),
    "PV003": (Severity.ERROR, "terminator is not the last instruction"),
    "PV004": (Severity.ERROR, "branch successor is not in the function"),
    "PV005": (Severity.ERROR, "phi incomings do not match predecessors"),
    "PV006": (Severity.ERROR, "operand is not defined in the function"),
    "PV007": (Severity.ERROR, "memory access names an undeclared array"),
    "PV008": (Severity.ERROR, "block is unreachable from the entry"),
    "PV009": (Severity.WARNING, "store to a loop-invariant constant address"),
    "PV010": (Severity.ERROR, "use is not dominated by its definition"),
    "PV011": (Severity.INFO, "loop-carried may-conflict dependence"),
    # --- Circuit layer (PV1xx) ----------------------------------------
    "PV101": (Severity.ERROR, "declared port is not connected"),
    "PV102": (Severity.ERROR, "channel has a dangling end"),
    "PV103": (Severity.ERROR, "combinational cycle without opaque storage"),
    "PV104": (Severity.ERROR, "tokens cannot drain to any consumer"),
    "PV105": (Severity.ERROR, "conditional PreVV port lacks a fake-token path"),
    "PV106": (Severity.ERROR, "PreVV port lacks a done-token path"),
    "PV107": (Severity.INFO, "unconditional PreVV port has a fake-token path"),
    # --- PreVV configuration layer (PV2xx) ----------------------------
    "PV201": (Severity.WARNING, "premature-queue depth below the matched bound"),
    "PV202": (Severity.ERROR, "ambiguous-pair set disagrees with the dependence analysis"),
    "PV203": (Severity.WARNING, "overlapped-pair dimension reduction left unexploited"),
    "PV204": (Severity.ERROR, "memory style cannot order the kernel's ambiguous pairs"),
    "PV205": (Severity.WARNING, "premature-queue depth is not a power of two"),
    "PV206": (Severity.INFO, "dimension reduction collapsed overlapped pairs"),
    "PV207": (Severity.ERROR, "component class lacks an audited scheduling contract"),
    "PV208": (Severity.WARNING, "circuit is not compilable by the codegen engine"),
    # --- PVSan sanitizer layer (PV3xx) --------------------------------
    "PV301": (Severity.INFO, "pair proven independent; its PreVV entry can be dropped"),
    "PV302": (Severity.INFO, "loop-carried distance bounds the premature window"),
    "PV303": (Severity.INFO, "pair stays unproven; arbiter required"),
    "PV304": (Severity.ERROR, "prover claim contradicted by the interpreter trace"),
    "PV305": (Severity.ERROR, "arbiter missed an ordering violation"),
    "PV306": (Severity.ERROR, "arbiter squashed without an observable value mismatch"),
    "PV307": (Severity.ERROR, "dimension reduction does not cover the ambiguous pairs"),
    "PV308": (Severity.ERROR, "fake/real token retirement disagrees with program order"),
    # --- PVPerf performance layer (PV4xx) ------------------------------
    "PV401": (Severity.WARNING, "undersized buffering bounds the critical cycle"),
    "PV402": (Severity.WARNING, "validation bandwidth bounds the loop II"),
    "PV403": (Severity.WARNING, "premature-queue depth below the proven distance window"),
    "PV404": (Severity.ERROR, "static II bound exceeds the measured steady state"),
    # --- PVBound occupancy layer (PV5xx) -------------------------------
    "PV501": (Severity.ERROR, "occupancy exceeds a place's structural capacity"),
    "PV502": (Severity.ERROR, "premature-queue physical-slack overflow reachable"),
    "PV503": (Severity.ERROR, "retirement-stall cycle leaves entries unretired"),
    "PV504": (Severity.ERROR, "static occupancy bound below the measured peak"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

    code: str
    severity: Severity
    message: str
    #: where the problem is: ``fn:block:inst``, ``circuit:component``,
    #: ``config:field`` — whatever is most precise for the layer.
    location: str = ""
    #: actionable fix-it suggestion ("insert an OEHB on ...").
    hint: str = ""
    #: the lint pass that produced this (for --explain / debugging).
    pass_name: str = ""

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def format(self) -> str:
        loc = f" [{self.location}]" if self.location else ""
        text = f"{self.severity.value} {self.code}{loc}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "hint": self.hint,
            "pass": self.pass_name,
        }


def make_diagnostic(
    code: str,
    message: str,
    location: str = "",
    hint: str = "",
    pass_name: str = "",
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the :data:`CODES` table."""
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}; add it to CODES")
    return Diagnostic(
        code=code,
        severity=severity or CODES[code][0],
        message=message,
        location=location,
        hint=hint,
        pass_name=pass_name,
    )


@dataclass
class LintReport:
    """Ordered collection of diagnostics plus query/format helpers."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: accumulated wall time per pass name, in seconds (driver-recorded)
    timings: Dict[str, float] = field(default_factory=dict)

    def add(self, diag: Diagnostic) -> Diagnostic:
        self.diagnostics.append(diag)
        return diag

    def extend(self, other: "LintReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        for name, seconds in other.timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + seconds

    def record_timing(self, pass_name: str, seconds: float) -> None:
        self.timings[pass_name] = self.timings.get(pass_name, 0.0) + seconds

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def with_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.with_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.with_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Diagnostic]:
        return self.with_severity(Severity.INFO)

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was emitted."""
        return not self.errors

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary(self) -> str:
        return (
            f"{self.subject or 'lint'}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.infos)} info(s)"
        )

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [self.summary()]
        for diag in self.diagnostics:
            if min_severity <= diag.severity:
                lines.append("  " + diag.format())
        return "\n".join(lines)

    def format_timings(self) -> str:
        """Per-pass wall-time table, slowest first."""
        lines = [f"{self.subject or 'lint'}: pass timings"]
        for name, seconds in sorted(
            self.timings.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"  {name:<32s} {seconds * 1000.0:9.2f} ms")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "subject": self.subject,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "timings": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.timings.items())
            },
        }

    def __len__(self) -> int:
        return len(self.diagnostics)
