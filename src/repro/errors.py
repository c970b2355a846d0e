"""Exception hierarchy for the PreVV reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch reproduction-specific failures without masking ordinary
Python errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class CircuitError(ReproError):
    """Structural problem in a dataflow circuit (bad wiring, duplicate names)."""


class SimulationError(ReproError):
    """Runtime problem during cycle-accurate simulation."""


class DeadlockError(SimulationError):
    """The circuit made no progress for too many consecutive cycles.

    Carries a human-readable diagnosis of stuck channels so that deadlocks
    (e.g. the Fig. 6 conditional-pair deadlock) can be inspected in tests.
    """

    def __init__(self, message: str, stuck_channels=None):
        super().__init__(message)
        self.stuck_channels = list(stuck_channels or [])


class ConvergenceError(SimulationError):
    """Combinational fixpoint failed to settle within the iteration cap."""


class CodegenUnsupportedError(SimulationError):
    """The step-code compiler declined a circuit (or a feature request).

    Raised for circuits containing unaudited/unknown component classes,
    instance-level propagate/tick patches, or cyclic valid/ready residue,
    and for simulator features the compiled engine does not support
    (tracing, per-channel stall statistics).  Engine selection catches
    this, logs it and falls back to the interpreted reference engine.
    """


class IRError(ReproError):
    """Malformed IR (verifier failures, bad builder usage)."""


class InterpreterError(ReproError):
    """Golden-model interpreter failure (out-of-bounds access, bad types)."""


class AnalysisError(ReproError):
    """Memory-dependence analysis failure."""


class CompileError(ReproError):
    """Elastic-circuit synthesis failure."""


class MemoryError_(ReproError):
    """Memory subsystem failure (out-of-range address, port misuse)."""


class QueueOverflowError(ReproError):
    """An internal hardware queue was pushed while full.

    This indicates a handshake bug: backpressure should have prevented the
    push. It is an assertion-style error, never expected in a correct run.
    """


class ValidationError(ReproError):
    """PreVV validation-stage inconsistency (internal invariant broken)."""


class ConfigError(ReproError):
    """Invalid evaluation or hardware configuration."""
