"""Pipelined arithmetic/logic operators.

:class:`Operator` joins its N inputs, applies a Python function, and pushes
the result through an L-stage fully pipelined shift register (initiation
interval 1).  ``latency == 0`` gives a purely combinational unit.  The
pipeline stalls as a whole when its output is blocked, which is the
behaviour of Dynamatic's non-elastic inner operator wrapped in elastic
glue.

The :data:`OP_TABLE` maps IR opcodes to (function, latency, resource-class)
tuples.  Latencies follow typical Vivado IP figures at ~250 MHz used by
Dynamatic's component library: integer add/sub/compare are combinational,
multiply takes 4 cycles, divide 8.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from .component import Component
from .token import Token, combine


def _c_div(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero)."""
    if b == 0:
        raise ZeroDivisionError("division by zero in dataflow operator")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_rem(a: int, b: int) -> int:
    """C-style remainder: a - (a/b)*b with truncating division."""
    return a - _c_div(a, b) * b


#: opcode -> (function, latency cycles, resource-class key)
OP_TABLE = {
    "add": (lambda a, b: a + b, 0, "add"),
    "sub": (lambda a, b: a - b, 0, "add"),
    "mul": (lambda a, b: a * b, 4, "mul"),
    "div": (_c_div, 8, "div"),
    "rem": (_c_rem, 8, "div"),
    "and": (lambda a, b: a & b, 0, "logic"),
    "or": (lambda a, b: a | b, 0, "logic"),
    "xor": (lambda a, b: a ^ b, 0, "logic"),
    "shl": (lambda a, b: a << b, 0, "shift"),
    "shr": (lambda a, b: a >> b, 0, "shift"),
    "eq": (lambda a, b: int(a == b), 0, "cmp"),
    "ne": (lambda a, b: int(a != b), 0, "cmp"),
    "lt": (lambda a, b: int(a < b), 0, "cmp"),
    "le": (lambda a, b: int(a <= b), 0, "cmp"),
    "gt": (lambda a, b: int(a > b), 0, "cmp"),
    "ge": (lambda a, b: int(a >= b), 0, "cmp"),
    "neg": (lambda a: -a, 0, "add"),
    "not": (lambda a: int(not a), 0, "logic"),
}


class Operator(Component):
    """N-input pipelined operator with initiation interval 1."""

    scheduling_contract_audited = True

    def __init__(
        self,
        name: str,
        fn: Callable[..., Any],
        n_inputs: int,
        latency: int = 0,
        width: int = 32,
        resource: str = "logic",
    ):
        super().__init__(name)
        self.fn = fn
        self.n_inputs = n_inputs
        self.latency = latency
        self.width = width
        self.resource_class = resource
        # Pipeline slots, index 0 = newest; only used when latency >= 1.
        self._pipe: List[Optional[Token]] = [None] * latency
        self._in_chs = None  # bound lazily after wiring
        self._c0_cache = [None, None]  # [input token list, output token]

    @classmethod
    def from_opcode(cls, name: str, opcode: str, width: int = 32) -> "Operator":
        fn, latency, resource = OP_TABLE[opcode]
        n_inputs = fn.__code__.co_argcount
        return cls(name, fn, n_inputs, latency=latency, width=width, resource=resource)

    def in_port(self, i: int) -> str:
        return f"in{i}"

    def _bind(self):
        chs = [self.inputs[f"in{i}"] for i in range(self.n_inputs)]
        self._in_chs = chs
        self._out_ch = self.outputs["out"]
        return chs

    def _inputs_valid(self):
        toks = []
        for ch in self._in_chs or self._bind():
            if not ch.valid:
                return None
            toks.append(ch.data)
        return toks

    def _compute(self, toks) -> Token:
        result = self.fn(*[t.value for t in toks])
        return combine(result, *toks)

    def propagate(self) -> None:
        ins = self._in_chs or self._bind()
        toks = []
        for ch in ins:
            if not ch.valid:
                toks = None
                break
            toks.append(ch.data)
        out_ch = self._out_ch
        if self.latency == 0:
            if toks is None:
                return
            out_ch.valid = True
            cache = self._c0_cache
            last = cache[0]
            if last is not None and all(a is b for a, b in zip(last, toks)):
                out_ch.data = cache[1]
            else:
                out = self._compute(toks)
                cache[0] = toks
                cache[1] = out
                out_ch.data = out
            if out_ch.ready:
                for ch in ins:
                    ch.ready = True
            return
        # Pipelined: output from the last stage; accept when the pipe shifts.
        tail = self._pipe[-1]
        if tail is not None:
            out_ch.valid = True
            out_ch.data = tail
        if toks is not None and (tail is None or out_ch.ready):
            for ch in ins:
                ch.ready = True

    def tick(self):
        if self.latency == 0:
            return
        ins = self._in_chs or self._bind()
        out_ch = self._out_ch
        pipe = self._pipe
        tail = pipe[-1]
        advance = tail is None or (out_ch.valid and out_ch.ready)
        if not advance:
            return
        toks = self._inputs_valid()
        first = ins[0]
        accepted = toks is not None and first.valid and first.ready
        new_head = self._compute(toks) if accepted else None
        self._pipe = [new_head] + pipe[:-1]

    def flush(self, domain: int, min_iter: int) -> None:
        self._pipe = [
            None if (t is not None and t.is_squashed_by(domain, min_iter)) else t
            for t in self._pipe
        ]

    @property
    def is_busy(self) -> bool:
        # Progress without channel traffic only happens while bubbles let the
        # pipeline shift; a pipeline blocked at its tail is genuinely stuck.
        return bool(
            self._pipe
            and self._pipe[-1] is None
            and any(t is not None for t in self._pipe)
        )

    def perf_model(self):
        # Fully pipelined: latency stages, each holding one token.
        if self.latency == 0:
            return (0, 0)
        return (self.latency, self.latency)

    @property
    def resource_params(self):
        return {"width": self.width, "n": self.n_inputs, "latency": self.latency}
