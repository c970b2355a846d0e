"""Basic elastic components: entry, source, sink, constant, fork, join.

These mirror the Dynamatic component library [Josipović et al., 2020]:

* :class:`Entry` — emits exactly one start token (the function's control
  activation) and is then silent.
* :class:`Source` — offers an endless stream of constant tokens (used only
  in tests; real circuits trigger constants from control tokens).
* :class:`Sink` — consumes and records everything (always ready).
* :class:`Constant` — one constant-valued token per incoming control token.
* :class:`Fork` — eager fork: each successor receives its copy as soon as it
  is ready, tracked with per-output ``done`` bits.
* :class:`Join` — synchronizes N control tokens into one.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .component import Component
from .token import Token, combine


class Entry(Component):
    """Emits a single start token, then goes quiet.

    The start token models the function-call control activation that
    Dynamatic feeds into the entry basic block.
    """

    resource_class = "entry"
    observes_output_ready = False  # emits unconditionally until consumed
    scheduling_contract_audited = True

    def __init__(self, name: str, value: Any = None):
        super().__init__(name)
        self.value = value
        self._emitted = False
        self._token: Optional[Token] = None  # stable across evaluations

    def propagate(self) -> None:
        if not self._emitted:
            token = self._token
            if token is None:
                token = self._token = Token(self.value)
            self.drive_out("out", token)

    def tick(self):
        if not self._emitted and self.out_fires("out"):
            self._emitted = True

    def reset(self) -> None:
        self._emitted = False


class Source(Component):
    """Endless stream of identical tokens (test helper)."""

    resource_class = "source"
    observes_output_ready = False  # offers unconditionally
    scheduling_contract_audited = True

    def __init__(self, name: str, value: Any = None, limit: Optional[int] = None):
        super().__init__(name)
        self.value = value
        self.limit = limit
        self.emitted = 0
        self._token: Optional[Token] = None  # stable across evaluations

    def propagate(self) -> None:
        if self.limit is None or self.emitted < self.limit:
            token = self._token
            if token is None:
                token = self._token = Token(self.value)
            self.drive_out("out", token)

    def tick(self):
        if self.out_fires("out"):
            self.emitted += 1


class Sink(Component):
    """Always-ready consumer that records received tokens."""

    resource_class = "sink"
    observes_input_valid = False  # unconditionally ready
    scheduling_contract_audited = True

    def __init__(self, name: str, record: bool = True):
        super().__init__(name)
        self.record = record
        self.received: List[Token] = []
        self.count = 0

    def propagate(self) -> None:
        self.drive_ready("in", True)

    def tick(self):
        ch = self.inputs["in"]
        if ch.fires:
            self.count += 1
            if self.record:
                self.received.append(ch.data)

    def flush(self, domain: int, min_iter: int) -> None:
        kept = [t for t in self.received if not t.is_squashed_by(domain, min_iter)]
        self.count -= len(self.received) - len(kept)
        self.received = kept

    @property
    def values(self) -> List[Any]:
        return [t.value for t in self.received]


class Constant(Component):
    """One constant token per control token (Dynamatic's triggered constant)."""

    resource_class = "constant"
    scheduling_contract_audited = True

    def __init__(self, name: str, value: Any, width: int = 32):
        super().__init__(name)
        self.value = value
        self.width = width
        self._cache = [None, None]  # [ctrl token, combined output token]

    def propagate(self) -> None:
        if self.in_valid("ctrl"):
            ctrl = self.in_token("ctrl")
            cache = self._cache
            if cache[0] is ctrl:
                out = cache[1]
            else:
                out = combine(self.value, ctrl)
                cache[0] = ctrl
                cache[1] = out
            self.drive_out("out", out)
            self.drive_ready("ctrl", self.out_ready("out"))

    @property
    def resource_params(self):
        return {"width": self.width}


class Fork(Component):
    """Eager fork with per-output done bits.

    Output ports are ``out0 .. out{n-1}``.  Each successor may accept its
    copy in a different cycle; the input token is consumed once every
    successor has taken (or takes this cycle) its copy.
    """

    resource_class = "fork"
    scheduling_contract_audited = True

    def __init__(self, name: str, n_outputs: int, width: int = 32):
        super().__init__(name)
        if n_outputs < 1:
            raise ValueError("fork needs at least one output")
        self.n_outputs = n_outputs
        self.width = width
        self._done = [False] * n_outputs
        self._out_chs: Optional[List] = None  # bound lazily after wiring

    def out_port(self, i: int) -> str:
        return f"out{i}"

    def _bind(self):
        chs = [self.outputs[f"out{i}"] for i in range(self.n_outputs)]
        self._out_chs = chs
        return chs

    def propagate(self) -> None:
        in_ch = self.inputs["in"]
        if not in_ch.valid:
            return
        outs = self._out_chs or self._bind()
        tok = in_ch.data
        all_consumed = True
        for ch, done in zip(outs, self._done):
            if done:
                continue
            ch.valid = True
            ch.data = tok
            if not ch.ready:
                all_consumed = False
        if all_consumed:
            in_ch.ready = True

    def tick(self):
        ch = self.inputs["in"]
        if not ch.valid:
            return
        if ch.ready:
            if any(self._done):
                self._done = [False] * self.n_outputs
            return
        outs = self._out_chs or self._bind()
        done = self._done
        for i, out_ch in enumerate(outs):
            if out_ch.valid and out_ch.ready:
                done[i] = True

    def flush(self, domain: int, min_iter: int) -> None:
        # A held token lives in the producer-side channel; the circuit-level
        # flush clears channels. Reset done bits so a replayed token is
        # re-offered to every successor.
        tok = self.inputs["in"].data
        if tok is not None and tok.is_squashed_by(domain, min_iter):
            self._done = [False] * self.n_outputs

    @property
    def resource_params(self):
        return {"width": self.width, "n": self.n_outputs}


class Join(Component):
    """Waits for one token on every input, emits one merged control token.

    Input ports are ``in0 .. in{n-1}``; the output token's value is the
    value of input 0 (joins are control synchronizers — Dynamatic joins
    carry the first operand through).
    """

    resource_class = "join"
    scheduling_contract_audited = True

    def __init__(self, name: str, n_inputs: int):
        super().__init__(name)
        if n_inputs < 1:
            raise ValueError("join needs at least one input")
        self.n_inputs = n_inputs
        self._in_chs: Optional[List] = None  # bound lazily after wiring
        self._cache = [None, None]  # [input token tuple, output token]

    def in_port(self, i: int) -> str:
        return f"in{i}"

    def _bind(self):
        chs = [self.inputs[f"in{i}"] for i in range(self.n_inputs)]
        self._in_chs = chs
        return chs

    def propagate(self) -> None:
        ins = self._in_chs or self._bind()
        toks = []
        for ch in ins:
            if not ch.valid:
                return
            toks.append(ch.data)
        out_ch = self.outputs["out"]
        out_ch.valid = True
        cache = self._cache
        last = cache[0]
        if last is not None and len(last) == len(toks) and all(
            a is b for a, b in zip(last, toks)
        ):
            out_ch.data = cache[1]
        else:
            out = combine(toks[0].value, *toks)
            cache[0] = toks
            cache[1] = out
            out_ch.data = out
        if out_ch.ready:
            for ch in ins:
                ch.ready = True

    @property
    def resource_params(self):
        return {"n": self.n_inputs}
