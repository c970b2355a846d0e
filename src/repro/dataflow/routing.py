"""Routing components: merge, control merge, mux, branch, select.

These steer tokens along control-flow-graph edges in the elastic circuit
exactly as Dynamatic's netlist generator does:

* :class:`Merge` — non-deterministic merge; forwards whichever input offers
  a token (lowest index wins on ties).  Used where at most one input can be
  live at a time (CFG joins in correct circuits).
* :class:`ControlMerge` — merge that additionally emits the index of the
  winning input; drives the select of the phi muxes of its basic block.
* :class:`Mux` — data phi: a select token picks which data input to forward.
* :class:`Branch` — routes a data token to the true/false output according
  to a condition token.
* :class:`Select` — eager ternary operator (cond ? a : b), consuming all
  three inputs.
"""

from __future__ import annotations

from .component import Component
from .token import combine


class Merge(Component):
    """Forward a token from any valid input; lowest index has priority."""

    resource_class = "merge"
    scheduling_contract_audited = True

    def __init__(self, name: str, n_inputs: int, width: int = 32):
        super().__init__(name)
        if n_inputs < 1:
            raise ValueError("merge needs at least one input")
        self.n_inputs = n_inputs
        self.width = width

    def in_port(self, i: int) -> str:
        return f"in{i}"

    def _winner(self):
        for i in range(self.n_inputs):
            if self.inputs[self.in_port(i)].valid:
                return i
        return None

    def propagate(self) -> None:
        w = self._winner()
        if w is None:
            return
        self.drive_out("out", self.inputs[self.in_port(w)].data)
        if self.out_ready("out"):
            self.drive_ready(self.in_port(w), True)

    @property
    def resource_params(self):
        return {"width": self.width, "n": self.n_inputs}


class ControlMerge(Component):
    """Merge that also reports which input won (for phi-mux selects).

    Outputs: ``out`` (the control token) and ``index`` (token whose value is
    the winning input index).  Both outputs must accept for the input to be
    consumed, so they behave as an implicit two-way fork.
    """

    resource_class = "cmerge"
    scheduling_contract_audited = True

    def __init__(self, name: str, n_inputs: int):
        super().__init__(name)
        self.n_inputs = n_inputs
        self._done_out = False
        self._done_index = False
        self._cache = [None, -1, None]  # [ctrl token, winner, index token]
        # Once emission for a winner starts (a done bit is set), the merge
        # is committed to that input until the full handshake completes:
        # a token arriving meanwhile on a higher-priority input must not
        # inherit the partial state (it would be consumed without its own
        # out/index ever being emitted).
        self._locked: "int | None" = None

    def in_port(self, i: int) -> str:
        return f"in{i}"

    def _winner(self):
        if self._locked is not None:
            return self._locked
        for i in range(self.n_inputs):
            if self.inputs[self.in_port(i)].valid:
                return i
        return None

    def propagate(self) -> None:
        w = self._winner()
        if w is None:
            return
        ch = self.inputs[self.in_port(w)]
        if not ch.valid:
            return  # locked winner's token not (re)offered yet this cycle
        tok = ch.data
        if not self._done_out:
            self.drive_out("out", tok)
        if not self._done_index:
            cache = self._cache
            if cache[0] is tok and cache[1] == w:
                index_tok = cache[2]
            else:
                index_tok = tok.with_value(w)
                cache[0] = tok
                cache[1] = w
                cache[2] = index_tok
            self.drive_out("index", index_tok)
        out_ok = self._done_out or self.outputs["out"].ready
        idx_ok = self._done_index or self.outputs["index"].ready
        if out_ok and idx_ok:
            self.drive_ready(self.in_port(w), True)

    def tick(self):
        w = self._winner()
        if w is None:
            return
        if self.inputs[self.in_port(w)].fires:
            self._done_out = False
            self._done_index = False
            self._locked = None
            return
        fired = False
        if self.outputs["out"].fires and not self._done_out:
            self._done_out = True
            fired = True
        if self.outputs["index"].fires and not self._done_index:
            self._done_index = True
            fired = True
        if fired:
            self._locked = w

    def flush(self, domain: int, min_iter: int) -> None:
        w = self._winner()
        if w is not None:
            tok = self.inputs[self.in_port(w)].data
            if tok is not None and tok.is_squashed_by(domain, min_iter):
                self._done_out = False
                self._done_index = False
                self._locked = None

    @property
    def resource_params(self):
        return {"n": self.n_inputs}


class Mux(Component):
    """Data phi: forward the data input chosen by the select token."""

    resource_class = "mux"
    scheduling_contract_audited = True

    def __init__(self, name: str, n_inputs: int, width: int = 32):
        super().__init__(name)
        self.n_inputs = n_inputs
        self.width = width
        self._in_chs = None  # bound lazily after wiring
        self._cache = [None, None, None]  # [select tok, data tok, output]

    def in_port(self, i: int) -> str:
        return f"in{i}"

    def _bind(self):
        chs = [self.inputs[f"in{i}"] for i in range(self.n_inputs)]
        self._in_chs = chs
        self._sel_ch = self.inputs["select"]
        self._out_ch = self.outputs["out"]
        return chs

    def propagate(self) -> None:
        ins = self._in_chs or self._bind()
        sel_ch = self._sel_ch
        if not sel_ch.valid:
            return
        sel_tok = sel_ch.data
        data_ch = ins[int(sel_tok.value)]
        if not data_ch.valid:
            return
        out_ch = self._out_ch
        data_tok = data_ch.data
        out_ch.valid = True
        cache = self._cache
        if cache[0] is sel_tok and cache[1] is data_tok:
            out_ch.data = cache[2]
        else:
            out = combine(data_tok.value, data_tok, sel_tok)
            cache[0] = sel_tok
            cache[1] = data_tok
            cache[2] = out
            out_ch.data = out
        if out_ch.ready:
            sel_ch.ready = True
            data_ch.ready = True

    @property
    def resource_params(self):
        return {"width": self.width, "n": self.n_inputs}


class Branch(Component):
    """Route ``data`` to output ``true`` or ``false`` per the ``cond`` token."""

    resource_class = "branch"
    scheduling_contract_audited = True

    def __init__(self, name: str, width: int = 32):
        super().__init__(name)
        self.width = width
        self._cond_ch = None  # bound lazily after wiring
        self._cache = [None, None, None]  # [cond tok, data tok, output]

    def _bind(self):
        self._cond_ch = self.inputs["cond"]
        self._data_ch = self.inputs["data"]
        self._true_ch = self.outputs["true"]
        self._false_ch = self.outputs["false"]
        return self._cond_ch

    def propagate(self) -> None:
        cond_ch = self._cond_ch or self._bind()
        data_ch = self._data_ch
        if not (cond_ch.valid and data_ch.valid):
            return
        cond_tok = cond_ch.data
        data_tok = data_ch.data
        out_ch = self._true_ch if cond_tok.value else self._false_ch
        out_ch.valid = True
        cache = self._cache
        if cache[0] is cond_tok and cache[1] is data_tok:
            out_ch.data = cache[2]
        else:
            out = combine(data_tok.value, data_tok, cond_tok)
            cache[0] = cond_tok
            cache[1] = data_tok
            cache[2] = out
            out_ch.data = out
        if out_ch.ready:
            cond_ch.ready = True
            data_ch.ready = True

    @property
    def resource_params(self):
        return {"width": self.width}


class Select(Component):
    """Ternary select: consume cond, a, b; emit a when cond else b."""

    resource_class = "select"
    scheduling_contract_audited = True

    def __init__(self, name: str, width: int = 32):
        super().__init__(name)
        self.width = width
        self._cache = [None, None, None, None]  # [cond, a, b, output]

    def propagate(self) -> None:
        cond = self.inputs["cond"]
        a = self.inputs["a"]
        b = self.inputs["b"]
        if not (cond.valid and a.valid and b.valid):
            return
        cache = self._cache
        if cache[0] is cond.data and cache[1] is a.data and cache[2] is b.data:
            out = cache[3]
        else:
            chosen = a.data if cond.data.value else b.data
            out = combine(chosen.value, cond.data, a.data, b.data)
            cache[0] = cond.data
            cache[1] = a.data
            cache[2] = b.data
            cache[3] = out
        self.drive_out("out", out)
        if self.out_ready("out"):
            self.drive_ready("cond", True)
            self.drive_ready("a", True)
            self.drive_ready("b", True)

    @property
    def resource_params(self):
        return {"width": self.width}
