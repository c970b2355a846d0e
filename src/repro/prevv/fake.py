"""Circuit-side helpers feeding the PreVV unit ports.

* :class:`PairPacker` — joins an operation's index and value copies into
  one packed ``(index, value)`` token (the data-collection half of the
  LMerge/SMerge of Fig. 5; "we use merge to collect all the data of an
  operation before it is used for validation").
* :class:`FakeTokenGenerator` — Sec. V-C: sits on the not-taken branch
  path of a conditional member operation and converts the branch token
  into a ``("fake",)`` packet, convincing the arbiter that "the ambiguous
  pair does not take effect in the current iteration".
* :class:`DoneTokenGenerator` — converts the (single-shot) exit token of
  a loop nest into a ``("done",)`` packet so the arbiter can retire every
  remaining entry of that nest; this generalizes the fake-token idea to
  nest boundaries and is what lets cross-nest groups (2mm/3mm) drain.
"""

from __future__ import annotations

from ..dataflow.component import Component
from ..dataflow.token import combine


class PairPacker(Component):
    """Join index and value into a ``(index, value)`` P-packet."""

    resource_class = "pair_packer"
    scheduling_contract_audited = True

    def __init__(self, name: str, width: int = 32):
        super().__init__(name)
        self.width = width
        self._cache = [None, None, None]  # [index tok, value tok, packed]

    def propagate(self) -> None:
        idx_ch = self.inputs["index"]
        val_ch = self.inputs["value"]
        if not (idx_ch.valid and val_ch.valid):
            return
        cache = self._cache
        if cache[0] is idx_ch.data and cache[1] is val_ch.data:
            packed = cache[2]
        else:
            packed = combine(
                (idx_ch.data.value, val_ch.data.value), idx_ch.data, val_ch.data
            )
            packed.version = val_ch.data.version
            cache[0] = idx_ch.data
            cache[1] = val_ch.data
            cache[2] = packed
        self.drive_out("out", packed)
        if self.out_ready("out"):
            self.drive_ready("index", True)
            self.drive_ready("value", True)

    @property
    def resource_params(self):
        return {"width": self.width}


class FakeTokenGenerator(Component):
    """Emit a ``("fake",)`` packet per incoming (not-taken) control token."""

    resource_class = "fake_gen"
    scheduling_contract_audited = True

    def __init__(self, name: str):
        super().__init__(name)
        self.generated = 0
        self._cache = [None, None]  # [input token, fake packet]

    def propagate(self) -> None:
        if self.in_valid("in"):
            token = self.in_token("in")
            cache = self._cache
            if cache[0] is not token:
                cache[0] = token
                cache[1] = token.with_value(("fake",))
            self.drive_out("out", cache[1])
            self.drive_ready("in", self.out_ready("out"))

    def tick(self):
        if self.outputs["out"].fires:
            self.generated += 1


class DoneTokenGenerator(Component):
    """Emit a ``("done",)`` packet per incoming loop-nest exit token."""

    resource_class = "fake_gen"
    scheduling_contract_audited = True

    def __init__(self, name: str):
        super().__init__(name)
        self.generated = 0
        self._cache = [None, None]  # [input token, done packet]

    def propagate(self) -> None:
        if self.in_valid("in"):
            token = self.in_token("in")
            cache = self._cache
            if cache[0] is not token:
                cache[0] = token
                cache[1] = token.with_value(("done",))
            self.drive_out("out", cache[1])
            self.drive_ready("in", self.out_ready("out"))

    def tick(self):
        if self.outputs["out"].fires:
            self.generated += 1
