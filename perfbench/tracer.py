"""Spans around the public functions of each commchain layer.

The wrappers live here, not in the program: ``install`` replaces every
public function of the layer modules, in every commchain module namespace
that holds it (``decomposition`` imports ``commutator_residual`` from
``operators`` by name, the package re-exports most of them), and
``uninstall`` puts the originals back.  Spans are kept in memory.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# The layers are the modules; _linalg holds the dense kernels.
LAYERS = (
    "cli", "canonical", "operators", "decomposition", "graph", "groundspace", "ed", "bridge", "_linalg",
)


def layer_label(module: str) -> str:
    """Metric names start with a letter, so ``_linalg`` is reported as ``linalg``."""
    return module.lstrip("_")


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    item: int | None
    d: int | None
    n: int | None
    elements: int = 0  # operand entries, for the dense kernels
    outcome: bool | None = None  # bridge.solve_x: was an X found

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        dn = self.d**self.n if self.d is not None and self.n is not None else None
        return {
            "id": self.sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "item": self.item, "d": self.d, "N": self.n, "dN": dn,
            "elements": self.elements, "outcome": self.outcome,
        }


# Return value -> outcome, for functions whose attempts can come back empty.
OUTCOMES = {"bridge.solve_x": lambda result: result is not None}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item: tuple[int | None, int | None, int | None] = (None, None, None)
        self._patched: list[tuple[object, str, object]] = []

    def set_item(self, item_id: int | None, d: int | None, n: int | None) -> None:
        self._item = (item_id, d, n)

    def _wrap(self, name: str, fn, count_elements: bool):
        outcome_of = OUTCOMES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            item, d, n = self._item
            span = Span(sid, name, 0.0, 0.0, self._stack[-1] if self._stack else None, item, d, n)
            if count_elements:
                span.elements = sum(a.size for a in args if isinstance(a, np.ndarray))
            self.spans.append(span)
            self._stack.append(sid)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if outcome_of is not None:
                span.outcome = outcome_of(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layers wherever commchain holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"commchain.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer_label(layer)}.{attr}", obj, layer == "_linalg")
        for modname, mod in list(sys.modules.items()):
            if modname != "commchain" and not modname.startswith("commchain."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched = []


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    by_id = {s.sid: i for i, s in enumerate(spans)}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end) for s in spans
    ]


@dataclass
class Profile:
    """Totals over one traced pass."""

    self_s: dict[str, float]  # per function and per layer
    inclusive_s: dict[str, float]  # per function, spans inside a same-name span not counted twice
    calls: dict[str, int]
    elements: dict[str, int]
    found: dict[str, int]  # spans with a true outcome


def profile(spans: list[Span]) -> Profile:
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    self_s: dict[str, float] = defaultdict(float)
    inclusive_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    elements: dict[str, int] = defaultdict(int)
    found: dict[str, int] = defaultdict(int)
    for span, st in zip(spans, selfs):
        self_s[span.name] += st
        self_s[span.layer] += st
        up = span.parent
        while up in by_id and by_id[up].name != span.name:
            up = by_id[up].parent
        if up not in by_id:
            inclusive_s[span.name] += span.end - span.start
        calls[span.name] += 1
        elements[span.name] += span.elements
        if span.outcome:
            found[span.name] += 1
    return Profile(dict(self_s), dict(inclusive_s), dict(calls), dict(elements), dict(found))
