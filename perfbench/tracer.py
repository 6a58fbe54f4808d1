"""In-memory span tracing for the benchmark's traced run.

Spans are recorded only around functions the benchmark wraps from its own
code; the package under test is never edited.  A span holds a name, a
start, an end, the span that was open when it began (its parent) and an
optional value taken from the result (a truth value or a result count),
from which the per-layer ratios are computed.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

PACKAGE = "amalgam"


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._open = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn: Callable,
             value: Optional[Callable[[Any], float]] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call; ``value`` maps
        the result to the number stored on the span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._open[-1])
            self.value.append(math.nan)
            self.end.append(math.nan)
            self._open.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._open.pop()
            if value is not None:
                self.value[span] = value(result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s`` (duration minus the time
        covered by child spans), ``value_sum`` and ``value_count``."""
        child_time = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "value_sum": 0.0,
                      "value_count": 0} for name in self.names}
        for i, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += self.end[i] - self.start[i] - child_time[i]
            v = self.value[i]
            if not math.isnan(v):
                row["value_sum"] += v
                row["value_count"] += 1
        return out

    def children_of(self, name: str) -> tuple[int, float]:
        """Number of spans opened directly under a span called ``name``,
        and the sum of their values."""
        name_id = self._name_ids.get(name)
        count, total = 0, 0.0
        for i, p in enumerate(self.parent):
            if p >= 0 and self.name[p] == name_id:
                count += 1
                if not math.isnan(self.value[i]):
                    total += self.value[i]
        return count, total

    def dump(self, path, meta: dict) -> None:
        """Write every span, column-wise, as gzip-compressed JSON."""
        doc = {
            "meta": meta,
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "value": [None if math.isnan(v) else v for v in self.value],
            "counters": dict(self.counters),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _owner_and_attr(module, attr: str):
    """``("Class.method")`` resolves to the class and the method name."""
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def bindings(original: Any) -> Iterable[tuple[Any, str]]:
    """Every module-level name in the package bound to ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE
                                  or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, obj in list(vars(module).items()):
            if obj is original:
                yield module, attr


class Patches:
    """Replaces functions in the package while the block runs and puts
    every original object back on exit.

    ``wrappers`` maps ``(module, "name")`` or ``(module, "Class.method")``
    to a function taking the original and returning its replacement.  A
    module-level function is replaced at every name that binds it in any
    loaded module of the package, since callers such as ``k1.engine``
    import what they call into their own namespace.
    """

    def __init__(self, wrappers: dict[tuple[Any, str], Callable]):
        self.wrappers = wrappers
        self.undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Patches":
        try:
            for (module, attr), make in self.wrappers.items():
                owner, name = _owner_and_attr(module, attr)
                original = vars(owner)[name]
                replacement = make(original)
                targets = [(owner, name)]
                if owner is module:
                    targets = list(bindings(original))
                for target, target_name in targets:
                    setattr(target, target_name, replacement)
                    self.undo.append((target, target_name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self.undo:
            target, name, original = self.undo.pop()
            setattr(target, name, original)
