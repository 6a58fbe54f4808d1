"""Structured pass/fail reporting shared by the checkers.

One policy for every clause of every checker: a clause whose guard is
false (a clause it depends on failed or was not evaluated) is skipped
with a detail saying so; otherwise its predicate decides it, and a size
cap met on the way records it as not evaluated, with the cap in its
detail.  A clause keeps its detail only when it did not hold, and a
report passes only when every clause was evaluated and held.  A property
that holds by construction is no clause: a clause that cannot fail
reports nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import CapExceeded


@dataclass
class ClauseResult:
    key: str
    passed: Optional[bool]  # None: not evaluated (guarded out or capped)
    detail: str = ""


@dataclass
class CheckReport:
    items: list[ClauseResult] = field(default_factory=list)

    def add(self, key: str, passed: Optional[bool], detail: str = ""):
        """Record a decided clause; ``detail`` is kept unless it held."""
        self.items.append(ClauseResult(key, passed, "" if passed else detail))

    def skip(self, key: str, detail: str = "guarded out by an earlier failure"):
        self.items.append(ClauseResult(key, None, detail))

    def check(self, key: str, holds: Callable[[], bool], failure: str,
              guard: Optional[bool] = True) -> Optional[bool]:
        """Record clause ``key`` under the one policy and return its
        verdict: None when ``guard`` is not true (skipped) or a size cap
        stopped ``holds()`` (not evaluated), else what ``holds()`` says,
        with ``failure`` as the detail when that is False."""
        if not guard:
            self.skip(key)
            return None
        try:
            ok = holds()
        except CapExceeded as err:
            self.add(key, None, f"{err}; not evaluated")
            return None
        self.add(key, ok, failure)
        return ok

    @property
    def passed(self) -> bool:
        """Every clause was evaluated and held."""
        return all(item.passed is True for item in self.items)

    def failing(self) -> list[str]:
        return [item.key for item in self.items if item.passed is False]
