"""Structured pass/fail reporting shared by the checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class ClauseResult:
    key: str
    passed: Optional[bool]  # None: not evaluated (guarded out or capped)
    detail: str = ""


@dataclass
class CheckReport:
    subject: str
    items: list[ClauseResult] = field(default_factory=list)

    def add(self, key: str, passed: Optional[bool], detail: str = ""):
        self.items.append(ClauseResult(key, passed, detail))

    def skip(self, key: str, detail: str = "guarded out by an earlier failure"):
        self.items.append(ClauseResult(key, None, detail))

    @property
    def passed(self) -> bool:
        """Every clause was evaluated and held."""
        return all(item.passed is True for item in self.items)

    def failing(self) -> list[str]:
        return [item.key for item in self.items if item.passed is False]
