"""Sparse Boolean functions over named free generators.

The free factor of a structure's element algebra is a free Boolean
algebra on generator ids.  Elements of it are Boolean functions of
finitely many generators, stored in canonical sparse form: the essential
support (a sorted tuple of generator ids) plus a truth table bitmask over
sign patterns of that support.  All operations expand to the joint
support and re-canonicalize, so equality is plain field equality and the
cost of an operation is 2^(joint support), never 2^(all generators).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from ..errors import WINDOW_CAP, CapExceeded


@dataclass(frozen=True, slots=True)
class FreeFn:
    """A Boolean function in canonical sparse form: its essential support
    and its truth table over that support.  Immutable and slotted, so a
    value costs no instance dict and may be shared (see ``var``)."""

    support: tuple[int, ...]
    table: int

    def __post_init__(self):
        assert self.support == tuple(sorted(set(self.support)))
        assert 0 <= self.table < (1 << (1 << len(self.support)))

    @property
    def is_zero(self) -> bool:
        return self.table == 0

    @property
    def is_one(self) -> bool:
        return self.table == (1 << (1 << len(self.support))) - 1

    def evaluate(self, point: Mapping[int, int]) -> int:
        """Value at a total assignment (generators absent from the mapping
        read as 0)."""
        pattern = 0
        for i, g in enumerate(self.support):
            if point.get(g, 0):
                pattern |= 1 << i
        return (self.table >> pattern) & 1


ZERO = FreeFn((), 0)
ONE = FreeFn((), 1)


@lru_cache(maxsize=4096)
def var(g: int) -> FreeFn:
    """The generator ``g`` as a function.  Values are shared: while ``g``
    is among the 4,096 generators most recently asked for, every call
    returns the same (frozen) ``FreeFn``."""
    return FreeFn((g,), 0b10)


def _expand(table: int, variables: tuple[int, ...],
            joint: tuple[int, ...]) -> int:
    """A truth table over ``variables`` (bit i of a pattern is
    variables[i]) as a truth table over the sorted ``joint``, which holds
    every variable.  A constant table and a table already over ``joint``
    need no walk over the points."""
    if not variables:
        return (1 << (1 << len(joint))) - 1 if table else 0
    if variables == joint:
        return table
    positions = [joint.index(g) for g in variables]
    out = 0
    for p in range(1 << len(joint)):
        q = 0
        for i, pos in enumerate(positions):
            if p & (1 << pos):
                q |= 1 << i
        if (table >> q) & 1:
            out |= 1 << p
    return out


def _reduce(support: tuple[int, ...], table: int) -> FreeFn:
    """Drop variables the table does not depend on."""
    sup = list(support)
    j = 0
    while j < len(sup):
        width = len(sup)
        essential = False
        for p in range(1 << width):
            if p & (1 << j):
                continue
            if ((table >> p) & 1) != ((table >> (p | (1 << j))) & 1):
                essential = True
                break
        if essential:
            j += 1
            continue
        # drop variable j, keeping its 0-slice
        new_table = 0
        for p in range(1 << width):
            if p & (1 << j):
                continue
            low = p & ((1 << j) - 1)
            high = (p >> (j + 1)) << j
            if (table >> p) & 1:
                new_table |= 1 << (low | high)
        table = new_table
        del sup[j]
    return FreeFn(tuple(sup), table)


def _joint(a: FreeFn, b: FreeFn) -> tuple[int, ...]:
    joint = tuple(sorted(set(a.support) | set(b.support)))
    if len(joint) > WINDOW_CAP:
        raise CapExceeded("WINDOW_CAP", len(joint))
    return joint


def conj(a: FreeFn, b: FreeFn) -> FreeFn:
    if a.is_zero or b.is_zero:
        return ZERO
    if a.is_one:
        return b
    if b.is_one:
        return a
    joint = _joint(a, b)
    return _reduce(joint, _expand(a.table, a.support, joint)
                   & _expand(b.table, b.support, joint))

def disj(a: FreeFn, b: FreeFn) -> FreeFn:
    if a.is_one or b.is_one:
        return ONE
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    joint = _joint(a, b)
    return _reduce(joint, _expand(a.table, a.support, joint)
                   | _expand(b.table, b.support, joint))


def neg(a: FreeFn) -> FreeFn:
    full = (1 << (1 << len(a.support))) - 1
    return FreeFn(a.support, a.table ^ full)


def rename(a: FreeFn, mapping: Mapping[int, int]) -> FreeFn:
    """Substitute generator ids (must stay injective on the support)."""
    new_support = tuple(mapping.get(g, g) for g in a.support)
    if len(set(new_support)) != len(new_support):
        raise ValueError("generator renaming collides on the support")
    joint = tuple(sorted(new_support))
    return FreeFn(joint, _expand(a.table, new_support, joint))


def conj_many(fns: Iterable[FreeFn]) -> FreeFn:
    out = ONE
    for fn in fns:
        out = conj(out, fn)
        if out.is_zero:
            return ZERO
    return out


def support_components(fns: list[FreeFn]) -> list[list[int]]:
    """Indices grouped by transitive support overlap; constant functions
    each form their own singleton group."""
    parent = list(range(len(fns)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, fn in enumerate(fns):
        for g in fn.support:
            if g in owner:
                a, b = find(owner[g]), find(i)
                if a != b:
                    parent[b] = a
            else:
                owner[g] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(fns)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())
