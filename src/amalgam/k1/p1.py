"""The element algebra of a structure: designated atoms times a free factor.

An element is a pair (atomic, free): a bitmask over the structure's
designated-atom ids plus a sparse Boolean function over free generator
ids.  The pair encodes (x meet b*) and (x meet complement of b*), where
b* is the join of the designated atoms, so meet/join/complement act
coordinatewise.  Atom and generator ids are globally allocated, which
makes extension transports explicit maps rather than re-indexing.

Everything is computed on a finite point space: the designated atoms
plus the free minterms over a support window, with the point sets split
by their sign vectors by ``boolalg.refine``.  Generated subalgebras
refine the whole window; independence checks refine one support
component at a time, since functions with disjoint supports realize
every combination of their sign vectors.

Elements are immutable and slotted values.  The bare generators, by far
the most common elements of class members, are shared through
``bare_generator`` the way ``freepart.var`` shares their free parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

from ..boolalg import FiniteBooleanAlgebra, refine
from ..errors import (
    INDEPENDENCE_CAP,
    WINDOW_CAP,
    CapExceeded,
)
from .freepart import (
    ZERO,
    FreeFn,
    _expand,
    _reduce,
    conj,
    neg,
    support_components,
    var,
)


@dataclass(frozen=True, slots=True)
class P1Element:
    """An element (atomic, free): a bitmask over designated-atom ids and
    a free part.  Immutable and slotted: equality and hashing read the
    two fields, and one value may be shared by any number of holders."""

    atomic: int
    free: FreeFn

    @property
    def in_atomic_ideal(self) -> bool:
        """Membership in the ideal of finite joins of designated atoms."""
        return self.free.is_zero


BOTTOM = P1Element(0, ZERO)


@lru_cache(maxsize=4096)
def bare_generator(g: int) -> P1Element:
    """The element (0, g): the generator ``g`` with no atomic part.
    Shared like ``freepart.var``: while ``g`` is among the 4,096
    generators most recently asked for, every call returns the same
    (frozen) element."""
    return P1Element(0, var(g))


@dataclass(frozen=True)
class P1Context:
    """Designated-atom inventory of one structure; complements are taken
    relative to it.  ``full_mask`` (b* as a bitmask) is computed once."""

    atom_ids: tuple[int, ...]

    def __post_init__(self):
        assert self.atom_ids == tuple(sorted(set(self.atom_ids)))

    @cached_property
    def full_mask(self) -> int:
        return sum(1 << a for a in self.atom_ids)

    @property
    def b_star(self) -> P1Element:
        return P1Element(self.full_mask, ZERO)

    def atom(self, atom_id: int) -> P1Element:
        assert atom_id in self.atom_ids
        return P1Element(1 << atom_id, ZERO)

    def le(self, x: P1Element, y: P1Element) -> bool:
        return (x.atomic & ~y.atomic) == 0 and conj(x.free, neg(y.free)).is_zero


# ---------------------------------------------------------------------------
# Finite point space over a support window
# ---------------------------------------------------------------------------


def _window(fns: Sequence[FreeFn]) -> tuple[tuple[int, ...], list[int], int]:
    """The joint support window of ``fns``, the point table of each over
    it, and the mask of all window points."""
    sigma = tuple(sorted({g for fn in fns for g in fn.support}))
    if len(sigma) > WINDOW_CAP:
        raise CapExceeded("WINDOW_CAP", len(sigma))
    tables = [_expand(fn.table, fn.support, sigma) for fn in fns]
    return sigma, tables, (1 << (1 << len(sigma))) - 1


def _signature_blocks(
    ctx: P1Context, elements: Sequence[P1Element]
) -> tuple[tuple[int, ...], dict[int, list[int]]]:
    """The support window of ``elements`` and the points grouped by their
    sign vector over ``elements`` (bit i set under elements[i]): one
    [atom mask, window point table] pair per realized vector, designated
    atoms and free minterms over the window side by side."""
    sigma, tables, points = _window([e.free for e in elements])
    blocks = {v: [atomic, 0] for v, atomic in
              refine(ctx.full_mask, [e.atomic for e in elements])}
    for v, table in refine(points, tables):
        blocks.setdefault(v, [0, 0])[1] = table
    return sigma, blocks


def point_blocks(ctx: P1Context, elements: Sequence[P1Element]) -> list[P1Element]:
    """Atoms of the subalgebra generated by ``elements``.

    Points are the designated atoms plus the free minterms over the joint
    support window; two points merge when no generator element separates
    them.  Complete because every element in play is constant outside the
    window.
    """
    sigma, blocks = _signature_blocks(ctx, elements)
    return [P1Element(atomic, _reduce(sigma, table))
            for atomic, table in blocks.values()]


def subalgebra_contains(
    ctx: P1Context, gens: Sequence[P1Element], x: P1Element
) -> bool:
    """x lies in <gens> iff x cuts no generated block: every sign vector
    over ``gens`` has its points, designated atoms and window points
    alike, all inside x or all outside it.

    ``gens`` alone is refined, once on the atoms and once on the window
    points, and each block is tested against x as it comes.  One table
    ties each vector to one side, since a vector may be realized on both
    coordinates."""
    _, tables, points = _window([e.free for e in gens] + [x.free])
    x_table = tables.pop()
    side: dict[int, bool] = {}
    for universe, masks, part in (
            (ctx.full_mask, [e.atomic for e in gens], x.atomic),
            (points, tables, x_table)):
        for v, block in refine(universe, masks):
            cut = block & part
            inside = cut == block
            if cut and not inside or side.setdefault(v, inside) != inside:
                return False
    return True


def spans_generator(
    ctx: P1Context, span: Sequence[P1Element], gens: Sequence[int]
) -> bool:
    """Does the subalgebra generated by ``span`` contain every bare
    generator of ``gens``?  One sweep: the support-free elements, the
    atoms they set apart and (unless every g is read off one element, as
    below) the span's support components are found once, then each g
    gets one ``subalgebra_contains`` call, in order, up to the first g
    not spanned.

    When the support-free elements set every designated atom apart, they
    generate b*, so a span element e of free support exactly (g,) minus
    b* is g or its complement: g is read off e and those elements.
    Otherwise g is not spanned when no free part involves it, and is
    read off its support component plus the support-free elements.  That
    is exact when these set every atom apart from the free points, as
    the designated atoms do in every span the checkers pass; else
    another component may set an atom apart (two of its elements can
    meet in an atomic element), and the whole span is refined.
    """
    full = ctx.full_mask
    constants = [e for e in span if not e.free.support]
    apart = 0
    for e in constants:
        apart |= e.atomic if e.free.is_zero else full & ~e.atomic
    # the first span element of support (g,) wins
    alone = {e.free.support[0]: e for e in reversed(span)
             if len(e.free.support) == 1} if apart == full else {}
    owner: dict[int, set[int]] = {}
    if any(g not in alone for g in gens):
        for part in map(set, support_components([e.free for e in span])):
            owner.update(dict.fromkeys(
                [g for i in part for g in span[i].free.support], part))
    for g in gens:
        if g in alone:
            sub = [alone[g]] + constants
        elif g not in owner:
            return False
        else:
            sub = span if apart != full else [
                e for i, e in enumerate(span)
                if i in owner[g] or not e.free.support]
        if not subalgebra_contains(ctx, sub, bare_generator(g)):
            return False
    return True


# ---------------------------------------------------------------------------
# Independence
# ---------------------------------------------------------------------------


def independent_from_mod_atomic(
    Y: Sequence[P1Element], X: Sequence[P1Element]
) -> bool:
    """Is Y independent from <X> modulo the ideal of atomic elements?

    Membership in that ideal reads the free coordinate only, so the test
    factors completely through free parts, and then through support
    components: refine each overlap cluster's window points by its
    X-functions, and ask every block to split into all 2^|Y| sign vectors
    under its Y-functions.  Components combine freely because functions
    with disjoint supports realize every combination of their vectors.
    A component of one nonconstant function passes unrefined: a Y
    function alone realizes both signs, and an X function alone asks
    nothing.  Y is deduplicated as elements, not as free parts: two
    members with one free part differ by an atomic element and are not
    independent.
    """
    y_fns = []
    seen = set()
    for y in Y:
        if y in seen:
            continue
        seen.add(y)
        if y.free.is_zero or y.free.is_one:
            return False  # one of the two signs dies against the test element 1
        y_fns.append(y.free)
    all_fns = y_fns + [x.free for x in X]
    for component in support_components(all_fns):
        if len(component) == 1 and all_fns[component[0]].support:
            continue
        ys = [i for i in component if i < len(y_fns)]
        if len(ys) > INDEPENDENCE_CAP:
            raise CapExceeded("INDEPENDENCE_CAP", len(ys))
        _, tables, points = _window([all_fns[i] for i in component])
        y_tables, x_tables = tables[:len(ys)], tables[len(ys):]
        if not all(len(refine(block, y_tables)) == 1 << len(ys)
                   for _, block in refine(points, x_tables)):
            return False
    return True


def materialize(
    ctx: P1Context, elements: Sequence[P1Element]
) -> tuple[FiniteBooleanAlgebra, list[int], tuple[int, ...]]:
    """Flatten onto an explicit atom-canonical algebra.

    Atoms are the designated atoms followed by the free minterms over the
    joint support window; faithful for every element whose support lies in
    the window.  Returns the algebra, the flat masks, and the window.
    """
    sigma, tables, _ = _window([e.free for e in elements])
    k = len(ctx.atom_ids)
    B = FiniteBooleanAlgebra(k + (1 << len(sigma)))
    masks = []
    for e, table in zip(elements, tables):
        m = table << k
        for i, a in enumerate(ctx.atom_ids):
            if e.atomic & (1 << a):
                m |= 1 << i
        masks.append(m)
    return B, masks, sigma


def unmaterialize(
    ctx: P1Context, sigma: tuple[int, ...], mask: int
) -> P1Element:
    """Inverse of ``materialize`` for one flat element."""
    atomic = 0
    for i, a in enumerate(ctx.atom_ids):
        if mask & (1 << i):
            atomic |= 1 << a
    table = mask >> len(ctx.atom_ids)
    return P1Element(atomic, _reduce(sigma, table))
