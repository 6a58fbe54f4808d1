"""The element algebra of a structure: designated atoms times a free factor.

An element is a pair (atomic, free): a bitmask over the structure's
designated-atom ids plus a sparse Boolean function over free generator
ids.  The pair encodes (x meet b*) and (x meet complement of b*), where
b* is the join of the designated atoms, so meet/join/complement act
coordinatewise.  Atom and generator ids are globally allocated, which
makes extension transports explicit maps rather than re-indexing.

Independence checks factor through support components: signed minterms of
functions with disjoint supports are nonzero products, so only overlap
clusters are ever expanded.  Generated subalgebras are computed on a
finite point space, the designated atoms plus the free minterms over a
support window, with the point sets split by ``boolalg.refine``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..boolalg import FiniteBooleanAlgebra, refine
from ..errors import (
    INDEPENDENCE_CAP,
    WINDOW_CAP,
    CapExceeded,
    PreconditionFailed,
)
from .freepart import (
    ONE,
    ZERO,
    FreeFn,
    _expand,
    _reduce,
    conj,
    conj_many,
    disj,
    neg,
    signed,
    support_components,
    var,
)


@dataclass(frozen=True)
class P1Element:
    atomic: int
    free: FreeFn

    @property
    def is_zero(self) -> bool:
        return self.atomic == 0 and self.free.is_zero

    @property
    def in_atomic_ideal(self) -> bool:
        """Membership in the ideal of finite joins of designated atoms."""
        return self.free.is_zero


BOTTOM = P1Element(0, ZERO)


@dataclass(frozen=True)
class P1Context:
    """Designated-atom inventory of one structure; complements are taken
    relative to it."""

    atom_ids: tuple[int, ...]

    def __post_init__(self):
        assert self.atom_ids == tuple(sorted(set(self.atom_ids)))

    @property
    def full_mask(self) -> int:
        m = 0
        for a in self.atom_ids:
            m |= 1 << a
        return m

    @property
    def top(self) -> P1Element:
        return P1Element(self.full_mask, ONE)

    @property
    def b_star(self) -> P1Element:
        return P1Element(self.full_mask, ZERO)

    def atom(self, atom_id: int) -> P1Element:
        assert atom_id in self.atom_ids
        return P1Element(1 << atom_id, ZERO)

    def meet(self, x: P1Element, y: P1Element) -> P1Element:
        return P1Element(x.atomic & y.atomic, conj(x.free, y.free))

    def join(self, x: P1Element, y: P1Element) -> P1Element:
        return P1Element(x.atomic | y.atomic, disj(x.free, y.free))

    def comp(self, x: P1Element) -> P1Element:
        return P1Element(self.full_mask & ~x.atomic, neg(x.free))

    def le(self, x: P1Element, y: P1Element) -> bool:
        return (x.atomic & ~y.atomic) == 0 and conj(x.free, neg(y.free)).is_zero


# ---------------------------------------------------------------------------
# Finite point space over a support window
# ---------------------------------------------------------------------------


def _signature_blocks(
    ctx: P1Context,
    elements: Sequence[P1Element],
    extra_support: Iterable[int],
) -> tuple[tuple[int, ...], dict[int, list[int]]]:
    """The support window of ``elements`` widened by ``extra_support``,
    and the points grouped by their sign vector over ``elements`` (bit i
    set under elements[i]): one [atom mask, window point table] pair per
    realized vector, designated atoms and free minterms over the window
    side by side."""
    sigma = sorted({g for e in elements for g in e.free.support} | set(extra_support))
    if len(sigma) > WINDOW_CAP:
        raise CapExceeded("WINDOW_CAP", len(sigma))
    sigma = tuple(sigma)
    tables = [_expand(e.free, sigma) for e in elements]
    blocks = {v: [atomic, 0] for v, atomic in
              refine(ctx.full_mask, [e.atomic for e in elements])}
    for v, points in refine((1 << (1 << len(sigma))) - 1, tables):
        blocks.setdefault(v, [0, 0])[1] = points
    return sigma, blocks


def point_blocks(
    ctx: P1Context,
    elements: Sequence[P1Element],
    extra_support: Iterable[int] = (),
) -> list[P1Element]:
    """Atoms of the subalgebra generated by ``elements``.

    Points are the designated atoms plus the free minterms over the joint
    support window (optionally widened by ``extra_support``); two points
    merge when no generator element separates them.  Complete because
    every element in play is constant outside the window.
    """
    sigma, blocks = _signature_blocks(ctx, elements, extra_support)
    return [P1Element(atomic, _reduce(sigma, table))
            for atomic, table in blocks.values()]


def subalgebra_contains(
    ctx: P1Context, gens: Sequence[P1Element], x: P1Element
) -> bool:
    """x lies in <gens> iff every generated block is inside x or disjoint
    from it, on both coordinates.  Works on raw point tables over the
    joint support window."""
    sigma, blocks = _signature_blocks(ctx, gens, x.free.support)
    x_table = _expand(x.free, sigma)
    full_bits = (1 << (1 << len(sigma))) - 1
    for atomic, bits in blocks.values():
        hits = (atomic & x.atomic) or (bits & x_table)
        escapes = (atomic & ~x.atomic & ctx.full_mask) or \
            (bits & ~x_table & full_bits)
        if hits and escapes:
            return False
    return True


def spans_generator(
    ctx: P1Context, span: Sequence[P1Element], g: int
) -> bool:
    """Does the subalgebra generated by ``span`` contain the bare
    generator g?

    Windows down to the support-connected component of g inside the span
    (plus the purely atomic span elements, which can cut free parts loose
    from their atomic masks); elements in other components cannot
    contribute to a function depending on g.
    """
    target = P1Element(0, var(g))
    reached = {g}
    changed = True
    relevant: list[P1Element] = []
    while changed:
        changed = False
        for e in span:
            sup = set(e.free.support)
            if sup and (sup & reached) and not sup <= reached:
                reached |= sup
                changed = True
    for e in span:
        sup = set(e.free.support)
        if not sup or sup <= reached:
            relevant.append(e)
    if not any(g in e.free.support for e in relevant):
        return False
    return subalgebra_contains(ctx, relevant, target)


# ---------------------------------------------------------------------------
# Independence
# ---------------------------------------------------------------------------


def independent_from_mod_atomic(
    Y: Sequence[P1Element], X: Sequence[P1Element]
) -> bool:
    """Is Y independent from <X> modulo the ideal of atomic elements?

    Membership in that ideal reads the free coordinate only, so the test
    factors completely through free parts, and then through support
    components: for each overlap cluster, every signed minterm of the
    cluster's Y-functions must meet every nonzero block of the cluster's
    X-functions.  Components meet jointly because meets across disjoint
    supports are nonzero products.
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
    x_fns = [x.free for x in X]
    all_fns = y_fns + x_fns
    for component in support_components(all_fns):
        ys = [all_fns[i] for i in component if i < len(y_fns)]
        xs = [all_fns[i] for i in component if i >= len(y_fns)]
        if len(ys) > INDEPENDENCE_CAP:
            raise CapExceeded("INDEPENDENCE_CAP", len(ys))
        blocks = [ONE]
        for fn in xs:
            nxt = []
            for b in blocks:
                for part in (conj(b, fn), conj(b, neg(fn))):
                    if not part.is_zero:
                        nxt.append(part)
            blocks = nxt
        for pattern in range(1 << len(ys)):
            m = conj_many([signed(ys[i], (pattern >> i) & 1) for i in range(len(ys))])
            if m.is_zero:
                return False
            for b in blocks:
                if conj(m, b).is_zero:
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
    sigma = tuple(sorted({g for e in elements for g in e.free.support}))
    if len(sigma) > WINDOW_CAP:
        raise CapExceeded("WINDOW_CAP", len(sigma))
    k = len(ctx.atom_ids)
    B = FiniteBooleanAlgebra(k + (1 << len(sigma)))
    masks = []
    for e in elements:
        m = 0
        for i, a in enumerate(ctx.atom_ids):
            if e.atomic & (1 << a):
                m |= 1 << i
        m |= _expand(e.free, sigma) << k
        masks.append(m)
    return B, masks, sigma


def zero_atomic_minterms_nonzero(
    ctx: P1Context, Y: Sequence[P1Element]
) -> bool:
    """All signed minterms of a zero-atomic family are nonzero.

    The atomic coordinate of a signed minterm is full exactly on the
    all-negative pattern and empty otherwise, so the condition factors
    over support components of the free parts: a component pattern with a
    zero conjunction is fatal, except that the all-negative pattern of a
    lone component is rescued by the designated atoms.
    """
    ys = []
    seen = set()
    for y in Y:
        if y.atomic:
            raise PreconditionFailed("zero-atomic", "family member meets atoms")
        if y not in seen:
            seen.add(y)
            ys.append(y.free)
    comps = support_components(ys)
    lone = len(comps) == 1 and bool(ctx.atom_ids)
    for comp in comps:
        fns = [ys[i] for i in comp]
        if len(fns) > INDEPENDENCE_CAP:
            raise CapExceeded("INDEPENDENCE_CAP", len(fns))
        for pattern in range(1 << len(fns)):
            m = conj_many([signed(fns[i], (pattern >> i) & 1)
                           for i in range(len(fns))])
            if m.is_zero:
                if pattern == 0 and lone:
                    continue  # rescued by the atomic coordinate
                return False
    return True


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
