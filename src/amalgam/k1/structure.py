"""Truncated tau-structures: finite P0/P2, an element algebra of designated
atoms times a free factor, a bijection G1 onto the designated atoms, and a
truncated value table F[n][c].

The trace relation R(a, b) (the element of P0 named a sits under b) is
always derived from G1, never stored.  Ids for P0/P2 elements, designated
atoms, and free generators are drawn from one global integer space so that
extensions transport elements by explicit maps instead of re-indexing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .freepart import ZERO, var
from .p1 import BOTTOM, P1Context, P1Element, bare_generator

DEFAULT_TRUNC = 6


@dataclass(frozen=True)
class K1Witness:
    """Certificate ⟨threshold, atomic top⟩ for class membership.

    The level chain B_threshold .. B_trunc is canonical: level n is
    generated by the designated atoms and every value of index below n.
    """

    n_star: int
    b_star: P1Element


@dataclass
class K1Structure:
    """A truncated tau-structure.

    ``ctx``, the ``P1Context`` of the designated-atom inventory, is
    derived from ``atom_ids`` alone and built once: it is kept in
    ``_ctx`` with the ``atom_ids`` tuple it was built from, and rebinding
    ``atom_ids`` rebuilds it on the next read.

    The match search keeps one table on each structure it reads, in
    ``_table`` (``embeddings._table``): one tuple of ints, two dicts of
    ints and a memo, with the ``f``, ``g1``, ``p0`` and ``p2`` objects
    it was built from.  It holds whether the structure has the simple
    shape, the bit offset of each P2 column, every column's zero free
    parts and first richer index packed at those offsets, and each
    atom's membership profile over every column, packed the same way;
    the memo holds, once a match out of the structure has reached a
    leaf, the zero mask and sign vectors of its own ids in order.
    Rebinding ``f``, ``g1``, ``p0`` or ``p2`` rebuilds the table, the
    memo starting empty, on the next read (the table reads no other
    field).  So an in-place edit of ``f`` or ``g1`` after a match
    (``is_valid_match``, ``enumerate_matches`` and the routines built on
    them) must go through ``copy()`` or a rebinding of the edited field;
    before any match, and for every other field, edits are free.
    ``_ctx`` and ``_table`` take no part in equality, hashing, repr or
    ``copy``: a copy starts without either.
    """

    trunc: int
    p0: tuple[int, ...]
    p2: tuple[int, ...]
    atom_ids: tuple[int, ...]
    gen_ids: tuple[int, ...]
    g1: dict[int, P1Element]
    f: dict[tuple[int, int], P1Element]
    witness: Optional[K1Witness] = None
    named_gens: tuple[int, ...] = ()
    _ctx: tuple = field(default=(None, None), init=False, repr=False,
                        compare=False)
    _table: tuple = field(default=(None, None, None, None), init=False,
                          repr=False, compare=False)

    @property
    def ctx(self) -> P1Context:
        atom_ids, ctx = self._ctx
        if atom_ids is not self.atom_ids:
            ctx = P1Context(tuple(sorted(self.atom_ids)))
            self._ctx = (self.atom_ids, ctx)
        return ctx

    @property
    def size(self) -> int:
        """Generator count: structures are generated by P0 and P2."""
        return len(self.p0) + len(self.p2)

    def trace(self, b: P1Element) -> frozenset[int]:
        """R(. , b): the P0 elements whose designated atom sits below b."""
        ctx = self.ctx
        return frozenset(a for a in self.p0 if ctx.le(self.g1[a], b))

    def generator_elements(self) -> list[P1Element]:
        """G1 values and F values in canonical order (the generating set of
        the element algebra for class members)."""
        out = [self.g1[a] for a in self.p0]
        for c in self.p2:
            for n in range(self.trunc):
                if (n, c) in self.f:
                    out.append(self.f[(n, c)])
        for g in self.named_gens:
            out.append(bare_generator(g))
        return out

    def all_ids(self) -> set[int]:
        ids = set(self.p0) | set(self.p2) | set(self.atom_ids) | set(self.gen_ids)
        return ids

    def fresh_ids(self, count: int) -> list[int]:
        start = max(self.all_ids(), default=-1) + 1
        return list(range(start, start + count))

    def copy(self) -> "K1Structure":
        return K1Structure(
            self.trunc, self.p0, self.p2, self.atom_ids, self.gen_ids,
            dict(self.g1), dict(self.f), self.witness, self.named_gens,
        )

    def canonical_key(self):
        return (
            self.trunc, self.p0, self.p2, self.atom_ids, self.gen_ids,
            tuple(sorted((a, v.atomic, v.free) for a, v in self.g1.items())),
            tuple(sorted(((n, c), v.atomic, v.free) for (n, c), v in self.f.items())),
            self.named_gens,
        )

    def __eq__(self, other):
        return isinstance(other, K1Structure) and \
            self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())


def minimal_model(trunc: int = DEFAULT_TRUNC) -> K1Structure:
    """Empty P0 and P2; the element algebra is the two-element algebra and
    the atomic top is 0."""
    return K1Structure(
        trunc=trunc, p0=(), p2=(), atom_ids=(), gen_ids=(),
        g1={}, f={}, witness=K1Witness(0, BOTTOM),
    )


def derive_witness(M: K1Structure, n_star: int) -> K1Witness:
    """Canonical witness: b* is the join of the designated atoms and level n
    is generated by the designated atoms plus all values with index < n."""
    return K1Witness(n_star, M.ctx.b_star)


@dataclass(frozen=True)
class FreeExtensionWitness:
    """Pair (I, H) certifying a free extension: I is an independent
    generating complement, H schedules which value tails land in I."""

    independent: tuple[P1Element, ...]
    tail_start: tuple[tuple[int, int], ...]  # (p2 id, threshold) pairs

    @property
    def h(self) -> dict[int, int]:
        return dict(self.tail_start)

    @staticmethod
    def make(independent: Iterable[P1Element],
             h: dict[int, int]) -> "FreeExtensionWitness":
        return FreeExtensionWitness(
            tuple(dict.fromkeys(independent)), tuple(sorted(h.items()))
        )


EMPTY_WITNESS = FreeExtensionWitness((), ())


# ---------------------------------------------------------------------------
# Canonical member construction
# ---------------------------------------------------------------------------


def build_member(
    p0_count: int,
    p2_count: int,
    n_star: int,
    trunc: int = DEFAULT_TRUNC,
    head_plan: Sequence[Sequence[tuple[tuple[int, ...], bool]]] = (),
    start_id: int = 0,
) -> K1Structure:
    """Assemble a class member from a head plan.

    ``head_plan[j][n]`` describes F[n][c_j] for n below the threshold: a
    pair (designated index tuple, own_generator) giving the atomic part
    and whether the value carries a private free generator.  Values at and
    above the threshold are always fresh private generators (the free
    tail).
    """
    next_id = start_id

    def take(k: int) -> list[int]:
        nonlocal next_id
        out = list(range(next_id, next_id + k))
        next_id += k
        return out

    p0 = tuple(take(p0_count))
    p2 = tuple(take(p2_count))
    atoms = tuple(take(p0_count))
    g1 = {a: P1Element(1 << atom, ZERO) for a, atom in zip(p0, atoms)}
    gens: list[int] = []
    f: dict[tuple[int, int], P1Element] = {}
    for j, c in enumerate(p2):
        for n in range(trunc):
            if n < n_star:
                spec = head_plan[j][n] if j < len(head_plan) and n < len(head_plan[j]) \
                    else ((), True)
                atom_indices, own_gen = spec
                mask = 0
                for i in atom_indices:
                    mask |= 1 << atoms[i]
                fp = ZERO
                if own_gen:
                    g = take(1)[0]
                    gens.append(g)
                    fp = var(g)
                f[(n, c)] = P1Element(mask, fp)
            else:
                g = take(1)[0]
                gens.append(g)
                f[(n, c)] = bare_generator(g)
    M = K1Structure(trunc, p0, p2, atoms, tuple(gens), g1, f)
    M.witness = derive_witness(M, n_star)
    return M


def enumerate_head_plans(p0_count: int, p2_count: int, n_star: int):
    """Deterministic palette of head plans, one per multiset of column
    plans: the atomic part of a head value is empty, the first designated
    atom, or all of them; the free part is a private generator or absent
    (but never both absent).  A column plan lists the heads of one P2
    element, and the columns of a yielded plan are in non-decreasing
    palette order.

    No isomorphism type is lost.  ``build_member`` treats every column
    alike, so permuting a plan's columns gives an isomorphic candidate
    (only the P2 ids, and the generator ids drawn per column, are
    relabelled).  Among the column permutations of a plan, the sorted one
    comes first in the lexicographic order of
    ``itertools.product(per_c, repeat=p2_count)``, and
    ``combinations_with_replacement`` yields exactly the sorted tuples of
    that stream, in the same relative order."""
    atomic_options: list[tuple[int, ...]] = [()]
    if p0_count >= 1:
        atomic_options.append((0,))
    if p0_count >= 2:
        atomic_options.append(tuple(range(p0_count)))
    head_options = [(mask, True) for mask in atomic_options]
    head_options += [(mask, False) for mask in atomic_options if mask]
    per_c = list(itertools.product(head_options, repeat=n_star))
    for combo in itertools.combinations_with_replacement(per_c, p2_count):
        yield [list(heads) for heads in combo]


def enumerate_members(
    max_p0: int,
    max_p2: int,
    max_n_star: int,
    trunc: int = DEFAULT_TRUNC,
    max_size: Optional[int] = None,
) -> list[K1Structure]:
    """The ``build_member`` candidates within the given bounds, one per
    multiset of column plans (see ``enumerate_head_plans``), in a fixed
    order.  Candidates with repeated head values fail ``check_K1``.
    ``engine.corpus`` keeps one member per isomorphism type: it drops a
    candidate isomorphic to a kept member before any check, and checks
    only the rest, which gives the members, in order, that checking
    every candidate first would give."""
    out: list[K1Structure] = []
    for p0_count in range(max_p0 + 1):
        for p2_count in range(max_p2 + 1):
            if max_size is not None and p0_count + p2_count > max_size:
                continue
            n_star_range = range(max_n_star + 1) if p2_count else (0,)
            for n_star in n_star_range:
                for plan in enumerate_head_plans(p0_count, p2_count, n_star):
                    out.append(build_member(p0_count, p2_count, n_star,
                                            trunc, plan))
    return out
