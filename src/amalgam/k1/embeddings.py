"""Embeddings between tau-structures.

Two kinds of maps:

* TransportMap: a constructive embedding produced by extension builders.
  It renames designated atoms and generators, and records ``splits``: new
  target atoms inserted below the images of source elements, each governed
  by a principal ultrafilter choice on the source algebra, a point of the
  free factor.  Transports map a whole list of elements in one pass
  and certify chain inclusions.

* match embeddings: a pair of injections (P0, P2) between class members
  whose element map is forced on generators.  Validity is decided by
  comparing realized sign-pattern sets of the generator lists, with a
  three-way classification (zero / purely atomic / has free content) that
  captures relation preservation and the reflection of the atomic-ideal
  predicate.  A fast combinatorial path covers the common case where each
  free part is zero or a generator that no other value carries; a list
  that repeats a generator goes to the general path.  Both paths read the
  realized sign vectors off ``boolalg.refine``: the simple path over the
  designated atoms under its zero positions (the only atoms that can
  realize a vector it reads), the general path over atoms and window points
  through ``p1._signature_blocks``.  Matches are enumerated by the one
  injective search behind every embedding enumerator, ``search.backtrack``.

  What depends on one structure alone is read once per structure: each
  structure keeps a table of column shapes (``_shapes``: every P2
  column's zero mask and first richer index, and whether the whole
  structure has the simple shape), from which the search takes its P2
  candidate pools and, when both structures are simple, the simple
  path its zero masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from ..boolalg import refine
from ..errors import InvalidEmbedding
from ..search import backtrack
from .freepart import rename, var
from .p1 import P1Element, _signature_blocks
from .structure import K1Structure


@dataclass(frozen=True)
class TransportMap:
    """Renamings of P0/P2 ids, designated atoms and generators, plus
    ``splits``: (new_atom, point) pairs, where ``point`` is a tuple of
    (generator, 1) pairs naming a point of the free factor (unlisted
    generators read 0).  The new atom lies under exactly the transported
    elements whose free part holds at its point.

    ``apply`` maps a whole list in one pass: it builds the atom and
    generator maps, the split points and a table from each generator to
    the split atoms whose point lists it with value 1 once per call.  A
    zero free part holds at no point and renames to itself, so only its
    atomic part moves; a bare generator g reads its split atoms off the
    table and renames to ``var`` of g's image; any other value evaluates
    every split point and is renamed.  A value that nothing moves is its
    own image."""

    p0_map: tuple[tuple[int, int], ...] = ()
    p2_map: tuple[tuple[int, int], ...] = ()
    atom_map: tuple[tuple[int, int], ...] = ()
    gen_map: tuple[tuple[int, int], ...] = ()
    splits: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()

    def apply(self, values: Sequence[P1Element]) -> list[P1Element]:
        atoms = dict(self.atom_map)
        gens = dict(self.gen_map)
        splits = [(1 << new_atom, dict(point))
                  for new_atom, point in self.splits]
        under_gen: dict[int, int] = {}
        for bit, point in splits:
            for g, v in point.items():
                if v:
                    under_gen[g] = under_gen.get(g, 0) | bit
        out = []
        for x in values:
            atomic = x.atomic
            if atoms:
                atomic, rest = 0, x.atomic
                while rest:
                    low = rest & -rest
                    a = low.bit_length() - 1
                    atomic |= 1 << atoms.get(a, a)
                    rest ^= low
            fn = x.free
            if fn.table == 0b10 and len(fn.support) == 1:
                g = fn.support[0]
                atomic |= under_gen.get(g, 0)
                if gens:
                    fn = var(gens.get(g, g))
            elif fn.table:
                for bit, point in splits:
                    if fn.evaluate(point):
                        atomic |= bit
                if gens:
                    fn = rename(fn, gens)
            out.append(x if atomic == x.atomic and fn is x.free
                       else P1Element(atomic, fn))
        return out


# ---------------------------------------------------------------------------
# Match embeddings between class members
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MatchEmbedding:
    """The P0 and P2 injections of a match, as sorted (source, image)
    pairs.  Immutable and slotted; a caller that reads images builds the
    dict once."""

    p0_map: tuple[tuple[int, int], ...]
    p2_map: tuple[tuple[int, int], ...]

    def key(self):
        return (self.p0_map, self.p2_map)


def _generator_lists(A: K1Structure, B: K1Structure,
                     p0_map: dict[int, int], p2_map: dict[int, int]):
    """The values generated by the mapped ids of A, and their images in B,
    positionwise.  Validity does not depend on the order of the pairs."""
    src, tgt = [], []
    for a, b in p0_map.items():
        src.append(A.g1[a])
        tgt.append(B.g1[b])
    for c, d in p2_map.items():
        for n in range(A.trunc):
            src.append(A.f[(n, c)])
            tgt.append(B.f[(n, d)])
    return src, tgt


def _zero_mask(values: list[P1Element]) -> Optional[int]:
    """The mask of the zero free parts of ``values``; None unless every
    other free part is a bare generator (truth table 0b10 on one
    generator) that no other value carries."""
    zero, seen = 0, set()
    for i, x in enumerate(values):
        fn = x.free
        if not fn.table:
            zero |= 1 << i
        elif fn.table != 0b10 or len(fn.support) != 1 or fn.support[0] in seen:
            return None
        else:
            seen.add(fn.support[0])
    return zero


def _shapes(S: K1Structure) -> tuple[bool, dict[int, int], dict[int, int]]:
    """The column shapes of S, built on first use and kept on S (in
    ``S._shapes``, with the ``f``, ``g1`` and ``p2`` they were read from)
    until one of those is rebound.

    ``simple`` says whether every free part of S, over all of ``g1`` and
    ``f``, is zero or a bare generator that no other value carries.
    ``zeros`` maps each P2 id c to the mask of the indices n with F[n][c]
    of zero free part, and ``rich`` maps c, when its column has a value
    richer than a bare generator, to the first such index (so a simple
    structure's ``rich`` is empty, and its table holds no object per
    column but small ints).
    """
    f, g1, p2, table = S._shapes
    if f is S.f and g1 is S.g1 and p2 is S.p2:
        return table
    zeros: dict[int, int] = {}
    rich: dict[int, int] = {}
    for c in S.p2:
        zero = 0
        for n in reversed(range(S.trunc)):
            fn = S.f[(n, c)].free
            if not fn.table:
                zero |= 1 << n
            elif fn.table != 0b10 or len(fn.support) != 1:
                rich[c] = n
        zeros[c] = zero
    simple = _zero_mask([*S.g1.values(), *S.f.values()]) is not None
    table = (simple, zeros, rich)
    S._shapes = (S.f, S.g1, S.p2, table)
    return table


def _column_zero_masks(A: K1Structure, B: K1Structure,
                       p0_map: dict[int, int], p2_map: dict[int, int]
                       ) -> Optional[tuple[int, int]]:
    """The zero masks of the two generator lists of a match (in
    ``_generator_lists`` order), with each P2 column's mask read off the
    column shapes; None unless both structures are simple, when every
    sublist of their values has the simple shape too."""
    simple, zeros, _ = _shapes(A)
    simple_t, zeros_t, _ = _shapes(B)
    if not (simple and simple_t):
        return None
    zero = zero_t = 0
    bit = 1
    for a, b in p0_map.items():
        if not A.g1[a].free.table:
            zero |= bit
        if not B.g1[b].free.table:
            zero_t |= bit
        bit <<= 1
    shift = len(p0_map)
    for c, d in p2_map.items():
        zero |= zeros[c] << shift
        zero_t |= zeros_t[d] << shift
        shift += A.trunc
    return zero, zero_t


def _match_simple(A: K1Structure, B: K1Structure,
                  src: list[P1Element], tgt: list[P1Element],
                  zero: int) -> bool:
    """Validity when every free part is zero or a generator of its own,
    and both lists read zero free parts at the positions of ``zero``.
    A sign vector is then realized in the free factor iff it reads 0 at
    the zero positions, so the sides match iff every vector their atoms
    realize on one side only reads 0 there.

    Only the atoms under a zero position can realize a vector that reads
    1 there: an atom realizes such a vector exactly when it lies in
    ``under``, the join of the atomic parts at the zero positions.  So the
    test above is equality of the vector sets that the atoms in ``under``
    realize on the two sides, and the leaf refines those atoms alone.
    """
    masks, masks_t = [x.atomic for x in src], [x.atomic for x in tgt]
    under = under_t = 0
    rest = zero
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        under |= masks[i]
        under_t |= masks_t[i]
        rest ^= low
    return {v for v, _ in refine(A.ctx.full_mask & under, masks)} == \
        {v for v, _ in refine(B.ctx.full_mask & under_t, masks_t)}


def _match_general(A: K1Structure, B: K1Structure,
                   src: list[P1Element], tgt: list[P1Element]) -> bool:
    """Three-way classification of every sign pattern: zero (no block),
    purely atomic (a block with no window points) or with free content.

    Each side is partitioned over its own support window; the sides
    agree iff they realize the same sign vectors, each with free content
    on both sides or on neither.
    """
    def classes(S: K1Structure, values: list[P1Element]) -> dict[int, bool]:
        _, blocks = _signature_blocks(S.ctx, values)
        return {v: points != 0 for v, (_, points) in blocks.items()}

    return classes(A, src) == classes(B, tgt)


def is_valid_match(A: K1Structure, B: K1Structure,
                   p0_map: dict[int, int], p2_map: dict[int, int]) -> bool:
    """Do the injections generate matched subalgebras: the values of the
    mapped ids of A and their images in B, paired positionwise?

    The maps may be partial (a game position, through
    ``engine.k1_position_valid``).  When both structures are simple (see
    ``_shapes``), the zero masks of the two lists come from the column
    shapes and ``_match_simple`` decides; otherwise the lists' own zero
    masks choose between ``_match_simple`` and ``_match_general``."""
    if A.named_gens or B.named_gens:
        raise InvalidEmbedding(
            "match embeddings require fully value-generated structures"
        )
    if len(set(p0_map.values())) != len(p0_map) or \
            len(set(p2_map.values())) != len(p2_map):
        return False
    if A.trunc != B.trunc:
        return False
    zeros = _column_zero_masks(A, B, p0_map, p2_map)
    src, tgt = _generator_lists(A, B, p0_map, p2_map)
    if zeros is None:
        zeros = _zero_mask(src), _zero_mask(tgt)
        if None in zeros:
            return _match_general(A, B, src, tgt)
    zero, zero_t = zeros
    return zero == zero_t and _match_simple(A, B, src, tgt, zero)


def enumerate_matches(A: K1Structure, B: K1Structure,
                      fixed: dict[int, int] | None = None,
                      first_only: bool = False,
                      touching: Optional[Collection[int]] = None,
                      ) -> list[MatchEmbedding]:
    """All structure embeddings A -> B (as P0/P2 injections), lexicographic
    in target id order, honoring pinned assignments.

    One ``search.backtrack`` over one map (P0 and P2 ids share one id
    space, so ``fixed`` pins both): the free P2 slots first, each drawing
    from ``_p2_pool`` (the ids of B whose column shape agrees, in
    ``B.p2`` order), then the free P0 slots, checked by
    ``_p0_profile_ok``.  Every full map goes to ``is_valid_match``.
    ``touching`` keeps only the embeddings with some P0 or P2 image in
    it, by the pin rule of ``backtrack``.  Members of different
    truncations have no embedding, as ``is_valid_match`` decides.
    """
    if len(A.p0) > len(B.p0) or len(A.p2) > len(B.p2) or A.trunc != B.trunc:
        return []
    fixed = fixed or {}
    free_p2 = [c for c in A.p2 if c not in fixed]
    free_p0 = [a for a in A.p0 if a not in fixed]
    p2_ids = set(A.p2)

    def feasible(mapping: dict[int, int], x: int) -> bool:
        return x in p2_ids or _p0_profile_ok(A, B, x, mapping)

    def accept(mapping: dict[int, int]) -> Optional[MatchEmbedding]:
        p0_map = {a: mapping[a] for a in A.p0}
        p2_map = {c: mapping[c] for c in A.p2}
        if not is_valid_match(A, B, p0_map, p2_map):
            return None
        return MatchEmbedding(tuple(sorted(p0_map.items())),
                              tuple(sorted(p2_map.items())))

    return backtrack(free_p2 + free_p0,
                     [_p2_pool(A, B, c) for c in free_p2] +
                     [B.p0] * len(free_p0),
                     fixed, feasible, accept, first_only, touching)


def _p2_pool(A: K1Structure, B: K1Structure, c: int) -> list[int]:
    """The P2 ids d of B, in ``B.p2`` order, whose column passes a cheap
    necessary condition for matching c's: zero free parts and bare
    generators at the same indices, up to the first index where either
    column is richer (left to the full check)."""
    _, zeros, rich = _shapes(A)
    _, zeros_b, rich_b = _shapes(B)
    zero, first = zeros[c], rich.get(c, A.trunc)
    pool = []
    for d in B.p2:
        differ = zero ^ zeros_b[d]
        if not differ or not differ & (
                (1 << min(first, rich_b.get(d, B.trunc))) - 1):
            pool.append(d)
    return pool


def _p0_profile_ok(A: K1Structure, B: K1Structure, a: int,
                   mapping: dict[int, int]) -> bool:
    """The F-membership profile of a's atom must match that of its image's
    atom over every c of P2 (all mapped before any P0 id)."""
    atom_a = A.g1[a].atomic
    atom_b = B.g1[mapping[a]].atomic
    if atom_a == 0 or atom_b == 0:
        return atom_a == atom_b
    for c in A.p2:
        d = mapping[c]
        for n in range(A.trunc):
            in_a = bool(A.f[(n, c)].atomic & atom_a)
            in_b = bool(B.f[(n, d)].atomic & atom_b)
            if in_a != in_b:
                return False
    return True


def extend_match(B: K1Structure, M: K1Structure,
                 inclusion: MatchEmbedding, f: MatchEmbedding,
                 ) -> list[MatchEmbedding]:
    """The first embedding g : B -> M with g restricted along
    ``inclusion`` equal to f (the extension problem of richness tasks),
    as a list of at most one."""
    f_p0, f_p2 = dict(f.p0_map), dict(f.p2_map)
    pinned = {b: f_p0[a] for a, b in inclusion.p0_map}
    pinned.update((d, f_p2[c]) for c, d in inclusion.p2_map)
    return enumerate_matches(B, M, pinned, first_only=True)


def is_isomorphic_k1(A: K1Structure, B: K1Structure) -> bool:
    """Same generator counts and a valid match from A to B.

    For value-generated members a match embedding with bijective P0/P2 is
    automatically surjective on the element algebra, since the target is
    generated by the matched values.
    """
    if (len(A.p0), len(A.p2), A.trunc) != (len(B.p0), len(B.p2), B.trunc):
        return False
    return bool(enumerate_matches(A, B, first_only=True))
