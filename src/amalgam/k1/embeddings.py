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
  that repeats a generator goes to the general path, which refines atoms
  and window points through ``p1._signature_blocks``.  Matches are
  enumerated by the one injective search behind every embedding
  enumerator, ``search.backtrack``.

  What depends on one structure alone is read once per structure, into
  one table of ints kept on the structure (``_table``; the VF2 idea of
  reading per-node data once and checking candidates against it): the
  zero free parts and first richer index of every P2 column, and every
  atom's membership profile over the columns, packed by column.  The
  search draws the pools of its P2 slots from it, both tables read once
  per call (``_p2_pools``), and checks P0 candidates against the
  profiles (``_feasible``), and the simple path reads its sign vectors
  off it with no list of values (``_signs``).  Every leaf of one search
  lists the source's ids in the same order, the structure's own, so
  the table also keeps the source side of the leaf for that order, read
  once per table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional, Sequence

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


def _table(S: K1Structure) -> tuple:
    """The match table of S, built on first use and kept on S (in
    ``S._table``) until ``f``, ``g1``, ``p0`` or ``p2`` is rebound: the
    one tuple ``(f, g1, p0, p2, simple, offsets, zeros, rich, rows,
    memo)``, the first four being the objects it was read from.

    ``simple`` says whether every free part of S, over all of ``g1`` and
    ``f``, is zero or a bare generator that no other value carries.
    ``offsets`` maps each P2 id c to the bit offset of its column, its
    index in ``S.p2`` times ``S.trunc``, and the ints ``zeros`` and
    ``rich`` and each row of ``rows`` are packed at those offsets, bit
    ``offsets[c] + n`` standing for F[n][c].  That bit is set in
    ``zeros`` when F[n][c] has a zero free part, and in ``rich`` when n
    is the first index of c's column with a value richer than a bare
    generator (so a simple structure's ``rich`` is 0).  ``rows`` maps
    each atom that an atomic part of S holds (in a member, each
    designated atom) to its membership profile: the bit of F[n][c] is
    set when the atomic part of F[n][c] holds the atom.  ``memo`` keeps
    the result of ``_signs`` on S's own ids, ``S.p0`` then ``S.p2``: a
    list, empty until that call first fills it, made new with every
    table (``p0`` keys the table for the memo's sake alone).
    """
    table = S._table
    if table[0] is S.f and table[1] is S.g1 and table[2] is S.p0 and \
            table[3] is S.p2:
        return table
    trunc, f = S.trunc, S.f
    rows: dict[int, int] = {}
    for x in S.g1.values():
        rest = x.atomic
        while rest:
            low = rest & -rest
            rows[low.bit_length() - 1] = 0
            rest ^= low
    offsets: dict[int, int] = {}
    zeros = rich = 0
    bit = 1
    for j, c in enumerate(S.p2):
        offsets[c] = j * trunc
        first = 0
        for n in range(trunc):
            x = f[(n, c)]
            fn = x.free
            if not fn.table:
                zeros |= bit
            elif not first and (fn.table != 0b10 or len(fn.support) != 1):
                first = bit
            rest = x.atomic
            while rest:
                low = rest & -rest
                t = low.bit_length() - 1
                rows[t] = rows.get(t, 0) | bit
                rest ^= low
            bit <<= 1
        rich |= first
    simple = _zero_mask([*S.g1.values(), *f.values()]) is not None
    table = (S.f, S.g1, S.p0, S.p2, simple, offsets, zeros, rich, rows, [])
    S._table = table
    return table


def _signs(S: K1Structure, table: tuple, p0_ids: Collection[int],
           p2_ids: Collection[int]) -> tuple[int, set[int]]:
    """The zero mask of the generator list of the ids (in
    ``_generator_lists`` order) of S, read off S's table, and the sign
    vectors over that list of the atoms of S that lie under a zero
    position.

    Atom t's vector is its P0 bits (bit i set when the atomic part of
    the i-th P0 value holds t) followed by its table row cut to the
    listed columns, in list order.

    When the ids are exactly S's own in order, ``S.p0`` then ``S.p2``
    (the source side of every leaf of ``enumerate_matches``), the pair
    is read from the table's ``memo``, which the first such call fills.
    Any other list, such as a game position with partial or reordered
    picks, is computed.  A memoised set is shared by every caller, which
    only compares it."""
    _, _, _, _, _, offsets, zeros, _, rows, memo = table
    whole = len(p0_ids) == len(S.p0) and len(p2_ids) == len(S.p2) and \
        tuple(p0_ids) == S.p0 and tuple(p2_ids) == S.p2
    if whole and memo:
        return memo[0]
    trunc, g1 = S.trunc, S.g1
    col = (1 << trunc) - 1
    heads: dict[int, int] = {}
    zero_heads, bit = 0, 1
    for a in p0_ids:
        x = g1[a]
        if not x.free.table:
            zero_heads |= bit
        rest = x.atomic
        while rest:
            low = rest & -rest
            t = low.bit_length() - 1
            heads[t] = heads.get(t, 0) | bit
            rest ^= low
        bit <<= 1
    # the zero positions of the listed columns, in list order (``zero``)
    # and at the columns' own offsets (``own``)
    width = len(p0_ids)
    zero, cut, own, shift = zero_heads, [], 0, width
    for c in p2_ids:
        off = offsets[c]
        cut.append(off)
        column = zeros >> off & col
        zero |= column << shift
        own |= column << off
        shift += trunc
    # with no zero position in the listed columns, only the atoms of the
    # P0 values can lie under one
    vectors = set()
    for t in rows if own else heads:
        head, row = heads.get(t, 0), rows.get(t, 0)
        if head & zero_heads or row & own:
            v, shift = head, width
            for off in cut:
                v |= (row >> off & col) << shift
                shift += trunc
            vectors.add(v)
    signs = zero, vectors
    if whole:
        memo.append(signs)
    return signs


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
    ``engine.k1_position_valid``).  Lists whose free parts are all zero
    or bare generators of their own (every list of a simple structure,
    see ``_table``; otherwise the lists that ``_zero_mask`` accepts) go
    to the simple leaf, and any other pair of lists to
    ``_match_general``.

    In the simple leaf a sign vector is realized in the free factor iff
    it reads 0 at the zero positions, so the sides match iff they have
    the same zero positions and every vector their atoms realize on one
    side only reads 0 there.  Only an atom under a zero position realizes
    a vector that reads 1 there, so the leaf compares the vector sets of
    those atoms (``_signs``).  Its zero masks come from the tables on
    either route: the table marks exactly the list's zero free parts."""
    if A.named_gens or B.named_gens:
        raise InvalidEmbedding(
            "match embeddings require fully value-generated structures"
        )
    if len(set(p0_map.values())) != len(p0_map) or \
            len(set(p2_map.values())) != len(p2_map):
        return False
    if A.trunc != B.trunc:
        return False
    table, table_b = _table(A), _table(B)
    if not (table[4] and table_b[4]):  # not both simple
        src, tgt = _generator_lists(A, B, p0_map, p2_map)
        if _zero_mask(src) is None or _zero_mask(tgt) is None:
            return _match_general(A, B, src, tgt)
    zero, vectors = _signs(A, table, p0_map.keys(), p2_map.keys())
    zero_t, vectors_t = _signs(B, table_b, p0_map.values(), p2_map.values())
    return zero == zero_t and vectors == vectors_t


def enumerate_matches(A: K1Structure, B: K1Structure,
                      fixed: dict[int, int] | None = None,
                      first_only: bool = False,
                      touching: Optional[Collection[int]] = None,
                      ) -> list[MatchEmbedding]:
    """All structure embeddings A -> B (as P0/P2 injections), lexicographic
    in target id order, honoring pinned assignments.

    One ``search.backtrack`` over one map (P0 and P2 ids share one id
    space, so ``fixed`` pins both): the free P2 slots first, each drawing
    from its pool of ``_p2_pools`` (the ids of B whose column shape
    agrees, in ``B.p2`` order), then the free P0 slots, checked by
    ``_feasible``.  Every full map goes to ``is_valid_match``, listing
    A's ids in A's own order.  ``touching`` keeps only the embeddings
    with some P0 or P2 image in it, by the pin rule of ``backtrack``.
    Members of different truncations have no embedding, as
    ``is_valid_match`` decides.
    """
    if len(A.p0) > len(B.p0) or len(A.p2) > len(B.p2) or A.trunc != B.trunc:
        return []
    fixed = fixed or {}
    free_p2 = [c for c in A.p2 if c not in fixed]
    free_p0 = [a for a in A.p0 if a not in fixed]

    def accept(mapping: dict[int, int]) -> Optional[MatchEmbedding]:
        p0_map = {a: mapping[a] for a in A.p0}
        p2_map = {c: mapping[c] for c in A.p2}
        if not is_valid_match(A, B, p0_map, p2_map):
            return None
        return MatchEmbedding(tuple(sorted(p0_map.items())),
                              tuple(sorted(p2_map.items())))

    return backtrack(free_p2 + free_p0,
                     _p2_pools(A, B, free_p2) + [B.p0] * len(free_p0),
                     fixed, _feasible(A, B), accept, first_only, touching)


def _feasible(A: K1Structure, B: K1Structure):
    """The feasibility check of the match search from A into B, which
    reads both tables once: a P2 id always passes, and a P0 id a passes
    when the membership profile of its G1 atomic part (the OR of its
    atoms' table rows) equals that of its image's, column by column
    under the mapping (every P2 id is mapped before any P0 id).  A zero
    atomic part matches only a zero one.  A's side, each P0 id's atomic
    part and its profile cut into A's columns, is read once per call."""
    _, _, _, _, _, offsets, _, _, rows, _ = _table(A)
    _, _, _, _, _, offsets_b, _, _, rows_b, _ = _table(B)
    col = (1 << A.trunc) - 1
    cuts = {}
    for a in A.p0:
        atom = A.g1[a].atomic
        row = _profile(rows, atom)
        cuts[a] = atom, [(c, row >> offsets[c] & col) for c in A.p2]
    g1_b = B.g1

    def feasible(mapping: dict[int, int], x: int) -> bool:
        if x not in cuts:
            return True
        atom, columns = cuts[x]
        atom_b = g1_b[mapping[x]].atomic
        if not (atom and atom_b):
            return atom == atom_b
        row_b = _profile(rows_b, atom_b)
        for c, column in columns:
            if row_b >> offsets_b[mapping[c]] & col != column:
                return False
        return True

    return feasible


def _profile(rows: dict[int, int], atomic: int) -> int:
    """The membership profile of an atomic part: the OR of the table rows
    of its atoms."""
    profile = 0
    while atomic:
        low = atomic & -atomic
        profile |= rows.get(low.bit_length() - 1, 0)
        atomic ^= low
    return profile


def _p2_pools(A: K1Structure, B: K1Structure,
              ids: Sequence[int]) -> list[list[int]]:
    """For each P2 id c of A in ``ids``, its pool: the P2 ids d of B, in
    ``B.p2`` order, whose column passes a cheap necessary condition for
    matching c's, zero free parts and bare generators at the same
    indices, up to the first index where either column is richer (left
    to the full check).  Both tables are read once per call."""
    if not ids:
        return []
    _, _, _, _, _, offsets, zeros, rich, _, _ = _table(A)
    _, _, _, _, _, offsets_b, zeros_b, rich_b, _, _ = _table(B)
    col = (1 << A.trunc) - 1
    # each column of B: its zero free parts and first rich index
    columns = []
    for d in B.p2:
        off = offsets_b[d]
        columns.append((d, zeros_b >> off & col, rich_b >> off & col))
    pools = []
    for c in ids:
        off = offsets[c]
        zero, first = zeros >> off & col, rich >> off & col
        # the indices below c's first rich index
        below = first - 1 if first else col
        pool = []
        for d, zero_b, first_b in columns:
            differ = (zero ^ zero_b) & below
            if differ and (not first_b or differ & (first_b - 1)):
                continue
            pool.append(d)
        pools.append(pool)
    return pools


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
