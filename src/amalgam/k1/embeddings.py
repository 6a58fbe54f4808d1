"""Embeddings between tau-structures.

Two kinds of maps:

* TransportMap: a constructive embedding produced by extension builders.
  It renames designated atoms and generators, and records ``splits``: new
  target atoms inserted below the images of source elements, each governed
  by an ultrafilter choice on the source algebra (an atom, or a point of
  the free factor).  Transports apply to arbitrary elements, compose, and
  certify chain inclusions.

* match embeddings: a pair of injections (P0, P2) between class members
  whose element map is forced on generators.  Validity is decided by
  comparing realized sign-pattern sets of the generator lists, with a
  three-way classification (zero / purely atomic / has free content) that
  captures relation preservation and the reflection of the atomic-ideal
  predicate.  A fast combinatorial path covers the common case where all
  values are chi-mask-plus-private-generator shaped.  Both paths read the
  realized sign vectors off ``boolalg.refine``: the simple path over the
  designated atoms, the general path over atoms and window points
  through ``p1._signature_blocks``.  Matches are enumerated by the one
  injective search behind every embedding enumerator, ``search.backtrack``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Optional

from ..boolalg import refine
from ..errors import InvalidEmbedding
from ..search import backtrack
from .freepart import FreeFn, rename
from .p1 import P1Element, _signature_blocks
from .structure import K1Structure


@dataclass(frozen=True)
class DChoice:
    """Principal ultrafilter on a source element algebra: either the filter
    of an atom, or the point of the free factor given by a sparse 0/1
    generator assignment (unlisted generators read 0)."""

    kind: str  # "atom" | "point" | "never" (holds of no element)
    atom_id: int = -1
    point: tuple[tuple[int, int], ...] = ()

    def holds(self, x: P1Element) -> bool:
        if self.kind == "atom":
            return bool(x.atomic & (1 << self.atom_id))
        if self.kind == "never":
            return False
        return bool(x.free.evaluate(dict(self.point)))


@dataclass(frozen=True)
class TransportMap:
    p0_map: tuple[tuple[int, int], ...] = ()
    p2_map: tuple[tuple[int, int], ...] = ()
    atom_map: tuple[tuple[int, int], ...] = ()
    gen_map: tuple[tuple[int, int], ...] = ()
    splits: tuple[tuple[int, DChoice], ...] = ()

    def p0(self, a: int) -> int:
        return dict(self.p0_map).get(a, a)

    def p2(self, c: int) -> int:
        return dict(self.p2_map).get(c, c)

    def apply(self, x: P1Element) -> P1Element:
        atoms = dict(self.atom_map)
        atomic = 0
        rest = x.atomic
        while rest:
            low = rest & -rest
            a = low.bit_length() - 1
            atomic |= 1 << atoms.get(a, a)
            rest ^= low
        for new_atom, choice in self.splits:
            if choice.holds(x):
                atomic |= 1 << new_atom
        gens = dict(self.gen_map)
        free = rename(x.free, gens) if gens else x.free
        return P1Element(atomic, free)

    def compose(self, then: "TransportMap") -> "TransportMap":
        """self : A -> B followed by then : B -> C."""
        p0 = {a: then.p0(b) for a, b in self.p0_map}
        for a, b in then.p0_map:
            p0.setdefault(a, b)
        p2 = {c: then.p2(d) for c, d in self.p2_map}
        for c, d in then.p2_map:
            p2.setdefault(c, d)
        atoms_self = dict(self.atom_map)
        atoms_then = dict(then.atom_map)
        atom = {a: atoms_then.get(b, b) for a, b in atoms_self.items()}
        for a, b in then.atom_map:
            atom.setdefault(a, b)
        gens_self = dict(self.gen_map)
        gens_then = dict(then.gen_map)
        gen = {g: gens_then.get(h, h) for g, h in gens_self.items()}
        for g, h in then.gen_map:
            gen.setdefault(g, h)
        splits: list[tuple[int, DChoice]] = []
        # self's split atoms, pushed through then's atom renaming
        self_split_choices = dict(self.splits)
        for new_atom, choice in self.splits:
            splits.append((atoms_then.get(new_atom, new_atom), choice))
        # then's splits, pulled back to self's source
        inv_gen = {h: g for g, h in gens_self.items()}
        inv_atom = {b: a for a, b in atoms_self.items()}
        for new_atom, choice in then.splits:
            splits.append((new_atom, _pull_back(choice, inv_atom, inv_gen,
                                                self_split_choices)))
        return TransportMap(tuple(sorted(p0.items())), tuple(sorted(p2.items())),
                            tuple(sorted(atom.items())), tuple(sorted(gen.items())),
                            tuple(splits))


def _pull_back(choice: DChoice, inv_atom: dict[int, int],
               inv_gen: dict[int, int],
               upstream_splits: dict[int, DChoice]) -> DChoice:
    """Express a mid-chain ultrafilter choice on the original source."""
    if choice.kind == "atom":
        a = choice.atom_id
        if a in inv_atom:
            return DChoice("atom", inv_atom[a])
        if a in upstream_splits:
            return upstream_splits[a]
        # an atom created mid-chain never sits under a transported element
        return DChoice("never")
    if choice.kind == "never":
        return choice
    point = {inv_gen.get(g, g): v for g, v in choice.point}
    return DChoice("point", point=tuple(sorted(point.items())))


# ---------------------------------------------------------------------------
# Match embeddings between class members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchEmbedding:
    p0_map: tuple[tuple[int, int], ...]
    p2_map: tuple[tuple[int, int], ...]

    def p0(self, a: int) -> int:
        return dict(self.p0_map)[a]

    def p2(self, c: int) -> int:
        return dict(self.p2_map)[c]

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


def _simple_kind(fn: FreeFn) -> Optional[tuple[str, int]]:
    """('zero', 0) for the zero function, ('var', g) for a bare positive
    generator; None for anything richer."""
    if fn.is_zero:
        return ("zero", 0)
    if len(fn.support) == 1 and fn.table == 0b10:
        return ("var", fn.support[0])
    return None


def _match_simple(A: K1Structure, B: K1Structure,
                  src: list[P1Element], tgt: list[P1Element]) -> Optional[bool]:
    """Fast validity for chi-plus-generator shaped values; None if either
    side is not of that shape."""
    kinds_src = [_simple_kind(x.free) for x in src]
    kinds_tgt = [_simple_kind(x.free) for x in tgt]
    if any(k is None for k in kinds_src) or any(k is None for k in kinds_tgt):
        return None
    # free shape must agree positionwise, including generator sharing
    seen_s: dict[int, int] = {}
    seen_t: dict[int, int] = {}
    shape_s, shape_t = [], []
    for (ks, gs), (kt, gt) in zip(kinds_src, kinds_tgt):
        if ks != kt:
            return False
        if ks == "zero":
            shape_s.append(-1)
            shape_t.append(-1)
        else:
            shape_s.append(seen_s.setdefault(gs, len(seen_s)))
            shape_t.append(seen_t.setdefault(gt, len(seen_t)))
    if shape_s != shape_t:
        return False
    # A sign vector (bit i: under value i) is a realized free vector iff
    # it reads 0 at the zero values and is constant on each generator's
    # positions.
    zero_bits = 0
    groups: dict[int, int] = {}
    for i, s in enumerate(shape_s):
        if s == -1:
            zero_bits |= 1 << i
        else:
            groups[s] = groups.get(s, 0) | 1 << i

    def consistent_with_free(v: int) -> bool:
        return not v & zero_bits and all(v & g in (0, g)
                                         for g in groups.values())

    pure_s = {v for v, _ in refine(A.ctx.full_mask, [x.atomic for x in src])
              if not consistent_with_free(v)}
    pure_t = {v for v, _ in refine(B.ctx.full_mask, [x.atomic for x in tgt])
              if not consistent_with_free(v)}
    return pure_s == pure_t


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
    if A.named_gens or B.named_gens:
        raise InvalidEmbedding(
            "match embeddings require fully value-generated structures"
        )
    if len(set(p0_map.values())) != len(p0_map) or \
            len(set(p2_map.values())) != len(p2_map):
        return False
    if A.trunc != B.trunc:
        return False
    return _values_match(A, B, *_generator_lists(A, B, p0_map, p2_map))


def _values_match(A: K1Structure, B: K1Structure,
                  src: list[P1Element], tgt: list[P1Element]) -> bool:
    """Do the positionwise paired values generate matched subalgebras?"""
    fast = _match_simple(A, B, src, tgt)
    if fast is not None:
        return fast
    return _match_general(A, B, src, tgt)


def enumerate_matches(A: K1Structure, B: K1Structure,
                      fixed_p0: dict[int, int] | None = None,
                      fixed_p2: dict[int, int] | None = None,
                      first_only: bool = False,
                      touching: Optional[Collection[int]] = None,
                      ) -> list[MatchEmbedding]:
    """All structure embeddings A -> B (as P0/P2 injections), lexicographic
    in target id order, honoring pinned assignments.

    One ``search.backtrack`` over one map (P0 and P2 ids share one id
    space): the free P2 slots first, then the free P0 slots.
    ``touching`` keeps only the embeddings with some P0 or P2 image in
    it, by the pin rule of ``backtrack``.
    """
    if len(A.p0) > len(B.p0) or len(A.p2) > len(B.p2):
        return []
    fixed = {**(fixed_p0 or {}), **(fixed_p2 or {})}
    free_p2 = [c for c in A.p2 if c not in fixed]
    free_p0 = [a for a in A.p0 if a not in fixed]
    p2_ids = set(A.p2)

    def feasible(mapping: dict[int, int], x: int) -> bool:
        if x in p2_ids:
            return _p2_profile_ok(A, B, x, mapping[x])
        return _p0_profile_ok(A, B, x, mapping)

    def accept(mapping: dict[int, int]) -> Optional[MatchEmbedding]:
        p0_map = {a: mapping[a] for a in A.p0}
        p2_map = {c: mapping[c] for c in A.p2}
        if not is_valid_match(A, B, p0_map, p2_map):
            return None
        return MatchEmbedding(tuple(sorted(p0_map.items())),
                              tuple(sorted(p2_map.items())))

    return backtrack(free_p2 + free_p0,
                     [B.p2] * len(free_p2) + [B.p0] * len(free_p0),
                     fixed, feasible, accept, first_only, touching)


def _p2_profile_ok(A: K1Structure, B: K1Structure, c: int, d: int) -> bool:
    """Cheap necessary condition: the value-kind sequence of c must match
    that of d, and values must share generators in the same positions."""
    seen_s: dict = {}
    seen_t: dict = {}
    for n in range(A.trunc):
        xs, xt = A.f[(n, c)], B.f[(n, d)]
        ks, kt = _simple_kind(xs.free), _simple_kind(xt.free)
        if ks is None or kt is None:
            return True  # rich values: leave it to the full check
        if ks[0] != kt[0]:
            return False
        if ks[0] == "var":
            if seen_s.setdefault(ks[1], n) != seen_t.setdefault(kt[1], n):
                return False
    return True


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
                 first_only: bool = True) -> list[MatchEmbedding]:
    """Embeddings g : B -> M with g restricted along ``inclusion`` equal to
    f (the extension problem of richness tasks)."""
    pinned_p0 = {inclusion.p0(a): f.p0(a) for a, _ in inclusion.p0_map}
    pinned_p2 = {inclusion.p2(c): f.p2(c) for c, _ in inclusion.p2_map}
    return enumerate_matches(B, M, pinned_p0, pinned_p2, first_only=first_only)


def is_isomorphic_k1(A: K1Structure, B: K1Structure) -> bool:
    """Same generator counts and a valid match both ways round.

    For value-generated members a match embedding with bijective P0/P2 is
    automatically surjective on the element algebra, since the target is
    generated by the matched values.
    """
    if (len(A.p0), len(A.p2), A.trunc) != (len(B.p0), len(B.p2), B.trunc):
        return False
    return bool(enumerate_matches(A, B, first_only=True))
