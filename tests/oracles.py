"""Brute-force oracles, and the algebra and flat-form helpers that only
they and the tests need (the package does not carry them).

Each oracle re-derives a result straight from its definition, with no
shared shortcuts with the fast paths it certifies: truth-table
expansion by evaluating the function at every window point,
independence by quantifying over all nonzero Boolean polynomials,
pushout laws by projecting atoms through the raw embedding images and
enumerating homomorphism pairs, bases by trying every subset, the
corpus by comparing every pair of members over every column order of
the head plans, sign-vector refinement by cutting every mask into
every block, the P2 column condition of the
match search by classifying each value on its own, its P0 condition by
testing every value's atomic part, its simple leaf by refining the
atomic masks of the two lists of values, a transported value
by evaluating its free part at every split point, embeddings by trying every
injection, game positions by trying every injection between the
generated substructures, the game by playing
every order of picks in universe order, restriction by
filtering every stored tuple, closure by testing every function entry,
embedding validity by mapping every tuple, the r-dimensional
closures on the flat form, which writes out the classes as relations
and every head entry, and random r-dimensional members by accepting a
draw on every clause of ``check_membership``, and the labelling's
rebase of a chain link by flattening the whole lower structure.  Slow
on purpose and capped to desk sizes.  ``planted`` builds the mutants
that tests use to show a check can fail.

Four definitions live here rather than in ``src/amalgam``, since only
tests use them: ``subalgebra_elements`` (was the method
``FiniteBooleanAlgebra.subalgebra_elements``) lists a generated
subalgebra, ``preimage`` (was ``BAEmbedding.preimage``) pulls an element
back along an embedding, and ``check_structure_membership`` (was in
``amalgam.kdim``) checks membership on the flat form through
``compact_form`` (was ``KrStructure.from_structure``).
"""

from __future__ import annotations

import inspect
import itertools
import random
import textwrap
from typing import Iterable, Iterator, Optional, Sequence

from amalgam.boolalg import (
    BAEmbedding,
    FiniteBooleanAlgebra,
    PrincipalIdeal,
    PushoutResult,
    bits,
    popcount,
    rebase_with_element,
    refine,
)
from amalgam.k1 import FreeFn, build_member, check_K1, is_isomorphic_k1
from amalgam.k1.freepart import rename, support_components
from amalgam.k1.p1 import P1Element, materialize, unmaterialize
from amalgam.k1.structure import FreeExtensionWitness, K1Structure
from amalgam.kdim import DEFAULT_TRUNC, KrStructure, check_membership
from amalgam.report import CheckReport
from amalgam.structures import (
    Embedding,
    FiniteStructure,
    Vocabulary,
    generate_substructure,
    indexed_names,
)


# ---------------------------------------------------------------------------
# Elements of a generated subalgebra, and preimages along an embedding
# ---------------------------------------------------------------------------


def subalgebra_elements(B: FiniteBooleanAlgebra,
                        gens: Iterable[int]) -> Iterator[int]:
    """All elements of the subalgebra of B generated by ``gens``
    (2^blocks of them)."""
    blocks = B.subalgebra_blocks(gens)
    for picks in itertools.product((0, 1), repeat=len(blocks)):
        e = 0
        for chosen, block in zip(picks, blocks):
            if chosen:
                e |= block
        yield e


def preimage(e: BAEmbedding, y: int) -> int | None:
    """The source element ``e`` maps to y, or None if y is off the range."""
    x = 0
    for i, img in enumerate(e.atom_images):
        inter = y & img
        if inter == img:
            x |= 1 << i
        elif inter:
            return None
    return x


# ---------------------------------------------------------------------------
# Truth-table expansion point by point
# ---------------------------------------------------------------------------


def expand_by_evaluation(table: int, variables: tuple[int, ...],
                         joint: tuple[int, ...]) -> int:
    """``freepart._expand`` from its definition: bit p of the result is
    the value, read by ``FreeFn.evaluate``, of the table over
    ``variables`` (in that order) at the point p of the window ``joint``
    (bit j of p is joint[j])."""
    fn = FreeFn(tuple(range(len(variables))), table)
    out = 0
    for p in range(1 << len(joint)):
        point = {g: p >> j & 1 for j, g in enumerate(joint)}
        if fn.evaluate({i: point[g] for i, g in enumerate(variables)}):
            out |= 1 << p
    return out


# ---------------------------------------------------------------------------
# Independence straight from the polynomial definition
# ---------------------------------------------------------------------------


def independence_by_all_polynomials(
    B: FiniteBooleanAlgebra,
    Y: Iterable[int],
    X: Iterable[int],
    I: PrincipalIdeal,
) -> bool:
    """Quantify over every subset of Y, every nonzero polynomial in that
    many variables (a polynomial being any nonempty set of sign patterns),
    and every element of <X> outside I."""
    ys = sorted(set(Y))
    test = [a for a in subalgebra_elements(B, X) if a not in I]
    for size in range(len(ys) + 1):
        for subset in itertools.combinations(ys, size):
            comps = [B.complement(y) for y in subset]
            minterms = []
            for pattern in range(1 << size):
                m = B.full
                for i in range(size):
                    m &= subset[i] if pattern & (1 << i) else comps[i]
                minterms.append(m)
            # each nonempty pattern set is one polynomial in DNF
            for poly in range(1, 1 << len(minterms)):
                value = 0
                for k in bits(poly):
                    value |= minterms[k]
                for a in test:
                    if (value & a) in I:
                        return False
    return True


# ---------------------------------------------------------------------------
# Pushout laws checked from first principles
# ---------------------------------------------------------------------------


def all_embeddings_between(
    C: FiniteBooleanAlgebra, A: FiniteBooleanAlgebra
) -> Iterator[BAEmbedding]:
    """Every unital embedding C -> A, i.e. every way of partitioning A's
    atoms into |At(C)| labeled nonempty blocks."""
    c, a = C.atom_count, A.atom_count
    if c == 0:
        if a == 0:
            yield BAEmbedding(C, A, ())
        return
    for owners in itertools.product(range(c), repeat=a):
        if len(set(owners)) != c:
            continue
        images = [0] * c
        for atom_index, owner in enumerate(owners):
            images[owner] |= 1 << atom_index
        yield BAEmbedding(C, A, tuple(images))


def _atom_projection(iX: BAEmbedding, d_atom_index: int) -> int | None:
    """The unique source atom whose image contains the given target atom,
    computed directly from the embedding's images."""
    mask = 1 << d_atom_index
    found = None
    for i, img in enumerate(iX.atom_images):
        if img & mask:
            if found is not None:
                return None
            found = i
    return found


def check_pushout_square(po: PushoutResult, eA: BAEmbedding, eB: BAEmbedding) -> bool:
    """iA . eA == iB . eB on all of C."""
    C = eA.source
    return all(
        po.into_left(eA(x)) == po.into_right(eB(x))
        for x in range(1 << C.atom_count)
    )


def check_pushout_disjoint_ranges(
    po: PushoutResult, eA: BAEmbedding, eB: BAEmbedding
) -> bool:
    """range(iA) and range(iB) intersect exactly in the image of C."""
    left = {po.into_left(x) for x in range(1 << eA.target.atom_count)}
    right = {po.into_right(x) for x in range(1 << eB.target.atom_count)}
    via_c = {po.into_left(eA(x)) for x in range(1 << eA.source.atom_count)}
    return left & right == via_c


def check_pushout_order(
    po: PushoutResult, eA: BAEmbedding, eB: BAEmbedding
) -> bool:
    """Internal characterization: for a off C in A and b off C in B,
    a <= b in the pushout iff some element of C sits between them
    (and symmetrically)."""
    A, B, C = eA.target, eB.target, eA.source
    c_elements = list(range(1 << C.atom_count))
    a_off = [a for a in range(1 << A.atom_count) if preimage(eA, a) is None]
    b_off = [b for b in range(1 << B.atom_count) if preimage(eB, b) is None]
    for a in a_off:
        ia = po.into_left(a)
        for b in b_off:
            ib = po.into_right(b)
            below = ia & ~ib == 0
            witness = any(a & ~eA(c) == 0 and eB(c) & ~b == 0
                          for c in c_elements)
            if below != witness:
                return False
            above = ib & ~ia == 0
            witness = any(b & ~eB(c) == 0 and eA(c) & ~a == 0
                          for c in c_elements)
            if above != witness:
                return False
    return True


def check_pushout_universal(
    po: PushoutResult,
    eA: BAEmbedding,
    eB: BAEmbedding,
    max_target_atoms: int = 4,
) -> bool:
    """Every homomorphism pair out of A and B agreeing on C factors
    uniquely through the pushout, for all targets with few atoms.

    A homomorphism out of a finite algebra is an atom map of the target
    into the source, so pairs agreeing on C are enumerated by fibering
    target atoms over C's atoms.  Factoring existence and uniqueness
    reduce to an independently computed projection index: each pushout
    atom is projected to its (A-atom, B-atom) pair through the raw
    embedding images.
    """
    C = eA.source
    D = po.algebra

    index: dict[tuple[int, int], int] = {}
    for d in range(D.atom_count):
        pa = _atom_projection(po.into_left, d)
        pb = _atom_projection(po.into_right, d)
        if pa is None or pb is None:
            return False  # a pushout atom under two images: not an amalgam
        if (pa, pb) in index:
            return False  # two pushout atoms would give two factorings
        index[(pa, pb)] = d

    fibers_a = [list(bits(img)) for img in eA.atom_images]
    fibers_b = [list(bits(img)) for img in eB.atom_images]
    c = C.atom_count
    for q_atoms in range(1, max_target_atoms + 1):
        # owner: which C-atom each target atom sits over, then all ways of
        # refining that choice into A-atoms and B-atoms
        for owners in itertools.product(range(c), repeat=q_atoms):
            option_pairs = []
            for gamma in owners:
                option_pairs.append(
                    [(pa, pb) for pa in fibers_a[gamma] for pb in fibers_b[gamma]]
                )
            for choice in itertools.product(*option_pairs):
                if any(pair not in index for pair in choice):
                    return False
    return True


def verify_pushout_triple(
    po: PushoutResult,
    eA: BAEmbedding,
    eB: BAEmbedding,
    max_target_atoms: int = 4,
) -> dict[str, bool]:
    return {
        "square": check_pushout_square(po, eA, eB),
        "disjoint_ranges": check_pushout_disjoint_ranges(po, eA, eB),
        "order": check_pushout_order(po, eA, eB),
        "universal": check_pushout_universal(po, eA, eB, max_target_atoms),
    }


# ---------------------------------------------------------------------------
# Basis oracle
# ---------------------------------------------------------------------------


def bases_through_by_enumeration(
    F: FiniteBooleanAlgebra, n: int, b: int
) -> Iterator[tuple[int, ...]]:
    """Every n-subset containing b that is independent and generates F,
    found by trying every subset; yielded as b followed by the rest in
    element order, so a caller can stop at the first."""
    if F.atom_count != 1 << n:
        return
    nontrivial = [x for x in range(1 << F.atom_count)
                  if x not in (0, F.full) and x != b]
    for rest in itertools.combinations(nontrivial, n - 1):
        J = (b,) + rest
        comps = [F.complement(y) for y in J]
        atoms_seen = 0
        for pattern in range(1 << n):
            m = F.full
            for i in range(n):
                m &= J[i] if pattern & (1 << i) else comps[i]
            if popcount(m) != 1:
                break
            atoms_seen |= m
        else:
            if atoms_seen == F.full:
                yield J


# ---------------------------------------------------------------------------
# Sign-vector refinement, mask by mask
# ---------------------------------------------------------------------------


def refine_by_every_block(universe: int,
                          masks: Iterable[int]) -> list[tuple[int, int]]:
    """``boolalg.refine`` with every mask cut into every block, including
    masks that split no block."""
    blocks = [(0, universe)] if universe else []
    for i, mask in enumerate(masks):
        bit = 1 << i
        refined = []
        for v, block in blocks:
            inside = block & mask
            if inside:
                refined.append((v | bit, inside))
            if inside != block:
                refined.append((v, block ^ inside))
        blocks = refined
    return blocks


# ---------------------------------------------------------------------------
# The P2 column condition of the match search, value by value
# ---------------------------------------------------------------------------


def p2_profile_ok(A, B, c: int, d: int) -> bool:
    """The P2 column condition of the match search, value by value (it
    was ``embeddings._p2_profile_ok``, called at every P2 assignment):
    c and d have zero free parts and bare generators at the same indices,
    up to the first index where either side is richer.  The search now
    draws each P2 slot from ``embeddings._p2_pools``, read off the column
    shapes."""
    for n in range(A.trunc):
        s, t = A.f[(n, c)].free, B.f[(n, d)].free
        # richer than a bare generator: not zero, and not the table 0b10
        # on one generator
        if s.table and (s.table != 0b10 or len(s.support) != 1) or \
                t.table and (t.table != 0b10 or len(t.support) != 1):
            return True
        if bool(s.table) != bool(t.table):
            return False
    return True


# ---------------------------------------------------------------------------
# The P0 condition and the simple leaf of the match search, on the values
# ---------------------------------------------------------------------------


def p0_profile_ok(A, B, a: int, mapping: dict[int, int]) -> bool:
    """The P0 condition of the match search, value by value (it was
    ``embeddings._p0_profile_ok``): the F-membership profile of a's atom
    must match that of its image's atom over every c of P2, all mapped
    before any P0 id.  The search now compares packed profiles read off
    the match tables (``embeddings._feasible``)."""
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


def simple_leaf_by_refine(A, B, src: list[P1Element], tgt: list[P1Element],
                          zero: int) -> bool:
    """The simple leaf on two lists of values (it was
    ``embeddings._match_simple``): both lists read zero free parts at the
    positions of ``zero`` and every other free part is a generator of its
    own, so the sides match iff the atoms under a zero position realize
    the same sign vectors, which ``boolalg.refine`` reads off the atomic
    masks of the lists.  The search now reads the vectors off the match
    tables (``embeddings._signs``), with no list of values."""
    masks, masks_t = [x.atomic for x in src], [x.atomic for x in tgt]
    under = under_t = 0
    for i in bits(zero):
        under |= masks[i]
        under_t |= masks_t[i]
    return {v for v, _ in refine(A.ctx.full_mask & under, masks)} == \
        {v for v, _ in refine(B.ctx.full_mask & under_t, masks_t)}


# ---------------------------------------------------------------------------
# Transport of one value, split by split
# ---------------------------------------------------------------------------


def transport_by_evaluation(t, x: P1Element) -> P1Element:
    """The image of x along the transport t, with every map rebuilt for
    this one value: each designated atom renamed, each split atom added
    when x's free part holds at the split's point, and the free part
    renamed.  ``TransportMap.apply`` maps whole lists with tables built
    once per call and shortcuts by value kind."""
    atoms = dict(t.atom_map)
    atomic = 0
    rest = x.atomic
    while rest:
        low = rest & -rest
        a = low.bit_length() - 1
        atomic |= 1 << atoms.get(a, a)
        rest ^= low
    for new_atom, point in t.splits:
        if x.free.evaluate(dict(point)):
            atomic |= 1 << new_atom
    gens = dict(t.gen_map)
    free = rename(x.free, gens) if gens else x.free
    return P1Element(atomic, free)


# ---------------------------------------------------------------------------
# Corpus oracle
# ---------------------------------------------------------------------------


def head_plans_in_every_column_order(p0_count: int, p2_count: int,
                                     n_star: int):
    """``enumerate_head_plans`` with every order of the column plans: the
    same palette, and ``itertools.product`` over the columns, in its
    lexicographic order."""
    atomic_options: list[tuple[int, ...]] = [()]
    if p0_count >= 1:
        atomic_options.append((0,))
    if p0_count >= 2:
        atomic_options.append(tuple(range(p0_count)))
    head_options = [(mask, True) for mask in atomic_options]
    head_options += [(mask, False) for mask in atomic_options if mask]
    per_c = list(itertools.product(head_options, repeat=n_star))
    for combo in itertools.product(per_c, repeat=p2_count):
        yield [list(heads) for heads in combo]


def members_in_every_column_order(max_p0: int, max_p2: int, max_n_star: int,
                                  trunc: int,
                                  max_size: Optional[int] = None):
    """``enumerate_members`` over ``head_plans_in_every_column_order``:
    every ``build_member`` candidate within the bounds, column
    permutations included, in the same order of the counts."""
    out = []
    for p0_count in range(max_p0 + 1):
        for p2_count in range(max_p2 + 1):
            if max_size is not None and p0_count + p2_count > max_size:
                continue
            n_star_range = range(max_n_star + 1) if p2_count else (0,)
            for n_star in n_star_range:
                for plan in head_plans_in_every_column_order(
                        p0_count, p2_count, n_star):
                    out.append(build_member(p0_count, p2_count, n_star,
                                            trunc, plan))
    return out


def corpus_by_all_pairs(size_bound: int, trunc: int, max_n_star: int):
    """The witnessed-class corpus over every column order of the head
    plans, with each passing candidate compared against every member kept
    so far, with no invariant buckets."""
    members = []
    for M in members_in_every_column_order(size_bound, size_bound,
                                           max_n_star, trunc,
                                           max_size=size_bound):
        if not check_K1(M).passed:
            continue
        if any(is_isomorphic_k1(M, other) for other in members):
            continue
        members.append(M)
    return members


# ---------------------------------------------------------------------------
# Plain structures: the game and its positions, restriction, closure,
# identity and composition, embedding validity
# ---------------------------------------------------------------------------


def position_valid_by_search(M: FiniteStructure, N: FiniteStructure,
                             pos_m: tuple[int, ...],
                             pos_n: tuple[int, ...]) -> bool:
    """The picks have equal lengths and generate isomorphic substructures
    under the positionwise match: some bijective embedding of the
    substructure M generates onto the one N generates sends each pick to
    its partner and each constant to its namesake, each declared constant
    is interpreted on both sides or on neither, and N's substructure
    defines no function value that M's leaves undefined."""
    if M.vocabulary != N.vocabulary or len(pos_m) != len(pos_n) \
            or len(set(pos_m)) != len(pos_m) or len(set(pos_n)) != len(pos_n):
        return False
    names = M.vocabulary.constants
    if any((name in M.constants) != (name in N.constants) for name in names):
        return False
    fixed: dict[int, int] = {}
    constants = [(M.constants[name], N.constants[name])
                 for name in names if name in M.constants]
    for x, y in list(zip(pos_m, pos_n)) + constants:
        if fixed.setdefault(x, y) != y:
            return False
    sub_m = generate_substructure(M, pos_m)
    sub_n = generate_substructure(N, pos_n)
    if sub_m.size != sub_n.size:
        return False
    # an injective map between equal sizes is onto, and an embedding
    # carries each entry of sub_m to one of sub_n, so equal counts leave
    # sub_n no entry of its own
    if any(len(sub_n.functions[name]) != len(table)
           for name, table in sub_m.functions.items()):
        return False
    return bool(embeddings_by_permutation(sub_m, sub_n, fixed=fixed))


def embeddings_by_permutation(A: FiniteStructure, B: FiniteStructure,
                              fixed: dict[int, int] | None = None,
                              touching=None) -> list[Embedding]:
    """Every injection of A's universe into B's, in permutation order of
    B's universe, that agrees with the pins in ``fixed``, has some image
    in ``touching`` (when given) and passes ``embedding_valid_by_apply``."""
    found = []
    for images in itertools.permutations(B.universe, A.size):
        e = Embedding(A, B, dict(zip(A.universe, images)))
        if any(e.mapping.get(x) != y for x, y in (fixed or {}).items()):
            continue
        if touching is not None and not any(y in touching for y in images):
            continue
        if embedding_valid_by_apply(e):
            found.append(e)
    return found


def reference_game(M, N, depth: int, elements, position_valid) -> bool:
    """The game without pair-set memoisation or move ordering: positions
    are keyed by the picked tuples in order of play, so a pair set
    reached in several orders is checked once per order, and both
    players try their moves in universe order."""
    memo: dict[tuple, bool] = {}

    def survive(pos_m, pos_n, remaining):
        key = (pos_m, pos_n, remaining)
        if key in memo:
            return memo[key]
        if remaining == 0:
            memo[key] = True
            return True
        ok = True
        for c in elements(M):
            if c in pos_m:
                continue
            response = False
            for d in elements(N):
                if d in pos_n:
                    continue
                if position_valid(M, N, pos_m + (c,), pos_n + (d,)) and \
                        survive(pos_m + (c,), pos_n + (d,), remaining - 1):
                    response = True
                    break
            if not response:
                ok = False
                break
        if ok:
            for d in elements(N):
                if d in pos_n:
                    continue
                response = False
                for c in elements(M):
                    if c in pos_m:
                        continue
                    if position_valid(M, N, pos_m + (c,), pos_n + (d,)) and \
                            survive(pos_m + (c,), pos_n + (d,), remaining - 1):
                        response = True
                        break
                if not response:
                    ok = False
                    break
        memo[key] = ok
        return ok

    if not position_valid(M, N, (), ()):
        return False
    return survive((), (), depth)


def restrict_by_filter(M: FiniteStructure, subset) -> FiniteStructure:
    """The induced structure on ``subset``, keeping each stored tuple and
    function entry that lies inside it."""
    keep = set(subset)
    return FiniteStructure(
        M.vocabulary, tuple(x for x in M.universe if x in keep),
        {name: {t for t in tuples if keep.issuperset(t)}
         for name, tuples in M.relations.items()},
        {name: {args: v for args, v in table.items()
                if keep.issuperset(args) and v in keep}
         for name, table in M.functions.items()},
        dict(M.constants))


def is_closed(M: FiniteStructure, subset) -> bool:
    """``subset`` holds every constant of M and every defined function
    value on its own tuples."""
    keep = set(subset)
    if not all(v in keep for v in M.constants.values()):
        return False
    return all(v in keep for table in M.functions.values()
               for args, v in table.items() if keep.issuperset(args))


def identity(M: FiniteStructure) -> Embedding:
    return Embedding(M, M, {x: x for x in M.universe})


def compose(first: Embedding, then: Embedding) -> Embedding:
    """``then`` after ``first``; their endpoints must meet."""
    assert then.source is first.target or then.source == first.target
    return Embedding(first.source, then.target,
                     {x: then.mapping[y] for x, y in first.mapping.items()})


def embedding_valid_by_apply(e: Embedding) -> bool:
    """Every tuple of the source, in all |A|^arity of them, is in a
    relation iff its image is, every function entry and constant is
    carried over, and the map is total, injective and into the target."""
    A, B, m = e.source, e.target, e.mapping
    if A.vocabulary != B.vocabulary or set(m) != set(A.universe) \
            or len(set(m.values())) != len(m) \
            or not set(m.values()) <= set(B.universe):
        return False
    for name, tuples in A.relations.items():
        arity = A.vocabulary.relation_arity(name)
        for t in itertools.product(A.universe, repeat=arity):
            if (t in tuples) != (e.apply(t) in B.relations[name]):
                return False
    for name, table in A.functions.items():
        for args, value in table.items():
            if B.functions[name].get(e.apply(args)) != m[value]:
                return False
    return all(B.constants.get(name) == m[value]
               for name, value in A.constants.items())


# ---------------------------------------------------------------------------
# The r-dimensional class in the flat form
# ---------------------------------------------------------------------------


def flat_form(M: KrStructure) -> FiniteStructure:
    """M as one plain structure: the tuples of class n form relation R_n,
    and f_m(t) is the stored value, else the head at and above the class
    index.  A stored value at or above the class index is written as it
    is, so the flat form keeps that incoherence."""
    vocab = Vocabulary.make(
        relations={name: M.r + 1 for name in indexed_names("R", M.trunc)},
        functions={name: M.r + 1 for name in indexed_names("f", M.trunc)},
        index_bound=M.trunc)
    relations = {name: set() for name in indexed_names("R", M.trunc)}
    functions = {name: {} for name in indexed_names("f", M.trunc)}
    for t, n in M.classes.items():
        if n < M.trunc:
            relations[f"R{n}"].add(t)
        for m in range(M.trunc):
            v = M.values.get((m, t), t[0] if m >= n else None)
            if v is not None:
                functions[f"f{m}"][t] = v
    return FiniteStructure(vocab, M.universe, relations, functions)


def compact_form(M: FiniteStructure, r: int) -> KrStructure:
    """The compact form of a flat form: each tuple in the class of the
    last relation R_n holding it, and only the values below the class
    index stored."""
    trunc = M.vocabulary.index_bound or DEFAULT_TRUNC
    out = KrStructure(r, trunc, M.universe)
    for n in range(trunc):
        for t in M.relations.get(f"R{n}", ()):
            out.classes[t] = n
    for m in range(trunc):
        for t, v in M.functions.get(f"f{m}", {}).items():
            n = out.classes.get(t)
            if n is not None and m < n:
                out.values[(m, t)] = v
    return out


def check_structure_membership(M: FiniteStructure, r: int) -> CheckReport:
    """Membership for the flat form, by ``check_membership`` on the
    compact form plus the two faults that vanish in the compact form: a
    tuple in several classes (the compact form keeps the last; a tuple in
    none stays unclassified there) and a value other than the head at or
    above the class index (the compact form stores only the values below
    it).  Either fault fails its clause, ahead of the compact form's own
    fault there, and guards out the independence clause."""
    compact = compact_form(M, r)
    classified: set[tuple[int, ...]] = set()
    several = []
    for n in range(compact.trunc):
        for t in M.relations.get(f"R{n}", ()):
            if t in classified:
                several.append(t)
            classified.add(t)
    off_head = [f"f{m}{t}" for m in range(compact.trunc)
                for t, v in M.functions.get(f"f{m}", {}).items()
                if t in compact.classes and m >= compact.classes[t]
                and v != t[0]]
    report = check_membership(compact)
    if not several and not off_head:
        return report
    flat_faults = {
        "kr0.partition": [f"tuples in several classes {several[:3]}"]
        if several else [],
        "kr0.coherence": [f"{off_head[0]} must return the head"]
        if off_head else [],
    }
    out = CheckReport()
    for item in report.items:
        if item.key not in flat_faults:
            out.skip(item.key)
            continue
        faults = flat_faults[item.key] + ([] if item.passed else [item.detail])
        out.add(item.key, not faults, "; ".join(faults))
    return out


def random_member_by_membership(rng: random.Random, r: int, trunc: int,
                                universe: Sequence[int],
                                class_cap: int = 2) -> Optional[KrStructure]:
    """The draws of ``kdim.random_member``, each accepted when every
    clause of ``check_membership`` holds; None after 200 draws."""
    universe = tuple(universe)
    for _ in range(200):
        M = KrStructure(r, trunc, universe)
        for t in M.tuples():
            n = rng.randrange(class_cap)
            M.classes[t] = n
            for m in range(n):
                M.values[(m, t)] = rng.choice(universe)
        if check_membership(M).passed:
            return M
    return None


# ---------------------------------------------------------------------------
# The labelling's rebase of one link, over the whole lower structure
# ---------------------------------------------------------------------------


def rebase_by_full_window(low: K1Structure, high: K1Structure,
                          w: FreeExtensionWitness,
                          b: P1Element) -> FreeExtensionWitness:
    """``k1.ops._rebase_link`` with every generator of ``low`` in the flat
    algebra: ``materialize`` over the harvested J, b and all of them,
    then ``rebase_with_element`` against all of them."""
    members = list(w.independent)
    component = support_components([b.free] + [x.free for x in members])[0]
    J = [members[i - 1] for i in component[1:]]
    B2, masks, sigma = materialize(high.ctx,
                                   J + [b] + low.generator_elements())
    ideal = PrincipalIdeal(B2, (1 << len(high.ctx.atom_ids)) - 1)
    flat = rebase_with_element(B2, masks[len(J) + 1:], ideal, masks[:len(J)],
                               masks[len(J)])
    h = dict(w.h)
    for c in h:
        scheduled = [n for n in range(h[c], high.trunc)
                     if high.f[(n, c)] in J]
        if scheduled:
            h[c] = max(scheduled) + 1
    return FreeExtensionWitness.make(
        [x for x in members if x not in J]
        + [unmaterialize(high.ctx, sigma, m) for m in flat], h)


# ---------------------------------------------------------------------------
# Planted faults
# ---------------------------------------------------------------------------


def planted(function, old: str, new: str, **names):
    """A planted fault: ``function`` (a method too) recompiled in its
    module's namespace, extended by ``names`` (say, another mutant it
    calls), with the one occurrence of ``old`` in its source replaced by
    ``new``.  Fails loudly once the source no longer holds ``old``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"stale mutant: {old!r}"
    namespace = dict(vars(inspect.getmodule(function)), **names)
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]
