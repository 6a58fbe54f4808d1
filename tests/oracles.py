"""Brute-force oracles.

Each oracle re-derives a result straight from its definition, with no
shared shortcuts with the fast paths it certifies: independence by
quantifying over all nonzero Boolean polynomials, pushout laws by
projecting atoms through the raw embedding images and enumerating
homomorphism pairs, bases by trying every subset, the corpus by
comparing every pair of members, game positions by searching for an
embedding of the generated substructures, restriction by filtering every
stored tuple, closure by testing every function entry, embedding
validity by mapping every tuple, and the r-dimensional closures on the
flat form, which writes out the classes as relations and every head
entry.  Slow on purpose and capped to desk sizes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from amalgam.boolalg import (
    BAEmbedding,
    FiniteBooleanAlgebra,
    PrincipalIdeal,
    PushoutResult,
    bits,
    popcount,
)
from amalgam.k1 import check_K1, enumerate_members, is_isomorphic_k1
from amalgam.kdim import KrStructure
from amalgam.structures import (
    Embedding,
    FiniteStructure,
    Vocabulary,
    enumerate_embeddings,
    generate_substructure,
    indexed_names,
)


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
    test = [a for a in B.subalgebra_elements(X) if a not in I]
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
        po.into_left(eA(x)) == po.into_right(eB(x)) for x in C.elements()
    )


def check_pushout_disjoint_ranges(
    po: PushoutResult, eA: BAEmbedding, eB: BAEmbedding
) -> bool:
    """range(iA) and range(iB) intersect exactly in the image of C."""
    left = {po.into_left(x) for x in eA.target.elements()}
    right = {po.into_right(x) for x in eB.target.elements()}
    via_c = {po.into_left(eA(x)) for x in eA.source.elements()}
    return left & right == via_c


def check_pushout_order(
    po: PushoutResult, eA: BAEmbedding, eB: BAEmbedding
) -> bool:
    """Internal characterization: for a off C in A and b off C in B,
    a <= b in the pushout iff some element of C sits between them
    (and symmetrically)."""
    A, B, C = eA.target, eB.target, eA.source
    D = po.algebra
    c_elements = list(C.elements())
    a_off = [a for a in A.elements() if eA.preimage(a) is None]
    b_off = [b for b in B.elements() if eB.preimage(b) is None]
    for a in a_off:
        ia = po.into_left(a)
        for b in b_off:
            ib = po.into_right(b)
            below = D.le(ia, ib)
            witness = any(A.le(a, eA(c)) and B.le(eB(c), b) for c in c_elements)
            if below != witness:
                return False
            above = D.le(ib, ia)
            witness = any(B.le(b, eB(c)) and A.le(eA(c), a) for c in c_elements)
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
    nontrivial = [x for x in F.elements() if x not in (0, F.full) and x != b]
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
# Corpus oracle
# ---------------------------------------------------------------------------


def corpus_by_all_pairs(size_bound: int, trunc: int, max_n_star: int):
    """The witnessed-class corpus with each passing candidate compared
    against every member kept so far, with no invariant buckets."""
    members = []
    for M in enumerate_members(size_bound, size_bound, max_n_star, trunc,
                               max_size=size_bound):
        if not check_K1(M).passed:
            continue
        if any(is_isomorphic_k1(M, other) for other in members):
            continue
        members.append(M)
    return members


# ---------------------------------------------------------------------------
# Plain structures: game positions, restriction, closure, identity and
# composition, embedding validity
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
    return bool(enumerate_embeddings(sub_m, sub_n, fixed=fixed,
                                     first_only=True))


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
