"""Boolean algebra calculus: quotients, independence, pushouts, bases."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.boolalg import (
    BAEmbedding,
    FiniteBooleanAlgebra,
    PrincipalIdeal,
    bits,
    find_basis_containing,
    is_free_basis,
    is_independent_mod_ideal,
    popcount,
    pushout,
    pushout_independence,
    quotient,
    rebase_with_element,
    refine,
)
from amalgam.errors import (
    ImproperIdeal,
    NoBasisThrough,
    PreconditionFailed,
    TrivialElement,
)
from oracles import (
    all_embeddings_between,
    bases_through_by_enumeration,
    independence_by_all_polynomials,
    planted,
    preimage,
    refine_by_every_block,
    subalgebra_elements,
    verify_pushout_triple,
)

P4 = FiniteBooleanAlgebra(4)


def atoms_to_element(*indices):
    e = 0
    for i in indices:
        e |= 1 << i
    return e


# ---------------------------------------------------------------------------
# sign-vector refinement
# ---------------------------------------------------------------------------


def cut_kind(universe, mask):
    cut = universe & mask
    return "miss" if not cut else "cover" if cut == universe else "split"


def refine_cases():
    """Seeded (universe, masks) pairs, each mask missing the universe,
    covering it or splitting it, a tenth of them on the empty universe."""
    rng = random.Random(29)
    cases = [(0, []), (0, [0b101, 0]), (0b1101, [0, 0b1101, 0b1111, 0b100])]
    for _ in range(400):
        width = rng.randint(1, 24)
        universe = rng.getrandbits(width) if rng.random() < 0.9 else 0
        masks = []
        for _ in range(rng.randint(0, 8)):
            noise = rng.getrandbits(width + 2)
            masks.append(rng.choice((noise & ~universe, noise | universe,
                                     noise)))
        cases.append((universe, masks))
    return cases


def test_refine_equals_the_per_block_loop():
    kinds = Counter()
    for universe, masks in refine_cases():
        assert refine(universe, masks) == \
            refine_by_every_block(universe, masks), (universe, masks)
        kinds.update(cut_kind(universe, m) for m in masks if universe)
        kinds["empty universe"] += not universe
    assert min(kinds[k] for k in ("miss", "cover", "split",
                                  "empty universe")) > 20, kinds


def test_refine_on_an_empty_universe_has_no_block():
    rng = random.Random(31)
    cases = [[], [0], [-1], [0b1011, 0, 0b1011]] + [
        [rng.getrandbits(24) for _ in range(rng.randint(1, 8))]
        for _ in range(50)]
    for masks in cases:
        assert refine(0, masks) == [] == refine_by_every_block(0, masks)


@pytest.mark.parametrize("old,new", [
    # the bit set on every block of an empty cut
    ("if cut == universe:", "if cut in (0, universe):"),
    # a block dropped on a full cut
    ("for v, block in blocks]", "for v, block in blocks[1:]]"),
])
def test_refine_comparison_catches_a_planted_fault(old, new):
    mutant = planted(refine, old, new)
    assert any(mutant(universe, masks) !=
               refine_by_every_block(universe, masks)
               for universe, masks in refine_cases())


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------


def test_quotient_by_zero_ideal_is_identity():
    q = quotient(P4, PrincipalIdeal(P4, 0))
    assert q.algebra.atom_count == 4
    for x in range(1 << P4.atom_count):
        assert q.project(x) == x


def test_quotient_of_powerset_by_two_atoms():
    # atoms {0,1} killed; the quotient keeps atoms {2},{3}
    I = PrincipalIdeal(P4, atoms_to_element(0, 1))
    q = quotient(P4, I)
    assert q.algebra.atom_count == 2
    # projection is a surjective homomorphism with kernel exactly I
    for x in range(1 << P4.atom_count):
        for y in range(1 << P4.atom_count):
            assert q.project(x & y) == q.project(x) & q.project(y)
            assert q.project(x | y) == q.project(x) | q.project(y)
        assert q.project(P4.complement(x)) == q.algebra.complement(q.project(x))
        assert (q.project(x) == 0) == (x in I)
    assert {q.project(x) for x in range(1 << P4.atom_count)} == \
        set(range(1 << q.algebra.atom_count))


def test_quotient_by_improper_ideal_rejected():
    with pytest.raises(ImproperIdeal):
        quotient(P4, PrincipalIdeal(P4, P4.full))


# ---------------------------------------------------------------------------
# independence modulo an ideal
# ---------------------------------------------------------------------------

ZERO4 = PrincipalIdeal(P4, 0)


def test_single_nontrivial_element_is_independent():
    assert is_independent_mod_ideal(P4, [atoms_to_element(0, 1)], [], ZERO4)


def test_disjoint_elements_are_not_independent():
    # the minterm y1 & y2 is 0
    assert not is_independent_mod_ideal(
        P4, [atoms_to_element(0), atoms_to_element(1)], [], ZERO4
    )


def test_two_overlapping_halves_are_independent():
    # minterms of {0,1},{0,2} are the four singletons: all nonzero
    y1, y2 = atoms_to_element(0, 1), atoms_to_element(0, 2)
    minterms = {y1 & y2, y1 & P4.complement(y2), P4.complement(y1) & y2,
                P4.complement(y1) & P4.complement(y2)}
    assert minterms == {1, 2, 4, 8}
    assert is_independent_mod_ideal(P4, [y1, y2], [], ZERO4)


def test_empty_family_vacuously_independent():
    assert is_independent_mod_ideal(P4, [], [], ZERO4)


def _random_instance(rng, max_atoms=16, max_y=3, max_x=2):
    n = rng.randint(2, max_atoms)
    B = FiniteBooleanAlgebra(n)
    Y = [rng.randint(0, B.full) for _ in range(rng.randint(0, max_y))]
    X = [rng.randint(0, B.full) for _ in range(rng.randint(0, max_x))]
    d = rng.randint(0, B.full - 1)  # proper
    return B, Y, X, PrincipalIdeal(B, d)


def test_independence_matches_polynomial_oracle_seeded():
    rng = random.Random(20240)
    for _ in range(300):
        B, Y, X, I = _random_instance(rng)
        assert is_independent_mod_ideal(B, Y, X, I) == \
            independence_by_all_polynomials(B, Y, X, I)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_independence_matches_polynomial_oracle_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    B = FiniteBooleanAlgebra(n)
    Y = data.draw(st.lists(st.integers(0, B.full), max_size=3))
    X = data.draw(st.lists(st.integers(0, B.full), max_size=2))
    d = data.draw(st.integers(0, B.full - 1)) if B.full else 0
    I = PrincipalIdeal(B, d)
    assert is_independent_mod_ideal(B, Y, X, I) == \
        independence_by_all_polynomials(B, Y, X, I)


def test_quotient_characterization_of_independence():
    # Y independent from X mod I iff the projections are independent over
    # the zero ideal in B/I, whenever the projection is injective on Y.
    rng = random.Random(77)
    checked = 0
    while checked < 120:
        B, Y, X, I = _random_instance(rng, max_atoms=10)
        q = quotient(B, I) if I.is_proper else None
        if q is None:
            continue
        pY = [q.project(y) for y in Y]
        if len(set(pY)) != len(set(Y)):
            continue
        lhs = is_independent_mod_ideal(B, Y, X, I)
        rhs = is_independent_mod_ideal(
            q.algebra, pY, [q.project(x) for x in X],
            PrincipalIdeal(q.algebra, 0),
        )
        assert lhs == rhs
        checked += 1


def test_independence_monotonicity():
    # moving part of Y over to the base preserves independence
    rng = random.Random(78)
    checked = 0
    while checked < 120:
        B, Y, X, I = _random_instance(rng, max_atoms=10, max_y=3)
        Y = sorted(set(Y))
        if not Y or not is_independent_mod_ideal(B, Y, X, I):
            continue
        k = rng.randint(0, len(Y) - 1)
        y0 = Y[:k]
        rest = Y[k:]
        assert is_independent_mod_ideal(B, rest, list(X) + y0, I)
        checked += 1


def test_exchange_fails_witness():
    # X and Y independent, |Y| > |X|, yet no element of Y - X can extend X
    # independently.  Kept as a regression pin: independence here is not a
    # matroid notion.
    B = FiniteBooleanAlgebra(8)
    zero = PrincipalIdeal(B, 0)
    x = atoms_to_element(0, 1, 2, 3)
    y1 = atoms_to_element(0, 1, 2, 3, 4, 5)  # above x
    y2 = atoms_to_element(4, 5, 6)  # disjoint from x
    assert is_independent_mod_ideal(B, [x], [], zero)
    assert is_independent_mod_ideal(B, [y1, y2], [], zero)
    for y in (y1, y2):
        assert not is_independent_mod_ideal(B, [x, y], [], zero)


# ---------------------------------------------------------------------------
# chained independence (transitivity along a tower of subalgebras)
# ---------------------------------------------------------------------------


def _restrict_ideal_generator(B, subalgebra_gens, d):
    """Largest element of the subalgebra below d (join of its blocks under d)."""
    g = 0
    for block in B.subalgebra_blocks(subalgebra_gens):
        if block & ~d == 0:
            g |= block
    return g


def make_chained_instance(rng):
    """B0 <= B1 <= B2 with compatible ideals and J_i independent from B_i
    modulo the ideal of B_{i+1}; returns None when sampling misses."""
    n = rng.randint(6, 16)
    B2 = FiniteBooleanAlgebra(n)
    d2 = rng.randint(0, B2.full - 1)
    b1_gens = [rng.randint(0, B2.full) for _ in range(rng.randint(1, 3))]
    b1_elements = sorted(set(subalgebra_elements(B2, b1_gens)))
    b0_gens = [rng.choice(b1_elements) for _ in range(rng.randint(1, 2))]
    d1 = _restrict_ideal_generator(B2, b1_gens, d2)
    I1 = PrincipalIdeal(B2, d1)
    I2 = PrincipalIdeal(B2, d2)

    for _ in range(40):
        J0 = [rng.choice(b1_elements) for _ in range(rng.randint(1, 2))]
        if is_independent_mod_ideal(B2, J0, b0_gens, I1):
            break
    else:
        return None
    for _ in range(40):
        J1 = [rng.randint(0, B2.full) for _ in range(rng.randint(1, 2))]
        if is_independent_mod_ideal(B2, J1, b1_gens, I2):
            break
    else:
        return None
    return B2, b0_gens, J0, J1, I2


def test_chained_independence_200_seeded_instances():
    rng = random.Random(31337)
    produced = 0
    while produced < 200:
        instance = make_chained_instance(rng)
        if instance is None:
            continue
        B2, b0_gens, J0, J1, I2 = instance
        assert is_independent_mod_ideal(B2, list(J0) + list(J1), b0_gens, I2)
        produced += 1


# ---------------------------------------------------------------------------
# pushout
# ---------------------------------------------------------------------------


def test_pushout_of_trivial_algebras():
    two = FiniteBooleanAlgebra(1)
    e = BAEmbedding(two, two, (1,))
    po = pushout(two, two, two, e, e)
    assert po.algebra.atom_count == 1


def test_pushout_of_free_on_one_generator_each():
    C = FiniteBooleanAlgebra(1)
    A = FiniteBooleanAlgebra(2)
    B = FiniteBooleanAlgebra(2)
    eA = BAEmbedding(C, A, (A.full,))
    eB = BAEmbedding(C, B, (B.full,))
    po = pushout(A, B, C, eA, eB)
    assert po.algebra.atom_count == 4
    # free on the two generator images
    g1 = po.into_left(1)  # an atom of A
    g2 = po.into_right(1)
    assert is_free_basis(po.algebra, [g1, g2])
    report = verify_pushout_triple(po, eA, eB)
    assert all(report.values()), report


def test_pushout_order_characterization_instance():
    # a in A - C, b in B - C with no c strictly between: a not below b
    C = FiniteBooleanAlgebra(1)
    A = FiniteBooleanAlgebra(2)
    B = FiniteBooleanAlgebra(2)
    eA = BAEmbedding(C, A, (A.full,))
    eB = BAEmbedding(C, B, (B.full,))
    po = pushout(A, B, C, eA, eB)
    a, b = 1, 1  # atoms, both off C
    assert preimage(eA, a) is None and preimage(eB, b) is None
    assert po.into_left(a) & ~po.into_right(b)


def test_pushout_laws_on_a_spread_of_triples():
    count = 0
    for c in range(1, 3):
        C = FiniteBooleanAlgebra(c)
        for a in range(c, 4):
            A = FiniteBooleanAlgebra(a)
            for b in range(c, 4):
                B = FiniteBooleanAlgebra(b)
                for eA in all_embeddings_between(C, A):
                    for eB in all_embeddings_between(C, B):
                        po = pushout(A, B, C, eA, eB)
                        report = verify_pushout_triple(po, eA, eB, max_target_atoms=3)
                        assert all(report.values()), (c, a, b, report)
                        count += 1
    assert count > 30


def test_pushout_independence_named_check():
    # a free generator image over the zero ideal: independence by freeness
    C = FiniteBooleanAlgebra(1)
    A = FiniteBooleanAlgebra(2)
    B = FiniteBooleanAlgebra(2)
    eA = BAEmbedding(C, A, (A.full,))
    eB = BAEmbedding(C, B, (B.full,))
    po = pushout(A, B, C, eA, eB)
    J = PrincipalIdeal(po.algebra, 0)
    assert pushout_independence(po, [1], J)


def test_pushout_independence_cross_checked_with_fast_path():
    rng = random.Random(5150)
    checked = 0
    while checked < 40:
        c = rng.randint(1, 2)
        a = rng.randint(c, 3)
        b = rng.randint(c, 3)
        C, A, B = (FiniteBooleanAlgebra(k) for k in (c, a, b))
        eAs = list(all_embeddings_between(C, A))
        eBs = list(all_embeddings_between(C, B))
        if not eAs or not eBs:
            continue
        eA, eB = rng.choice(eAs), rng.choice(eBs)
        po = pushout(A, B, C, eA, eB)
        candidates = [x for x in range(1 << A.atom_count)
                      if preimage(eA, x) is None]
        if not candidates:
            continue
        I2 = [rng.choice(candidates)]
        J = PrincipalIdeal(po.algebra, 0)
        try:
            result = pushout_independence(po, I2, J)
        except PreconditionFailed:
            continue
        assert result
        assert independence_by_all_polynomials(
            po.algebra, [po.into_left(x) for x in I2],
            list(po.into_right.atom_images), J,
        )
        checked += 1


# ---------------------------------------------------------------------------
# bases of free algebras
# ---------------------------------------------------------------------------


def test_basis_through_the_generator_itself():
    F = FiniteBooleanAlgebra(2)  # free on 1 generator
    g = 1  # one atom of two: the standard generator
    assert find_basis_containing(F, 1, g) == (g,)


def test_basis_through_balanced_element_n2():
    F = FiniteBooleanAlgebra(4)
    b = atoms_to_element(1, 2)
    J = find_basis_containing(F, 2, b)
    assert b in J
    assert is_free_basis(F, J)


def test_no_basis_through_a_single_atom_n2():
    F = FiniteBooleanAlgebra(4)
    with pytest.raises(NoBasisThrough):
        find_basis_containing(F, 2, 1)
    assert list(bases_through_by_enumeration(F, 2, 1)) == []


def test_trivial_elements_rejected():
    F = FiniteBooleanAlgebra(4)
    with pytest.raises(TrivialElement):
        find_basis_containing(F, 2, 0)
    with pytest.raises(TrivialElement):
        find_basis_containing(F, 2, F.full)


def test_half_atom_criterion_exhaustive_n_up_to_3():
    # success iff the element spans exactly half the atoms, checked for
    # every b against the solver and against the subset enumeration oracle:
    # a balanced b needs one basis (the oracle stops at the first); an
    # unbalanced b is enumerated in full at n <= 2, and at n = 3 for the
    # first b of each popcount, which settles the other b of that popcount
    # by the oracle's invariance under atom permutations (tested below)
    for n in (1, 2, 3):
        F = FiniteBooleanAlgebra(1 << n)
        refuted = set()
        for b in range(1 << F.atom_count):
            if b in (0, F.full):
                continue
            oracle = bases_through_by_enumeration(F, n, b)
            if popcount(b) == 1 << (n - 1):
                J = find_basis_containing(F, n, b)
                assert J[0] == b and is_free_basis(F, J)
                assert next(oracle, None), \
                    f"oracle found no basis through {b} at n={n}"
            else:
                with pytest.raises(NoBasisThrough):
                    find_basis_containing(F, n, b)
                if n <= 2 or popcount(b) not in refuted:
                    assert next(oracle, None) is None
                    refuted.add(popcount(b))
        if n == 3:
            assert refuted == {1, 2, 3, 5, 6, 7}


@pytest.mark.parametrize("n", [1, 2])
def test_basis_oracle_is_invariant_under_atom_permutations(n):
    F = FiniteBooleanAlgebra(1 << n)
    found = {b: {frozenset(J) for J in bases_through_by_enumeration(F, n, b)}
             for b in range(1 << F.atom_count) if b not in (0, F.full)}
    assert any(found.values())
    for perm in itertools.permutations(range(F.atom_count)):
        def image(x):
            return sum(1 << perm[i] for i in bits(x))
        for b, bases in found.items():
            assert found[image(b)] == {frozenset(map(image, J)) for J in bases}


@pytest.mark.parametrize("n", [1, 2])
def test_free_basis_check_agrees_with_subset_enumeration(n):
    # every n-tuple of elements, in algebras with and without 2^n atoms
    for atom_count in range(1, 5):
        F = FiniteBooleanAlgebra(atom_count)
        bases = {frozenset(J) for b in range(1 << F.atom_count)
                 for J in bases_through_by_enumeration(F, n, b)}
        assert bool(bases) == (atom_count == 1 << n)
        for J in itertools.product(range(1 << F.atom_count), repeat=n):
            assert is_free_basis(F, J) == \
                (len(set(J)) == n and frozenset(J) in bases)


# ---------------------------------------------------------------------------
# rebasing an independent set through a prescribed element
# ---------------------------------------------------------------------------


def _rebase_instance(rng):
    """Random (B2, B1 gens, I2, J1, b) satisfying the rebase preconditions."""
    n = rng.randint(6, 10)
    B2 = FiniteBooleanAlgebra(n)
    d = 0
    for _ in range(rng.randint(0, 2)):
        d |= 1 << rng.randrange(n)
    if d == B2.full:
        return None
    I2 = PrincipalIdeal(B2, d)
    b1_gens = [rng.randint(0, B2.full) for _ in range(rng.randint(0, 1))]
    for _ in range(60):
        J1 = [rng.randint(0, B2.full) for _ in range(rng.randint(1, 2))]
        if not is_independent_mod_ideal(B2, J1, b1_gens, I2):
            continue
        if len(set(J1)) != len(J1):
            continue
        # draw b from the subalgebra generated by J1 with I2
        span = list(subalgebra_elements(B2, list(J1) + [1 << i for i in range(n) if d & (1 << i)]))
        b = rng.choice(span)
        if not is_independent_mod_ideal(B2, [b], b1_gens, I2):
            continue
        q = quotient(B2, I2)
        blocks = q.algebra.subalgebra_blocks([q.project(y) for y in J1])
        covered = popcount(sum(block for block in blocks if block & ~q.project(b) == 0))
        if popcount(q.project(b)) != covered:
            continue
        inside = sum(1 for block in blocks if block & ~q.project(b) == 0)
        if inside * 2 != len(blocks):
            continue  # only balanced b admits a basis through it
        return B2, b1_gens, I2, J1, b
    return None


def test_rebase_keeps_span_and_independence_seeded():
    rng = random.Random(909)
    produced = 0
    while produced < 100:
        instance = _rebase_instance(rng)
        if instance is None:
            continue
        B2, b1_gens, I2, J1, b = instance
        J1p = rebase_with_element(B2, b1_gens, I2, J1, b)
        assert b in J1p
        assert is_independent_mod_ideal(B2, J1p, b1_gens, I2)
        # same generated subalgebra together with the ideal
        ideal_atoms = [1 << i for i in range(B2.atom_count) if I2.generator & (1 << i)]
        old_span = set(subalgebra_elements(B2, list(J1) + ideal_atoms))
        new_span = set(subalgebra_elements(B2, list(J1p) + ideal_atoms))
        assert old_span == new_span
        # oracle re-check of independence of the result
        assert independence_by_all_polynomials(B2, J1p, b1_gens, I2)
        produced += 1


def test_rebase_trivial_when_b_in_J1():
    B2 = FiniteBooleanAlgebra(4)
    I2 = PrincipalIdeal(B2, 0)
    y1, y2 = atoms_to_element(0, 1), atoms_to_element(0, 2)
    out = rebase_with_element(B2, [], I2, [y1, y2], y1)
    assert set(out) == {y1, y2} and out[0] == y1


def test_rebase_rejects_b_outside_span():
    B2 = FiniteBooleanAlgebra(8)
    I2 = PrincipalIdeal(B2, 0)
    J1 = [atoms_to_element(0, 1, 2, 3)]
    b = atoms_to_element(0, 4)
    with pytest.raises(PreconditionFailed) as err:
        rebase_with_element(B2, [], I2, J1, b)
    assert err.value.clause == "b-membership"
