"""Free-factor functions, the product element algebra, membership checks."""

import itertools
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.boolalg import PrincipalIdeal
from amalgam.boolalg import is_independent_mod_ideal as ba_independent
from amalgam.errors import CapExceeded
from amalgam.k1 import (
    FreeFn,
    K1Witness,
    MatchEmbedding,
    P1Context,
    P1Element,
    bare_generator,
    build_member,
    check_K1,
    check_Kminus1,
    enumerate_members,
    is_isomorphic_k1,
    materialize,
    minimal_model,
    var,
)
from amalgam.k1.engine import corpus
from amalgam.k1.freepart import (
    ONE,
    ZERO,
    _expand,
    _reduce,
    conj,
    disj,
    neg,
    rename,
)
from amalgam.k1 import p1
from amalgam.k1.checks import _level_generators
from amalgam.k1.p1 import (
    independent_from_mod_atomic,
    point_blocks,
    spans_generator,
    subalgebra_contains,
)
from oracles import expand_by_evaluation, planted

# ---------------------------------------------------------------------------
# sparse Boolean functions
# ---------------------------------------------------------------------------


def random_fn(rng, gens):
    support = tuple(sorted(rng.sample(gens, rng.randint(0, min(3, len(gens))))))
    table = rng.randrange(1 << (1 << len(support)))
    from amalgam.k1.freepart import _reduce
    return _reduce(support, table)


def fn_to_set(fn, gens):
    """Truth set over total assignments of all gens (oracle semantics)."""
    out = set()
    for p in itertools.product((0, 1), repeat=len(gens)):
        point = dict(zip(gens, p))
        if fn.evaluate(point):
            out.add(p)
    return out


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_freefn_ops_match_truth_sets(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    gens = [1, 2, 3, 4]
    a, b = random_fn(rng, gens), random_fn(rng, gens)
    sa, sb = fn_to_set(a, gens), fn_to_set(b, gens)
    universe = set(itertools.product((0, 1), repeat=len(gens)))
    assert fn_to_set(conj(a, b), gens) == sa & sb
    assert fn_to_set(disj(a, b), gens) == sa | sb
    assert fn_to_set(neg(a), gens) == universe - sa


def test_freefn_canonical_equality():
    g = var(5)
    assert var(5) is g
    assert conj(g, ONE) == g
    assert disj(g, ZERO) == g
    assert conj(g, neg(g)) == ZERO
    assert disj(g, neg(g)) == ONE
    # non-essential variables are dropped
    h = var(7)
    assert disj(conj(g, h), conj(g, neg(h))) == g


def test_freefn_rename_roundtrip():
    fn = conj(var(1), neg(var(3)))
    renamed = rename(fn, {1: 10, 3: 30})
    assert renamed.support == (10, 30)
    assert rename(renamed, {10: 1, 30: 3}) == fn


def test_freefn_rename_reversing_the_support_agrees_with_evaluate():
    rng = random.Random(17)
    for _ in range(200):
        support = tuple(sorted(rng.sample(range(8), rng.randint(1, 5))))
        fn = _reduce(support, rng.getrandbits(1 << len(support)))
        mapping = {g: 20 - g for g in fn.support}
        renamed = rename(fn, mapping)
        assert renamed.support == tuple(sorted(mapping.values()))
        for bits in itertools.product((0, 1), repeat=len(fn.support)):
            point = dict(zip(fn.support, bits))
            assert renamed.evaluate({mapping[g]: v for g, v in point.items()}) \
                == fn.evaluate(point)


def expand_mismatches(expand):
    """The (table, variables, window) cases on which ``expand`` differs
    from the pointwise oracle: windows of 0-6 generators, with empty
    supports, the whole window and proper sub-supports, each sorted and
    in a random order (as ``rename`` passes them), and the constant, the
    full and a random table over each."""
    rng = random.Random(29)
    bad = []
    for width in range(7):
        joint = tuple(sorted(rng.sample(range(20), width)))
        for size in range(width + 1):
            for _ in range(3):
                sub = tuple(rng.sample(joint, size))
                for variables in (tuple(sorted(sub)), sub):
                    for table in (0, (1 << (1 << size)) - 1,
                                  rng.getrandbits(1 << size)):
                        if expand(table, variables, joint) != \
                                expand_by_evaluation(table, variables, joint):
                            bad.append((table, variables, joint))
    return bad


def test_expand_matches_pointwise_evaluation():
    assert expand_mismatches(_expand) == []

    def planted(table, variables, joint):
        # a constant table returned unexpanded
        return table if not variables else _expand(table, variables, joint)

    assert expand_mismatches(planted) != []


# ---------------------------------------------------------------------------
# product element algebra vs the flat algebra
# ---------------------------------------------------------------------------


def random_element(rng, ctx, gens):
    atomic = 0
    for a in ctx.atom_ids:
        if rng.random() < 0.5:
            atomic |= 1 << a
    return P1Element(atomic, random_fn(rng, gens))


def test_independence_checks_match_flat_algebra():
    rng = random.Random(2718)
    ctx = P1Context((0, 1))
    gens = [10, 11, 12]
    for _ in range(150):
        Y = [random_element(rng, ctx, gens) for _ in range(rng.randint(0, 2))]
        X = [random_element(rng, ctx, gens) for _ in range(rng.randint(0, 2))]
        B, masks, _ = materialize(ctx, Y + X)
        my = masks[: len(Y)]
        mx = masks[len(Y):]
        # modulo the atomic ideal (join of designated atoms)
        designated_mask = (1 << len(ctx.atom_ids)) - 1
        assert independent_from_mod_atomic(Y, X) == \
            ba_independent(B, my, mx, PrincipalIdeal(B, designated_mask))
    # support components of one function: nonconstant (skipped unrefined),
    # constant, and next to a component that fails
    g, h, k = var(10), var(11), var(12)
    families = [
        ([P1Element(0b01, g)], [], True),
        ([], [P1Element(0b10, h)], True),
        ([P1Element(0b01, g)], [P1Element(0b01, ONE)], True),
        ([P1Element(0b01, ZERO)], [], False),
        ([P1Element(0, ONE)], [], False),
        ([P1Element(0, g), P1Element(0, h)], [P1Element(0, h)], False),
        ([P1Element(0, g), P1Element(0, h)], [P1Element(0, k)], True),
    ]
    for Y, X, want in families:
        B, masks, _ = materialize(ctx, Y + X)
        assert ba_independent(B, masks[:len(Y)], masks[len(Y):],
                              PrincipalIdeal(B, 0b11)) == want
        assert independent_from_mod_atomic(Y, X) == want


def test_independence_tells_elements_with_one_free_part_apart():
    ctx = P1Context((0, 1))
    y1, y2 = P1Element(0b01, var(5)), P1Element(0b10, var(5))
    assert independent_from_mod_atomic([y1], [])
    assert independent_from_mod_atomic([y1, y1], [])
    # y1 and y2 differ by an atomic element: y1 - y2 lies in the ideal
    assert not independent_from_mod_atomic([y1, y2], [])
    B, masks, _ = materialize(ctx, [y1, y2])
    assert not ba_independent(B, masks, [], PrincipalIdeal(B, 0b11))


def flat_minterms_nonzero(ctx, Y):
    """Every signed minterm of the distinct members of Y is nonzero in the
    flattened algebra."""
    ys = list(dict.fromkeys(Y))
    B, masks, _ = materialize(ctx, ys)
    for signs in itertools.product((0, 1), repeat=len(ys)):
        m = B.full
        for mask, sign in zip(masks, signs):
            m &= mask if sign else B.full & ~mask
        if m == 0:
            return False
    return True


def test_independence_makes_every_signed_minterm_nonzero():
    """The test elements of independence modulo the atomic ideal include
    1, which lies outside that ideal, so a family independent from any X
    has no zero signed minterm; ``k0.tail_free`` relies on it."""
    rng, x_rng = random.Random(1618), random.Random(1619)
    outcomes = set()
    for _ in range(400):
        ctx = P1Context(tuple(range(rng.randint(0, 2))))
        family = [P1Element(0, random_fn(rng, [10, 11, 12, 13]))
                  for _ in range(rng.randint(0, 4))]
        if family and rng.random() < 0.2:
            family.append(rng.choice(family))
        X = [random_element(x_rng, ctx, [10, 11, 12, 13])
             for _ in range(x_rng.randint(0, 2))]
        independent = independent_from_mod_atomic(family, X)
        assert not independent or flat_minterms_nonzero(ctx, family)
        outcomes.add(independent)
    assert outcomes == {True, False}


def test_subalgebra_contains_matches_flat_blocks():
    rng = random.Random(525)
    ctx = P1Context((0, 1))
    gens = [7, 8]
    for _ in range(120):
        G = [random_element(rng, ctx, gens) for _ in range(rng.randint(0, 3))]
        x = random_element(rng, ctx, gens)
        B, masks, _ = materialize(ctx, G + [x])
        expected = B.subalgebra_contains(masks[:-1], masks[-1])
        assert subalgebra_contains(ctx, G, x) == expected


def subalgebra_cases():
    """Seeded (ctx, gens, x) triples over three designated atoms: random
    elements x, and elements made of whole blocks of <gens> on each
    coordinate, where now and then the atoms and the window points of
    one sign vector fall on opposite sides of x."""
    rng = random.Random(526)
    ctx = P1Context((0, 1, 2))
    cases = [(ctx, [], P1Element(0, ONE))]
    for _ in range(300):
        G = [random_element(rng, ctx, [7, 8, 9])
             for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            cases.append((ctx, G, random_element(rng, ctx, [7, 8, 9])))
            continue
        sigma, blocks = p1._signature_blocks(ctx, G)
        atomic = table = 0
        for atoms, points in blocks.values():
            take = rng.random() < 0.5
            atomic |= atoms if take else 0
            table |= points if take != (rng.random() < 0.2) else 0
        cases.append((ctx, G, P1Element(atomic, _reduce(sigma, table))))
    return cases


def flat_verdict(ctx, G, x):
    """(x in <G>, some block of <G> has its designated atoms on one side
    of x and its window points on the other), read off the flat
    algebra."""
    B, masks, _ = materialize(ctx, G + [x])
    atoms = (1 << len(ctx.atom_ids)) - 1
    x_mask = masks[-1]
    crossed = False
    for block in B.subalgebra_blocks(masks[:-1]):
        parts = [block & atoms, block & ~atoms]
        if all(parts) and all(x_mask & p in (0, p) for p in parts):
            crossed |= (x_mask & parts[0] == 0) != (x_mask & parts[1] == 0)
    return B.subalgebra_contains(masks[:-1], x_mask), crossed


def test_subalgebra_contains_ties_the_two_coordinates():
    kinds = Counter()
    for ctx, G, x in subalgebra_cases():
        expected, crossed = flat_verdict(ctx, G, x)
        assert subalgebra_contains(ctx, G, x) == expected, (G, x)
        kinds[expected, crossed] += 1
    assert set(kinds) == {(True, False), (False, False), (False, True)}, \
        kinds
    assert min(kinds.values()) > 20, kinds


def test_a_containment_test_per_coordinate_is_caught():
    # each coordinate judged alone: a sign vector realized by atoms
    # outside x and by window points inside x passes
    mutant = planted(subalgebra_contains,
                     " or side.setdefault(v, inside) != inside", "")
    wrong = {}
    for ctx, G, x in subalgebra_cases():
        expected, crossed = flat_verdict(ctx, G, x)
        if mutant(ctx, G, x) != expected:
            wrong[repr((G, x))] = crossed
    assert repr(([], P1Element(0, ONE))) in wrong
    assert len(wrong) > 20 and all(wrong.values())


def test_value_types_are_slotted_immutable_values():
    x, y = P1Element(5, var(3)), P1Element(5, FreeFn((3,), 0b10))
    e = MatchEmbedding(((0, 1),), ((2, 3),))
    assert x == y and hash(x) == hash(y) and x is not y
    assert x.free == y.free and hash(x.free) == hash(y.free)
    assert e == MatchEmbedding(((0, 1),), ((2, 3),))
    assert hash(e) == hash(MatchEmbedding(((0, 1),), ((2, 3),)))
    for value, name in ((x, "atomic"), (x.free, "table"), (e, "p0_map")):
        assert not hasattr(value, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    assert repr(x) == "P1Element(atomic=5, free=FreeFn(support=(3,), table=2))"
    assert repr(e) == "MatchEmbedding(p0_map=((0, 1),), p2_map=((2, 3),))"
    assert bare_generator(4) is bare_generator(4)
    assert bare_generator(4) == P1Element(0, var(4))
    assert hash(bare_generator(4)) == hash(P1Element(0, var(4)))


def random_span(rng, ctx, clusters):
    """Up to five elements whose free parts lie in the given generator
    clusters (so the span has several support components), some purely
    atomic, now and then one whose free part is a bare generator or its
    complement, and now and then every designated atom besides."""
    span = []
    for _ in range(rng.randint(1, 5)):
        atomic = sum(1 << a for a in ctx.atom_ids if rng.random() < 0.5)
        gens = [] if rng.random() < 0.25 else rng.choice(clusters)
        span.append(P1Element(atomic, random_fn(rng, gens)))
    if rng.random() < 0.4:
        g = var(rng.choice([g for cluster in clusters for g in cluster]))
        atomic = sum(1 << a for a in ctx.atom_ids if rng.random() < 0.5)
        span.insert(rng.randint(0, len(span)),
                    P1Element(atomic, rng.choice((g, neg(g)))))
    if rng.random() < 0.3:
        span += [ctx.atom(a) for a in ctx.atom_ids]
    return span


def holds_g_with_b_star(ctx, span, g):
    """Some span element has free support exactly (g,), and the
    support-free span elements generate b*."""
    constants = [e for e in span if not e.free.support]
    return any(e.free.support == (g,) for e in span) and \
        subalgebra_contains(ctx, constants, ctx.b_star)


def test_spans_generator_equals_the_definition():
    rng = random.Random(314)
    ctx = P1Context((0, 1, 2))
    clusters = [[10, 11], [12, 13], [14]]
    outcomes = set()
    for _ in range(600):
        span = random_span(rng, ctx, clusters)
        wants = {}
        for g in (10, 12, 14):
            wants[g] = subalgebra_contains(ctx, span, P1Element(0, var(g)))
            assert spans_generator(ctx, span, [g]) == wants[g], (span, g)
            outcomes.add((holds_g_with_b_star(ctx, span, g), wants[g]))
        gens = rng.sample(sorted(wants), rng.randint(0, 3))
        assert spans_generator(ctx, span, gens) == \
            all(wants[g] for g in gens), (span, gens)
    # both the one-generator sub-span and the component path were taken
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_spans_generator_stops_at_the_first_generator_not_spanned(
        monkeypatch):
    # 10 and 11 are spanned through the one-generator sub-span, 12 is
    # not (only its meet with 13 is in the span), 13 would be, and no
    # span element involves 14
    ctx = P1Context((0,))
    span = [ctx.atom(0), P1Element(0, var(10)), P1Element(1, var(11)),
            P1Element(0, conj(var(12), var(13))), P1Element(0, var(13))]
    asked = []
    contains = p1.subalgebra_contains

    def recorded(ctx, gens, x):
        asked.append(x.free.support)
        return contains(ctx, gens, x)

    monkeypatch.setattr(p1, "subalgebra_contains", recorded)
    for gens, holds, calls in (
            ([10, 11, 12, 13], False, [(10,), (11,), (12,)]),
            ([13, 11, 10], True, [(13,), (11,), (10,)]),
            ([10, 14, 11], False, [(10,)]),
            ([], True, [])):
        asked.clear()
        assert spans_generator(ctx, span, gens) is holds, gens
        assert asked == calls, gens


def test_spans_generator_sees_an_atom_cut_loose_by_another_component():
    ctx = P1Context((0,))
    g, h = var(10), var(11)
    span = [P1Element(1, g), P1Element(1, h), P1Element(1, neg(h))]
    # (1, h) meet (1, not h) is the atom, and (1, g) minus the atom is g
    assert spans_generator(ctx, span, [10])
    assert not spans_generator(ctx, span[:2], [10])
    # with the designated atom in the span the windowed path answers
    assert spans_generator(ctx, span[:1] + [ctx.atom(0)], [10])


def test_point_blocks_partition():
    ctx = P1Context((0, 1, 2))
    G = [P1Element(0b011, var(9)), P1Element(0b100, ZERO)]
    blocks = point_blocks(ctx, G)
    # blocks are pairwise disjoint and cover the top
    atomic_total = 0
    for b in blocks:
        assert b.atomic or not b.free.is_zero
        atomic_total |= b.atomic
    assert atomic_total == ctx.full_mask


# ---------------------------------------------------------------------------
# membership checks
# ---------------------------------------------------------------------------


def test_minimal_model_passes_both_checks():
    m = minimal_model()
    assert check_Kminus1(m).passed
    assert check_K1(m).passed


def test_minimal_model_b_star_is_zero():
    m = minimal_model()
    assert m.witness.b_star.atomic == 0 and m.witness.b_star.free.is_zero
    assert len(m.atom_ids) == 0


def test_ctx_follows_a_rebound_atom_inventory():
    M = build_member(2, 1, 0, trunc=4)
    assert M.ctx is M.ctx
    assert M.ctx.atom_ids == tuple(sorted(M.atom_ids))
    extra = max(M.all_ids()) + 1
    M.atom_ids = (extra,) + M.atom_ids
    assert M.ctx.atom_ids == tuple(sorted(M.atom_ids))
    assert M.ctx.b_star.atomic >> extra & 1


def test_built_members_pass_checks():
    count = 0
    for M in enumerate_members(2, 1, 2, trunc=4):
        r = check_K1(M)
        if r.passed:
            count += 1
        else:
            # palette may produce duplicate head values; those fail exactly
            # the distinctness clause
            assert set(r.failing()) <= {"k0.f_distinct"}, r.failing()
    assert count >= 10


def old_union_sweep(M):
    """k0.union decided by a sweep of its own: every generator spanned by
    the top level, one generator at a time, None when a cap stops the
    sweep."""
    gens = _level_generators(M, M.trunc)
    try:
        return all(spans_generator(M.ctx, gens, [g]) for g in M.gen_ids)
    except CapExceeded:
        return None


def test_union_clause_equals_its_own_sweep():
    compared = 0
    for M in enumerate_members(4, 4, 1, 6, max_size=4):
        (union,) = [i for i in check_K1(M).items if i.key == "k0.union"]
        if union.detail == "base membership failed":
            continue
        assert union.passed == old_union_sweep(M)
        compared += 1
    assert compared > 50


def test_witness_threshold_can_be_bumped():
    M = build_member(1, 1, 1, trunc=4, head_plan=[[((0,), True)]])
    assert check_K1(M).passed
    bumped = K1Witness(M.witness.n_star + 2, M.witness.b_star)
    assert check_K1(M, bumped).passed


def test_isomorphism_invariance_of_enumeration():
    # relabeling ids gives an isomorphic member
    M = build_member(2, 1, 1, trunc=4, head_plan=[[((0,), True)]])
    N = build_member(2, 1, 1, trunc=4, head_plan=[[((0,), True)]], start_id=50)
    assert is_isomorphic_k1(M, N)
    # different head shape is not isomorphic
    P = build_member(2, 1, 1, trunc=4, head_plan=[[((), True)]])
    assert not is_isomorphic_k1(M, P)


def test_fewmodels_member_count_is_stable():
    first = corpus(1, 3, 1)
    second = corpus(1, 3, 1)
    assert len(first) == len(second) > 0
    assert [m.canonical_key() for m in first] == \
        [m.canonical_key() for m in second]
