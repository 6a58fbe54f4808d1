"""Engine checks on classical classes: JEP, disjoint AP (grouped by base
and member, against a per-pair loop), the generic builder (with pinned
digests of linear-order builds), the order amalgam's collapse rule,
richness, the bounded game, and ``backends.separable`` against a brute
force over injective tuples."""

import hashlib
import itertools
import json
from collections import Counter

import pytest

from amalgam.backends import (
    GRAPH_VOCAB,
    chain_structure,
    graph_class,
    linear_order_class,
    separable,
    structure_position_valid,
)
from amalgam.errors import AmalgamationFailed
from amalgam.k1.engine import k1_class
from amalgam.fraisse import (
    AmalgamationClass,
    back_and_forth_check,
    build_generic,
    check_disjoint_ap,
    check_jep,
    inclusion_pairs,
    richness_defect,
)
from amalgam.structures import (
    Embedding,
    FiniteStructure,
    Vocabulary,
    enumerate_embeddings,
    is_isomorphic,
)
from oracles import is_closed


def test_linear_orders_have_jep():
    ok, witnesses = check_jep(linear_order_class(), 3)
    assert ok and witnesses


def test_singleton_class_of_empty_structure_has_jep():
    cls = linear_order_class()
    ok, _ = check_jep(cls, 0)
    assert ok


def per_pair_jep(cls, bound):
    """``check_jep`` with fresh ``embeddings`` calls for every pair and
    every candidate member: the reference for the tabled check."""
    members = cls.members(bound)
    seed = cls.seed_model()
    witnesses = []
    for i, M1 in enumerate(members):
        for M2 in members[i:]:
            direct = next((D for D in members if cls.embeddings(M1, D)
                           and cls.embeddings(M2, D)), None)
            if direct is not None:
                witnesses.append((M1, M2, direct))
                continue
            f_list = cls.embeddings(seed, M1)
            g_list = cls.embeddings(seed, M2)
            if not f_list or not g_list:
                return False, (M1, M2)
            try:
                result = cls.amalgamate(M1, seed, M2, f_list[0], g_list[0])
            except AmalgamationFailed:
                return False, (M1, M2)
            witnesses.append((M1, M2, result))
    return True, witnesses


@pytest.mark.parametrize("make_cls", [linear_order_class, graph_class,
                                      lambda: k1_class(6, 1)],
                         ids=["orders", "graphs", "k1"])
def test_jep_enumerates_each_pair_once_and_equals_per_pair(make_cls):
    cls = make_cls()
    calls = recording_calls(cls)
    verdict = check_jep(cls, 3)
    tabled = Counter(calls)
    calls.clear()
    reference = per_pair_jep(cls, 3)
    assert verdict[0] and verdict == reference
    # no (base, target) twice, and every one the reference needed
    assert max(tabled.values()) == 1
    assert len(tabled) == len(set(calls))


def test_jep_counterexample_with_incompatible_constants():
    vocab = Vocabulary.make(relations={"P": 1, "Q": 1}, constants=["c"])
    M1 = FiniteStructure(vocab, (0,), {"P": {(0,)}, "Q": set()}, {}, {"c": 0})
    M2 = FiniteStructure(vocab, (0,), {"P": set(), "Q": {(0,)}}, {}, {"c": 0})

    def no_amalgam(*args):
        raise AmalgamationFailed("no member satisfies both demands")

    cls = AmalgamationClass(
        seed_model=lambda: M1,
        members=lambda bound: [M1, M2],
        task_pairs=lambda bound: [],
        embeddings=lambda A, M, touching=None: enumerate_embeddings(A, M),
        extend=lambda A, B, inc, f, M: None,
        amalgamate=no_amalgam,
        new_ids=lambda old, new: set(),
    )
    calls = recording_calls(cls)
    ok, counterexample = check_jep(cls, 1)
    assert not ok
    assert counterexample in ((M1, M2), (M2, M1))
    # the seed is M1 itself, so (seed, M1) is the (member, member) pair
    # (M1, M1) and is not enumerated again
    assert max(Counter(calls).values()) == 1
    assert per_pair_jep(cls, 1) == (False, counterexample)


def per_pair_disjoint_ap(cls, bound):
    """``check_disjoint_ap`` with one ``embeddings`` call per task pair and
    member: the reference for the grouped check."""
    checked = 0
    for (A, B, inc) in cls.task_pairs(bound):
        for C in cls.members(bound):
            for f in cls.embeddings(A, C):
                checked += 1
                try:
                    cls.amalgamate(C, A, B, f, inc)
                except AmalgamationFailed:
                    return False, (A, B, C)
    return True, checked


def recording_calls(cls):
    """The class with an ``embeddings`` hook that records the identities
    of the base and the target of every call."""
    hook = cls.embeddings
    calls = []

    def embeddings(A, M, touching=None):
        calls.append((id(A), id(M)))
        return hook(A, M, touching=touching)

    cls.embeddings = embeddings
    return calls


def truncated_orders():
    """Linear orders cut off above one point: only the empty order and
    singletons exist, so amalgamating two singletons over the empty order
    has no member to land in."""
    base = linear_order_class()

    def members(bound):
        return [chain_structure(0), chain_structure(1)]

    def amalgamate(M, A, B, f, inc):
        result = base.amalgamate(M, A, B, f, inc)
        if result.size > 1:
            raise AmalgamationFailed("no member of that size")
        return result

    return AmalgamationClass(
        seed_model=base.seed_model,
        members=members,
        task_pairs=lambda bound: inclusion_pairs(members(bound),
                                                 enumerate_embeddings),
        embeddings=base.embeddings,
        extend=base.extend,
        amalgamate=amalgamate,
        new_ids=base.new_ids,
    )


def test_linear_orders_disjoint_ap():
    ok, checked = check_disjoint_ap(linear_order_class(), 3)
    assert ok and checked > 0


def test_disjoint_ap_counterexample_on_truncated_class():
    # the two-point extension required by amalgamating two singletons
    # over the empty order is missing, so the hook must fail
    ok, counterexample = check_disjoint_ap(truncated_orders(), 1)
    assert not ok


def test_grouped_disjoint_ap_equals_per_pair_on_linear_orders():
    cls = linear_order_class()
    calls = recording_calls(cls)
    result = check_disjoint_ap(cls, 3)
    assert result[0] and result == per_pair_disjoint_ap(linear_order_class(),
                                                        3)
    # one enumeration per distinct (base, member), though pairs share bases
    assert max(Counter(calls).values()) == 1
    assert len(calls) < len(cls.task_pairs(3)) * len(cls.members(3))


def test_grouped_disjoint_ap_finds_the_per_pair_counterexample():
    cls = truncated_orders()
    ok, counterexample = check_disjoint_ap(cls, 1)
    assert not ok
    assert per_pair_disjoint_ap(cls, 1) == (False, counterexample)


def test_generic_linear_order_realizes_old_tasks():
    # finite orders always leave fresh gaps next to the newest points, so
    # richness is measured on the early elements: every task landing in an
    # early chain member is realized in the final top
    cls = linear_order_class()
    approx = build_generic(cls, steps=120, bound=3)
    assert len(approx.chain) > 1
    early = set(approx.chain[min(3, len(approx.chain) - 1)].universe)
    defects = richness_defect(approx.top, cls, 3)
    old_defects = [
        (pair, key) for (pair, key) in defects
        if {image for (_, image) in key} <= early
    ]
    assert old_defects == []
    # and every dequeued task was resolved
    resolved = [t for t in approx.tasks if t.status != "pending"]
    assert resolved and all(t.resolved_at is not None for t in resolved)


def test_zero_steps_returns_seed_chain():
    cls = linear_order_class()
    approx = build_generic(cls, steps=0, bound=2)
    assert len(approx.chain) == 1
    assert all(t.status == "pending" for t in approx.tasks)


def test_generic_is_deterministic():
    cls = linear_order_class()
    a = build_generic(cls, steps=25, bound=3, seed=5)
    b = build_generic(cls, steps=25, bound=3, seed=5)
    assert [t.to_dict() for t in a.tasks] == [t.to_dict() for t in b.tasks]
    assert a.top == b.top


# The digest of ``build_generic(linear_order_class(), 60, 3, seed)``, as
# ``pinned_digest`` takes it: these are the generics ``order_game`` plays,
# and its benchmark digests do not cover them.
LINEAR_ORDER_PINS = {0: "c1c977bf403fe86f", 1: "53e44cb9521b256e",
                     2: "65af7a462a65ce60", 3: "cf5f46be9ab68c2e"}


def pinned_digest(approx) -> str:
    """sha256 of the top's canonical key and of the ledger, cut to 16
    hex digits."""
    h = hashlib.sha256()
    for part in (repr(approx.top.canonical_key()),
                 json.dumps([t.to_dict() for t in approx.tasks],
                            sort_keys=True)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(LINEAR_ORDER_PINS))
def test_linear_order_builds_equal_their_pinned_digests(seed):
    approx = build_generic(linear_order_class(), 60, 3, seed)
    assert pinned_digest(approx) == LINEAR_ORDER_PINS[seed]


def test_order_amalgam_refuses_images_in_reverse_order():
    # A = {0 < 1} sits in B = {0 < 1 < 2} as 0 and 2, so B's new point 1
    # belongs above the image of 0 and below that of 1, which f swaps
    A, B = chain_structure(2), chain_structure(3)
    M = chain_structure(2, start=5)
    inc = Embedding(A, B, {0: 0, 1: 2})
    f = Embedding(A, M, {0: 6, 1: 5})
    with pytest.raises(AmalgamationFailed,
                       match="order constraints collapsed"):
        linear_order_class().amalgamate(M, A, B, f, inc)


CLASSES = {"orders": linear_order_class, "graphs": graph_class,
           "k1": lambda: k1_class(6, 1)}


@pytest.mark.parametrize("make_cls", CLASSES.values(), ids=CLASSES)
def test_task_pairs_are_memoised_per_class(make_cls):
    cls = make_cls()
    assert cls.task_pairs(3) is cls.task_pairs(3)


@pytest.mark.parametrize("make_cls", CLASSES.values(), ids=CLASSES)
def test_builds_sharing_a_class_equal_builds_from_fresh_classes(make_cls):
    def ledger(approx):
        return ([t.to_dict() for t in approx.tasks],
                approx.top.canonical_key(), len(approx.chain))

    shared = make_cls()
    for seed in (0, 1):
        assert ledger(build_generic(shared, 25, 3, seed)) == \
            ledger(build_generic(make_cls(), 25, 3, seed))


def test_richness_defect_nonempty_for_empty_structure():
    cls = linear_order_class()
    defects = richness_defect(chain_structure(0), cls, 2)
    assert defects


def test_richness_defect_vacuous_at_bound_zero():
    cls = linear_order_class()
    assert richness_defect(chain_structure(0), cls, 0) == []


def test_back_and_forth_reflexive_and_between_generics():
    cls = linear_order_class()
    a = build_generic(cls, steps=40, bound=3, seed=1)
    b = build_generic(cls, steps=40, bound=3, seed=2)
    elements = lambda M: list(M.universe)
    assert back_and_forth_check(a.top, a.top, 3, elements,
                                structure_position_valid)
    assert back_and_forth_check(a.top, b.top, 3, elements,
                                structure_position_valid)


def test_back_and_forth_detects_atomic_difference():
    G1 = FiniteStructure(GRAPH_VOCAB, (0, 1), {"adj": {(0, 1), (1, 0)}})
    G2 = FiniteStructure(GRAPH_VOCAB, (0, 1), {"adj": set()})
    elements = lambda S: list(S.universe)
    assert not back_and_forth_check(G1, G2, 2, elements,
                                    structure_position_valid)


F0_VOCAB = Vocabulary.make(functions={"F0": 1}, index_bound=1)


def unary(universe, table):
    return FiniteStructure(F0_VOCAB, universe, {}, {"F0": table})


def fixed_members(members) -> AmalgamationClass:
    """A class given by its member list alone: separability reads only
    ``members``."""
    return AmalgamationClass(
        seed_model=lambda: members[0],
        members=lambda bound: members,
        task_pairs=lambda bound: [],
        embeddings=lambda X, M: enumerate_embeddings(X, M),
        extend=lambda *args: None,
        amalgamate=lambda *args: (_ for _ in ()).throw(AmalgamationFailed("")),
        new_ids=lambda old, new: set(),
    )


# the source leaves F0 undefined (its data lives beyond the truncation),
# so its diagram cannot forbid a member from defining F0 on the tuple:
# first off the tuple (the image is not closed), then onto it
HIDDEN_OFF_TUPLE = (unary((0,), {}), [unary((0,), {}), unary((0, 1), {(0,): 1})])
HIDDEN_ON_TUPLE = (unary((0, 1), {}),
                   [unary((0, 1), {}), unary((0, 1), {(0,): 1})])


def separable_by_brute_force(cls, A, bound):
    """From the definition: every injective tuple of a member that carries
    an embedding of A spans a closed copy isomorphic to A."""
    for B in cls.members(bound):
        for image in itertools.permutations(B.universe, A.size):
            if Embedding(A, B, dict(zip(A.universe, image))).is_valid() and \
                    not (is_closed(B, image)
                         and is_isomorphic(A, B.restrict(image))):
                return False
    return True


def test_separability_certifies_graph_edge():
    edge = FiniteStructure(GRAPH_VOCAB, (0, 1), {"adj": {(0, 1), (1, 0)}})
    assert separable(graph_class(), edge, 3)


def test_separability_unknown_when_fragment_hides_distinctions():
    A, members = HIDDEN_OFF_TUPLE
    assert not separable(fixed_members(members), A, 2)


def test_separability_rejects_a_function_value_defined_on_the_tuple():
    # the image of A in E is closed, but E defines F0(0) = 1 there
    A, members = HIDDEN_ON_TUPLE
    E = members[1]
    assert Embedding(A, E, {0: 0, 1: 1}).is_valid() and is_closed(E, (0, 1))
    assert not is_isomorphic(A, E)
    assert not separable(fixed_members(members), A, 2)


def test_separable_agrees_with_brute_force():
    cases = [(make_cls(), A, 3) for make_cls in (graph_class, linear_order_class)
             for A in make_cls().members(3)]
    cases += [(fixed_members(members), A, 2)
              for A, members in (HIDDEN_OFF_TUPLE, HIDDEN_ON_TUPLE)]
    # a member interprets a constant on the tuple that the source leaves
    # uninterpreted
    cd = Vocabulary.make(constants=["c", "d"])
    constants = [FiniteStructure(cd, (0,), constants={"c": 0}),
                 FiniteStructure(cd, (0,), constants={"c": 0, "d": 0})]
    cases += [(fixed_members(constants), A, 1) for A in constants]
    # every partial unary function on at most two points, as A and as member
    partial = [unary(tuple(range(n)), {(x,): y for x, y in enumerate(values)
                                       if y is not None})
               for n in range(3)
               for values in itertools.product((None, *range(n)), repeat=n)]
    assert len(partial) == 1 + 2 + 9
    cases += [(fixed_members(partial), A, 2) for A in partial]
    verdicts = []
    for cls, A, bound in cases:
        verdict = separable(cls, A, bound)
        assert verdict == separable_by_brute_force(cls, A, bound), A
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts
