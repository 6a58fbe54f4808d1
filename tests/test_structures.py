"""Core structures: closure, embedding enumeration, isomorphism, round-trip."""

import dataclasses
import itertools
import json
import random

import pytest

from amalgam.errors import (
    CLOSURE_CAP,
    CapExceeded,
    InvalidEmbedding,
    VocabularyMismatch,
)
from amalgam.serialize import dumps_canonical, structure_from_dict, structure_to_dict
from amalgam.structures import (
    Embedding,
    FiniteStructure,
    Vocabulary,
    enumerate_embeddings,
    generate_substructure,
    is_isomorphic,
    relation_mismatch,
)
from oracles import (
    compose,
    embedding_valid_by_apply,
    identity,
    restrict_by_filter,
)

GRAPH = Vocabulary.make(relations={"E": 2})
ONE_FN = Vocabulary.make(functions={"f": 2})


def edge_structure(universe, edges, vocab=GRAPH):
    return FiniteStructure(vocab, tuple(universe), {"E": set(edges)})


# ---------------------------------------------------------------------------
# generate_substructure
# ---------------------------------------------------------------------------


def test_closure_without_functions_is_the_set_itself():
    M = edge_structure([0, 1, 2], {(0, 1)})
    S = generate_substructure(M, {0})
    assert S.universe == (0,)


def test_closure_of_empty_set_is_constants():
    vocab = Vocabulary.make(constants=["c"])
    M = FiniteStructure(vocab, (0, 1, 2), constants={"c": 2})
    S = generate_substructure(M, set())
    assert S.universe == (2,)


def test_closure_iterates_function_images_to_fixpoint():
    # f(a,b) = c on a 6-element structure: closure of {a,b} picks up c
    M = FiniteStructure(ONE_FN, (0, 1, 2, 3, 4, 5),
                        functions={"f": {(0, 1): 2, (2, 2): 3, (4, 4): 5}})
    S = generate_substructure(M, {0, 1})
    # oracle: naive repeated-image iteration
    expected = {0, 1}
    while True:
        new = set(expected)
        for args, v in M.functions["f"].items():
            if set(args) <= expected:
                new.add(v)
        if new == expected:
            break
        expected = new
    assert set(S.universe) == expected == {0, 1, 2, 3}


def test_closure_is_idempotent_and_monotone():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(1, 6)
        universe = tuple(range(n))
        table = {}
        for args in itertools.product(universe, repeat=2):
            if rng.random() < 0.3:
                table[args] = rng.randrange(n)
        M = FiniteStructure(ONE_FN, universe, functions={"f": table})
        X = {x for x in universe if rng.random() < 0.5}
        Y = X | ({rng.randrange(n)} if rng.random() < 0.7 else set())
        SX = generate_substructure(M, X)
        assert set(generate_substructure(M, set(SX.universe)).universe) == set(SX.universe)
        SY = generate_substructure(M, Y)
        assert set(SX.universe) <= set(SY.universe)


def test_closure_cap_raises():
    # f(x, x) = x + 1 forms a chain just longer than the closure cap
    n = CLOSURE_CAP + 2
    table = {(i, i): i + 1 for i in range(n - 1)}
    M = FiniteStructure(ONE_FN, tuple(range(n)), functions={"f": table})
    with pytest.raises(CapExceeded) as err:
        generate_substructure(M, {0})
    assert err.value.cap == "CLOSURE_CAP"
    # an overflow memoises nothing, so it raises again
    with pytest.raises(CapExceeded):
        generate_substructure(M, {0})


def test_generator_collections_of_one_set_share_the_memoised_closure():
    M = FiniteStructure(ONE_FN, (0, 1, 2, 3),
                        functions={"f": {(0, 1): 2, (2, 2): 3}})
    by_set = generate_substructure(M, {1, 0})
    assert by_set.universe == (0, 1, 2, 3)
    assert generate_substructure(M, [0, 1, 0]) == by_set
    assert generate_substructure(M, (1, 0)) is by_set
    # the memo takes no part in equality: an equal structure is another
    # instance, with a memo of its own
    copy = FiniteStructure(ONE_FN, M.universe,
                           functions={"f": dict(M.functions["f"])})
    assert copy == M and hash(copy) == hash(M)
    assert generate_substructure(copy, {0, 1}) is not by_set
    assert generate_substructure(copy, {0, 1}) == by_set


def test_generators_outside_the_universe_raise_on_every_call():
    M = edge_structure([0, 1, 2], {(0, 1)})
    for _ in range(2):
        with pytest.raises(ValueError):
            generate_substructure(M, {0, 5})
    assert generate_substructure(M, {0}).universe == (0,)


# ---------------------------------------------------------------------------
# enumerate_embeddings
# ---------------------------------------------------------------------------


def test_single_point_identity_embedding():
    M = edge_structure([7], set())
    embs = enumerate_embeddings(M, M)
    assert len(embs) == 1 and embs[0].mapping == {7: 7}


def test_edge_into_directed_3cycle_has_three_embeddings():
    A = edge_structure([0, 1], {(0, 1)})
    B = edge_structure([0, 1, 2], {(0, 1), (1, 2), (2, 0)})
    embs = enumerate_embeddings(A, B)
    assert len(embs) == 3
    # brute force over all 6 injections
    count = 0
    for img in itertools.permutations(B.universe, 2):
        e = Embedding(A, B, dict(zip(A.universe, img)))
        if e.is_valid():
            count += 1
    assert count == 3


def test_larger_source_gives_no_embeddings():
    A = edge_structure([0, 1, 2], set())
    B = edge_structure([0, 1], set())
    assert enumerate_embeddings(A, B) == []


def test_vocabulary_mismatch_raises():
    A = edge_structure([0], set())
    B = FiniteStructure(ONE_FN, (0,))
    with pytest.raises(VocabularyMismatch):
        enumerate_embeddings(A, B)


def test_embeddings_agree_with_injection_filter_oracle():
    rng = random.Random(11)
    for _ in range(40):
        na, nb = rng.randint(1, 3), rng.randint(1, 5)
        A = edge_structure(range(na), {
            t for t in itertools.product(range(na), repeat=2) if rng.random() < 0.4
        })
        B = edge_structure(range(nb), {
            t for t in itertools.product(range(nb), repeat=2) if rng.random() < 0.4
        })
        fast = {e.key() for e in enumerate_embeddings(A, B)}
        slow = set()
        for img in itertools.permutations(B.universe, na):
            e = Embedding(A, B, dict(zip(A.universe, img)))
            if e.is_valid():
                slow.add(e.key())
        assert fast == slow


def test_embeddings_respect_functions_and_constants():
    vocab = Vocabulary.make(functions={"s": 1}, constants=["z"])
    A = FiniteStructure(vocab, (0, 1), functions={"s": {(0,): 1}},
                        constants={"z": 0})
    B = FiniteStructure(vocab, (0, 1, 2), functions={"s": {(0,): 1, (1,): 2}},
                        constants={"z": 0})
    embs = enumerate_embeddings(A, B)
    assert [e.mapping for e in embs] == [{0: 0, 1: 1}]


def test_composition_of_embeddings_is_an_embedding():
    A = edge_structure([0, 1], {(0, 1)})
    B = edge_structure([0, 1, 2], {(0, 1), (1, 2), (2, 0)})
    C = edge_structure([0, 1, 2, 3], {(0, 1), (1, 2), (2, 0), (3, 3)})
    for e1 in enumerate_embeddings(A, B):
        for e2 in enumerate_embeddings(B, C):
            compose(e1, e2).validate()


def test_extension_over_fixed_partial_map():
    A = edge_structure([0], set())
    B = edge_structure([0, 1], {(0, 1)})
    M = edge_structure([5, 6, 7], {(5, 6), (6, 7)})
    f = {0: 5}
    # extend A -> M at 5 to B -> M: needs an out-edge from 5
    embs = enumerate_embeddings(B, M, fixed=f)
    assert [e.mapping for e in embs] == [{0: 5, 1: 6}]


# ---------------------------------------------------------------------------
# is_isomorphic
# ---------------------------------------------------------------------------


def test_isomorphic_to_itself():
    B = edge_structure([0, 1, 2], {(0, 1), (1, 2)})
    assert is_isomorphic(B, B)


def test_different_cardinalities_not_isomorphic():
    assert not is_isomorphic(edge_structure([0], set()), edge_structure([0, 1], set()))


def test_a_constant_only_one_side_interprets_breaks_isomorphism():
    vocab = Vocabulary.make(constants=["c", "d"])
    A = FiniteStructure(vocab, (0,), constants={"c": 0})
    B = FiniteStructure(vocab, (0,), constants={"c": 0, "d": 0})
    assert Embedding(A, B, {0: 0}).is_valid()
    assert not is_isomorphic(A, B) and not is_isomorphic(B, A)


def test_relabeled_structures_isomorphic_by_exhaustive_bijection():
    A = edge_structure([0, 1, 2, 3], {(0, 1), (1, 2), (2, 3)})
    B = edge_structure([4, 5, 6, 7], {(7, 5), (5, 6), (6, 4)})
    assert is_isomorphic(A, B)
    found = any(
        Embedding(A, B, dict(zip(A.universe, img))).is_valid()
        for img in itertools.permutations(B.universe)
    )
    assert found


def test_identity_passes_validation():
    M = edge_structure([0, 1], {(0, 1)})
    identity(M).validate()


MIXED = Vocabulary.make(relations={"P": 1, "E": 2, "T": 3},
                        functions={"f": 1}, constants=["c"])


def random_mixed(rng, n, density):
    """A MIXED structure on n points: each relation holds of each tuple
    with probability ``density``, f is partial, c is interpreted."""
    universe = rng.sample(range(20), n)
    relations = {name: {t for t in itertools.product(universe, repeat=arity)
                        if rng.random() < density}
                 for name, arity in MIXED.relations}
    f = {(x,): rng.choice(universe) for x in universe if rng.random() < 0.5}
    return FiniteStructure(MIXED, universe, relations, {"f": f},
                           {"c": rng.choice(universe)})


def test_restrict_agrees_with_the_tuple_filter_on_both_sides_of_its_choice():
    rng = random.Random("restrict")
    products = set()
    for _ in range(200):
        M = random_mixed(rng, rng.randint(1, 6), rng.choice((0.05, 0.9)))
        keep = [M.constants["c"]] + rng.sample(M.universe,
                                               rng.randint(0, M.size))
        assert M.restrict(keep) == restrict_by_filter(M, keep)
        kept = len(set(keep))
        products |= {kept ** arity < len(M.relations[name])
                     for name, arity in MIXED.relations}
    # sparse relations are filtered, dense ones under small subsets are
    # walked through the kept tuples
    assert products == {True, False}


def random_embedding_pairs(rng, count):
    """``count`` maps from a random MIXED structure into itself or into
    a larger one, each injective into the target."""
    for _ in range(count):
        A = random_mixed(rng, rng.randint(1, 3), rng.choice((0.1, 0.5)))
        B = A if rng.random() < 0.5 else random_mixed(
            rng, rng.randint(A.size, 5), rng.choice((0.1, 0.5)))
        yield Embedding(A, B, dict(zip(A.universe,
                                       rng.sample(B.universe, A.size))))


def test_embedding_validity_agrees_with_the_tuple_by_tuple_loop():
    outcomes = set()
    for e in random_embedding_pairs(random.Random("is_valid"), 300):
        got = e.is_valid()
        assert got == embedding_valid_by_apply(e)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_a_relation_failure_names_the_tuple_the_walk_finds():
    """validate compares signatures, and on a mismatch names the first
    relation and tuple of the ``relation_mismatch`` walk."""
    outcomes = set()
    for e in random_embedding_pairs(random.Random("is_valid"), 300):
        A = e.source
        mismatch = relation_mismatch(A, e.target, A.universe,
                                     [e(x) for x in A.universe])
        outcomes.add(mismatch is None)
        try:
            e.validate()
            message = None
        except InvalidEmbedding as error:
            message = str(error)
        if mismatch is None:
            assert message is None or not message.startswith("relation")
        else:
            name, t = mismatch
            assert message == f"relation {name} not matched at {t}"
    assert outcomes == {True, False}


def test_the_stored_element_set_is_the_universe():
    rng = random.Random("elements")
    for _ in range(50):
        M = random_mixed(rng, rng.randint(1, 5), 0.3)
        sub = generate_substructure(
            M, rng.sample(M.universe, rng.randint(0, M.size)))
        for S in (M, sub, M.restrict(sub.universe)):
            assert S._elements == set(S.universe)


def test_the_element_set_takes_no_part_in_equality_hash_or_repr():
    A = edge_structure([0, 1], {(0, 1)})
    B = edge_structure([0, 1], {(0, 1)})
    B._elements = frozenset({7})
    assert A == B and hash(A) == hash(B) and repr(A) == repr(B)
    assert "_elements" not in repr(A)
    [spec] = [f for f in dataclasses.fields(FiniteStructure)
              if f.name == "_elements"]
    assert not (spec.init or spec.repr or spec.compare)


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------


def test_structure_round_trips_bit_exactly():
    vocab = Vocabulary.make(relations={"E": 2}, functions={"f": 1},
                            constants=["c"], index_bound=4)
    M = FiniteStructure(vocab, (0, 1, 2), {"E": {(0, 1)}},
                        {"f": {(0,): 1, (1,): 2}}, {"c": 2})
    doc = structure_to_dict(M)
    text = dumps_canonical(doc)
    M2 = structure_from_dict(json.loads(text))
    assert M == M2
    assert dumps_canonical(structure_to_dict(M2)) == text
