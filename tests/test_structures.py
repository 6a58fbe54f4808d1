"""Core structures: closure, embedding enumeration, isomorphism, round-trip."""

import dataclasses
import itertools
import json
import random

import pytest

from amalgam import structures
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
    embeddings_by_permutation,
    identity,
    planted,
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
    assert [e.key() for e in embs] == \
        [e.key() for e in embeddings_by_permutation(A, B)]


def test_larger_source_gives_no_embeddings():
    A = edge_structure([0, 1, 2], set())
    B = edge_structure([0, 1], set())
    assert enumerate_embeddings(A, B) == []


def test_vocabulary_mismatch_raises():
    A = edge_structure([0], set())
    B = FiniteStructure(ONE_FN, (0,))
    with pytest.raises(VocabularyMismatch):
        enumerate_embeddings(A, B)


def graph_cases(count):
    """``count`` unpinned (kind, A, B, fixed, touching) cases: random
    graphs, A on at most 3 points and B on at most 5."""
    rng = random.Random(11)
    for _ in range(count):
        na, nb = rng.randint(1, 3), rng.randint(1, 5)
        A = edge_structure(range(na), {
            t for t in itertools.product(range(na), repeat=2) if rng.random() < 0.4
        })
        B = edge_structure(range(nb), {
            t for t in itertools.product(range(nb), repeat=2) if rng.random() < 0.4
        })
        yield "graph", A, B, None, None


def test_embeddings_agree_with_injection_filter_oracle():
    mismatches, outcomes = search_mismatches(graph_cases(40))
    assert mismatches == [] and outcomes == {"graph": {True, False}}


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
# enumerate_embeddings against the permutation oracle
# ---------------------------------------------------------------------------


DIFFERENTIAL = Vocabulary.make(relations={"Z": 0, "P": 1, "E": 2, "T": 3},
                               functions={"f": 1, "g": 2}, constants=["c"])


def random_differential(rng, universe, sparse=False):
    """A DIFFERENTIAL structure: each relation holds of each tuple, and
    each function is defined at each argument tuple, with probability
    0.3; c is interpreted on most nonempty universes.  A ``sparse`` one
    holds only the binary relation E, so that no other symbol turns a
    map away."""
    if sparse:
        return FiniteStructure(DIFFERENTIAL, universe, {"E": {
            t for t in itertools.product(universe, repeat=2)
            if rng.random() < 0.3}})
    relations = {name: {t for t in itertools.product(universe, repeat=arity)
                        if rng.random() < 0.3}
                 for name, arity in DIFFERENTIAL.relations}
    functions = {name: {args: rng.choice(universe)
                        for args in itertools.product(universe, repeat=arity)
                        if rng.random() < 0.3}
                 for name, arity in DIFFERENTIAL.functions}
    constants = {"c": rng.choice(universe)} \
        if universe and rng.random() < 0.8 else {}
    return FiniteStructure(DIFFERENTIAL, universe, relations, functions,
                           constants)


def relabelled_part(rng, B):
    """B restricted to a random subset holding its constant, on fresh ids
    listed in a random order: a structure that embeds in B."""
    keep = set(B.constants.values()) | set(
        rng.sample(B.universe, rng.randint(0, min(B.size, 3))))
    part = B.restrict(keep)
    rename = dict(zip(part.universe, rng.sample(range(20, 30), part.size)))
    universe = [rename[x] for x in part.universe]
    rng.shuffle(universe)
    return FiniteStructure(
        DIFFERENTIAL, universe,
        {name: {tuple(rename[x] for x in t) for t in tuples}
         for name, tuples in part.relations.items()},
        {name: {tuple(rename[x] for x in args): rename[v]
                for args, v in table.items()}
         for name, table in part.functions.items()},
        {name: rename[v] for name, v in part.constants.items()})


def differential_cases(count):
    """``count`` (A, B, fixed, touching) cases: A is a relabelled part of
    B or an unrelated random structure; about half the cases pin some
    points of A (to an embedding's images or to random points of B),
    and about half keep only the embeddings touching a random subset of
    B.  Every fourth case is sparse: both sides hold the binary
    relation E alone."""
    rng = random.Random(0)
    for i in range(count):
        sparse = i % 4 == 3
        B = random_differential(
            rng, rng.sample(range(10), rng.randint(0, 5)), sparse)
        A = relabelled_part(rng, B) if B.size and rng.random() < 0.6 else \
            random_differential(rng, rng.sample(range(20, 30),
                                                rng.randint(0, 3)), sparse)
        fixed = touching = None
        if A.size and rng.random() < 0.5:
            pinned = rng.sample(A.universe, rng.randint(1, A.size))
            found = embeddings_by_permutation(A, B)
            if found and rng.random() < 0.5:
                fixed = {x: rng.choice(found)(x) for x in pinned}
            elif len(pinned) <= B.size:
                fixed = dict(zip(pinned, rng.sample(B.universe, len(pinned))))
        if rng.random() < 0.5:
            touching = set(rng.sample(B.universe, rng.randint(0, B.size)))
        yield A, B, fixed, touching


def pin_edge_cases(count):
    """``count`` (kind, A, B, fixed, touching) cases, the kinds in turn.
    Each A is a relabelled part of B, part of it pinned to the images of
    one embedding e, and then one edge case is planted:

    - "key": a pin whose key lies outside A's universe;
    - "image": a pin whose image lies outside B's universe;
    - "shared": two points pinned to one image;
    - "constant": A's constant pinned off B's, or another point pinned
      to B's constant;
    - "forced": a point z other than a function value v of A pinned to
      y, a value of the same function in B.  Wherever the search sends
      the arguments of v to those of y, the entry forces y on v, which
      z holds, so the search must turn the map away.  z is the point
      that e sends to y when there is one other than v.

    No map agrees with the pins of the first four kinds.  The fifth has
    an embedding when z is e's point, and mostly none otherwise."""
    rng = random.Random(1)
    kinds = ("key", "image", "shared", "constant", "forced")
    made = 0
    while made < count:
        kind = kinds[made % len(kinds)]
        B = random_differential(rng, rng.sample(range(10), rng.randint(1, 5)))
        A = relabelled_part(rng, B)
        e = rng.choice(embeddings_by_permutation(A, B))
        fixed = {x: e(x) for x in rng.sample(
            A.universe, rng.randint(0, A.size))}
        forced = [(v, y) for name, table in A.functions.items()
                  for v in table.values() for y in B.functions[name].values()]
        if kind == "key":
            fixed[rng.choice(range(30, 40))] = rng.choice(B.universe)
        elif kind == "image" and A.size:
            fixed[rng.choice(A.universe)] = rng.choice(range(10, 20))
        elif kind == "shared" and A.size > 1:
            y = rng.choice(B.universe)
            fixed.update(dict.fromkeys(rng.sample(A.universe, 2), y))
        elif kind == "constant" and A.constants and A.size > 1:
            c = A.constants["c"]
            if rng.random() < 0.5:
                fixed[c] = rng.choice([y for y in B.universe if y != e(c)])
            else:
                fixed[rng.choice([x for x in A.universe if x != c])] = e(c)
        elif kind == "forced" and forced and A.size > 1:
            v, y = rng.choice(forced)
            z = {e(x): x for x in A.universe}.get(y, v)
            if z == v:
                z = rng.choice([x for x in A.universe if x != v])
            fixed[z] = y
        else:
            continue
        made += 1
        yield kind, A, B, fixed, None


def differential(count):
    """The ``differential_cases``, each led by its kind: pinned or not,
    touching or not."""
    for A, B, fixed, touching in differential_cases(count):
        yield (fixed is not None, touching is not None), A, B, fixed, touching


def search_mismatches(cases, search=enumerate_embeddings):
    """The cases where ``search`` (also with ``first_only``) differs
    from the permutation oracle in the keys it returns or their order,
    and the set of oracle outcomes (some embedding or none) seen for
    each kind of case."""
    mismatches, outcomes = [], {}
    for kind, A, B, fixed, touching in cases:
        want = [e.key() for e in
                embeddings_by_permutation(A, B, fixed, touching)]
        got = [e.key() for e in search(
            A, B, fixed=fixed, touching=touching)]
        first = [e.key() for e in search(
            A, B, fixed=fixed, touching=touching, first_only=True)]
        if got != want or first != want[:1]:
            mismatches.append((A, B, fixed, touching))
        outcomes.setdefault(kind, set()).add(bool(want))
    return mismatches, outcomes


def test_embedding_search_equals_the_permutation_oracle():
    mismatches, outcomes = search_mismatches(differential(400))
    assert mismatches == []
    assert outcomes == {kind: {True, False}
                        for kind in itertools.product((False, True),
                                                      repeat=2)}


def test_pin_edge_cases_equal_the_permutation_oracle():
    mismatches, outcomes = search_mismatches(pin_edge_cases(200))
    assert mismatches == []
    assert outcomes == {"key": {False}, "image": {False}, "shared": {False},
                        "constant": {False}, "forced": {True, False}}


def swapped_lookup(relations, entries, mapping, newly):
    """A planted fault: a feasibility check over every assigned tuple
    that looks up the image of a binary tuple ending at the new point
    with its two points swapped."""
    for arity, tuples, b_tuples in relations:
        for t in itertools.product(mapping, repeat=arity):
            image = tuple(mapping[x] for x in t)
            if arity == 2 and t[0] != t[1] == newly:
                image = image[::-1]
            if (t in tuples) != (image in b_tuples):
                return False
    return True


def test_the_differential_catches_a_swapped_tuple_lookup(monkeypatch):
    monkeypatch.setattr(structures, "_consistent_so_far", swapped_lookup)
    mismatches, _ = search_mismatches(differential(400))
    assert mismatches


def test_the_differential_catches_a_search_that_checks_nothing(monkeypatch):
    """The search is the only check: no leaf validation hides a
    feasibility check that passes every partial map."""
    monkeypatch.setattr(structures, "_consistent_so_far", lambda *_: True)
    mismatches, _ = search_mismatches(differential(400))
    assert mismatches


BINARY_CHECK = ("if ((newly, x) in tuples) != ((image, y) in b_tuples) or \\\n"
                "                        x != newly and \\\n"
                "                        ((x, newly) in tuples) != "
                "((y, image) in b_tuples):")


def binary_half_caught(monkeypatch, kept_half):
    """Whether the graph cases and the differential cases each catch
    the binary branch cut down to ``kept_half``."""
    monkeypatch.setattr(structures, "_consistent_so_far", planted(
        structures._consistent_so_far, BINARY_CHECK, kept_half))
    return [bool(search_mismatches(cases)[0])
            for cases in (graph_cases(40), differential(400))]


def test_the_graph_cases_catch_a_binary_check_without_its_back_half(
        monkeypatch):
    """The binary branch checks (newly, x) for every assigned x and
    (x, newly) for every x placed earlier; a branch that drops the
    second half misses the tuples that end at the new point.  The graph
    cases catch it, and so do the sparse differential cases, where no
    symbol but the edges turns a map away."""
    assert binary_half_caught(
        monkeypatch,
        "if ((newly, x) in tuples) != ((image, y) in b_tuples):") == \
        [True, True]


def test_the_cases_catch_a_binary_check_without_its_front_half(monkeypatch):
    """A branch that keeps only the (x, newly) half misses the tuples
    that start at the new point."""
    assert binary_half_caught(
        monkeypatch,
        "if x != newly and ((x, newly) in tuples) != "
        "((y, image) in b_tuples):") == [True, True]


def test_the_pin_edge_cases_catch_a_search_that_does_not_vet_its_pins():
    """Without the pin vetting, a pin outside either universe reaches a
    leaf that no longer validates the map."""
    mutant = planted(
        enumerate_embeddings,
        "if x not in A._elements or y not in B._elements \\\n"
        "                or mapping.get(x, y) != y:",
        "if y is None or mapping.get(x, y) != y:")
    mismatches, _ = search_mismatches(pin_edge_cases(200), mutant)
    assert mismatches


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


def restrict_cases(count):
    """``count`` (M, keep) cases: a sparse or dense MIXED structure and a
    random subset holding its constant, listed with repeats."""
    rng = random.Random("restrict")
    for _ in range(count):
        M = random_mixed(rng, rng.randint(1, 6), rng.choice((0.05, 0.9)))
        yield M, [M.constants["c"]] + rng.sample(M.universe,
                                                 rng.randint(0, M.size))


def restrict_faults(M, keep):
    """What is wrong with ``M.restrict(keep)``, which skips ``validate``:
    a result other than the tuple filter's, one that ``validate``
    refuses, an element set other than its universe's, memos that are
    not fresh and empty, or no ``ValueError`` once the constant is
    dropped."""
    faults = []
    sub = M.restrict(keep)
    if sub != restrict_by_filter(M, keep):
        faults.append("differs from the tuple filter")
    if sub._elements != frozenset(sub.universe):
        faults.append("element set is not the universe's")
    if sub._substructures or sub._signatures or \
            sub._substructures is M._substructures or \
            sub._signatures is M._signatures:
        faults.append("memos are not fresh and empty")
    try:
        sub.validate()
    except ValueError as error:
        faults.append(f"invalid: {error}")
    try:
        M.restrict(set(keep) - {M.constants["c"]})
        faults.append("a dropped constant does not raise")
    except ValueError:
        pass
    return faults


def test_restrict_agrees_with_the_tuple_filter_on_both_sides_of_its_choice():
    products = set()
    for M, keep in restrict_cases(200):
        assert restrict_faults(M, keep) == []
        kept = len(set(keep))
        products |= {kept ** arity < len(M.relations[name])
                     for name, arity in MIXED.relations}
    # sparse relations are filtered, dense ones under small subsets are
    # walked through the kept tuples
    assert products == {True, False}


def test_the_restrict_checks_catch_entries_valued_outside_the_subset(
        monkeypatch):
    """With no ``validate`` on the result, only these checks stand
    between a kept entry whose value was dropped and the caller."""
    mutant = planted(FiniteStructure.restrict,
                     "if keep.issuperset(args) and v in keep}",
                     "if keep.issuperset(args)}")
    monkeypatch.setattr(FiniteStructure, "restrict", mutant)
    faults = [restrict_faults(M, keep) for M, keep in restrict_cases(200)]
    assert any(faults)


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


def test_vocabulary_arity_tables_stay_out_of_equality_hash_and_repr():
    a = Vocabulary.make({"R": 2, "S": 1}, {"f": 3}, ["c"], index_bound=2)
    b = Vocabulary.make({"S": 1, "R": 2}, {"f": 3}, ["c"], index_bound=2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != Vocabulary.make({"R": 1, "S": 1}, {"f": 3}, ["c"], 2)
    assert repr(a) == ("Vocabulary(relations=(('R', 2), ('S', 1)), "
                       "functions=(('f', 3),), constants=('c',), "
                       "index_bound=2)")
    assert (a.relation_arity("R"), a.relation_arity("S"),
            a.function_arity("f")) == (2, 1, 3)
    # unknown names, and names of the other kind, raise KeyError
    for lookup, name in ((a.relation_arity, "T"), (a.function_arity, "g"),
                         (a.relation_arity, "f"), (a.function_arity, "R"),
                         (a.relation_arity, "c")):
        with pytest.raises(KeyError):
            lookup(name)
