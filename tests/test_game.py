"""The bounded back-and-forth game: the memoised, move-ordered game
against an unmemoised reference, symmetry with partial functions,
classical bounds for chains, refusal of a negative depth, and position
checks for vocabularies with constants, against a search for an
embedding of the generated substructures.  Also the
per-structure memos the position check reads, and the release of the
game's structures when it returns."""

import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from amalgam import backends
from amalgam.backends import (
    GRAPH_VOCAB,
    ORDER_VOCAB,
    chain_structure,
    structure_position_valid,
)
from amalgam.errors import InvalidEmbedding, PreconditionFailed
from amalgam.fraisse import back_and_forth_check
from amalgam.structures import (
    Embedding,
    FiniteStructure,
    Vocabulary,
    relation_mismatch,
    relation_signature,
)
from oracles import planted, position_valid_by_search, reference_game

UNARY_VOCAB = Vocabulary.make(relations={"p": 1}, functions={"f": 1})
CONSTANT_ORDER_VOCAB = Vocabulary.make(relations={"lt": 2}, constants=("c",))


def elements(S):
    return list(S.universe)


def counting(checked):
    """``structure_position_valid`` that appends each checked pair set."""
    def position_valid(M, N, pos_m, pos_n):
        checked.append(frozenset(zip(pos_m, pos_n)))
        return structure_position_valid(M, N, pos_m, pos_n)
    return position_valid


def random_order(rng, n):
    universe = rng.sample(range(10), n)
    rank = rng.sample(universe, n)
    lt = {(x, y) for i, x in enumerate(rank) for y in rank[i + 1:]}
    return FiniteStructure(ORDER_VOCAB, universe, {"lt": lt})


def random_graph(rng, n):
    universe = rng.sample(range(10), n)
    edges = set()
    for x, y in itertools.combinations(universe, 2):
        if rng.random() < 0.5:
            edges |= {(x, y), (y, x)}
    return FiniteStructure(GRAPH_VOCAB, universe, {"adj": edges})


def relabelled(rng, S):
    """An isomorphic copy of S on fresh ids."""
    rename = dict(zip(S.universe, rng.sample(range(10, 20), S.size)))
    return FiniteStructure(
        S.vocabulary, [rename[x] for x in S.universe],
        {name: {tuple(rename[x] for x in t) for t in tuples}
         for name, tuples in S.relations.items()},
        {name: {tuple(rename[x] for x in args): rename[v]
                for args, v in table.items()}
         for name, table in S.functions.items()})


def random_unary(rng, n):
    """A unary predicate and a partial unary function."""
    universe = rng.sample(range(10), n)
    p = {(x,) for x in universe if rng.random() < 0.5}
    f = {(x,): rng.choice(universe) for x in universe if rng.random() < 0.6}
    return FiniteStructure(UNARY_VOCAB, universe, {"p": p}, {"f": f})


@pytest.mark.parametrize("make", [random_order, random_graph, random_unary])
def test_memoised_game_agrees_with_reference_and_checks_each_pair_set_once(
        make):
    rng = random.Random(make.__name__)
    outcomes = set()
    total = reference_total = 0
    for _ in range(24):
        M = make(rng, rng.randint(1, 4))
        N = relabelled(rng, M) if rng.random() < 0.5 else \
            make(rng, rng.randint(1, 4))
        for depth in range(4):
            checked, reference_checked = [], []
            got = back_and_forth_check(M, N, depth, elements,
                                       counting(checked))
            want = reference_game(M, N, depth, elements,
                                  counting(reference_checked))
            assert got == want, (M, N, depth)
            assert len(checked) == len(set(checked)), (M, N, depth)
            total += len(checked)
            reference_total += len(set(reference_checked))
            outcomes.add(got)
    assert outcomes == {True, False}
    # the move order may reach a pair set the reference never checks, so
    # one case may check more; over the family the game checks fewer
    assert total < reference_total


def test_game_with_a_partial_function_is_symmetric():
    vocab = Vocabulary.make(functions={"f": 1})
    undefined = FiniteStructure(vocab, (0,), functions={"f": {}})
    defined = FiniteStructure(vocab, (0,), functions={"f": {(0,): 0}})
    for M, N in ((undefined, defined), (defined, undefined)):
        assert not structure_position_valid(M, N, (0,), (0,))
        assert not back_and_forth_check(M, N, 1, elements,
                                        structure_position_valid)
    rng = random.Random("symmetric")
    outcomes = set()
    for _ in range(24):
        M = random_unary(rng, rng.randint(1, 4))
        N = random_unary(rng, rng.randint(1, 4))
        for depth in range(4):
            held = back_and_forth_check(M, N, depth, elements,
                                        structure_position_valid)
            assert held == back_and_forth_check(N, M, depth, elements,
                                                structure_position_valid)
            outcomes.add(held)
    assert outcomes == {True, False}


def test_memoised_game_checks_fewer_positions_than_reference():
    M, N = chain_structure(5), chain_structure(5, start=10)
    checked, reference_checked = [], []
    assert back_and_forth_check(M, N, 3, elements, counting(checked))
    assert reference_game(M, N, 3, elements, counting(reference_checked))
    assert len(checked) < len(set(reference_checked)) < len(reference_checked)


def test_move_order_keeps_the_chain_game_small():
    # 8,120 pair sets without move ordering
    M, N = chain_structure(8), chain_structure(8, start=10)
    checked = []
    assert back_and_forth_check(M, N, 3, elements, counting(checked))
    assert len(checked) < 400


@pytest.mark.parametrize("k, sizes", [(1, range(4)), (2, range(6)),
                                      (3, range(9))])
def test_chains_equivalent_iff_equal_or_both_long(k, sizes):
    long = 2 ** k - 1
    for n, m in itertools.combinations_with_replacement(sizes, 2):
        held = back_and_forth_check(chain_structure(n),
                                    chain_structure(m, start=20), k,
                                    elements, structure_position_valid)
        assert held == (n == m or min(n, m) >= long), (k, n, m)


@pytest.mark.parametrize("n, held", [(14, False), (15, True)])
def test_chains_at_depth_4_split_at_15_points(n, held):
    # the boundary of the bound above at k = 4, where 2**4 - 1 = 15
    assert back_and_forth_check(chain_structure(n),
                                chain_structure(n + 1, start=20), 4,
                                elements, structure_position_valid) is held


@pytest.mark.parametrize("depth", [-1, -3])
def test_a_negative_depth_is_refused_before_any_check(depth):
    M, N = chain_structure(3), chain_structure(4, start=10)
    for first, second in ((M, N), (N, M), (M, M)):
        checked = []
        with pytest.raises(PreconditionFailed) as caught:
            back_and_forth_check(first, second, depth, elements,
                                 counting(checked))
        assert caught.value.clause == "game"
        assert checked == []


def constant_chain(c):
    """Three-point order 0 < 1 < 2 with the constant ``c`` at ``c``, or
    uninterpreted when ``c`` is None."""
    return FiniteStructure(CONSTANT_ORDER_VOCAB, (0, 1, 2),
                           {"lt": {(0, 1), (0, 2), (1, 2)}},
                           constants={} if c is None else {"c": c})


def test_constants_are_matched_in_every_position():
    middle, bottom = constant_chain(1), constant_chain(0)
    assert structure_position_valid(middle, middle, (), ())
    assert structure_position_valid(middle, bottom, (), ())
    assert back_and_forth_check(middle, middle, 2, elements,
                                structure_position_valid)
    # The constant may be picked, but only against its namesake.
    assert structure_position_valid(middle, bottom, (1,), (0,))
    assert not structure_position_valid(middle, bottom, (1,), (2,))
    assert not structure_position_valid(middle, bottom, (0,), (0,))
    # Below the middle constant there is a point, below the bottom one none.
    assert not back_and_forth_check(middle, bottom, 1, elements,
                                    structure_position_valid)


def test_a_constant_only_one_side_interprets_refuses_both_ways():
    plain = FiniteStructure(CONSTANT_ORDER_VOCAB, (0, 1), {"lt": {(0, 1)}})
    named = FiniteStructure(CONSTANT_ORDER_VOCAB, (0, 1), {"lt": {(0, 1)}},
                            constants={"c": 0})
    for M, N in ((plain, named), (named, plain)):
        for pos in ((), (0,), (1,), (0, 1)):
            assert structure_position_valid(M, N, pos, pos) is False
            assert position_valid_by_search(M, N, pos, pos) is False
    assert structure_position_valid(plain, plain, (0,), (0,))
    assert structure_position_valid(named, named, (0,), (0,))


def test_picks_of_unequal_length_refuse_both_ways():
    # zip would pair (0, 1) with (0,) alone, and f(0) = 1 would then
    # extend the map to 1 -> 5, an isomorphism of the generated parts
    M = FiniteStructure(UNARY_VOCAB, (0, 1), functions={"f": {(0,): 1, (1,): 1}})
    N = FiniteStructure(UNARY_VOCAB, (0, 5), functions={"f": {(0,): 5, (5,): 5}})
    assert structure_position_valid(M, N, (0, 1), (0,)) is False
    assert structure_position_valid(N, M, (0,), (0, 1)) is False
    assert position_valid_by_search(M, N, (0, 1), (0,)) is False
    assert position_valid_by_search(N, M, (0,), (0, 1)) is False
    assert structure_position_valid(M, N, (0,), (0,))


def test_structures_over_different_vocabularies_have_no_valid_position():
    order = chain_structure(3)
    graph = FiniteStructure(GRAPH_VOCAB, (0, 1, 2), {"adj": {(0, 1), (1, 0)}})
    for M, N in ((order, graph), (graph, order)):
        for pos in ((), (0,)):
            assert structure_position_valid(M, N, pos, pos) is False


def oracle_cases():
    """Pairs of structures: random orders, graphs and unary structures
    (half of them against a relabelled copy), and the constant chains."""
    for make in (random_order, random_graph, random_unary):
        rng = random.Random(f"oracle {make.__name__}")
        for _ in range(8):
            M = make(rng, rng.randint(1, 4))
            yield M, relabelled(rng, M) if rng.random() < 0.5 else \
                make(rng, rng.randint(1, 4))
    for c, d in itertools.product((None, 0, 1, 2), repeat=2):
        yield constant_chain(c), constant_chain(d)


def test_position_check_agrees_with_embedding_search():
    outcomes = set()
    for M, N in oracle_cases():
        for k in range(4):
            for pos_m in itertools.combinations(M.universe, k):
                for pos_n in itertools.permutations(N.universe, k):
                    got = structure_position_valid(M, N, pos_m, pos_n)
                    assert got == position_valid_by_search(
                        M, N, pos_m, pos_n), (M, N, pos_m, pos_n)
                    outcomes.add(got)
    assert outcomes == {True, False}


def unary_disagreements(position_valid):
    """The positions of the ``random_unary`` cases of ``oracle_cases`` on
    which ``position_valid`` and the embedding search disagree, and how
    many positions there were."""
    disagree, total = [], 0
    for M, N in oracle_cases():
        if M.vocabulary != UNARY_VOCAB:
            continue
        for k in range(4):
            for pos_m in itertools.combinations(M.universe, k):
                for pos_n in itertools.permutations(N.universe, k):
                    total += 1
                    if position_valid(M, N, pos_m, pos_n) != \
                            position_valid_by_search(M, N, pos_m, pos_n):
                        disagree.append((M, N, pos_m, pos_n))
    return disagree, total


def test_the_embedding_check_decides_clashes_and_collisions(monkeypatch):
    refusals = Counter()

    class Recording(Embedding):
        def validate(self):
            try:
                super().validate()
            except InvalidEmbedding as err:
                refusals[str(err).split(" at ")[0]] += 1
                raise

    monkeypatch.setattr(backends, "Embedding", Recording)
    disagree, total = unary_disagreements(structure_position_valid)
    assert not disagree and total > 200
    # the extended map's image clashes and collisions reach the one verdict
    assert refusals["function f not matched"] and \
        refusals["map not injective"], refusals
    monkeypatch.undo()
    mutant = planted(structure_position_valid,
                     "return Embedding(sub_m, sub_n, mapping).is_valid()",
                     "return True")
    assert unary_disagreements(mutant)[0]


def test_relation_disagreement_is_refused_before_any_closure(monkeypatch):
    built = []

    def generate_substructure(M, X):
        built.append(M)
        return real(M, X)

    real = backends.generate_substructure
    monkeypatch.setattr(backends, "generate_substructure",
                        generate_substructure)
    M = chain_structure(3)
    # 0 < 1 in M, but the partner of 0 lies above the partner of 1
    assert not structure_position_valid(M, M, (0, 1), (1, 0))
    assert built == []
    assert structure_position_valid(M, M, (0, 1), (0, 1))
    assert built == [M, M]


def test_relation_signatures_are_equal_iff_no_relation_mismatch():
    rng = random.Random("signatures")
    outcomes, repeated = set(), False
    for M, N in oracle_cases():
        # both sides' constants lead the lists, as in the position check
        lead_m = tuple(M.constants.values())
        lead_n = tuple(N.constants.values())
        if len(lead_m) != len(lead_n):
            lead_m = lead_n = ()
        for _ in range(30):
            k = rng.randint(0, 4)
            points = lead_m + tuple(rng.choices(M.universe, k=k))
            images = lead_n + tuple(rng.choices(N.universe, k=k))
            repeated |= len(set(points)) < len(points)
            same = relation_signature(M, points) == \
                relation_signature(N, images)
            assert same == (relation_mismatch(M, N, points, images) is None), \
                (M, N, points, images)
            outcomes.add(same)
    assert outcomes == {True, False} and repeated


def test_the_game_restricts_once_per_structure_and_generator_set(
        monkeypatch):
    generated, restricted = [], []
    real_generate = backends.generate_substructure
    real_restrict = FiniteStructure.restrict

    def generate_substructure(M, X):
        generated.append((id(M), frozenset(X)))
        return real_generate(M, X)

    def restrict(self, subset):
        restricted.append((id(self), frozenset(subset)))
        return real_restrict(self, subset)

    monkeypatch.setattr(backends, "generate_substructure",
                        generate_substructure)
    monkeypatch.setattr(FiniteStructure, "restrict", restrict)
    M, N = chain_structure(8), chain_structure(8, start=10)
    held = back_and_forth_check(M, N, 3, elements, structure_position_valid)
    # a chain has no functions, so each generator set is its own closure
    assert len(restricted) == len(set(restricted))
    assert set(restricted) == set(generated)
    assert len(generated) > len(restricted)
    assert held == reference_game(M, N, 3, elements, structure_position_valid)


@pytest.mark.parametrize("other", ["chain", "graph"])
def test_the_game_keeps_no_reference_to_its_structures(other):
    """Without the cyclic collector, M dies with the caller's reference.
    The graph refuses the empty position, so the game returns early."""
    M = chain_structure(3)
    N = chain_structure(3, start=10) if other == "chain" else \
        FiniteStructure(GRAPH_VOCAB, (0, 1, 2), {"adj": {(0, 1), (1, 0)}})
    alive = weakref.ref(M)
    gc.disable()
    try:
        held = back_and_forth_check(M, N, 2, elements,
                                    structure_position_valid)
        del M
        assert alive() is None
    finally:
        gc.enable()
    assert held == (other == "chain")
