"""The witnessed-class generic: saturation, determinism, witnesses, games,
and the corpus's isomorphism buckets."""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from amalgam.errors import InvalidEmbedding
from amalgam.fraisse import back_and_forth_check, richness_defect
from amalgam.k1 import (
    ZERO,
    K1Structure,
    P1Element,
    build_member,
    check_free_extension,
    check_K1,
    enumerate_members,
    is_isomorphic_k1,
    minimal_model,
    var,
)
from amalgam.k1 import engine, structure
from amalgam.k1.embeddings import _zero_mask
from amalgam.k1.engine import (
    build_generic_k1,
    corpus,
    invariant_key,
    k1_class,
    k1_position_valid,
    nonoise_check,
)
from amalgam.k1.freepart import conj, disj
from amalgam.k1.structure import enumerate_head_plans
import oracles
from oracles import (
    corpus_by_all_pairs,
    head_plans_in_every_column_order,
    members_in_every_column_order,
    planted,
)
from test_fraisse import pinned_digest
from test_match_search import renamed, rich_value


def test_corpus_members_all_pass_checks():
    for M in corpus(3, trunc=4, max_n_star=1):
        assert check_K1(M).passed


def test_bucketed_corpus_equals_the_all_pairs_scan():
    # every candidate passes at max_n_star <= 1; the last three cases
    # have failing ones, in the stream of every column order (20 of 148,
    # 8 of 51 and 574 of 1,032) and in ``enumerate_members`` (12 of 109,
    # 8 of 51 and 335 of 642)
    failing = [(3, 6, 2), (2, 6, 3), (3, 3, 3)]
    for args in [(bound, 6, max_n_star) for bound in (3, 4, 5)
                 for max_n_star in (0, 1)] + failing:
        got = corpus(*args)
        want = corpus_by_all_pairs(*args)
        assert [M.canonical_key() for M in got] == \
            [M.canonical_key() for M in want], args
    for bound, trunc, max_n_star in failing:
        assert not all(check_K1(M).passed for M in enumerate_members(
            bound, bound, max_n_star, trunc, max_size=bound))


def test_head_plans_are_the_sorted_column_orders():
    # each plan read as the palette indices of its columns
    for p0_count, p2_count, n_star in itertools.product(range(4), range(4),
                                                        range(3)):
        palette = [plan[0] for plan in
                   head_plans_in_every_column_order(p0_count, 1, n_star)]
        indices = lambda plan: tuple(map(palette.index, plan))
        every = [indices(plan) for plan in head_plans_in_every_column_order(
            p0_count, p2_count, n_star)]
        got = [indices(plan) for plan in enumerate_head_plans(
            p0_count, p2_count, n_star)]
        assert got == [i for i in every if list(i) == sorted(i)]
        # every plan is a column permutation of exactly one yielded plan
        assert Counter(got) == Counter(set(tuple(sorted(i)) for i in every))


# the settings at which ``invariant_key`` was checked against
# ``is_isomorphic_k1`` (ROADMAP item 12): (size bound, trunc, max n*)
KEY_SETTINGS = [(5, 6, 1), (3, 6, 0), (4, 6, 2), (3, 6, 3), (6, 6, 1),
                (4, 4, 1)]


def test_corpus_equals_its_dedupe_over_every_column_order(monkeypatch):
    def keys(members):
        return [M.canonical_key() for M in members]

    want = {}
    with monkeypatch.context() as patch:
        patch.setattr(engine, "enumerate_members",
                      members_in_every_column_order)
        for args in KEY_SETTINGS:
            want[args] = keys(corpus(*args))

    def agrees():
        return all(keys(corpus(*args)) == want[args]
                   for args in KEY_SETTINGS)

    assert agrees()
    # losing the plans with two equal columns, and yielding each sorted
    # plan reversed (isomorphic candidates on other ids), both show
    for old, new in [("combinations_with_replacement(", "combinations("),
                     ("for heads in combo]", "for heads in combo[::-1]]")]:
        with monkeypatch.context() as patch:
            patch.setattr(structure, "enumerate_head_plans",
                          planted(enumerate_head_plans, old, new))
            assert not agrees(), new


def record_calls(monkeypatch, name):
    """Replace ``engine.<name>`` by a wrapper that records its first
    argument on each call, and return the record."""
    seen = []
    original = getattr(engine, name)

    def wrapper(M, *rest):
        seen.append(M)
        return original(M, *rest)

    monkeypatch.setattr(engine, name, wrapper)
    return seen


def test_isomorphs_are_rejected_before_the_membership_check(monkeypatch):
    # an unwitnessed copy fails check_K1 yet matches its original, so the
    # corpus compares it with a kept member and never checks it
    candidates = enumerate_members(3, 3, 1, 6, max_size=3)
    unwitnessed = [replace(M, witness=None) for M in candidates]
    assert not any(check_K1(M).passed for M in unwitnessed)
    stream = [M for pair in zip(candidates, unwitnessed) for M in pair]
    monkeypatch.setattr(engine, "enumerate_members", lambda *a, **k: stream)
    monkeypatch.setattr(oracles, "members_in_every_column_order",
                        lambda *a, **k: stream)
    checked = record_calls(monkeypatch, "check_K1")
    compared = record_calls(monkeypatch, "is_isomorphic_k1")
    members = corpus(3, 6, 1)
    assert [M.canonical_key() for M in members] == \
        [M.canonical_key() for M in corpus_by_all_pairs(3, 6, 1)]
    assert len(checked) == len(members)
    assert all(any(M is seen for seen in compared) for M in unwitnessed)
    assert not any(M is seen for M in unwitnessed for seen in checked)


def test_corpus_checks_only_the_members_it_keeps(monkeypatch):
    checked = record_calls(monkeypatch, "check_K1")
    compared = record_calls(monkeypatch, "is_isomorphic_k1")
    members = corpus(5, 6, 1)
    assert len(members) == len(checked) == 125
    assert [id(M) for M in checked] == [id(M) for M in members]
    # the only isomorphs left are the threshold twins: n* = 1 with every
    # head a bare fresh generator, which matches its kept n* = 0 twin
    twins = [build_member(p0_count, p2_count, 1, 6,
                          [[((), True)]] * p2_count)
             for p0_count in range(6) for p2_count in range(1, 6 - p0_count)]
    assert len(compared) == len(twins) == 15
    assert [(M.canonical_key(), M.witness) for M in compared] == \
        [(T.canonical_key(), T.witness) for T in twins]
    kept = {M.canonical_key(): M for M in members}
    for T in twins:
        twin = kept[build_member(len(T.p0), len(T.p2), 0, 6).canonical_key()]
        assert twin.witness.n_star == 0 and is_isomorphic_k1(T, twin)


def test_invariant_key_ignores_ids_and_orders():
    rng = random.Random(41)
    compared = 0
    for p0_count, p2_count, n_star in itertools.product((0, 1, 2), (1, 2), (0, 1)):
        for plan in head_plans_in_every_column_order(p0_count, p2_count,
                                                     n_star):
            M = build_member(p0_count, p2_count, n_star, 6, plan)
            N = build_member(p0_count, p2_count, n_star, 6, plan, start_id=50)
            p0, p2 = list(M.p0), list(M.p2)
            rng.shuffle(p0)
            rng.shuffle(p2)
            P = replace(M, p0=tuple(p0), p2=tuple(p2))
            assert invariant_key(M) == invariant_key(N) == invariant_key(P)
            compared += 1
    assert compared == 50


def test_isomorphic_candidates_share_a_key():
    candidates = members_in_every_column_order(4, 4, 1, 6, max_size=4)
    accepted = 0
    for A, B in itertools.combinations(candidates, 2):
        if is_isomorphic_k1(A, B):
            assert invariant_key(A) == invariant_key(B)
            accepted += 1
    assert accepted > 50


def rich_member(rng, p0_count, p2_count, trunc):
    """A structure whose values are random ``rich_value``s over its atoms
    and four generators."""
    atoms, gens = range(p0_count), range(10, 14)
    p0 = tuple(range(50, 50 + p0_count))
    p2 = tuple(range(60, 60 + p2_count))
    g1 = {a: P1Element(1 << atom, ZERO) for a, atom in zip(p0, atoms)}
    f = {(n, c): rich_value(rng, atoms, gens)
         for c in p2 for n in range(trunc)}
    return K1Structure(trunc, p0, p2, tuple(atoms), tuple(gens), g1, f)


def renamed_member(rng, M):
    """``M`` on fresh ids throughout, with its P0 and P2 orders reversed."""
    cells = [(n, c) for c in M.p2 for n in range(M.trunc)]
    values = [M.g1[a] for a in M.p0] + [M.f[cell] for cell in cells]
    carrier, images = renamed(rng, values, M.atom_ids, M.gen_ids)
    g1 = {a + 20: x for a, x in zip(M.p0, images)}
    f = {(n, c + 20): x for (n, c), x in zip(cells, images[len(M.p0):])}
    return K1Structure(M.trunc, tuple(a + 20 for a in reversed(M.p0)),
                       tuple(c + 20 for c in reversed(M.p2)),
                       carrier.atom_ids, carrier.gen_ids, g1, f)


def is_rich(M):
    """Some value's free part is neither zero nor a bare generator, so
    only the general match path can decide a match out of ``M``; a
    generator shared between values is not richness."""
    return any(x.free.table and (x.free.table != 0b10
                                 or len(x.free.support) != 1)
               for x in M.f.values())


def test_rich_isomorphic_pairs_share_a_key():
    rng = random.Random(23)
    pool = [rich_member(rng, rng.randint(0, 2), rng.randint(1, 2), 2)
            for _ in range(120)]
    renamings = 0
    for M in pool:
        N = renamed_member(rng, M)
        assert is_isomorphic_k1(M, N)
        assert invariant_key(M) == invariant_key(N)
        renamings += is_rich(M)
    accepted = 0
    for A, B in itertools.combinations(pool, 2):
        if is_isomorphic_k1(A, B):
            assert invariant_key(A) == invariant_key(B)
            accepted += is_rich(A) and A.canonical_key() != B.canonical_key()
    assert renamings > 50 and accepted > 20
    # x meet y against x join y: each realizes every sign vector next to z
    x, y, z = var(10), var(11), var(12)
    meet, join = (K1Structure(2, (), (60,), (), (10, 11, 12), {},
                              {(0, 60): P1Element(0, v),
                               (1, 60): P1Element(0, z)})
                  for v in (conj(x, y), disj(x, y)))
    assert is_isomorphic_k1(meet, join)
    assert invariant_key(meet) == invariant_key(join)


def test_corpus_compares_fewer_pairs_than_it_has_candidates(monkeypatch):
    calls = []

    def counting(A, B):
        calls.append(None)
        return is_isomorphic_k1(A, B)

    monkeypatch.setattr(engine, "is_isomorphic_k1", counting)
    members = corpus(4, 6, 1)
    passing = sum(check_K1(M).passed
                  for M in enumerate_members(4, 4, 1, 6, max_size=4))
    assert len(members) < passing == 63
    assert len(calls) < passing


def test_minimal_model_is_the_zero_step_generic():
    g = build_generic_k1(steps=0, bound=2, trunc=4)
    assert g.top.size == 0
    assert not g.free_witness.independent


def test_generic_saturates_at_bound_3():
    g = build_generic_k1(steps=200, bound=3, trunc=6, seed=0)
    cls = k1_class(6, 0)
    assert richness_defect(g.top, cls, 3) == []
    r = check_free_extension(minimal_model(6), g.top, g.free_witness)
    assert r.passed, r.failing()
    assert nonoise_check(g.top).passed


def test_generic_deterministic_per_seed():
    a = build_generic_k1(steps=60, bound=3, trunc=6, seed=3)
    b = build_generic_k1(steps=60, bound=3, trunc=6, seed=3)
    assert a.top.canonical_key() == b.top.canonical_key()
    assert [t.to_dict() for t in a.approximation.tasks] == \
        [t.to_dict() for t in b.approximation.tasks]


DRAIN = 50_000  # the step budget of a tail build that drains


@pytest.mark.parametrize("bound, seed",
                         [(4, seed) for seed in range(4)]
                         + [(3, seed) for seed in range(4)])
def test_tail_ledger_drains(builds, bound, seed):
    g = builds(DRAIN, bound, seed)
    tasks = g.approximation.tasks
    # the loop stopped because the ledger drained, not on the step budget
    assert g.approximation.steps_run == len(tasks) < DRAIN
    assert all(t.status != "pending" and t.resolved_at is not None
               for t in tasks)
    assert richness_defect(g.top, k1_class(6, 0), bound) == []


def has_simple_shape(M):
    """Every free part of M is zero or a bare generator that no other
    value carries, so the simple leaf of ``is_valid_match`` decides every
    match out of M."""
    return _zero_mask(list(M.g1.values()) + list(M.f.values())) is not None


@pytest.mark.parametrize("seed", range(4))
def test_engine_builds_keep_the_simple_shape(builds, seed):
    # the bound-3 corpus members the builds enumerate, and every
    # structure along the bound-3 tail drain of test_tail_ledger_drains
    # and along a 60-step head build: the seed model, the extensions
    # that realize members, and free amalgams
    tail, head = builds(DRAIN, 3, seed), builds(60, 3, seed, 1)
    chain = tail.approximation.chain + head.approximation.chain
    assert len(chain) > 2 and all(map(has_simple_shape, chain))
    assert all(map(has_simple_shape, corpus(3, 6, 0) + corpus(3, 6, 1)))


def test_two_defect_free_runs_play_the_game():
    seeds = (1, 2)
    tops = []
    cls = k1_class(6, 0)
    for s in seeds:
        g = build_generic_k1(steps=200, bound=3, trunc=6, seed=s)
        assert richness_defect(g.top, cls, 3) == []
        tops.append(g.top)
    M, N = tops
    elements = lambda S: list(S.p0) + list(S.p2)
    assert back_and_forth_check(M, M, 3, elements, k1_position_valid)
    assert back_and_forth_check(M, N, 3, elements, k1_position_valid)


# ``pinned_digest`` of the drained tail builds at bounds 3 and 4 and of
# the 60-step head builds (bound 3, max n* 1), keyed by (steps, bound,
# max n*, seed): any change to a ledger or a top shows here
K1_PINS = {
    (DRAIN, 3, 0, 0): "aeb9c1e118bdcf13", (DRAIN, 3, 0, 1): "3319de1389fb0a02",
    (DRAIN, 3, 0, 2): "d6dbdfa17b60649e", (DRAIN, 3, 0, 3): "26573ece617aed77",
    (DRAIN, 4, 0, 0): "3452b54df0d6dbb7", (DRAIN, 4, 0, 1): "25b4f505d3f943d1",
    (DRAIN, 4, 0, 2): "9bae2c30f0ed7f0b", (DRAIN, 4, 0, 3): "90cb299448b7c5ad",
    (60, 3, 1, 0): "6941fe8885bf5e52", (60, 3, 1, 1): "77fcd4cee4d970ce",
    (60, 3, 1, 2): "c3c8ec4564048f86", (60, 3, 1, 3): "bdd4992629eb8b8a",
}


@pytest.mark.parametrize("steps, bound, max_n_star, seed", sorted(K1_PINS))
def test_k1_builds_equal_their_pinned_digests(builds, steps, bound,
                                               max_n_star, seed):
    g = builds(steps, bound, seed, max_n_star)
    assert pinned_digest(g.approximation) == \
        K1_PINS[steps, bound, max_n_star, seed]


@pytest.fixture(scope="module")
def drained_tops(builds):
    """The tops of the drained tail ledgers at bound 3, seeds 0-3, and at
    bound 4, seeds 0 and 2."""
    return {(bound, seed): builds(DRAIN, bound, seed).top
            for bound, seed in [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0),
                                (4, 2)]}


def plays(M, N, depth):
    """The game value at ``depth``, which must not depend on the order of
    the two structures."""
    elements = lambda S: list(S.p0) + list(S.p2)
    held = back_and_forth_check(M, N, depth, elements, k1_position_valid)
    assert held == back_and_forth_check(N, M, depth, elements,
                                        k1_position_valid)
    return held


def test_drained_bound_3_tops_hold_at_depth_3(drained_tops):
    # every pair holds at depth 3; at depth 4 only seeds 1 and 3 do
    for i, j in itertools.combinations(range(4), 2):
        M, N = drained_tops[3, i], drained_tops[3, j]
        assert plays(M, N, 3)
        assert plays(M, N, 4) == ((i, j) == (1, 3))


def test_drained_bound_4_tops_hold_at_depth_4(drained_tops):
    assert plays(drained_tops[4, 0], drained_tops[4, 2], 4)


def test_game_rejects_structures_of_different_shape():
    g = build_generic_k1(steps=60, bound=3, trunc=6, seed=1)
    tiny = minimal_model(6)
    elements = lambda S: list(S.p0) + list(S.p2)
    # the duplicator dies at depth 1: the minimal model has no response
    assert not back_and_forth_check(g.top, tiny, 1, elements, k1_position_valid)


def test_positions_across_truncations_never_match():
    M = build_member(1, 1, 0, trunc=4)
    N = build_member(1, 1, 0, trunc=3, start_id=50)
    pos_m, pos_n = M.p0 + M.p2, N.p0 + N.p2
    assert k1_position_valid(M, N, pos_m, pos_n) is False
    assert k1_position_valid(N, M, pos_n, pos_m) is False


def test_picks_of_unequal_length_never_match():
    A = build_member(1, 1, 0, trunc=4)
    B = build_member(1, 1, 0, trunc=4, start_id=50)
    assert k1_position_valid(A, B, (A.p0[0], A.p2[0]), (B.p0[0],)) is False
    assert k1_position_valid(B, A, (B.p0[0],), (A.p0[0], A.p2[0])) is False
    assert k1_position_valid(A, B, (A.p0[0],), (B.p0[0],))


def test_a_repeated_pick_never_matches():
    A = build_member(2, 1, 0, trunc=4)
    B = build_member(2, 1, 0, trunc=4, start_id=50)
    assert A.p0 == (0, 1) and B.p0 == (50, 51)
    assert k1_position_valid(A, B, (0, 0), (50, 51)) is False
    assert k1_position_valid(B, A, (50, 51), (0, 0)) is False
    assert k1_position_valid(A, B, (0, 1), (50, 50)) is False
    assert k1_position_valid(B, A, (50, 50), (0, 1)) is False
    assert k1_position_valid(A, B, (0, 1), (50, 51))
    assert k1_position_valid(B, A, (50, 51), (0, 1))


def test_positions_refuse_named_generators():
    M = build_member(1, 1, 0, trunc=3)
    g = max(M.all_ids()) + 1
    named = replace(M, gen_ids=M.gen_ids + (g,), named_gens=(g,))
    pos = M.p0 + M.p2
    assert k1_position_valid(M, M, pos, pos)
    with pytest.raises(InvalidEmbedding):
        k1_position_valid(named, M, pos, pos)
    with pytest.raises(InvalidEmbedding):
        k1_position_valid(M, named, pos, pos)


def test_head_fragment_converges_in_the_ledger_sense():
    g = build_generic_k1(steps=120, bound=3, trunc=6, seed=0, max_n_star=1)
    resolved = [t for t in g.approximation.tasks if t.status != "pending"]
    assert resolved
    assert all(t.resolved_at is not None for t in resolved)
    # traces of value columns grow under head-fragment demands
    top = g.top
    assert any(v.atomic for v in top.f.values())
    r = check_free_extension(minimal_model(6), top, g.free_witness)
    assert r.passed, r.failing()
