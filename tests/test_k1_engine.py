"""The witnessed-class generic: saturation, determinism, witnesses, games."""

from amalgam.fraisse import back_and_forth_check, richness_defect
from amalgam.k1 import check_K1, check_free_extension, minimal_model
from amalgam.k1.engine import (
    build_generic_k1,
    corpus,
    k1_class,
    k1_position_valid,
    nonoise_check,
)


def test_corpus_members_all_pass_checks():
    for M in corpus(3, trunc=4, max_n_star=1):
        assert check_K1(M).passed


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


def test_tail_ledger_drains_at_bound_4():
    g = build_generic_k1(steps=50_000, bound=4, trunc=6, seed=2)
    tasks = g.approximation.tasks
    # the loop stopped because the ledger drained, not on the step budget
    assert g.approximation.steps_run == len(tasks) < 50_000
    assert all(t.status != "pending" and t.resolved_at is not None
               for t in tasks)
    assert richness_defect(g.top, k1_class(6, 0), 4) == []


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


def test_game_rejects_structures_of_different_shape():
    g = build_generic_k1(steps=60, bound=3, trunc=6, seed=1)
    tiny = minimal_model(6)
    elements = lambda S: list(S.p0) + list(S.p2)
    # the duplicator dies at depth 1: the minimal model has no response
    assert not back_and_forth_check(g.top, tiny, 1, elements, k1_position_valid)


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
