"""The r-dimensional class: closure, independence, membership, frugal
amalgamation, survey-vs-oracle agreement."""

import itertools
import random

import pytest

from amalgam.errors import FrugalImpossible, NoAmalgam
from amalgam.kdim import (
    KConfiguration,
    KrStructure,
    check_membership,
    check_structure_membership,
    closure,
    completion_solutions,
    frugal_amalgamate,
    max_independent_size,
    random_member,
    survey_k_disjoint_ap,
)

TRUNC = 4


def all_class_zero(r, universe):
    M = KrStructure(r, TRUNC, tuple(universe))
    for t in M.tuples():
        M.classes[t] = 0
    return M


def test_empty_structure_is_a_member():
    M = KrStructure(1, TRUNC, ())
    assert check_membership(M).passed
    assert max_independent_size(M, 3) == 0


def test_closure_laws():
    M = all_class_zero(1, range(3))
    M.classes[(0, 1)] = 1
    M.values[(0, (0, 1))] = 2
    assert closure(M, set()) == set()
    assert closure(M, {0, 1, 2}) == {0, 1, 2}
    assert 2 in closure(M, {0, 1})
    # extensive, monotone, idempotent
    rng = random.Random(9)
    for _ in range(20):
        X = {x for x in M.universe if rng.random() < 0.5}
        Y = X | ({rng.randrange(3)} if rng.random() < 0.5 else set())
        cX, cY = closure(M, X), closure(M, Y)
        assert X <= cX
        assert cX <= cY or not X <= Y
        assert closure(M, cX) == cX


def test_max_independent_size_on_free_points():
    # class-zero structures add no closure edges: all points independent
    M = all_class_zero(1, range(3))
    assert max_independent_size(M, 3) == 3
    report = check_membership(M)
    assert not report.passed
    assert report.failing() == ["kr0.independence_bound"]


def test_membership_catches_double_classification():
    M = all_class_zero(1, range(2))
    flat = M.to_structure()
    flat.relations["R1"].add((0, 1))  # now in two classes
    report = check_structure_membership(flat, 1)
    assert "kr0.partition" in report.failing()


def test_membership_catches_incoherent_values():
    M = all_class_zero(1, range(2))
    flat = M.to_structure()
    flat.functions["f1"][(0, 1)] = 1  # must return the head 0 at m >= class
    report = check_structure_membership(flat, 1)
    assert "kr0.coherence" in report.failing()


def test_valid_member_has_bounded_independence():
    rng = random.Random(3)
    M = random_member(rng, 1, TRUNC, range(3))
    assert M is not None
    assert max_independent_size(M, 3) <= 2


def test_frugal_impossible_when_one_part_covers_union():
    M = all_class_zero(1, range(2))
    M.classes[(0, 1)] = 1
    M.values[(0, (0, 1))] = 0
    with pytest.raises(FrugalImpossible):
        frugal_amalgamate(KConfiguration((M,)))


@pytest.mark.parametrize("r", [1, 2])
def test_no_amalgam_at_the_dimension_boundary(r):
    # r+2 points, every (r+1)-subset a class-0 part: the parts fix every
    # tuple and define no witness, so the r+2 points are independent in
    # the only candidate, which membership forbids.
    parts = tuple(all_class_zero(r, subset)
                  for subset in itertools.combinations(range(r + 2), r + 1))
    config = KConfiguration(parts)
    with pytest.raises(NoAmalgam):
        frugal_amalgamate(config)
    assert completion_solutions(config) == []


def test_two_disjoint_singletons_amalgamate():
    A = all_class_zero(1, [0])
    B = all_class_zero(1, [1])
    result = frugal_amalgamate(KConfiguration((A, B)))
    assert set(result.universe) == {0, 1}
    assert check_membership(result).passed
    # the parts are the restrictions of the amalgam
    assert result.restriction([0]).classes == A.classes
    assert result.restriction([1]).classes == B.classes
    # the oracle's solution set contains the fast answer
    solutions = completion_solutions(KConfiguration((A, B)), class_cap=2)
    assert any(s.classes == result.classes and s.values == result.values
               for s in solutions)


def test_overlapping_pair_amalgamates_and_restricts():
    rng = random.Random(17)
    found = False
    for _ in range(50):
        A = random_member(rng, 1, TRUNC, (0, 1))
        B = random_member(rng, 1, TRUNC, (1, 2))
        if A is None or B is None:
            continue
        config = KConfiguration((A, B))
        from amalgam.kdim import _agreement_ok
        if not _agreement_ok(config):
            continue
        try:
            result = frugal_amalgamate(config, class_cap=3)
        except NoAmalgam:
            continue
        assert set(result.universe) == {0, 1, 2}
        report = check_membership(result)
        assert report.passed, report.failing()
        for part, keep in ((A, (0, 1)), (B, (1, 2))):
            restricted = result.restriction(keep)
            assert restricted.classes == part.classes
            assert restricted.values == part.values
        found = True
        break
    assert found


def test_survey_matches_exhaustive_oracle():
    def oracle_solver(config, class_cap):
        union = set(config.union_universe)
        for p in config.parts:
            if set(p.universe) == union:
                raise FrugalImpossible("covered")
        solutions = completion_solutions(config, class_cap)
        if not solutions:
            raise NoAmalgam("none")
        return solutions[0]

    fast = survey_k_disjoint_ap(1, 2, 3, budget=25, trunc=TRUNC, seed=42,
                                class_cap=2)
    slow = survey_k_disjoint_ap(1, 2, 3, budget=25, trunc=TRUNC, seed=42,
                                class_cap=2, solver=oracle_solver)
    assert fast.key_counts() == slow.key_counts()
    assert sum(sum(row.values()) for row in fast.rows.values()) == 25


def test_survey_deterministic_and_serializable():
    a = survey_k_disjoint_ap(1, 2, 3, budget=10, trunc=TRUNC, seed=7)
    b = survey_k_disjoint_ap(1, 2, 3, budget=10, trunc=TRUNC, seed=7)
    assert a.to_csv() == b.to_csv()
    assert "survey r=1 k=2" in a.pretty()


def test_overlap_pattern_changes_outcome_shape():
    # same part structures, different overlap: keyed separately
    table = survey_k_disjoint_ap(1, 2, 3, budget=30, trunc=TRUNC, seed=11,
                                 class_cap=2)
    assert len(table.rows) >= 2


def _mutants(M, rng):
    """Copies of M with a class dropped (with its witness values), a
    witness value deleted, and a value added at or above the class."""
    def copy():
        return KrStructure(M.r, M.trunc, M.universe, dict(M.classes),
                           dict(M.values))

    tuples = sorted(M.classes)
    dropped = copy()
    t = rng.choice(tuples)
    n = dropped.classes.pop(t)
    for m in range(n):
        dropped.values.pop((m, t), None)
    out = [dropped]
    witnessed = sorted(M.values)
    if witnessed:
        deleted = copy()
        del deleted.values[rng.choice(witnessed)]
        out.append(deleted)
    added = copy()
    t = rng.choice(tuples)
    others = [x for x in M.universe if x != t[0]]
    added.values[(rng.randrange(M.classes[t], M.trunc), t)] = rng.choice(others)
    out.append(added)
    return out


@pytest.mark.parametrize("r", [1, 2])
def test_flat_checker_agrees_with_compact_checker(r):
    rng = random.Random(r)
    members = [M for M in (random_member(rng, r, TRUNC, range(3), class_cap=3)
                           for _ in range(8)) if M is not None]
    assert len(members) >= 4
    outcomes = set()
    for M in members:
        for K in [M] + _mutants(M, rng):
            compact = check_membership(K)
            flat = check_structure_membership(K.to_structure(), r)
            assert [(i.key, i.passed) for i in flat.items] == \
                [(i.key, i.passed) for i in compact.items]
            outcomes.add(tuple(compact.failing()))
    # the members pass, and the mutants reach both the partition and the
    # coherence clause
    assert () in outcomes
    assert any("kr0.partition" in o for o in outcomes)
    assert any("kr0.coherence" in o for o in outcomes)
