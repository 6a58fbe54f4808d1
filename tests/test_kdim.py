"""The r-dimensional class: closure, independence, membership, frugal
amalgamation, survey-vs-oracle agreement, agreement of the witness-form
closures with the flat form, and agreement of the independence clause
with references that flatten on every closure and search on every
universe."""

import collections
import itertools
import random

import pytest

from amalgam import kdim
from amalgam.errors import FrugalImpossible, NoAmalgam, PreconditionFailed
from amalgam.kdim import (
    KConfiguration,
    KrStructure,
    check_membership,
    closure,
    completion_solutions,
    frugal_amalgamate,
    is_independent,
    max_independent_size,
    random_member,
    sample_configurations,
    survey_k_disjoint_ap,
    witness_form,
)
from amalgam.report import CheckReport
from amalgam.structures import generate_substructure
from oracles import (
    check_structure_membership,
    flat_form,
    planted,
    random_member_by_membership,
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
    K = all_class_zero(1, range(3))
    K.classes[(0, 1)] = 1
    K.values[(0, (0, 1))] = 2
    M = witness_form(K)
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
    flat = flat_form(M)
    flat.relations["R1"].add((0, 1))  # now in two classes
    report = check_structure_membership(flat, 1)
    assert "kr0.partition" in report.failing()


def test_membership_catches_incoherent_values():
    M = all_class_zero(1, range(2))
    flat = flat_form(M)
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
    assert fast.rows == slow.rows
    assert sum(sum(row.values()) for row in fast.rows.values()) == 25


def test_survey_deterministic_and_serializable():
    a = survey_k_disjoint_ap(1, 2, 3, budget=10, trunc=TRUNC, seed=7)
    b = survey_k_disjoint_ap(1, 2, 3, budget=10, trunc=TRUNC, seed=7)
    assert a.to_csv() == b.to_csv()
    assert a.rows == b.rows


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
            flat = check_structure_membership(flat_form(K), r)
            assert [(i.key, i.passed) for i in flat.items] == \
                [(i.key, i.passed) for i in compact.items]
            outcomes.add(tuple(compact.failing()))
    # the members pass, and the mutants reach both the partition and the
    # coherence clause
    assert () in outcomes
    assert any("kr0.partition" in o for o in outcomes)
    assert any("kr0.coherence" in o for o in outcomes)


# ---------------------------------------------------------------------------
# References for the independence clause: every closure flattens the
# structure again, and the clause searches on every universe, however
# small.
# ---------------------------------------------------------------------------


def reference_closure(M, X):
    return set(generate_substructure(flat_form(M), set(X)).universe)


def reference_is_independent(M, Y):
    return all(y not in reference_closure(M, [z for z in Y if z != y])
               for y in Y)


def reference_max_independent_size(M, limit):
    best = 0
    for size in range(1, limit + 1):
        if not any(reference_is_independent(M, Y)
                   for Y in itertools.combinations(M.universe, size)):
            break
        best = size
    return best


def reference_check_membership(M):
    r = CheckReport()
    missing = [t for t in M.tuples() if t not in M.classes]
    stray = [t for t in M.classes
             if len(t) != M.r + 1 or not set(t) <= set(M.universe)]
    bad_class = [t for t, n in M.classes.items() if not 0 <= n < M.trunc]
    partition_ok = not missing and not stray and not bad_class
    r.add("kr0.partition", partition_ok,
          "" if partition_ok else
          f"unclassified {missing[:3]} stray {stray[:3]} bad {bad_class[:3]}")
    coherent = True
    detail = ""
    for t, n in M.classes.items():
        for m in range(n):
            v = M.values.get((m, t))
            if v is None or v not in M.universe:
                coherent = False
                detail = f"missing witness value f{m}{t}"
                break
        if not coherent:
            break
    for (m, t) in M.values:
        n = M.classes.get(t)
        if n is None or m >= n:
            coherent = False
            detail = f"stored value f{m}{t} at or above the class index"
            break
    r.add("kr0.coherence", coherent, detail)
    if partition_ok and coherent:
        top = reference_max_independent_size(M, M.r + 2)
        r.add("kr0.independence_bound", top <= M.r + 1,
              "" if top <= M.r + 1 else
              f"independent subset of size {top} found")
    else:
        r.skip("kr0.independence_bound")
    return r


def reference_completions(config, class_cap=None):
    """Every completion on the union universe, in search order: cross
    tuples get classes in increasing index and witness values in
    increasing id order, and a complete placement is kept when it has no
    independent subset of size r+2."""
    r, trunc = config.parts[0].r, config.parts[0].trunc
    class_bound = trunc if class_cap is None else min(class_cap, trunc)
    universe = config.union_universe
    base = KrStructure(r, trunc, universe)
    for p in config.parts:
        base.classes.update(p.classes)
        base.values.update(p.values)
    cross = [t for t in base.tuples()
             if not any(set(t) <= set(p.universe) for p in config.parts)]
    out = []

    def place(index):
        if index == len(cross):
            candidate = KrStructure(r, trunc, universe, dict(base.classes),
                                    dict(base.values))
            if reference_max_independent_size(candidate, r + 2) <= r + 1:
                out.append(candidate)
            return
        t = cross[index]
        for n in range(class_bound):
            for vals in itertools.product(universe, repeat=n):
                base.classes[t] = n
                for m, v in enumerate(vals):
                    base.values[(m, t)] = v
                place(index + 1)
                del base.classes[t]
                for m in range(n):
                    del base.values[(m, t)]

    place(0)
    return out


def random_assignment(rng, r, universe, class_cap=3, inside=False):
    """A random class for every tuple and random witness values below it,
    with no membership filter; ``inside`` draws each value from its own
    tuple, so every restriction keeps it."""
    M = KrStructure(r, TRUNC, tuple(universe))
    for t in M.tuples():
        n = rng.randrange(class_cap)
        M.classes[t] = n
        for m in range(n):
            M.values[(m, t)] = rng.choice(t if inside else M.universe)
    return M


def membership_items(report):
    return [(i.key, i.passed, i.detail) for i in report.items]


@pytest.mark.parametrize("r", [1, 2])
def test_independence_clause_matches_reference(r):
    rng = random.Random(40 + r)
    verdicts = {}
    for size in range(r + 4):
        universe = range(size)
        structures = [all_class_zero(r, universe)]
        for _ in range(6):
            M = random_assignment(rng, r, universe)
            structures.append(M)
            if size >= 2:
                structures += _mutants(M, rng)
        for K in structures:
            assert max_independent_size(K, r + 2) == \
                reference_max_independent_size(K, r + 2)
            items = membership_items(check_membership(K))
            assert items == membership_items(reference_check_membership(K))
            verdicts.setdefault(size, set()).add(items[-1][1])
    # below r+2 elements the clause holds without a search; from r+2 on
    # the search decides it both ways
    for size in range(r + 2):
        assert False not in verdicts[size]
    for size in range(r + 2, r + 4):
        assert {True, False} <= verdicts[size]


def sparse_assignment(rng, r, universe, count):
    """The class-zero structure with ``count`` random tuples raised to
    class 1, each with one witness value from the universe: few stored
    values, so some (r+2)-subsets hold no direct certificate."""
    M = all_class_zero(r, universe)
    for t in rng.sample(sorted(M.classes), count):
        M.classes[t] = 1
        M.values[(0, t)] = rng.choice(M.universe)
    return M


def independence_bound_outcomes(bound, monkeypatch):
    """(r, size - r, searched, verdict, reference verdict) of ``bound``
    on coherent structures over r+2 and r+3 points, r in {1, 2}: the
    class-zero structure, dense random assignments and sparse ones.
    ``searched`` says whether a witness form was built, which only the
    closure search does."""
    built = []
    form = kdim.witness_form

    def recorded(M):
        built.append(M)
        return form(M)

    monkeypatch.setattr(kdim, "witness_form", recorded)
    for r in (1, 2):
        rng = random.Random(90 + r)
        for size in (r + 2, r + 3):
            universe = range(size)
            structures = [all_class_zero(r, universe)]
            for i in range(30):
                structures += [
                    random_assignment(rng, r, universe, class_cap=2),
                    sparse_assignment(rng, r, universe, 1 + i % (size + 2))]
            for M in structures:
                built.clear()
                verdict = bound(M)
                yield (r, size - r, bool(built), verdict,
                       reference_max_independent_size(M, r + 2) <= r + 1)


def test_independence_certificates_agree_with_the_reference(monkeypatch):
    outcomes = collections.Counter()
    for r, extra, searched, verdict, want in independence_bound_outcomes(
            kdim._independence_bound_holds, monkeypatch):
        assert verdict == want, (r, extra, searched)
        outcomes[r, searched, verdict] += 1
        # on exactly r+2 points a structure with no certificate keeps
        # every value inside its tuple, so every closure is trivial and
        # the universe is independent
        assert not (extra == 2 and searched and verdict)
    # at each r: certified and holding, searched and holding (through a
    # dependence that runs via a point outside the subset, so on r+3
    # points), and searched and failing
    for r in (1, 2):
        assert all(outcomes[r, searched, verdict] for searched, verdict in
                   [(False, True), (True, True), (True, False)]), outcomes


@pytest.mark.parametrize("old,new", [
    ("if v not in t", "if True"),  # a value inside its tuple certifies
    ("all(any(", "any(any("),  # one certified subset decides the bound
])
def test_the_certificate_check_catches_planted_faults(old, new, monkeypatch):
    mutant = planted(kdim._independence_bound_holds, old, new)
    assert any(verdict != want for *_, verdict, want in
               independence_bound_outcomes(mutant, monkeypatch))


def random_stored_values(rng, r, universe):
    """A random class below the truncation for every tuple, and for each
    index below the truncation a stored value with probability one half,
    whatever the class: witnesses go missing below the class, and values
    sit at or above it."""
    M = KrStructure(r, TRUNC, tuple(universe))
    for t in M.tuples():
        M.classes[t] = rng.randrange(TRUNC)
        for m in range(TRUNC):
            if rng.random() < 0.5:
                M.values[(m, t)] = rng.choice(M.universe)
    return M


@pytest.mark.parametrize("r", [1, 2])
def test_witness_form_closures_equal_the_flat_form(r):
    rng = random.Random(60 + r)
    faults, grown, sizes = set(), 0, set()
    for size in range(1, 5):
        universe = range(size)
        structures = [random_member(rng, r, TRUNC, universe, class_cap=3),
                      random_stored_values(rng, r, universe),
                      random_stored_values(rng, r, universe)]
        M = random_assignment(rng, r, universe)
        structures.append(M)
        if size >= 2:
            structures += _mutants(M, rng)
        for K in filter(None, structures):
            faults.add(tuple(check_membership(K).failing()))
            form = witness_form(K)
            for k in range(size + 1):
                for X in itertools.combinations(K.universe, k):
                    closed = closure(form, X)
                    assert closed == reference_closure(K, X)
                    grown += closed != set(X)
            for limit in range(1, r + 3):
                top = max_independent_size(K, limit)
                assert top == reference_max_independent_size(K, limit)
                sizes.add((limit, top))
    # members and incoherent structures both occur, closures grow, and
    # the search stops both below and at its limit
    assert () in faults
    assert any("kr0.coherence" in f for f in faults)
    assert grown
    assert any(top < limit for limit, top in sizes)
    assert any(top == limit > 1 for limit, top in sizes)


# Recorded with every closure taken on the flat form.
BOUNDARY_TABLES = {
    0: "r,k,signature,success,no_amalgam,impossible\r\n"
       "1,3,1 1 2 | 0 0 0,2,0,0\r\n",
    1: "r,k,signature,success,no_amalgam,impossible\r\n"
       "1,3,1 1 2 | 0 0 0,1,0,0\r\n"
       "1,3,1 2 2 | 0 0 1,1,0,0\r\n",
}


@pytest.mark.parametrize("seed", sorted(BOUNDARY_TABLES))
def test_boundary_survey_table_is_unchanged(seed):
    table = survey_k_disjoint_ap(r=1, k=3, size_bound=4, budget=2, seed=seed)
    assert table.to_csv() == BOUNDARY_TABLES[seed]


@pytest.mark.parametrize("k,size_bound", [(3, 2), (2, 1)])
def test_survey_refuses_a_size_bound_below_max_2_k(k, size_bound):
    with pytest.raises(PreconditionFailed) as caught:
        survey_k_disjoint_ap(r=1, k=k, size_bound=size_bound, budget=2)
    assert caught.value.clause == "survey"


@pytest.mark.parametrize("k", [0, 1])
def test_survey_refuses_fewer_than_two_parts_before_any_draw(k):
    # one proper part never covers the union, so no draw could succeed
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(PreconditionFailed) as caught:
        next(sample_configurations(rng, 1, k, 3, TRUNC, 5))
    assert caught.value.clause == "survey"
    assert rng.getstate() == state
    with pytest.raises(PreconditionFailed) as caught:
        survey_k_disjoint_ap(r=1, k=k, size_bound=3, budget=5)
    assert caught.value.clause == "survey"


# Recorded before the size bound was checked: a bound of exactly
# max(2, k) is valid and keeps its table.
SMALLEST_BOUND_TABLES = {
    3: "r,k,signature,success,no_amalgam,impossible\r\n"
       "1,3,1 1 2 | 0 0 1,3,0,0\r\n",
    2: "r,k,signature,success,no_amalgam,impossible\r\n"
       "1,2,1 1 | 0,3,0,0\r\n",
}


@pytest.mark.parametrize("k", sorted(SMALLEST_BOUND_TABLES))
def test_survey_at_the_smallest_size_bound_is_unchanged(k):
    table = survey_k_disjoint_ap(r=1, k=k, size_bound=max(2, k), budget=3)
    assert table.to_csv() == SMALLEST_BOUND_TABLES[k]


def boundary_configurations(r, rng, count):
    """r+2 points whose (r+1)-subsets are the parts, restricted from the
    class-zero structure and from random assignments with witness values
    inside their tuples.  Every tuple lies in a part and every part is
    closed, so the r+2 points are independent in the only candidate."""
    points = range(r + 2)
    wholes = [all_class_zero(r, points)] + [
        random_assignment(rng, r, points, inside=True) for _ in range(count)]
    return [KConfiguration(tuple(M.restriction(s) for s in
                                 itertools.combinations(points, r + 1)))
            for M in wholes]


@pytest.mark.parametrize("r", [1, 2])
def test_completions_match_reference_at_the_dimension_boundary(r):
    for config in boundary_configurations(r, random.Random(r), 4):
        assert completion_solutions(config) == \
            reference_completions(config) == []


@pytest.mark.parametrize("r,size_bound,class_cap", [
    (1, 3, 2), (1, 4, 2), (2, 3, 1), (2, 4, 1)])
def test_completions_match_reference_on_sampled_configurations(
        r, size_bound, class_cap):
    rng = random.Random(7 * size_bound + r)
    unions = set()
    found = 0
    for config in sample_configurations(rng, r, 2, size_bound, TRUNC, 8):
        solutions = completion_solutions(config, class_cap)
        assert solutions == reference_completions(config, class_cap)
        unions.add(len(config.union_universe))
        found += bool(solutions)
    # unions below r+2 elements, where the clause does not search, are
    # among the samples, and some configurations amalgamate
    assert min(unions) < r + 2
    assert found


@pytest.mark.parametrize("r", [1, 2])
def test_independence_is_hereditary_and_the_search_matches_at_every_limit(r):
    # the top-down search returns the first size with an independent
    # subset, which is the upward answer only because independence is
    # hereditary; check both at every limit, including 0 and limits
    # above the universe
    rng = random.Random(80 + r)
    inherited = dependent = 0
    for size in range(1, r + 4):
        universe = range(size)
        structures = [random_assignment(rng, r, universe),
                      random_stored_values(rng, r, universe),
                      random_member(rng, r, TRUNC, universe, class_cap=3)]
        for K in filter(None, structures):
            form = witness_form(K)
            for k in range(size + 1):
                for Y in itertools.combinations(K.universe, k):
                    if not is_independent(form, Y):
                        dependent += 1
                        continue
                    for j in range(1, k):
                        for Z in itertools.combinations(Y, j):
                            assert is_independent(form, Z)
                            inherited += 1
            for limit in range(size + 2):
                assert max_independent_size(K, limit) == \
                    reference_max_independent_size(K, limit)
    assert inherited and dependent


@pytest.mark.parametrize("stray", [(0, 5), (0, 1, 1)])
def test_partition_names_a_missing_tuple_beside_a_stray_one(stray):
    # one stray tuple and one missing tuple leave as many classified
    # tuples as there are tuples, so the count alone cannot decide
    # the partition
    M = all_class_zero(1, range(2))
    del M.classes[(1, 0)]
    M.classes[stray] = 0
    assert len(M.classes) == len(M.universe) ** (M.r + 1)
    report = check_membership(M)
    assert membership_items(report) == \
        membership_items(reference_check_membership(M))
    partition = report.items[0]
    assert partition.key == "kr0.partition" and partition.passed is False
    assert "(1, 0)" in partition.detail and str(stray) in partition.detail


def refuses_cap_one(sample, rng, r, trunc, size):
    """Does ``sample`` refuse class cap 1 on ``size`` points before any
    draw, and does the one structure such a draw builds (every tuple in
    class 0, no witness values) fail the independence bound?"""
    state = rng.getstate()
    try:
        sample(rng, r, trunc, range(size), 1)
    except PreconditionFailed as refusal:
        refused = refusal.clause == "random_member"
    else:
        refused = False
    only = KrStructure(r, trunc, tuple(range(size)))
    only.classes = dict.fromkeys(only.tuples(), 0)
    bound = {item.key: item.passed for item in check_membership(only).items}
    return refused and rng.getstate() == state and \
        bound["kr0.independence_bound"] is False


def random_member_calls(sample, monkeypatch):
    """Each call of ``sample`` over r in {1, 2}, trunc in {4, 6},
    universes of 1 to 4 points, every class cap from 1 to trunc and 50
    seeds, as (case, agrees, verdicts): whether it returns the member of
    ``random_member_by_membership`` (universe, classes and values, or
    None) and leaves the rng in the same state, and the independence
    bound's verdict on each of its draws.  Class cap 1 on r+2 or more
    points can draw no member, so there ``agrees`` is
    ``refuses_cap_one`` in place of the oracle's 200 draws."""
    verdicts = []
    bound = kdim._independence_bound_holds

    def recorded(M):
        verdicts.append(bound(M))
        return verdicts[-1]

    monkeypatch.setattr(kdim, "_independence_bound_holds", recorded)
    for r, trunc, size in itertools.product((1, 2), (4, 6), range(1, 5)):
        for class_cap, seed in itertools.product(range(1, trunc + 1),
                                                 range(50)):
            if class_cap == 1 and size >= r + 2:
                agrees = refuses_cap_one(sample, random.Random(seed), r,
                                         trunc, size)
                yield (r, trunc, size, class_cap, seed), agrees, []
                continue
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            want = random_member_by_membership(want_rng, r, trunc,
                                               range(size), class_cap)
            verdicts.clear()
            got = sample(got_rng, r, trunc, range(size), class_cap)
            agrees = want_rng.getstate() == got_rng.getstate() and \
                (want and (want.universe, want.classes, want.values)) == \
                (got and (got.universe, got.classes, got.values))
            yield (r, trunc, size, class_cap, seed), agrees, list(verdicts)


def test_random_member_equals_the_full_membership_loop(monkeypatch):
    # a draw satisfies partition and coherence by construction, so
    # testing the independence bound alone accepts the same draws
    mismatches, first, redrawn = [], 0, 0
    for case, agrees, verdicts in random_member_calls(random_member,
                                                      monkeypatch):
        if not agrees:
            mismatches.append(case)
        first += verdicts == [True]
        redrawn += False in verdicts
    assert mismatches == []
    assert first and redrawn


def test_the_member_loop_catches_a_sampler_that_accepts_every_draw(
        monkeypatch):
    mutant = planted(random_member, "if _independence_bound_holds(M):",
                     "if True:")
    assert not all(agrees for _, agrees, _ in
                   random_member_calls(mutant, monkeypatch))


@pytest.mark.parametrize("class_cap,universe", [
    (TRUNC + 1, (0, 1)), (0, (0, 1)), (2, (0, 1, 0))])
def test_random_member_refuses_draws_that_could_fail_more_than_the_bound(
        class_cap, universe):
    # a cap above the truncation lets a class break the partition, a
    # cap below 1 leaves no class to draw, and a repeated id breaks the
    # tuple count; each is refused before any draw
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(PreconditionFailed) as caught:
        random_member(rng, 1, TRUNC, universe, class_cap)
    assert caught.value.clause == "random_member"
    assert rng.getstate() == state
