"""A mutant table for the k1 checkers: for each clause of ``check_Kminus1``,
``check_K1``, ``check_free_extension`` and ``check_good_sequence``, one
copy of a passing input broken against that clause, with the exact list
of clauses it fails and the exact list it skips."""

import pytest

from amalgam.k1 import (
    FreeExtensionWitness,
    K1Witness,
    build_member,
    check_K1,
    check_Kminus1,
    check_free_extension,
)
from amalgam.k1.freepart import conj, var
from amalgam.k1.ops import adjoin_trace_element, check_good_sequence
from amalgam.k1.p1 import BOTTOM, P1Element
from k1_fixtures import extend_with_names

TRUNC = 4


def skipped(report):
    return [i.key for i in report.items if i.passed is None]


def witnessed():
    """Two P0 elements, one name; the head value sits above the first
    designated atom and carries a generator of its own."""
    return build_member(2, 1, 1, trunc=TRUNC, head_plan=[[((0,), True)]])


def two_names():
    return build_member(2, 2, 1, trunc=TRUNC,
                        head_plan=[[((0,), True)], [((1,), True)]])


def fresh(M):
    return max(M.all_ids()) + 1


def drop_generator(M, g):
    M.gen_ids = tuple(x for x in M.gen_ids if x != g)


# ---------------------------------------------------------------------------
# check_Kminus1 and check_K1
# ---------------------------------------------------------------------------


def p2_reuses_a_p0_id():
    M = witnessed()
    (c,), a = M.p2, M.p0[0]
    M.p2 = (a,)
    M.f = {(n, a): v for (n, _), v in M.f.items()}
    return M, None


def atom_reuses_a_generator_id():
    M = witnessed()
    M.atom_ids = M.atom_ids[:-1] + (M.gen_ids[0],)
    return M, None


def repeated_atom_id():
    M = witnessed()
    M.atom_ids = M.atom_ids + M.atom_ids[:1]
    return M, None


def stray_generator_in_a_value():
    M = witnessed()
    M.f[(1, M.p2[0])] = P1Element(0, var(fresh(M)))
    return M, None


def g1_value_not_an_atom():
    M = witnessed()
    a = M.p0[0]
    M.g1[a] = P1Element(M.g1[a].atomic, var(M.gen_ids[0]))
    return M, None


def unhit_designated_atom():
    M = witnessed()
    M.atom_ids = M.atom_ids + (fresh(M),)
    return M, None


def two_p0_on_one_atom():
    M = witnessed()
    extra = fresh(M)
    M.p0 = M.p0 + (extra,)
    M.g1[extra] = M.g1[M.p0[0]]
    return M, None


def value_table_not_total():
    M = witnessed()
    del M.f[(TRUNC - 1, M.p2[0])]
    return M, None


def atom_in_a_tail_value():
    M = witnessed()
    c, atom = M.p2[0], M.g1[M.p0[0]].atomic
    v = M.f[(TRUNC - 1, c)]
    M.f[(TRUNC - 1, c)] = P1Element(v.atomic | atom, v.free)
    return M, None


def generator_nothing_spans():
    M = witnessed()
    M.gen_ids = M.gen_ids + (fresh(M),)
    return M, None


def witness_top_differs():
    M = witnessed()
    return M, K1Witness(M.witness.n_star, BOTTOM)


def dependent_base_level():
    """Base values x and x&y with y a named generator: the base level has
    three blocks off the atomic ideal, and the named generator leaves the
    level chain short of the algebra."""
    M = build_member(0, 1, 2, trunc=TRUNC,
                     head_plan=[[((), True), ((), True)]])
    c = M.p2[0]
    x, y = M.f[(0, c)].free, M.f[(1, c)].free
    M.f[(1, c)] = P1Element(0, conj(x, y))
    M.named_gens = y.support
    return M, None


def named_generator():
    M = witnessed()
    g = fresh(M)
    M.gen_ids = M.gen_ids + (g,)
    M.named_gens = (g,)
    return M, None


def repeated_head_value():
    M = build_member(2, 1, 2, trunc=TRUNC,
                     head_plan=[[((0,), False), ((0,), False)]])
    return M, None


def tail_value_from_the_base():
    """A tail value of the second name is the free part of the first
    name's head value."""
    M = two_names()
    c, d = M.p2
    drop_generator(M, M.f[(TRUNC - 1, d)].free.support[0])
    M.f[(TRUNC - 1, d)] = P1Element(0, M.f[(0, c)].free)
    return M, None


def names_share_a_tail_value():
    """The second name's last value is the first name's, and the
    generator it carried is dropped."""
    M = two_names()
    c, d = M.p2
    drop_generator(M, M.f[(TRUNC - 1, d)].free.support[0])
    M.f[(TRUNC - 1, d)] = M.f[(TRUNC - 1, c)]
    return M, None


def no_witness():
    M = witnessed()
    M.witness = None
    return M, None


K0_KEYS = ["k0.b_star", "k0.base_free", "k0.union", "k0.f_distinct",
           "k0.tail_free"]
AFTER_PARTITION = ["km1.algebra", "km1.trace_hom", "km1.trace_distinct",
                   "km1.atom_bijection", "km1.f_table", "km1.eventual_escape",
                   "km1.generation"] + K0_KEYS

# mutant -> (clauses check_K1 fails, clauses check_K1 skips); the
# check_Kminus1 rows are the km1 part of these
MEMBERSHIP_MUTANTS = {
    p2_reuses_a_p0_id: (["km1.partition"], AFTER_PARTITION),
    atom_reuses_a_generator_id: (["km1.partition"], AFTER_PARTITION),
    repeated_atom_id: (["km1.partition"], AFTER_PARTITION),
    stray_generator_in_a_value: (["km1.algebra"], AFTER_PARTITION[1:]),
    g1_value_not_an_atom: (
        ["km1.trace_hom"],
        ["km1.trace_distinct", "km1.atom_bijection"] + K0_KEYS),
    unhit_designated_atom: (["km1.trace_distinct"], K0_KEYS),
    two_p0_on_one_atom: (["km1.atom_bijection"], K0_KEYS),
    value_table_not_total: (
        ["km1.f_table"],
        ["km1.eventual_escape", "km1.generation"] + K0_KEYS),
    atom_in_a_tail_value: (["km1.eventual_escape"], K0_KEYS),
    generator_nothing_spans: (["km1.generation"], K0_KEYS),
    witness_top_differs: (["k0.b_star"], []),
    dependent_base_level: (["k0.base_free", "k0.union"], []),
    named_generator: (["k0.union"], []),
    repeated_head_value: (["k0.f_distinct"], []),
    tail_value_from_the_base: (["k0.tail_free"], []),
    names_share_a_tail_value: (["k0.tail_free"], []),
    no_witness: (["k0.b_star"], K0_KEYS[1:]),
}


def test_the_unbroken_members_pass():
    for M in (witnessed(), two_names()):
        assert check_K1(M).passed
    # the clauses each membership mutant aims at, km1 and k0 alike
    assert {key for failing, _ in MEMBERSHIP_MUTANTS.values()
            for key in failing} == {i.key for i in check_K1(witnessed()).items}


@pytest.mark.parametrize("mutant", list(MEMBERSHIP_MUTANTS),
                         ids=lambda m: m.__name__)
def test_membership_mutant_fails_its_clauses(mutant):
    failing, skips = MEMBERSHIP_MUTANTS[mutant]
    M, w = mutant()
    full = check_K1(M, w)
    assert (full.failing(), skipped(full)) == (failing, skips)
    base = check_Kminus1(M)
    assert (base.failing(), skipped(base)) == (
        [k for k in failing if k.startswith("km1.")],
        [k for k in skips if k.startswith("km1.")])
    assert [i.key for i in base.items] == \
        [i.key for i in full.items][:len(base.items)]


def test_a_missing_witness_skips_the_other_k0_clauses():
    report = check_K1(*no_witness())
    items = {i.key: (i.passed, i.detail) for i in report.items}
    assert items["k0.b_star"] == (False, "no witness supplied")
    for key in K0_KEYS[1:]:
        assert items[key] == (None, "guarded out by an earlier failure")


def test_a_shared_tail_value_names_both_slots():
    M, _ = names_share_a_tail_value()
    c, d = M.p2
    (item,) = [i for i in check_K1(M).items if i.key == "k0.tail_free"]
    assert item.detail == (f"tail slots (index, name) {(TRUNC - 1, c)} and "
                           f"{(TRUNC - 1, d)} hold one value")


def test_shared_ids_fail_the_partition_clause_alone():
    report = check_Kminus1(p2_reuses_a_p0_id()[0])
    (partition, algebra), rest = report.items[:2], report.items[2:]
    assert partition.passed is False
    assert partition.detail == \
        "P0, P2, the designated atoms and the generators share ids"
    assert algebra.passed is None
    assert all(i.passed is None for i in rest)


# ---------------------------------------------------------------------------
# check_free_extension
# ---------------------------------------------------------------------------


def free_pair():
    """A member freely extended by two all-generator names."""
    M1 = witnessed()
    M2, w = extend_with_names(M1, 2)
    return M1, M2, w


def old_element_in_the_witness():
    M1, M2, w = free_pair()
    return M1, M2, FreeExtensionWitness.make(
        w.independent + (M1.f[(0, M1.p2[0])],), w.h)


def generator_the_witness_misses():
    M1, M2, w = free_pair()
    M2.gen_ids = M2.gen_ids + (fresh(M2),)
    return M1, M2, w


def dependent_witness():
    M1, M2, w = free_pair()
    x, y = w.independent[:2]
    return M1, M2, FreeExtensionWitness.make(
        w.independent + (P1Element(0, conj(x.free, y.free)),), w.h)


def schedule_misses_a_name():
    M1, M2, w = free_pair()
    return M1, M2, FreeExtensionWitness.make(w.independent, {})


def repeated_tail_value():
    M1, M2, w = free_pair()
    c = M2.p2[-1]
    gone = M2.f[(1, c)]
    drop_generator(M2, gone.free.support[0])
    M2.f[(1, c)] = M2.f[(0, c)]
    return M1, M2, FreeExtensionWitness.make(
        [i for i in w.independent if i != gone], w.h)


def two_names_share_a_tail_value():
    M1, M2, w = free_pair()
    c, d = M2.p2[-2:]
    gone = M2.f[(0, d)]
    drop_generator(M2, gone.free.support[0])
    M2.f[(0, d)] = M2.f[(0, c)]
    return M1, M2, FreeExtensionWitness.make(
        [i for i in w.independent if i != gone], w.h)


FREE_MUTANTS = {
    old_element_in_the_witness: (["fr.witness_domain", "fr.independence"],
                                 []),
    generator_the_witness_misses: (["fr.generation"], []),
    dependent_witness: (["fr.independence"], []),
    schedule_misses_a_name: (["fr.h_domain"], ["fr.tails"]),
    repeated_tail_value: (["fr.tails"], []),
    two_names_share_a_tail_value: (["fr.collisions"], []),
}


def test_the_unbroken_extension_passes():
    M1, M2, w = free_pair()
    report = check_free_extension(M1, M2, w)
    assert report.passed
    assert {key for failing, _ in FREE_MUTANTS.values()
            for key in failing} == {i.key for i in report.items}


@pytest.mark.parametrize("mutant", list(FREE_MUTANTS),
                         ids=lambda m: m.__name__)
def test_free_extension_mutant_fails_its_clauses(mutant):
    failing, skips = FREE_MUTANTS[mutant]
    report = check_free_extension(*mutant())
    assert (report.failing(), skipped(report)) == (failing, skips)


# ---------------------------------------------------------------------------
# check_good_sequence
# ---------------------------------------------------------------------------


def good_chain(trace_all=False):
    """Three links, each adjoining a trace element b_n and two names; the
    traces are empty, or with ``trace_all`` every P0 element of the link's
    bottom, so that old P0 elements never leave them."""
    chain, b_seq = [build_member(1, 1, 0, trunc=TRUNC)], []
    for _ in range(3):
        M = chain[-1]
        N, b = adjoin_trace_element(M, M.p0 if trace_all else ())
        N, _ = extend_with_names(N, 2)
        chain.append(N)
        b_seq.append(b)
    return chain, b_seq


def sequence_on_one_structure():
    chain, b_seq = good_chain()
    return chain[:1], b_seq[:1]


def sequence_as_long_as_the_chain():
    chain, b_seq = good_chain()
    _, b = adjoin_trace_element(chain[-1], ())
    return chain, b_seq + [b]


def sequence_longer_than_the_chain():
    chain, b_seq = good_chain()
    return chain[:2], b_seq


def link_with_one_name():
    chain, b_seq = good_chain()
    N, _ = extend_with_names(chain[0], 1)
    N, b = adjoin_trace_element(N, ())
    return [chain[0], N], [b]


def b_from_the_current_algebra():
    chain, b_seq = good_chain()
    return chain, [chain[0].f[(0, chain[0].p2[0])]] + b_seq[1:]


def b_outside_the_chain():
    """b_0 is a bare generator that no structure of the chain declares."""
    chain, b_seq = good_chain()
    return chain, [P1Element(0, var(999))] + b_seq[1:]


def b_on_an_undeclared_atom():
    """b_0 also covers an atom that no structure of the chain declares."""
    chain, b_seq = good_chain()
    b = b_seq[0]
    return chain, [P1Element(b.atomic | 1 << 999, b.free)] + b_seq[1:]


def old_p0_in_every_trace():
    return good_chain(trace_all=True)


AFTER_SHAPE = ["good.in_next", "good.freeness", "good.escape"]
GOOD_MUTANTS = {
    sequence_on_one_structure: (["good.shape"], AFTER_SHAPE),
    sequence_as_long_as_the_chain: (["good.shape"], AFTER_SHAPE),
    sequence_longer_than_the_chain: (["good.shape"], AFTER_SHAPE),
    link_with_one_name: (["good.surplus"], []),
    b_outside_the_chain: (["good.in_next"], []),
    b_on_an_undeclared_atom: (["good.in_next"], []),
    b_from_the_current_algebra: (["good.freeness"], []),
    old_p0_in_every_trace: (["good.escape"], []),
}


def test_the_unbroken_sequence_passes():
    report = check_good_sequence(*good_chain())
    assert report.passed
    assert {key for failing, _ in GOOD_MUTANTS.values()
            for key in failing} == {i.key for i in report.items}


@pytest.mark.parametrize("mutant", list(GOOD_MUTANTS),
                         ids=lambda m: m.__name__)
def test_good_sequence_mutant_fails_its_clauses(mutant):
    failing, skips = GOOD_MUTANTS[mutant]
    report = check_good_sequence(*mutant())
    assert (report.failing(), skipped(report)) == (failing, skips)
