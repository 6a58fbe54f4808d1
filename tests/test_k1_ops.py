"""Free amalgamation, trace adjunction, chains, labeling."""

import random
from dataclasses import replace

import pytest

from amalgam.errors import (
    AmalgamationFailed,
    CapExceeded,
    HarvestFailed,
    PreconditionFailed,
    UltrafilterChoiceFailed,
    WitnessAlignmentFailed,
)
from amalgam.fraisse import check_disjoint_ap
from amalgam.k1 import (
    FreeExtensionWitness,
    MatchEmbedding,
    build_member,
    check_K1,
    check_Kminus1,
    check_free_extension,
    enumerate_matches,
    is_isomorphic_k1,
    minimal_model,
    union_of_chain,
)
from amalgam.k1.ops import (
    _rebase_link,
    adjoin_trace_element,
    amalgamate_free,
    check_good_sequence,
    label_good_sequence,
)
from amalgam.k1 import engine
from amalgam.k1.embeddings import TransportMap
from amalgam.k1.freepart import ONE, ZERO, _reduce, conj, disj, neg, var
from amalgam.k1.p1 import P1Element, bare_generator
from k1_fixtures import (
    derive_free_witness,
    derive_pair_witness,
    drain_with_link_witnesses,
    extend_with_names,
)
from oracles import planted, rebase_by_full_window, transport_by_evaluation


TRUNC = 4


def member(p0, p2, nstar, plan=(), start=0):
    return build_member(p0, p2, nstar, trunc=TRUNC, head_plan=plan, start_id=start)


def inclusion_of(A, B):
    matches = enumerate_matches(A, B, first_only=True)
    assert matches, "expected an embedding"
    return matches[0]


def test_minimal_embeds_into_every_member():
    m = minimal_model(TRUNC)
    for M in [member(1, 0, 0), member(0, 1, 1, [[((), True)]]),
              member(2, 1, 0)]:
        assert enumerate_matches(m, M, first_only=True)


def test_free_over_minimal_witness_passes():
    M = member(2, 1, 1, [[((0,), True)]])
    w = derive_free_witness(M)
    r = check_free_extension(minimal_model(TRUNC), M, w)
    assert r.passed, r.failing()


def test_wrong_h_domain_skips_the_tails_clause():
    M = member(2, 1, 1, [[((0,), True)]])
    w = derive_free_witness(M)
    wrong = FreeExtensionWitness.make(w.independent, {})
    r = check_free_extension(minimal_model(TRUNC), M, wrong)
    items = {i.key: i for i in r.items}
    assert items["fr.h_domain"].passed is False
    assert items["fr.tails"].passed is None
    assert items["fr.tails"].detail == "guarded out by an earlier failure"
    assert r.failing() == ["fr.h_domain"]
    assert check_free_extension(minimal_model(TRUNC), M, w).passed


def test_pair_witness_for_member_inclusion():
    N1 = member(1, 0, 0)
    N2 = member(1, 1, 1, [[((0,), True)]], start=20)
    inc = inclusion_of(N1, N2)
    w = derive_pair_witness(N1, N2, inc)
    # verify through an explicit transport of N1 into N2
    inc_p0 = dict(inc.p0_map)
    t = TransportMap(
        p0_map=inc.p0_map, p2_map=inc.p2_map,
        atom_map=tuple(sorted(
            (N1.g1[a].atomic.bit_length() - 1,
             N2.g1[inc_p0[a]].atomic.bit_length() - 1)
            for a in N1.p0
        )),
    )
    r = check_free_extension(N1, N2, w, t)
    assert r.passed, r.failing()


def test_amalgamate_trivial_extension_returns_m1():
    M1 = member(1, 1, 1, [[((0,), True)]])
    N1 = member(1, 0, 0, start=30)
    inc_big = inclusion_of(N1, M1)
    result = amalgamate_free(M1, N1, N1, inc_big, inclusion_of(N1, N1))
    assert result.amalgam.size == M1.size
    assert not result.new_atoms
    assert is_isomorphic_k1(result.amalgam, M1)


def test_amalgamate_adds_one_designated_atom():
    M1 = member(1, 1, 1, [[((0,), True)]])
    N1 = member(1, 0, 0, start=30)
    N2 = member(2, 0, 0, start=40)
    inc_big = inclusion_of(N1, M1)
    inc_small = inclusion_of(N1, N2)
    result = amalgamate_free(M1, N1, N2, inc_big, inc_small)
    M2 = result.amalgam
    assert len(M2.atom_ids) == len(M1.atom_ids) + 1
    assert len(M2.p0) == len(M1.p0) + 1
    r = check_K1(M2)
    assert r.passed, r.failing()
    rw = check_free_extension(M1, M2, result.witness, result.big_transport)
    assert rw.passed, rw.failing()


def test_amalgamate_without_atoms_builds_no_window():
    # four names of six values: a base image window of 24 generators,
    # past WINDOW_CAP, but no atom needs an ultrafilter choice
    N1 = member(0, 4, 0, start=30)
    N2 = member(0, 5, 0, start=200)
    M1 = member(0, 4, 0, start=500)
    result = amalgamate_free(M1, N1, N2, inclusion_of(N1, M1),
                             inclusion_of(N1, N2))
    assert result.amalgam.size == 5 and not result.new_atoms
    rw = check_free_extension(M1, result.amalgam, result.witness,
                              result.big_transport)
    assert rw.passed, rw.failing()


def test_amalgamate_with_new_name_and_trace_demand():
    # N2 adds a designated atom sitting under a head value of the base name
    M1 = member(1, 1, 2, [[((0,), True), ((0,), True)]])
    N1 = member(1, 1, 2, [[((0,), True), ((0,), True)]], start=30)
    N2 = member(2, 1, 2, [[((0,), True), ((0, 1), True)]], start=50)
    inc_big = inclusion_of(N1, M1)
    inc_small = inclusion_of(N1, N2)
    result = amalgamate_free(M1, N1, N2, inc_big, inc_small)
    assert len(result.new_atoms) == 1
    M2 = result.amalgam
    assert check_Kminus1(M2).passed
    rw = check_free_extension(M1, M2, result.witness, result.big_transport)
    assert rw.passed, rw.failing()
    # f embeds N2: spot-check value transport consistency
    f = result.small_embedding
    p2 = dict(f.p2_map)
    for c in N2.p2:
        for n in range(TRUNC):
            assert [M2.f[(n, p2[c])]] == f.apply([N2.f[(n, c)]])
    p0 = dict(f.p0_map)
    assert sorted(p0) == sorted(N2.p0)
    for a in N2.p0:
        assert [M2.g1[p0[a]]] == f.apply([N2.g1[a]])


def test_adjoin_trace_element_all_cases():
    M = member(2, 1, 1, [[((0,), True)]])
    for u in ((), (M.p0[0],), M.p0):
        N, b = adjoin_trace_element(M, u)
        assert N.trace(b) == frozenset(u)
        w = FreeExtensionWitness.make([b], {})
        r = check_free_extension(M, N, w)
        assert r.passed, (u, r.failing())
        # adjoined structures carry a named generator, so they are not
        # value-generated members: the level chain misses it
        (union,) = [i for i in check_K1(N).items if i.key == "k0.union"]
        assert union.passed is False
        assert union.detail == "the level chain does not exhaust the algebra"
        assert check_Kminus1(N).passed


def test_good_sequence_and_labeling_roundtrip():
    chain = [member(1, 1, 0)]
    witnesses = []
    b_seq = []
    rng = random.Random(7)
    for i in range(3):
        M = chain[-1]
        u = tuple(a for a in M.p0 if rng.random() < 0.3 and i < 1)
        N, b = adjoin_trace_element(M, u)
        N, w_names = extend_with_names(N, 2)
        w = FreeExtensionWitness.make(
            [b] + list(w_names.independent), w_names.h
        )
        chain.append(N)
        witnesses.append(w)
        b_seq.append(b)
    report = check_good_sequence(chain, b_seq)
    assert report.passed, report.failing()

    labeled, c_label, new_witnesses, bottom = label_good_sequence(chain, witnesses, b_seq)
    for n, b in enumerate(b_seq):
        assert labeled.f[(n, c_label)] == b
    assert check_Kminus1(labeled).passed
    # the labeled top freely extends every chain member
    full_chain = chain + [labeled]
    _, per_tail = union_of_chain(full_chain, new_witnesses)
    for i, w in enumerate(per_tail):
        r = check_free_extension(full_chain[i], labeled, w)
        assert r.passed, (i, r.failing())
    # sharp witness from the bottom: the whole column is fresh there
    rb = check_free_extension(chain[0], labeled, bottom)
    assert rb.passed, rb.failing()
    assert bottom.h[c_label] == 0


def test_labeling_with_rebase_through_combination():
    # choose b inside the span of two witness generators: rebasing kicks in
    chain = [member(0, 1, 0)]
    M = chain[0]
    N, w_names = extend_with_names(M, 2)
    x, y = w_names.independent[0], w_names.independent[1]
    from amalgam.k1.freepart import conj, disj, neg
    b = P1Element(0, disj(conj(x.free, neg(y.free)),
                          conj(neg(x.free), y.free)))  # symmetric difference
    chain.append(N)
    witnesses = [w_names]
    report = check_good_sequence(chain, [b])
    assert report.passed, report.failing()
    labeled, c_label, new_witnesses, bottom = label_good_sequence(
        chain, witnesses, [b]
    )
    assert labeled.f[(0, c_label)] == b
    assert b in new_witnesses[0].independent
    full_chain = chain + [labeled]
    _, per_tail = union_of_chain(full_chain, new_witnesses)
    for i, w in enumerate(per_tail):
        r = check_free_extension(full_chain[i], labeled, w)
        assert r.passed, (i, r.failing())


def xor(x: P1Element, y: P1Element) -> P1Element:
    return P1Element(0, disj(conj(x.free, neg(y.free)),
                             conj(neg(x.free), y.free)))


def bare_witness_elements(w: FreeExtensionWitness) -> list[P1Element]:
    return [x for x in w.independent if len(x.free.support) == 1
            and x == bare_generator(x.free.support[0])]


@pytest.mark.parametrize("seed", range(4))
def test_rebase_equals_the_full_window_oracle_on_tail_drains(seed):
    # every link of the bound-3 drain with two bare-generator witness
    # elements whose full window fits under WINDOW_CAP, for b the XOR of
    # two of them
    chain, witnesses = drain_with_link_witnesses(3, seed)
    compared = 0
    for i, w in enumerate(witnesses):
        bare = bare_witness_elements(w)
        last = len(bare) - 1
        for x, y in sorted({(0, 1), (0, last), (last - 1, last)}) \
                if last >= 1 else ():
            b = xor(bare[x], bare[y])
            try:
                expected = rebase_by_full_window(chain[i], chain[i + 1], w, b)
            except CapExceeded as err:
                assert err.cap == "WINDOW_CAP"
                continue
            assert _rebase_link(chain[i], chain[i + 1], w, b, i) == expected
            compared += 1
    assert compared >= 6


def test_rebase_runs_on_the_bound_4_drain():
    # link 2 of the seed-0 drain has 18 generators below it, so the full
    # window, with b's two generators, exceeds WINDOW_CAP
    chain, witnesses = drain_with_link_witnesses(4, 0)
    low, high, w = chain[2], chain[3], witnesses[2]
    bare = bare_witness_elements(w)
    b = xor(bare[0], bare[1])
    with pytest.raises(CapExceeded, match="WINDOW_CAP"):
        rebase_by_full_window(low, high, w, b)
    rebased = _rebase_link(low, high, w, b, 2)
    assert b in rebased.independent
    report = check_free_extension(low, high, rebased)
    assert report.passed, report.failing()


def test_a_rebase_through_a_meet_is_a_harvest_failure():
    # the meet of x and y lies in no basis of the algebra they generate
    chain = [member(0, 1, 0)]
    N, w_names = extend_with_names(chain[0], 2)
    chain.append(N)
    x, y = w_names.independent[:2]
    b = P1Element(0, conj(x.free, y.free))
    assert check_good_sequence(chain, [b]).passed
    with pytest.raises(HarvestFailed):
        label_good_sequence(chain, [w_names], [b])


def test_bad_sequence_rejected():
    chain = [member(0, 1, 0)]
    N, w = extend_with_names(chain[0], 1)  # below the surplus threshold
    chain.append(N)
    report = check_good_sequence(chain, [w.independent[0]])
    assert not report.passed
    assert report.failing() == ["good.surplus"]
    with pytest.raises(PreconditionFailed):
        label_good_sequence(chain, [w], [w.independent[0]])


def test_self_dependent_b_fails_freeness():
    chain = [member(0, 1, 0)]
    N, w = extend_with_names(chain[0], 2)
    chain.append(N)
    # b drawn from the bottom structure's own algebra
    b = chain[0].f[(0, chain[0].p2[0])]
    report = check_good_sequence(chain, [b])
    assert "good.freeness" in report.failing()


def test_a_misaligned_triple_is_an_amalgamation_refusal():
    # M1 is N1 with one value's bare generator replaced by a meet of two,
    # so the identity match of N1's name into M1 pairs free supports of
    # different sizes
    N1 = member(0, 1, 0)
    f = dict(N1.f)
    f[(1, N1.p2[0])] = P1Element(0, conj(var(N1.gen_ids[1]),
                                         var(N1.gen_ids[2])))
    M1 = replace(N1, f=f)
    identity = MatchEmbedding((), ((N1.p2[0], N1.p2[0]),))
    with pytest.raises(AmalgamationFailed,
                       match="disagree on free support size") as caught:
        amalgamate_free(M1, N1, N1, identity, identity)
    assert isinstance(caught.value, WitnessAlignmentFailed)
    assert issubclass(UltrafilterChoiceFailed, AmalgamationFailed)


def test_disjoint_ap_reads_a_k1_refusal_as_a_failed_triple(monkeypatch):
    def refuse(*args):
        raise UltrafilterChoiceFailed("no atomless position")

    monkeypatch.setattr(engine, "amalgamate_free", refuse)
    cls = engine.k1_class(TRUNC, 0)
    first = next((A, B, C) for A, B, _ in cls.task_pairs(2)
                 for C in cls.members(2) if cls.embeddings(A, C))
    assert check_disjoint_ap(cls, 2) == (False, first)


# ---------------------------------------------------------------------------
# The transport kernel against evaluation split by split
# ---------------------------------------------------------------------------


def head_build_transports(monkeypatch):
    """(transport, source values) for both transports of every amalgam of
    the 60-step head builds (max n* 1) at seeds 0-3: the big transport
    moves the values of M1, the small embedding those of N2."""
    found = []

    def recording(M1, N1, N2, into_big, into_small):
        result = amalgamate_free(M1, N1, N2, into_big, into_small)
        found.append((result.big_transport, M1.generator_elements()))
        found.append((result.small_embedding, N2.generator_elements()))
        return result

    monkeypatch.setattr(engine, "amalgamate_free", recording)
    for seed in range(4):
        engine.build_generic_k1(60, bound=3, trunc=6, seed=seed, max_n_star=1)
    return found


def synthetic_transports():
    """Seeded (transport, values): atom maps, generator maps into fresh
    ids and split points that list several generators, applied to ONE,
    zero, bare generators, complements and meets, each with an atomic
    part."""
    rng = random.Random(47)
    atoms, gens = range(4), range(10, 14)
    for _ in range(200):
        moved = rng.sample(atoms, rng.randint(0, 4))
        atom_map = dict(zip(moved, rng.sample(range(20, 28), len(moved))))
        renamed = rng.sample(gens, rng.randint(0, 4))
        gen_map = dict(zip(renamed, rng.sample(range(30, 38), len(renamed))))
        splits = tuple((40 + k, tuple((g, 1) for g in sorted(
                            rng.sample(gens, rng.randint(0, 3)))))
                       for k in range(rng.randint(0, 3)))
        t = TransportMap(atom_map=tuple(sorted(atom_map.items())),
                         gen_map=tuple(sorted(gen_map.items())),
                         splits=splits)
        frees = [ONE, ZERO] + [var(g) for g in gens] + \
            [neg(var(g)) for g in gens] + \
            [conj(var(g), var(h)) for g, h in zip(gens, gens[1:])] + \
            [_reduce(tuple(gens), rng.getrandbits(16)) for _ in range(3)]
        yield t, [P1Element(sum(1 << a for a in atoms if rng.random() < 0.4),
                            free) for free in frees]


def kernel_disagreements(cases):
    return sum(t.apply(values) != [transport_by_evaluation(t, x)
                                   for x in values]
               for t, values in cases)


def test_transport_kernel_equals_evaluation_on_head_builds(monkeypatch):
    cases = head_build_transports(monkeypatch)
    assert len(cases) > 50
    assert kernel_disagreements(cases) == 0
    # the kernel's table and renaming both act on these cases: bare
    # generators under split atoms, and transports with generator maps
    split_gens = {g for t, _ in cases for _, point in t.splits
                  for g, _ in point}
    assert any(x.free.support[0] in split_gens for _, values in cases
               for x in values if x.free.table == 0b10)
    assert any(t.gen_map and t.splits for t, _ in cases)


def test_transport_kernel_equals_evaluation_on_synthetic_values():
    cases = list(synthetic_transports())
    assert kernel_disagreements(cases) == 0
    assert sum(bool(t.gen_map and t.splits and t.atom_map)
               for t, _ in cases) > 50
    assert any(len(point) > 1 for t, _ in cases for _, point in t.splits)


@pytest.mark.parametrize("old, new", [
    # the split table read by the generator's image instead of itself
    ("atomic |= under_gen.get(g, 0)",
     "atomic |= under_gen.get(gens.get(g, g), 0)"),
    # bare generators get no split atom
    ("atomic |= under_gen.get(g, 0)", "atomic |= 0"),
])
def test_a_transport_kernel_mutant_is_caught(monkeypatch, old, new):
    monkeypatch.setattr(TransportMap, "apply",
                        planted(TransportMap.apply, old, new))
    assert kernel_disagreements(synthetic_transports()) > 0
