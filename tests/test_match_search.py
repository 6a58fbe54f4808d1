"""Embedding search with ``touching``: pinned enumeration, with and
without ``fixed`` assignments, against filtered and brute-force oracles, sign-vector refinement (``refine``,
``_signature_blocks`` and the amalgam's ``_principal_points``) against
per-point partitions and per-value meets, identical builder
ledgers with and without pinning, grouped discovery and
``richness_defect`` against per-pair enumeration (with a hook that
counts one call per base), the general match path against the
simple one and brute force, and the match table the search keeps per
structure: its lifetime and that of the memo of each structure's own
side of the leaf, and the P2 pools, the P0 check and the simple leaf
read off it against the per-value P2 and P0 conditions, the
refine-based leaf and brute force."""

import itertools
import random
from collections import Counter

import pytest

from amalgam.backends import graph_class, linear_order_class
from amalgam.boolalg import refine
from amalgam.fraisse import (
    GenericApproximation,
    Task,
    build_generic,
    richness_defect,
)
from amalgam.k1 import (
    K1Structure,
    MatchEmbedding,
    build_member,
    enumerate_matches,
    extend_match,
    is_valid_match,
    minimal_model,
)
from amalgam.k1 import embeddings
from amalgam.k1.embeddings import (
    _feasible,
    _generator_lists,
    _match_general,
    _p2_pools,
    _signs,
    _table,
    _zero_mask,
)
from amalgam.k1.engine import build_generic_k1, k1_class, k1_position_valid
from amalgam.k1.freepart import (
    ONE,
    ZERO,
    _expand,
    _reduce,
    conj,
    disj,
    neg,
    rename,
    var,
)
from amalgam.k1.ops import _principal_points
from amalgam.k1.p1 import P1Context, P1Element, _signature_blocks
from amalgam.structures import Embedding, enumerate_embeddings
from k1_fixtures import comp, meet
from oracles import (
    p0_profile_ok,
    p2_profile_ok,
    planted,
    simple_leaf_by_refine,
)

TRUNC = 6


def match_images(e):
    return {b for _, b in e.p0_map} | {d for _, d in e.p2_map}


def brute_force_matches(A, B):
    out = []
    for p2_img in itertools.permutations(B.p2, len(A.p2)):
        p2_map = dict(zip(A.p2, p2_img))
        for p0_img in itertools.permutations(B.p0, len(A.p0)):
            p0_map = dict(zip(A.p0, p0_img))
            if is_valid_match(A, B, p0_map, p2_map):
                out.append((tuple(sorted(p0_map.items())),
                            tuple(sorted(p2_map.items()))))
    return out


def brute_force_embeddings(A, B):
    out = []
    for img in itertools.permutations(B.universe, A.size):
        e = Embedding(A, B, dict(zip(A.universe, img)))
        if e.is_valid():
            out.append(e.key())
    return out


def touching_sets(ids, rng):
    """The empty set, every singleton and a few random subsets."""
    ids = sorted(ids)
    sets = [set()] + [{x} for x in ids]
    for _ in range(3):
        sets.append({x for x in ids if rng.random() < 0.4})
    return sets


def check_k1_pinning(A, M, touching_options):
    full = enumerate_matches(A, M)
    for S in touching_options:
        pinned = enumerate_matches(A, M, touching=S)
        assert pinned == [e for e in full if match_images(e) & S]
    return full


def check_structure_pinning(A, M, touching_options):
    full = enumerate_embeddings(A, M)
    for S in touching_options:
        pinned = enumerate_embeddings(A, M, touching=S)
        assert [e.key() for e in pinned] == \
            [e.key() for e in full if set(e.mapping.values()) & S]
    return full


@pytest.fixture(scope="module")
def k1_head_chain():
    g = build_generic_k1(12, bound=3, trunc=TRUNC, seed=0, max_n_star=1)
    return g.approximation.chain


# ---------------------------------------------------------------------------
# enumerate_matches
# ---------------------------------------------------------------------------


def test_pinned_matches_on_task_pairs_equal_filtered_and_brute_force():
    rng = random.Random(3)
    pairs = k1_class(TRUNC, 1).task_pairs(3)
    assert pairs
    for A, B, _ in pairs:
        full = check_k1_pinning(A, B, touching_sets(B.p0 + B.p2, rng))
        assert sorted(e.key() for e in full) == \
            sorted(brute_force_matches(A, B))


def test_pinned_matches_into_head_build_tops(k1_head_chain):
    chain = k1_head_chain
    assert len(chain) > 4
    members = k1_class(TRUNC, 1).members(3)
    rng = random.Random(5)
    for old, top in zip(chain, chain[1:]):
        fresh = (set(top.p0) | set(top.p2)) - (set(old.p0) | set(old.p2))
        assert fresh
        for A in members:
            options = [fresh] + touching_sets(top.p0 + top.p2, rng)[:4]
            full = check_k1_pinning(A, top, options)
            if top.size <= 7:
                assert sorted(e.key() for e in full) == \
                    sorted(brute_force_matches(A, top))


def test_pinned_matches_with_fixed_assignments(k1_head_chain):
    top = k1_head_chain[-1]
    for A, B, inc in k1_class(TRUNC, 1).task_pairs(3):
        for f in enumerate_matches(A, top)[:3]:
            inc_map = dict(inc.p0_map + inc.p2_map)
            f_map = dict(f.p0_map + f.p2_map)
            fixed = {inc_map[x]: f_map[x] for x in inc_map}
            full = enumerate_matches(B, top, fixed)
            for S in (match_images(f), {top.p0[-1]}, {top.p2[-1]}):
                pinned = enumerate_matches(B, top, fixed, touching=S)
                assert pinned == [e for e in full if match_images(e) & S]


def test_no_free_slot_yields_only_touching_embeddings():
    m = minimal_model(TRUNC)
    M = k1_class(TRUNC, 1).members(3)[-1]
    assert enumerate_matches(m, M) != []
    assert enumerate_matches(m, M, touching=set(M.p0)) == []


def test_members_of_different_truncations_have_no_match():
    # B's value table ends before A's, in either argument order
    A = build_member(1, 1, 0, trunc=6)
    B = build_member(1, 1, 0, trunc=4, start_id=50)
    assert enumerate_matches(A, B) == []
    assert enumerate_matches(B, A) == []
    inclusion = MatchEmbedding(((A.p0[0], A.p0[0]),), ())
    f = MatchEmbedding(((A.p0[0], B.p0[0]),), ())
    assert extend_match(A, B, inclusion, f) == []
    inclusion = MatchEmbedding(((B.p0[0], B.p0[0]),), ())
    f = MatchEmbedding(((B.p0[0], A.p0[0]),), ())
    assert extend_match(B, A, inclusion, f) == []


# ---------------------------------------------------------------------------
# enumerate_embeddings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make_cls, steps", [(linear_order_class, 30),
                                             (graph_class, 12)])
def test_pinned_embeddings_into_generic_tops(make_cls, steps):
    cls = make_cls()
    chain = build_generic(cls, steps, 3, seed=1).chain
    assert len(chain) > 3
    members = cls.members(3)
    rng = random.Random(7)
    for old, top in zip(chain, chain[1:]):
        fresh = set(top.universe) - set(old.universe)
        for A in members:
            options = [fresh] + touching_sets(top.universe, rng)[:4]
            full = check_structure_pinning(A, top, options)
            if top.size <= 6:
                assert sorted(e.key() for e in full) == \
                    sorted(brute_force_embeddings(A, top))


@pytest.mark.parametrize("make_cls, steps", [(linear_order_class, 30),
                                             (graph_class, 12)])
def test_pinned_embeddings_with_fixed_assignments(make_cls, steps):
    cls = make_cls()
    top = build_generic(cls, steps, 3, seed=1).top
    met_by_pins = narrowed = 0
    for A, B, inc in cls.task_pairs(3):
        for f in enumerate_embeddings(A, top)[:3]:
            fixed = {inc(a): f(a) for a in A.universe}
            full = enumerate_embeddings(B, top, fixed)
            for S in (set(fixed.values()), {top.universe[0]},
                      {top.universe[-1]}):
                pinned = enumerate_embeddings(B, top, fixed, touching=S)
                assert [e.key() for e in pinned] == \
                    [e.key() for e in full if set(e.mapping.values()) & S]
                met_by_pins += bool(pinned and S & set(fixed.values()))
                narrowed += bool(pinned) and len(pinned) < len(full)
    assert met_by_pins and narrowed


# ---------------------------------------------------------------------------
# Sign-vector refinement against per-point partitions
# ---------------------------------------------------------------------------


def tuple_keyed_partition(universe, masks):
    """The set bits of ``universe`` grouped by a tuple of signs per bit,
    the way block partitions were computed before ``refine``; returned as
    {vector: block} with bit i of the vector set under masks[i]."""
    masks = list(masks)
    blocks = {}
    for p in range(universe.bit_length()):
        if universe >> p & 1:
            sig = tuple(bool(m & (1 << p)) for m in masks)
            blocks[sig] = blocks.get(sig, 0) | 1 << p
    return {sum(bit << i for i, bit in enumerate(sig)): block
            for sig, block in blocks.items()}


def refined(universe, masks):
    pairs = refine(universe, masks)
    out = dict(pairs)
    assert len(out) == len(pairs), "a vector labels two blocks"
    return out


def test_refined_sign_vectors_equal_per_atom_vectors(k1_head_chain):
    top = k1_head_chain[-1]
    checked = 0
    for A, B, _ in k1_class(TRUNC, 1).task_pairs(3):
        for target in (B, top):
            for e in enumerate_matches(A, target):
                src, tgt = _generator_lists(A, target, dict(e.p0_map),
                                            dict(e.p2_map))
                for S, values in ((A, src), (target, tgt)):
                    masks = [x.atomic for x in values]
                    assert refined(S.ctx.full_mask, masks) == \
                        tuple_keyed_partition(S.ctx.full_mask, masks)
                    checked += 1
    assert checked > 100


def test_refined_sign_vectors_on_random_masks():
    rng = random.Random(13)
    cases = [(0, []), (0, [5, 3]), (0b1011, []), (1, [0]), (1, [1])]
    for _ in range(300):
        width = rng.randint(1, 40)
        universe = rng.getrandbits(width) if rng.random() < 0.9 else 0
        masks = [rng.getrandbits(width + 2) for _ in range(rng.randint(0, 8))]
        cases.append((universe, masks))
    for universe, masks in cases:
        assert refined(universe, masks) == \
            tuple_keyed_partition(universe, masks)
    assert refine(0, [1, 2]) == [] and refine(0b110, []) == [(0, 0b110)]


def per_point_signature_blocks(ctx, elements):
    """Atoms and window points partitioned one point at a time, joined by
    vector: {vector: (atom mask, window point table)}."""
    sigma = tuple(sorted({g for e in elements for g in e.free.support}))
    atoms = tuple_keyed_partition(ctx.full_mask, [e.atomic for e in elements])
    points = tuple_keyed_partition(
        (1 << (1 << len(sigma))) - 1,
        [_expand(e.free.table, e.free.support, sigma) for e in elements])
    return sigma, {v: (atoms.get(v, 0), points.get(v, 0))
                   for v in atoms.keys() | points.keys()}


def test_signature_blocks_equal_per_point_partition(k1_head_chain):
    rng = random.Random(23)
    families = []
    for _ in range(200):
        atoms, gens = range(rng.randint(0, 4)), range(10, 14)
        ctx = P1Context(tuple(atoms))
        values = [rich_value(rng, atoms, gens) for _ in range(rng.randint(0, 6))]
        families.append((ctx, values))
    for S in k1_head_chain[-3:]:
        families.append((S.ctx, list(S.g1.values())))
        families.append((S.ctx, list(S.f.values())[:8]))
    for ctx, values in families:
        sigma, blocks = _signature_blocks(ctx, values)
        want_sigma, want = per_point_signature_blocks(ctx, values)
        assert sigma == want_sigma
        assert {v: tuple(b) for v, b in blocks.items()} == want
        assert {tuple(b) for b in blocks.values()} == set(want.values())


def signed_meet(ctx, images, v):
    """The block with sign vector v over ``images``, one meet per value:
    how the amalgamation placed its atoms before ``_principal_points``."""
    out = P1Element(ctx.full_mask, ONE)
    for i, element in enumerate(images):
        out = meet(out, element if v >> i & 1 else comp(ctx, element))
    return out


def least_point(fn):
    """Lexicographically least satisfying assignment over fn's support,
    as its (generator, 1) pairs; None for the zero function."""
    for p in range(1 << len(fn.support)):
        if fn.table >> p & 1:
            return tuple((g, 1) for i, g in enumerate(fn.support) if p >> i & 1)
    return None


def test_principal_points_equal_signed_meets(k1_head_chain):
    rng = random.Random(29)
    families = []
    for _ in range(200):
        atoms, gens = range(rng.randint(0, 4)), range(10, 14)
        families.append((P1Context(tuple(atoms)), [
            rich_value(rng, atoms, gens) for _ in range(rng.randint(0, 6))]))
    # images as amalgamate_free sees them: task sources matched into task
    # targets, and (every sixth pair, to bound the cost of the per-value
    # meets over wide windows) into the head-build top
    top = k1_head_chain[-1]
    for i, (A, B, _) in enumerate(k1_class(TRUNC, 1).task_pairs(3)):
        for target in (B, top) if i % 6 == 0 else (B,):
            for e in enumerate_matches(A, target)[:1]:
                families.append((target.ctx, _generator_lists(
                    A, target, dict(e.p0_map), dict(e.p2_map))[1]))
    kinds = {"points": 0, "atoms only": 0, "unrealized": 0}
    for ctx, images in families:
        table = _principal_points(ctx, images)
        if len(images) <= 6:
            vectors = range(1 << len(images))
        else:  # a per-value meet over a wide window takes milliseconds
            vectors = rng.sample(sorted(table), min(2, len(table))) + \
                [rng.getrandbits(len(images)) for _ in range(2)]
        for v in vectors:
            block = signed_meet(ctx, images, v)
            assert table.get(v) == least_point(block.free)
            kinds["points" if not block.free.is_zero else
                  "atoms only" if block.atomic else "unrealized"] += 1
    assert all(count > 20 for count in kinds.values()), kinds


# ---------------------------------------------------------------------------
# Builder ledgers with and without pinning
# ---------------------------------------------------------------------------


def unpinned(cls, images):
    """The class with an ``embeddings`` hook that ignores ``touching`` in
    the search and filters the full list afterwards.

    The hook also asserts that no embedding it returns was returned for
    an earlier top: the builder keeps no set of seen embeddings, so such
    a repeat would enter the ledger twice.
    """
    hook = cls.embeddings
    first_top: dict[tuple, int] = {}

    def embeddings(A, M, touching=None):
        found = hook(A, M)
        if touching is not None:
            found = [e for e in found if images(e) & touching]
        for e in found:
            key = (id(A), e.key())
            assert first_top.setdefault(key, id(M)) == id(M)
        return found

    cls.embeddings = embeddings
    return cls


@pytest.mark.parametrize("max_n_star, steps", [(0, 400), (1, 40)])
@pytest.mark.parametrize("seed", range(4))
def test_k1_ledgers_identical_with_and_without_pinning(max_n_star, steps,
                                                       seed):
    runs = []
    for cls in (k1_class(TRUNC, max_n_star),
                unpinned(k1_class(TRUNC, max_n_star), match_images)):
        approx = build_generic(cls, steps, 3, seed)
        runs.append(([t.to_dict() for t in approx.tasks],
                     approx.top.canonical_key(), len(approx.chain)))
    assert runs[0] == runs[1]
    assert runs[0][2] > 1


@pytest.mark.parametrize("make_cls", [linear_order_class, graph_class])
def test_structure_ledgers_identical_with_and_without_pinning(make_cls):
    def images(e):
        return set(e.mapping.values())

    for seed in range(2):
        runs = []
        for cls in (make_cls(), unpinned(make_cls(), images)):
            approx = build_generic(cls, 40, 3, seed)
            runs.append(([t.to_dict() for t in approx.tasks],
                         approx.top.canonical_key()))
        assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Grouped discovery against per-pair enumeration
# ---------------------------------------------------------------------------


def per_pair_build_generic(cls, steps, bound, seed):
    """The scheduling loop with discovery calling ``embeddings`` once per
    task pair rather than once per base: the reference for the grouped
    builder."""
    pairs = cls.task_pairs(bound)
    chain = [cls.seed_model()]
    tasks, queue = [], []
    rng = random.Random(seed)

    def discover(stage, fresh):
        top = chain[-1]
        batch = [((pair_index, f.key()), f)
                 for pair_index, (A, _, _) in enumerate(pairs)
                 for f in cls.embeddings(A, top, touching=fresh)]
        batch.sort(key=lambda item: (item[0][0], item[0][1]))
        if seed:
            rng.shuffle(batch)
        for key, f in batch:
            queue.append(len(tasks))
            tasks.append(Task(key[0], f, stage))

    discover(0, None)
    steps_run = 0
    for _ in range(steps):
        if not queue:
            break
        index = queue.pop(0)
        task = tasks[index]
        A, B, inc = pairs[task.pair_index]
        f = task.f
        top = chain[-1]
        if cls.extend(A, B, inc, f, top) is not None:
            task.status = "realized"
            task.resolved_at = len(chain) - 1
        else:
            new_top = cls.amalgamate(top, A, B, f, inc)
            fresh = cls.new_ids(top, new_top)
            chain.append(new_top)
            task.status = "amalgamated"
            task.resolved_at = len(chain) - 1
            discover(len(chain) - 1, fresh)
        steps_run += 1
    return GenericApproximation(chain, tasks, pairs, steps_run)


def per_pair_richness_defect(M, cls, bound):
    """``richness_defect`` with one ``embeddings`` call per task pair."""
    defects = []
    for pair_index, (A, B, inc) in enumerate(cls.task_pairs(bound)):
        for f in cls.embeddings(A, M):
            if cls.extend(A, B, inc, f, M) is None:
                defects.append((pair_index, f.key()))
    return defects


def counting(cls):
    """The class with an ``embeddings`` hook that records the identities
    of the base and the target of every call."""
    hook = cls.embeddings
    calls = []

    def embeddings(A, M, touching=None):
        calls.append((id(A), id(M)))
        return hook(A, M, touching=touching)

    cls.embeddings = embeddings
    return cls, calls


def check_once_per_base(cls, bound, calls, targets):
    """Every call enumerates a distinct (base, target), and every target
    was enumerated into from each distinct base."""
    bases = {id(A) for A, _, _ in cls.task_pairs(bound)}
    assert max(Counter(calls).values()) == 1
    per_target = Counter(M for _, M in calls)
    assert set(per_target) == {id(M) for M in targets}
    assert set(per_target.values()) == {len(bases)}
    return len(bases)


def ledger(approx):
    return ([t.to_dict() for t in approx.tasks], approx.top.canonical_key(),
            len(approx.chain))


@pytest.mark.parametrize("max_n_star, steps", [(0, 400), (1, 40)])
@pytest.mark.parametrize("seed", range(4))
def test_k1_grouped_discovery_equals_per_pair(max_n_star, steps, seed):
    reference = per_pair_build_generic(k1_class(TRUNC, max_n_star), steps,
                                       3, seed)
    cls, calls = counting(k1_class(TRUNC, max_n_star))
    grouped = build_generic(cls, steps, 3, seed)
    assert ledger(grouped) == ledger(reference)
    assert len(grouped.chain) > 1
    bases = check_once_per_base(cls, 3, calls, grouped.chain)
    assert bases == (8 if max_n_star else 6)
    assert bases < len(grouped.pairs)


@pytest.mark.parametrize("make_cls", [linear_order_class, graph_class])
@pytest.mark.parametrize("seed", range(4))
def test_structure_grouped_discovery_equals_per_pair(make_cls, seed):
    reference = per_pair_build_generic(make_cls(), 40, 3, seed)
    cls, calls = counting(make_cls())
    grouped = build_generic(cls, 40, 3, seed)
    assert ledger(grouped) == ledger(reference)
    assert len(grouped.chain) > 1
    assert check_once_per_base(cls, 3, calls, grouped.chain) < \
        len(grouped.pairs)


@pytest.mark.parametrize("make_cls", [linear_order_class, graph_class])
def test_builder_stops_once_the_ledger_drains(make_cls):
    # at bound 1 the one task (the empty base into the empty seed) adds a
    # point, and no embedding of the empty base touches it, so the ledger
    # is drained after one step; larger bounds never drain
    approx = build_generic(make_cls(), 50, 1, 0)
    assert approx.steps_run == 1 and len(approx.chain) == 2
    assert [t.status for t in approx.tasks] == ["amalgamated"]
    assert ledger(approx) == ledger(per_pair_build_generic(make_cls(), 50,
                                                           1, 0))


def test_grouped_richness_defect_on_a_mid_chain_top(k1_head_chain):
    M = k1_head_chain[len(k1_head_chain) // 2]
    reference = per_pair_richness_defect(M, k1_class(TRUNC, 1), 3)
    cls, calls = counting(k1_class(TRUNC, 1))
    defects = richness_defect(M, cls, 3)
    assert defects and defects == reference
    check_once_per_base(cls, 3, calls, [M])


def test_grouped_richness_defect_on_the_saturated_top():
    top = build_generic_k1(200, bound=3, trunc=6, seed=0).top
    assert per_pair_richness_defect(top, k1_class(6, 0), 3) == []
    cls, calls = counting(k1_class(6, 0))
    assert richness_defect(top, cls, 3) == []
    check_once_per_base(cls, 3, calls, [top])


# ---------------------------------------------------------------------------
# The general match path against the simple path and a brute-force oracle
# ---------------------------------------------------------------------------


def per_list_leaf(A, B, src, tgt):
    """The refine-based simple leaf on the lists alone, on the lists' own
    zero masks, or None when either list has another shape."""
    zero, zero_t = _zero_mask(src), _zero_mask(tgt)
    if zero is None or zero_t is None:
        return None
    return zero == zero_t and simple_leaf_by_refine(A, B, src, tgt, zero)


def agree_on_all_injections(A, B):
    """Compare the general path, the refine-based simple leaf and
    ``is_valid_match`` on every P0/P2 injection A -> B whose target
    values have at most TRUNC generators (one name's column; the general
    path expands truth tables over them); returns the outcomes seen."""
    outcomes = []
    for p2_img in itertools.permutations(B.p2, len(A.p2)):
        for p0_img in itertools.permutations(B.p0, len(A.p0)):
            p0_map, p2_map = dict(zip(A.p0, p0_img)), dict(zip(A.p2, p2_img))
            src, tgt = _generator_lists(A, B, p0_map, p2_map)
            if len({g for x in tgt for g in x.free.support}) > TRUNC:
                continue
            simple = per_list_leaf(A, B, src, tgt)
            assert simple is not None
            assert _match_general(A, B, src, tgt) == simple
            assert is_valid_match(A, B, p0_map, p2_map) == simple
            outcomes.append(simple)
    return outcomes


def test_general_path_agrees_with_simple_path(k1_head_chain):
    outcomes = []
    for A, B, _ in k1_class(TRUNC, 1).task_pairs(3):
        outcomes += agree_on_all_injections(A, B)
    members = k1_class(TRUNC, 1).members(3)
    for top in k1_head_chain:
        for A in members:
            outcomes += agree_on_all_injections(A, top)
    assert len(outcomes) > 1000
    assert set(outcomes) == {True, False}


def classify(ctx, values, pattern):
    """Zero, nonzero purely atomic, or with free content: the signed meet
    of ``values`` under the sign ``pattern``."""
    m = P1Element(ctx.full_mask, ONE)
    for i, x in enumerate(values):
        m = meet(m, x if pattern >> i & 1 else comp(ctx, x))
    if m.atomic == 0 and m.free.is_zero:
        return "zero"
    return "atomic" if m.free.is_zero else "free"


def oracle_match(A, B, src, tgt):
    return all(classify(A.ctx, src, p) == classify(B.ctx, tgt, p)
               for p in range(1 << len(src)))


def rich_value(rng, atoms, gens):
    """A value with a random atomic mask and a random function of up to
    three generators."""
    atomic = sum(1 << a for a in atoms if rng.random() < 0.4)
    support = tuple(sorted(rng.sample(gens, rng.randint(0, 3))))
    free = _reduce(support, rng.randrange(1 << (1 << len(support))))
    return P1Element(atomic, free)


def carrier(atoms, gens):
    """A structure with the given atoms and generators and nothing else;
    the match paths read only its atom inventory."""
    return K1Structure(TRUNC, (), (), tuple(atoms), tuple(gens), {}, {})


def renamed(rng, src, atoms, gens):
    """A copy of ``src`` on fresh atom and generator ids: always a match."""
    atom_map = {a: a + 20 for a in atoms}
    gen_map = {g: g + 20 for g in gens}
    return carrier(atom_map.values(), gen_map.values()), [
        P1Element(sum(1 << atom_map[a] for a in atoms if x.atomic >> a & 1),
                  rename(x.free, gen_map)) for x in src]


def atom_moved_to_free(rng, src, atoms, gens):
    """``src`` with its first atom replaced by the free region where a
    fresh generator h holds: every signed meet is zero exactly when it was
    before, but a meet that was purely atomic on that atom now has free
    content."""
    a, h = atoms[0], 99
    off = neg(var(h))

    def move(x):
        free = conj(off, x.free)
        if x.atomic >> a & 1:
            free = disj(var(h), free)
        return P1Element(x.atomic & ~(1 << a), free)

    return carrier(atoms[1:], list(gens) + [h]), [move(x) for x in src]


def random_values(rng, src, atoms, gens):
    """Random values over a fresh random atom inventory: mostly no match."""
    atoms_b = range(rng.randint(0, 3))
    return carrier(atoms_b, gens), [rich_value(rng, atoms_b, gens)
                                    for _ in src]


TARGETS = {"renamed": renamed, "moved": atom_moved_to_free,
           "random": random_values}


def test_general_path_agrees_with_brute_force_on_rich_values():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(150):
        atoms, gens = range(rng.randint(0, 3)), range(10, 14)
        A = carrier(atoms, gens)
        src = [rich_value(rng, atoms, gens) for _ in range(rng.randint(1, 10))]
        kind = rng.choice(sorted(TARGETS) if atoms else ["random", "renamed"])
        B, tgt = TARGETS[kind](rng, src, atoms, gens)
        got = _match_general(A, B, src, tgt)
        assert got == oracle_match(A, B, src, tgt)
        outcomes.add((kind, got))
    assert outcomes == {("renamed", True), ("moved", True), ("moved", False),
                        ("random", True), ("random", False)}


# ---------------------------------------------------------------------------
# Match validity and the P2 profile on values that share generators
# ---------------------------------------------------------------------------


def simple_value(rng, atoms, gens):
    """A value with a random atomic mask and a zero or bare-generator free
    part; with few generators, values often share one."""
    atomic = sum(1 << a for a in atoms if rng.random() < 0.4)
    return P1Element(atomic, var(rng.choice(gens)) if rng.random() < 0.7
                     else ZERO)


def regrouped(rng, src, atoms, gens):
    """``src`` with its generators sent through a random map of ``gens``
    into itself: the sharing pattern changes when the map is not
    injective on the generators in use."""
    image = {g: rng.choice(gens) for g in gens}
    return carrier(atoms, gens), [
        P1Element(x.atomic, var(image[x.free.support[0]]) if x.free.support
                  else ZERO) for x in src]


def random_simple_values(rng, src, atoms, gens):
    """Random simple-shaped values on the same inventory: mostly no
    match."""
    return carrier(atoms, gens), [simple_value(rng, atoms, gens)
                                  for _ in src]


SIMPLE_TARGETS = {"renamed": renamed, "regrouped": regrouped,
                  "random": random_simple_values}


def simple_lists():
    """Seeded (A, B, source values, target values, target kind): lists of
    zero and bare-generator free parts, often sharing a generator."""
    rng = random.Random(41)
    for _ in range(300):
        atoms, gens = range(rng.randint(0, 3)), range(10, 13)
        A = carrier(atoms, gens)
        src = [simple_value(rng, atoms, gens) for _ in range(rng.randint(1, 6))]
        kind = rng.choice(sorted(SIMPLE_TARGETS))
        B, tgt = SIMPLE_TARGETS[kind](rng, src, atoms, gens)
        yield A, B, src, tgt, kind


def repeats_a_generator(values):
    gens = [x.free.support for x in values if not x.free.is_zero]
    return len(set(gens)) < len(gens)


def valid_as_p0_values(A, B, src, tgt):
    """``is_valid_match`` (as the module holds it, so that a planted
    mutant takes its place) with ``src`` and ``tgt`` as the values of the
    P0 ids 0, 1, ... of A and of B, matched positionwise."""
    A.g1, B.g1 = dict(enumerate(src)), dict(enumerate(tgt))
    return embeddings.is_valid_match(A, B, {i: i for i in range(len(src))},
                                     {})


def match_outcomes():
    """(target kind, source repeats a generator, ``is_valid_match``,
    brute force) on the seeded simple-shaped lists."""
    return Counter((kind, repeats_a_generator(src),
                    valid_as_p0_values(A, B, src, tgt),
                    oracle_match(A, B, src, tgt))
                   for A, B, src, tgt, kind in simple_lists())


def test_zero_mask_refuses_repeats_and_richer_values():
    rng = random.Random(17)
    rich = [[rich_value(rng, range(2), range(10, 14))
             for _ in range(rng.randint(1, 6))] for _ in range(150)]
    lists = [values for _, _, src, tgt, _ in simple_lists()
             for values in (src, tgt)] + rich
    seen = Counter()
    for values in lists:
        richer = any(not x.free.is_zero and (
            x.free.table != 0b10 or len(x.free.support) != 1)
            for x in values)
        refused = richer or repeats_a_generator(values)
        mask = _zero_mask(values)
        assert (mask is None) == refused, values
        if not refused:
            assert mask == sum(1 << i for i, x in enumerate(values)
                               if x.free.is_zero)
        seen["richer" if richer else "repeat" if refused else "mask"] += 1
    assert set(seen) == {"richer", "repeat", "mask"}, seen


def test_match_agrees_with_brute_force_on_shared_generators():
    outcomes = match_outcomes()
    assert all(got == want for _, _, got, want in outcomes), outcomes
    assert sum(n for (_, shared, _, _), n in outcomes.items() if shared) > 100
    assert {got for _, shared, got, _ in outcomes if shared} == {True, False}
    assert {(kind, got) for kind, _, got, _ in outcomes} == {
        ("renamed", True), ("regrouped", True), ("regrouped", False),
        ("random", True), ("random", False)}


def test_a_simple_path_that_accepts_shared_generators_is_caught(
        monkeypatch):
    monkeypatch.setattr(embeddings, "_zero_mask", planted(
        _zero_mask, " or fn.support[0] in seen:", ":"))
    outcomes = match_outcomes()
    assert any(got != want for _, _, got, want in outcomes)


# Position 0 has a zero free part over atom 0, position 1 is the bare
# generator 10, and the target B has atom 0 alone.  In the first case
# atom 1 realizes 0b10 outside ``under`` (it lies under no zero
# position), and the free factor realizes 0b10 on both sides, so the
# match holds; in the second, atom 1 lies under position 0 and realizes
# 0b11, which B cannot realize, so the match fails.
UNDER_CASES = [
    ("outside under", carrier(range(3), (10,)),
     [P1Element(0b001, ZERO), P1Element(0b010, var(10))], True),
    ("inside under", carrier(range(2), (10,)),
     [P1Element(0b11, ZERO), P1Element(0b10, var(10))], False),
]
UNDER_TARGET = (carrier(range(1), (10,)),
                [P1Element(0b1, ZERO), P1Element(0, var(10))])


def test_the_simple_leaf_reads_only_the_atoms_under_zero_positions():
    B, tgt = UNDER_TARGET
    for _, A, src, want in UNDER_CASES:
        assert oracle_match(A, B, src, tgt) == want
        assert per_list_leaf(A, B, src, tgt) == want
        assert per_list_leaf(B, A, tgt, src) == want
        assert valid_as_p0_values(A, B, src, tgt) == want


def test_a_leaf_that_refines_one_side_over_every_atom_is_caught(
        monkeypatch):
    # side A keeps the vectors of all its atoms, not only of those under
    # a zero position
    unfiltered = planted(
        _signs, "for t in rows if own else heads:\n"
        "        head, row = heads.get(t, 0), rows.get(t, 0)\n"
        "        if head & zero_heads or row & own:",
        "for t in rows:\n"
        "        head, row = heads.get(t, 0), rows.get(t, 0)\n"
        "        if True:")
    mutant = planted(is_valid_match, "_signs(A, table,",
                     "unfiltered(A, table,", unfiltered=unfiltered)
    monkeypatch.setattr(embeddings, "is_valid_match", mutant)
    B, tgt = UNDER_TARGET
    assert [valid_as_p0_values(A, B, src, tgt)
            for _, A, src, _ in UNDER_CASES] == [False, False]
    outcomes = match_outcomes()
    assert any(got != want for _, _, got, want in outcomes)


def random_column(rng, gens):
    """Values of one P2 name: zero, bare generators (often shared) and
    now and then a richer function."""
    column = []
    for _ in range(TRUNC):
        roll = rng.random()
        free = ZERO if roll < 0.3 else var(rng.choice(gens)) if roll < 0.9 \
            else conj(var(gens[0]), neg(var(gens[1])))
        column.append(P1Element(0, free))
    return column


def column_structure(rng, width):
    """A fresh structure with ``width`` P2 names, each with a seeded
    random column over three generators."""
    gens = (10, 11, 12)
    return K1Structure(TRUNC, (), tuple(range(width)), (), gens, {}, {
        (n, c): x for c in range(width)
        for n, x in enumerate(random_column(rng, gens))})


def p2_pool_verdicts(pools_of, k1_head_chain):
    """(d in c's pool of ``pools_of(A, B, A.p2)``, ``p2_profile_ok``) over
    every P2 name pair of the task pairs and of the members into the
    build's tops, then of seeded random columns; each pool must keep
    ``B.p2`` order, and equal the pool of c asked for alone."""
    verdicts = Counter()
    cls = k1_class(TRUNC, 1)
    pairs = [(A, B) for A, B, _ in cls.task_pairs(3)] + \
        [(A, top) for top in k1_head_chain for A in cls.members(3)]
    rng = random.Random(43)
    pairs += [(column_structure(rng, 1), column_structure(rng, 4))
              for _ in range(100)]
    for A, B in pairs:
        for c, pool in zip(A.p2, pools_of(A, B, A.p2), strict=True):
            assert pool == [d for d in B.p2 if d in pool]
            assert pools_of(A, B, [c]) == [pool]
            for d in B.p2:
                verdicts[d in pool, p2_profile_ok(A, B, c, d)] += 1
    return verdicts


def test_p2_profile_equals_per_value_kinds(k1_head_chain):
    verdicts = p2_pool_verdicts(_p2_pools, k1_head_chain)
    assert set(verdicts) == {(True, True), (False, False)}


def test_p2_profile_catches_a_zero_generator_mismatch(k1_head_chain):
    mutant = planted(_p2_pools, "if differ and", "if False and")
    verdicts = p2_pool_verdicts(mutant, k1_head_chain)
    assert (True, False) in verdicts


def test_a_shape_table_that_ignores_the_first_rich_index_is_caught(
        monkeypatch, k1_head_chain):
    monkeypatch.setattr(embeddings, "_table", planted(
        _table, "rich |= first", "pass"))
    verdicts = p2_pool_verdicts(_p2_pools, k1_head_chain)
    assert (False, True) in verdicts


def test_a_shape_table_that_reads_g1_over_p0_only_is_caught(monkeypatch):
    monkeypatch.setattr(embeddings, "_table", planted(
        _table, "*S.g1.values()", "*(S.g1[a] for a in S.p0)"))
    outcomes = match_outcomes()
    assert any(got != want for _, _, got, want in outcomes)


# ---------------------------------------------------------------------------
# The match table: its lifetime, and the tabled pools, P0 check and leaf
# against the per-value conditions, the refine-based leaf and brute force
# ---------------------------------------------------------------------------


def contents(M):
    """What M's match table holds past the four objects it was read
    from and its memo: (simple, offsets, zeros, rich, rows)."""
    return _table(M)[4:9]


def own_signs(M):
    """``_signs`` on M's own ids in order, which M's memo keeps."""
    return _signs(M, _table(M), M.p0, M.p2)


def test_rebinding_f_g1_or_p2_rebuilds_the_shape_table():
    M = build_member(2, 2, 1, trunc=TRUNC,
                     head_plan=[[((0,), True)], [((1,), False)]])
    c, d = M.p2
    s, t = M.atom_ids
    first = _table(M)
    assert _table(M) is first and first[-1] == []
    # the memo is filled by the first call on M's own ids, then read
    own = own_signs(M)
    assert first[-1] == [own] and own_signs(M) is own
    # F[0][c] holds atom s with a generator, F[0][d] atom t with none
    assert contents(M) == (True, {c: 0, d: TRUNC}, 1 << TRUNC, 0,
                           {s: 1, t: 1 << TRUNC})
    # an in-place edit goes unseen until the field is rebound
    M.f[(0, c)] = P1Element(M.f[(0, c)].atomic, ZERO)
    assert _table(M) is first
    M.f = dict(M.f)
    assert _table(M)[-1] == []
    zeros = 1 | 1 << TRUNC
    assert contents(M) == (True, {c: 0, d: TRUNC}, zeros, 0,
                           {s: 1, t: 1 << TRUNC})
    # the zero free part is new, so the memo filled again differs
    assert own_signs(M) != own and _table(M)[-1] == [own_signs(M)]
    # a rebinding of p0, here to its reverse, rebuilds the table and so
    # the memo; a partial list, or one out of order, is never memoised
    table, own = _table(M), own_signs(M)
    assert _signs(M, table, list(M.p0), list(M.p2)) is own
    M.p0 = M.p0[::-1]
    assert _table(M) is not table and _table(M)[-1] == []
    assert _signs(M, _table(M), M.p0[::-1], M.p2) == own
    assert _signs(M, _table(M), M.p0[:1], M.p2) != own
    assert _table(M)[-1] == []
    assert own_signs(M) != own and _table(M)[-1] == [own_signs(M)]
    M.p0 = M.p0[::-1]
    x, y = (M.f[(n, d)].free for n in (1, 2))
    M.f = {**M.f, (2, d): P1Element(0, conj(x, y)),
           (4, d): P1Element(1 << s, conj(x, y))}
    # d's first richer index is 2; the atom s now lies under F[4][d]
    assert contents(M) == (False, {c: 0, d: TRUNC}, zeros,
                           1 << TRUNC + 2,
                           {s: 1 | 1 << TRUNC + 4, t: 1 << TRUNC})
    M.f = {**M.f, (2, d): P1Element(0, y), (4, d): M.f[(4, c)]}
    assert contents(M)[0] is False  # (4, c) and (4, d) share a generator
    M.f = {**M.f, (4, d): P1Element(0, var(99))}
    assert contents(M) == (True, {c: 0, d: TRUNC}, zeros, 0,
                           {s: 1, t: 1 << TRUNC})
    # a G1 value that carries a generator of F is not simple
    M.g1 = {**M.g1, M.p0[0]: P1Element(M.g1[M.p0[0]].atomic, x)}
    assert contents(M)[0] is False
    M.p2 = (d,)
    assert contents(M) == (False, {d: 0}, 1, 0, {s: 0, t: 1})
    copy = M.copy()
    assert copy._table == (None, None, None, None)
    assert contents(copy) == contents(M)


def list_leaf(A, B, src, tgt):
    """The leaf on the lists alone: ``per_list_leaf``, else the general
    path."""
    fast = per_list_leaf(A, B, src, tgt)
    return _match_general(A, B, src, tgt) if fast is None else fast


def route(A, B, src, tgt):
    """Which path ``is_valid_match`` takes: the simple leaf with both
    structures simple ("tabled"), the simple leaf once ``_zero_mask``
    accepts both lists of a structure that is not simple ("list"), or
    the general path."""
    if contents(A)[0] and contents(B)[0]:
        return "tabled"
    if _zero_mask(src) is None or _zero_mask(tgt) is None:
        return "general"
    return "list"


def fresh_signs(S, ids_p0, ids_p2):
    """``_signs`` computed, on a copy of S's table with an empty memo."""
    return _signs(S, _table(S)[:-1] + ([],), ids_p0, ids_p2)


def check_position(A, B, p0_map, p2_map, brute_force_up_to):
    """Check one (partial) map A -> B against the oracles, and return what
    was seen: the leaf's verdict by route and, for a map of all of A's
    ids, by whether they are listed in A's own order (so that the leaf
    reads A's side from its memo); and the P0 check's verdicts when
    every P2 id of A is mapped.

    The table's zero masks must be the lists' own, ``_signs`` (from the
    memo or not) must equal a computation on an empty memo,
    ``is_valid_match`` must agree with the refine-based leaf (or the
    general path) and, on lists of at most ``brute_force_up_to`` values,
    with brute force (which takes time exponential in the length), and
    the tabled P0 check must agree with ``p0_profile_ok`` at every
    mapped P0 id."""
    src, tgt = _generator_lists(A, B, p0_map, p2_map)
    way = route(A, B, src, tgt)
    if way != "general":
        signs = _signs(A, _table(A), p0_map.keys(), p2_map.keys())
        assert signs == fresh_signs(A, p0_map.keys(), p2_map.keys())
        assert signs[0] == _zero_mask(src)
        assert _signs(B, _table(B), p0_map.values(),
                      p2_map.values())[0] == _zero_mask(tgt)
    got = is_valid_match(A, B, p0_map, p2_map)
    assert got == list_leaf(A, B, src, tgt)
    seen = Counter({(way, "leaf", got): 1})
    if len(p0_map) == len(A.p0) and len(p2_map) == len(A.p2):
        own = list(p0_map) == list(A.p0) and list(p2_map) == list(A.p2)
        seen["own order" if own else "reordered", got] += 1
    if len(src) <= brute_force_up_to:
        assert got == oracle_match(A, B, src, tgt)
        seen["brute force", got] += 1
    if set(p2_map) == set(A.p2):
        feasible = _feasible(A, B)
        mapping = {**p0_map, **p2_map}
        for a in p0_map:
            ok = feasible(mapping, a)
            assert ok == p0_profile_ok(A, B, a, mapping)
            seen[way, "p0", ok] += 1
    return seen


def moved(images, x, y):
    """``images`` with x sent to y, and whatever was sent to y sent to
    x's old image."""
    return {z: y if z == x else images[x] if w == y else w
            for z, w in images.items()}


def refused_maps(A, M, rng):
    """Maps made from the first match A -> M, if any, that the leaf
    refuses: one P0 image moved to (or swapped with) a P0 id of M whose
    atom has another profile over the image columns, and one P2 image
    moved onto a column of M with another zero mask, which the P2 pools
    would not offer."""
    first = enumerate_matches(A, M, first_only=True)
    if not first:
        return []
    p0_map, p2_map = dict(first[0].p0_map), dict(first[0].p2_map)

    def profile(b):
        return [M.f[(n, d)].atomic & M.g1[b].atomic != 0
                for d in p2_map.values() for n in range(M.trunc)]

    def zero_mask(d):
        return [M.f[(n, d)].free.is_zero for n in range(M.trunc)]

    out = []
    for a, b in p0_map.items():
        others = [y for y in M.p0 if profile(y) != profile(b)]
        if others:
            out.append((moved(p0_map, a, rng.choice(others)), p2_map))
            break
    for c, d in p2_map.items():
        others = [e for e in M.p2 if zero_mask(e) != zero_mask(d)]
        if others:
            out.append((p0_map, moved(p2_map, c, rng.choice(others))))
            break
    return out


def sample_maps(A, M, rng):
    """The first matches A -> M, again with A's ids listed in reverse
    order, then seeded random injections and partial maps of A's ids
    into M's."""
    maps = [(dict(e.p0_map), dict(e.p2_map))
            for e in enumerate_matches(A, M)[:3]]
    if len(A.p0) > 1 or len(A.p2) > 1:
        maps += [(dict(reversed(p0_map.items())),
                  dict(reversed(p2_map.items()))) for p0_map, p2_map in maps]
    for _ in range(3):
        p0_map = dict(zip(A.p0, rng.sample(M.p0, len(A.p0))))
        p2_map = dict(zip(A.p2, rng.sample(M.p2, len(A.p2))))
        maps.append((p0_map, p2_map))
        maps.append(({a: b for a, b in p0_map.items() if rng.random() < 0.5},
                     {c: d for c, d in p2_map.items() if rng.random() < 0.5}))
    return maps


def with_a_shared_column(M):
    """M with one more P2 name whose column repeats the values of M's
    first column: M's own lists keep their shape, but M is not simple, so
    a match into it takes the list-mask route.  None when M has no P2
    name."""
    if not M.p2:
        return None
    N = M.copy()
    extra = max(N.all_ids()) + 1
    N.f.update(((n, extra), M.f[(n, M.p2[0])]) for n in range(M.trunc))
    N.p2 = M.p2 + (extra,)
    return N


# (bound, steps, max n*): the drained tails at bounds 3 and 4 and the
# 60-step head build, the builds of the ``builds`` fixture
ENGINE_BUILDS = [(3, 50_000, 0), (4, 50_000, 0), (3, 60, 1)]
VERDICTS = {(kind, verdict) for kind in ("leaf", "p0")
            for verdict in (True, False)}


@pytest.mark.parametrize("seed", range(4))
def test_tabled_pools_and_leaf_agree_with_the_oracle_on_engine_chains(builds,
                                                                    seed):
    # every chain structure of the bound-3 and bound-4 tail drains and of
    # the 60-step head build, against each member of the build's class,
    # and the same structure with a column that shares its generators
    rng = random.Random(seed)
    seen = Counter()
    for bound, steps, max_n_star in ENGINE_BUILDS:
        members = k1_class(TRUNC, max_n_star).members(bound)
        g = builds(steps, bound, seed, max_n_star)
        for i, M in enumerate(g.approximation.chain):
            # brute force takes time exponential in the list's length:
            # lists of up to seven values into the first two structures
            # and the refused maps into every structure, up to three
            # otherwise
            brute = 7 if i < 2 else 3
            shared = with_a_shared_column(M)
            for A in members:
                if len(A.p0) > len(M.p0) or len(A.p2) > len(M.p2):
                    continue
                for c, pool in zip(A.p2, _p2_pools(A, M, A.p2)):
                    assert pool == [d for d in M.p2
                                    if p2_profile_ok(A, M, c, d)]
                    seen["pool", pool == list(M.p2)] += 1
                for p0_map, p2_map in sample_maps(A, M, rng):
                    seen += check_position(A, M, p0_map, p2_map, brute)
                    if shared is not None:
                        seen += check_position(A, shared, p0_map, p2_map,
                                               brute)
                for p0_map, p2_map in refused_maps(A, M, rng):
                    seen += check_position(A, M, p0_map, p2_map, 7)
    # brute force gets refused maps at every seed from refused_maps, and
    # the leaf reads A's side from its memo (own order) and not
    assert set(seen) == {
        ("pool", True), ("pool", False), ("brute force", True),
        ("brute force", False), ("own order", True), ("own order", False),
        ("reordered", True)} | {
        (way, *verdict) for way in ("tabled", "list")
        for verdict in VERDICTS}, seen


def test_tabled_leaf_agrees_on_partial_positions_of_synthetic_lists():
    # the seeded simple-shaped lists as the values of P0 ids, picked
    # through k1_position_valid whole in id order (which fills the memo),
    # whole in reverse order and in part: structures whose values repeat
    # a generator take the list-mask route (or, when the picked lists
    # repeat one too, the general path), the others the tabled one
    rng = random.Random(47)
    seen = Counter()
    for A, B, src, tgt, _ in simple_lists():
        ids = tuple(range(len(src)))
        A.p0, B.p0 = ids, ids
        A.g1, B.g1 = dict(enumerate(src)), dict(enumerate(tgt))
        picks = tuple(i for i in ids if rng.random() < 0.7)
        for pick in (ids, ids[::-1], picks):
            got = k1_position_valid(A, B, pick, pick)
            seen += check_position(A, B, {i: i for i in pick}, {}, len(src))
            seen["partial" if len(pick) < len(ids) else "whole", got] += 1
    assert set(seen) == {
        (way, *verdict) for way in ("tabled", "list", "general")
        for verdict in VERDICTS} | set(itertools.product(
            ("brute force", "partial", "whole", "own order", "reordered"),
            (True, False))), seen


def reordered_verdicts(k1_head_chain):
    """(``is_valid_match``, the refine-based leaf) on the first match of
    each bound-3 member with two P0 or two P2 ids into each top of the
    head build, with A's ids listed in A's order and in reverse order."""
    verdicts = Counter()
    for M in k1_head_chain:
        for A in k1_class(TRUNC, 1).members(3):
            if len(A.p0) < 2 and len(A.p2) < 2:
                continue
            for e in enumerate_matches(A, M)[:1]:
                p0_map, p2_map = dict(e.p0_map), dict(e.p2_map)
                for p0, p2 in ((p0_map, p2_map),
                               (dict(reversed(p0_map.items())),
                                dict(reversed(p2_map.items())))):
                    src, tgt = _generator_lists(A, M, p0, p2)
                    verdicts[embeddings.is_valid_match(A, M, p0, p2),
                             list_leaf(A, M, src, tgt)] += 1
    return verdicts


def test_a_memo_read_for_ids_out_of_order_is_caught(monkeypatch,
                                                    k1_head_chain):
    assert set(reordered_verdicts(k1_head_chain)) == {(True, True)}
    # the memo read whenever the id counts match, ignoring their order
    monkeypatch.setattr(embeddings, "_signs", planted(
        _signs, "tuple(p0_ids) == S.p0 and tuple(p2_ids) == S.p2", "True"))
    assert (False, True) in reordered_verdicts(k1_head_chain)


def swapped_g1_verdicts():
    """(``is_valid_match``, the refine-based leaf) on the identity map
    from a copy of each bound-3 member with two P0 ids into another
    copy, once before (which fills the first copy's memo) and once after
    the first copy's first two G1 values are swapped by a rebinding of
    ``g1``."""
    verdicts = Counter()
    for member in k1_class(TRUNC, 1).members(3):
        if len(member.p0) < 2:
            continue
        A, B = member.copy(), member.copy()
        p0_map, p2_map = {a: a for a in A.p0}, {c: c for c in A.p2}

        def verdict():
            src, tgt = _generator_lists(A, B, p0_map, p2_map)
            return (embeddings.is_valid_match(A, B, p0_map, p2_map),
                    list_leaf(A, B, src, tgt))

        verdicts[verdict()] += 1
        a, b = A.p0[:2]
        A.g1 = {**A.g1, a: A.g1[b], b: A.g1[a]}
        verdicts[verdict()] += 1
    return verdicts


def test_a_memo_kept_across_a_rebinding_of_g1_is_caught(monkeypatch):
    assert set(swapped_g1_verdicts()) == {(True, True), (False, False)}
    # the new table keeps the old memo while f is the same object
    monkeypatch.setattr(embeddings, "_table", planted(
        _table, "rows, [])", "rows, table[-1] if table[0] is S.f else [])"))
    assert (True, False) in swapped_g1_verdicts()


def test_a_table_with_column_offsets_shifted_by_one_column_is_caught(
        monkeypatch, k1_head_chain):
    monkeypatch.setattr(embeddings, "_table", planted(
        _table, "offsets[c] = j * trunc", "offsets[c] = (j + 1) * trunc"))
    verdicts = p2_pool_verdicts(_p2_pools, k1_head_chain)
    assert set(verdicts) - {(True, True), (False, False)}


def test_a_p0_check_that_reads_the_image_row_at_c_is_caught(k1_head_chain):
    # the image's row read at c's own offset, not at that of mapping[c]
    mutant = planted(_feasible, "row_b >> offsets_b[mapping[c]]",
                     "row_b >> offsets[c]")
    rng = random.Random(5)
    members = k1_class(TRUNC, 1).members(3)
    verdicts = Counter()
    for M in k1_head_chain:
        for A in members:
            if len(A.p0) > len(M.p0) or len(A.p2) > len(M.p2):
                continue
            feasible = mutant(A, M)
            for p0_map, p2_map in sample_maps(A, M, rng):
                if set(p2_map) != set(A.p2):
                    continue
                mapping = {**p0_map, **p2_map}
                for a in p0_map:
                    verdicts[feasible(mapping, a),
                             p0_profile_ok(A, M, a, mapping)] += 1
    assert set(verdicts) - {(True, True), (False, False)}, verdicts
