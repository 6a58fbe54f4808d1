"""Embedding search with ``touching``: pinned enumeration, with and
without ``fixed`` assignments, against filtered and brute-force oracles, sign-vector refinement (``refine``,
``_signature_blocks`` and the amalgam's ``_principal_points``) against
per-point partitions and per-value meets, identical builder
ledgers with and without pinning, grouped discovery and
``richness_defect`` against per-pair enumeration (with a hook that
counts one call per base), and the general match path against the
simple one and brute force."""

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
from amalgam.k1.embeddings import (
    _generator_lists,
    _match_general,
    _match_simple,
)
from amalgam.k1.engine import build_generic_k1, k1_class
from amalgam.k1.freepart import (
    ONE,
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
            fixed = {inc.p0(a): f.p0(a) for a, _ in inc.p0_map}
            fixed.update((inc.p2(c), f.p2(c)) for c, _ in inc.p2_map)
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
    tasks, queue, task_objects = [], [], {}
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
            task_objects[len(tasks)] = (key[0], f)
            queue.append(len(tasks))
            tasks.append(Task(key[0], key[1], stage))

    discover(0, None)
    steps_run = 0
    for _ in range(steps):
        if not queue:
            break
        index = queue.pop(0)
        task = tasks[index]
        pair_index, f = task_objects[index]
        A, B, inc = pairs[pair_index]
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


def agree_on_all_injections(A, B):
    """Compare the two paths on every P0/P2 injection A -> B whose target
    values have at most TRUNC generators (one name's column; the general
    path expands truth tables over them); returns the outcomes seen."""
    outcomes = []
    for p2_img in itertools.permutations(B.p2, len(A.p2)):
        for p0_img in itertools.permutations(B.p0, len(A.p0)):
            src, tgt = _generator_lists(A, B, dict(zip(A.p0, p0_img)),
                                        dict(zip(A.p2, p2_img)))
            if len({g for x in tgt for g in x.free.support}) > TRUNC:
                continue
            simple = _match_simple(A, B, src, tgt)
            assert simple is not None
            assert _match_general(A, B, src, tgt) == simple
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
