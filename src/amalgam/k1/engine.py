"""Engine hooks for the witnessed class, the generic builder, and the
noise checks on approximations."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

from ..fraisse import (
    AmalgamationClass,
    GenericApproximation,
    build_generic,
    inclusion_pairs,
)
from ..report import CheckReport
from .checks import check_K1, compose_free_witnesses
from .embeddings import (
    enumerate_matches,
    extend_match,
    is_isomorphic_k1,
    is_valid_match,
)
from .ops import amalgamate_free
from .structure import (
    DEFAULT_TRUNC,
    EMPTY_WITNESS,
    FreeExtensionWitness,
    K1Structure,
    enumerate_members,
    minimal_model,
)


def invariant_key(M: K1Structure) -> tuple:
    """A cheap isomorphism invariant: trunc, the sizes, and the sorted
    multiset over the P2 columns of (free class of each position, sorted
    multiset of atom membership profiles).

    A position's free class (free part zero, one, or other) is the
    one-position projection of the sign-vector classes that
    ``is_valid_match`` compares; an atom's profile over a column (bit n
    set when the atom of a G1 value lies under F[n][c]) is what the
    match search's P0 check (``embeddings._feasible``, reading the
    profiles off the structure's match table) requires of every matched
    P0 id.  A match maps
    columns to columns and P0 ids bijectively, so isomorphic members
    share the key.
    """
    atoms = [M.g1[a].atomic for a in M.p0]
    columns = []
    for c in M.p2:
        values = [M.f[(n, c)] for n in range(M.trunc)]
        classes = tuple(0 if x.free.is_zero else 1 if x.free.is_one else 2
                        for x in values)
        profiles = sorted(sum(1 << n for n, x in enumerate(values)
                              if x.atomic & atom) for atom in atoms)
        columns.append((classes, tuple(profiles)))
    return (M.trunc, len(M.p0), len(M.p2), tuple(sorted(columns)))


def corpus(
    size_bound: int,
    trunc: int = DEFAULT_TRUNC,
    max_n_star: int = 1,
) -> list[K1Structure]:
    """Deterministic class members with at most ``size_bound`` generators,
    filtered by the witnessed membership check, one per isomorphism
    type.

    Isomorphs are rejected before the membership check, as in
    isomorph-free exhaustive generation: each candidate is first compared
    with the kept members in its bucket of ``invariant_key``, and only a
    candidate that matches none of them runs ``check_K1``.  The result,
    order included, is that of checking first and then comparing with
    every kept member: isomorphic members share the key, and either order
    drops a candidate isomorphic to a kept member whatever its verdict
    and treats every other candidate alike.  The candidates come from
    ``build_member``, which names no generator, so ``is_isomorphic_k1``
    never raises on one that would fail the check.

    ``enumerate_members`` builds one candidate per multiset of column
    plans, so no candidate is a column permutation of another, and the
    members are those, in order, of the stream of every column order:
    there the first candidate of each isomorphism type has sorted columns,
    since its sorted permutation is isomorphic and comes no later, and
    ``check_K1`` gives isomorphic candidates one verdict.  The isomorphs
    left are not column permutations, and only the comparison drops
    them.  At max n* 1 they are the threshold twins: a candidate at n* 1
    whose every head is a bare fresh generator matches its n* 0 twin,
    because a match ignores the witness.
    """
    members = []
    buckets: dict[tuple, list[K1Structure]] = {}
    for M in enumerate_members(size_bound, size_bound, max_n_star, trunc,
                               max_size=size_bound):
        bucket = buckets.setdefault(invariant_key(M), [])
        if any(is_isomorphic_k1(M, other) for other in bucket):
            continue
        if not check_K1(M).passed:
            continue
        bucket.append(M)
        members.append(M)
    return members


def k1_class(trunc: int = DEFAULT_TRUNC, max_n_star: int = 1) -> AmalgamationClass:
    members = functools.cache(
        lambda bound: corpus(bound, trunc, max_n_star))

    def extend(A, B, inc, f, M):
        found = extend_match(B, M, inc, f)
        return found[0] if found else None

    def amalgamate(M, A, B, f, inc):
        return amalgamate_free(M, A, B, f, inc).amalgam

    return AmalgamationClass(
        seed_model=lambda: minimal_model(trunc),
        members=members,
        task_pairs=functools.cache(lambda bound: inclusion_pairs(
            members(bound), enumerate_matches)),
        embeddings=lambda A, M, touching=None: enumerate_matches(
            A, M, touching=touching),
        extend=extend,
        amalgamate=amalgamate,
        new_ids=lambda old, new: (set(new.p0) | set(new.p2)) -
        (set(old.p0) | set(old.p2)),
    )


@dataclass
class K1Generic:
    approximation: GenericApproximation
    free_witness: FreeExtensionWitness  # over the minimal model

    @property
    def top(self) -> K1Structure:
        return self.approximation.top


def build_generic_k1(
    steps: int,
    bound: int = 3,
    trunc: int = DEFAULT_TRUNC,
    seed: int = 0,
    max_n_star: int = 0,
) -> K1Generic:
    """Run the scheduling loop with the witnessed-class hooks, composing a
    free-over-minimal witness along the chain.

    The default task fragment is tail-only (threshold 0 members).  Its
    ledger drains, leaving a top with no richness defect: at bound 3
    (trunc 6, seeds 0-3) after 195, 349, 349 and 264 steps, and at
    bound 4 (trunc 6, seeds 0-3) after 21,798, 13,226, 10,143 and
    21,798 steps.  ``test_tail_ledger_drains`` asserts this at bounds 3
    and 4, seeds 0-3; at bound 5 (seed 0) the ledger drains after
    471,890 steps with a chain of 7, which ``tests/drain_bound5.py``
    asserts in a CI step of its own.
    Drained tops are equivalent up to their bound in the back-and-forth
    game with ``k1_position_valid``, as far as measured: at bound 3 every
    pair of seeds 0-3 holds at depth 3, and at depth 4 all but seeds 1
    and 3 fail; at bound 4, seeds 0 and 2 hold at depth 4.
    ``test_drained_bound_3_tops_hold_at_depth_3`` and
    ``test_drained_bound_4_tops_hold_at_depth_4`` assert these values
    both ways round.
    Head-carrying fragments (max_n_star >= 1) pose pair-specific demands
    whose count grows with the approximation, so they converge only in
    the ledger sense, never to an empty defect list at a finite stage.

    Corpus members, the extensions that realize them and the
    ``amalgamate_free`` amalgams all keep the simple shape: every free
    part is zero or a bare generator of its own, so the simple leaf of
    ``is_valid_match`` decides every match of a member into a chain
    structure, reading zero masks and sign vectors off the match tables,
    and none reaches ``_match_general``.  ``test_engine_builds_keep_the_simple_shape``
    asserts this on the bound-3 corpus members and on every chain
    structure of the bound-3 drains at seeds 0-3 and of 60-step head
    builds (max n* 1) at the same seeds.
    """
    records: list = []

    def recording_amalgamate(M, A, B, f, inc):
        result = amalgamate_free(M, A, B, f, inc)
        records.append(result)
        return result.amalgam

    cls = replace(k1_class(trunc, max_n_star), amalgamate=recording_amalgamate)
    approx = build_generic(cls, steps, bound, seed)
    witness = EMPTY_WITNESS
    for r in records:
        witness = compose_free_witnesses(witness, r.witness, r.big_transport)
    return K1Generic(approx, witness)


def k1_position_valid(M: K1Structure, N: K1Structure,
                      pos_m: tuple, pos_n: tuple) -> bool:
    """Game-position validity: the picked ids generate matched
    substructures under the positionwise correspondence.

    Picks of unequal lengths, or a pick repeated on either side, make no
    position.  Otherwise decided by ``is_valid_match``, so members of
    different truncations never match, and a structure with named
    generators raises ``InvalidEmbedding``.
    """
    if len(pos_m) != len(pos_n) or len(set(pos_m)) != len(pos_m) \
            or len(set(pos_n)) != len(pos_n):
        return False
    p0_map, p2_map = {}, {}
    for x, y in zip(pos_m, pos_n):
        if x in M.p0 and y in N.p0:
            p0_map[x] = y
        elif x in M.p2 and y in N.p2:
            p2_map[x] = y
        else:
            return False
    return is_valid_match(M, N, p0_map, p2_map)


def nonoise_check(M: K1Structure) -> CheckReport:
    """Noise check on an approximation: every value slot carries its own
    information, so no two slots share both the trace and the free
    coordinate of their value (two names for one thing would be noise
    the trace map cannot hear).  Atomicity holds by construction of the
    product form, so it is no clause.
    """
    r = CheckReport()
    seen: dict[tuple, tuple] = {}
    detail = ""
    for slot, value in sorted(M.f.items()):
        if value.in_atomic_ideal:
            continue
        fingerprint = (M.trace(value), value.atomic, value.free)
        if fingerprint in seen:
            detail = f"slots {seen[fingerprint]} and {slot} carry one value"
            break
        seen[fingerprint] = slot
    r.add("nonoise.injective", not detail, detail)
    return r
