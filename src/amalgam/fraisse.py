"""Amalgamation classes and the generic-model builder.

The engine asks of a class only what Fraïssé's construction needs: its
members up to a size bound, the embeddings between two structures, an
extension search, and amalgamation (see ``AmalgamationClass`` for the
hooks).  The builder runs the classic scheduling loop: tasks are
discovered whenever the chain grows, appended to the ledger, and resolved
in ledger order, either by finding an extension in the current top or by
amalgamating the missing extension on disjointly.

Discovery after a growth step asks the ``embeddings`` hook only for the
embeddings that touch an id the new top added (its ``touching``
argument), so the search never revisits an embedding into an earlier
top, and no ledger of seen embeddings is kept.  Many task pairs share
one base member A, so discovery asks the hook once per distinct base
and hands the one list to every pair over that base (``_per_base``);
``richness_defect`` and ``check_disjoint_ap`` enumerate the same way.
Discovery sorts each base's list once, by ``key()``, fans it out by
pair, and then shuffles the batch.

Whether a member's atomic diagram pins down its isomorphism type is a
question about plain structures, answered by ``backends.separable``.

Two approximations are told apart up to depth k by the back-and-forth
game (``back_and_forth_check``).  It keeps one table of values keyed
by pair set and orders moves as game-tree search does: the duplicator
first tries the reply that last answered the same pick, and the spoiler
first tries the move that last refuted a position with as many rounds
left.  Every move is still ranged over, so the order changes the work,
never the value.

Everything is deterministic: enumeration orders are fixed, and the run
seed only perturbs tie-breaking among tasks discovered at the same stage,
so distinct seeds give different but equivalent generics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import (AP_BUDGET, JEP_BUDGET, AmalgamationFailed, CapExceeded,
                     PreconditionFailed)


@dataclass
class Task:
    pair_index: int
    f_key: tuple
    discovered_at: int
    status: str = "pending"  # pending | realized | amalgamated
    resolved_at: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "pair": self.pair_index,
            "f": [list(p) for p in self.f_key],
            "discovered_at": self.discovered_at,
            "status": self.status,
            "resolved_at": self.resolved_at,
        }


@dataclass
class AmalgamationClass:
    """Hooks defining one amalgamation class.

    The protocol: members carry their size as ``.size``, and embeddings
    are immutable values with a stable, sortable ``key()``, which keys
    tasks and richness defects.

    ``members(bound)`` lists one member per isomorphism type up to the
    bound (the same list on every call is expected, since the engine
    groups work by object identity); ``task_pairs(bound)`` returns triples
    (A, B, inclusion) with B of size at most the bound, usually
    ``inclusion_pairs``, and is memoised like ``members``: every call
    with one bound returns the same list, so the builds and checks run
    on one class enumerate its pairs once, and the list must not be
    mutated; ``embeddings(A, M, touching=None)`` lists the
    embeddings A -> M, and with a set ``touching`` only those with some
    image in it; ``extend`` searches for an extension of f along the
    inclusion; ``amalgamate`` must return the extended model (the
    previous top embeds by ids, and ``new_ids`` lists the ids it adds,
    which are never reused).

    The engine calls ``embeddings`` once per distinct base object and
    shares the returned list among every task pair over that base.  So
    the result may depend only on ``(A, M, touching)``, it must be a
    list (or another sequence that can be iterated more than once), and
    one embedding object may stand for the embedding of several tasks.
    """

    name: str
    seed_model: Callable[[], Any]
    members: Callable[[int], list]
    task_pairs: Callable[[int], list[tuple[Any, Any, Any]]]
    embeddings: Callable[..., list[Any]]
    extend: Callable[[Any, Any, Any, Any, Any], Optional[Any]]
    amalgamate: Callable[[Any, Any, Any, Any, Any], Any]
    new_ids: Callable[[Any, Any], set]


@dataclass
class GenericApproximation:
    chain: list
    tasks: list[Task]
    pairs: list[tuple[Any, Any, Any]]
    steps_run: int

    @property
    def top(self):
        return self.chain[-1]


def _per_base(bases: Iterable[tuple], enumerate_from: Callable[..., Any]):
    """Yield ``enumerate_from(*base)`` for each tuple in ``bases``, in order,
    calling it once per distinct tuple of objects.

    Tuples are told apart by the identity of their entries, so no
    structure is hashed or compared: the task pairs hold references to the
    objects of ``members(bound)``.  A later tuple of the same objects gets
    the very result the first one got.
    """
    found: dict[tuple, Any] = {}
    for base in bases:
        key = tuple(map(id, base))
        if key not in found:
            found[key] = enumerate_from(*base)
        yield found[key]


def inclusion_pairs(members: Sequence,
                    embed: Callable[[Any, Any], Iterable]) -> list[tuple]:
    """Every ``(A, B, inc)`` with ``A.size < B.size`` and ``inc`` among
    ``embed(A, B)``, B-major in member order: the ``task_pairs`` of a
    class whose tasks are the embeddings between members of different
    sizes.  ``embed`` is the plain enumerator, not the class's
    ``embeddings`` hook, so a hook that counts discovery calls does not
    count these."""
    return [(A, B, inc) for B in members for A in members
            if A.size < B.size for inc in embed(A, B)]


def check_jep(cls: AmalgamationClass, bound: int):
    """Joint embedding on the enumerated fragment: every pair of members
    embeds into some member, or else into the amalgam of the two over the
    seed model.  The embeddings of each (member or seed, member) pair of
    objects are enumerated at most once, into one table that every
    verdict reads."""
    members = cls.members(bound)
    if len(members) ** 2 > JEP_BUDGET:
        raise CapExceeded("JEP_BUDGET", len(members) ** 2)
    seed = cls.seed_model()
    table: dict[tuple[int, int], Any] = {}

    def embeddings(X, D):
        key = (id(X), id(D))
        if key not in table:
            table[key] = cls.embeddings(X, D)
        return table[key]

    witnesses = []
    for i, M1 in enumerate(members):
        for M2 in members[i:]:
            # an enumerated member may already accommodate both
            direct = next((D for D in members
                           if embeddings(M1, D) and embeddings(M2, D)), None)
            if direct is not None:
                witnesses.append((M1, M2, direct))
                continue
            f_list = embeddings(seed, M1)
            g_list = embeddings(seed, M2)
            if not f_list or not g_list:
                return False, (M1, M2)
            try:
                result = cls.amalgamate(M1, seed, M2, f_list[0], g_list[0])
            except AmalgamationFailed:
                return False, (M1, M2)
            witnesses.append((M1, M2, result))
    return True, witnesses


def check_disjoint_ap(cls: AmalgamationClass, bound: int):
    """Disjoint amalgamation over the enumerated fragment: for every task
    A <= B, member C and embedding A -> C, ``cls.amalgamate`` succeeds.

    Only success is checked; the ranges of the two legs are not compared.
    Disjointness (the ranges meet only in the image of A) comes from the
    hooks' fresh-id contract: C embeds in the amalgam by ids, and the ids
    ``amalgamate`` adds for the part of B outside A are new (see
    ``new_ids``)."""
    members = cls.members(bound)
    grid = [(A, B, inc, C) for (A, B, inc) in cls.task_pairs(bound)
            for C in members]
    checked = 0
    for (A, B, inc, C), embeddings in zip(
            grid, _per_base(((A, C) for A, _, _, C in grid), cls.embeddings)):
        for f in embeddings:
            checked += 1
            if checked > AP_BUDGET:
                raise CapExceeded("AP_BUDGET", checked)
            try:
                cls.amalgamate(C, A, B, f, inc)
            except AmalgamationFailed:
                return False, (A, B, C)
    return True, checked


def build_generic(cls: AmalgamationClass, steps: int, bound: int,
                  seed: int = 0) -> GenericApproximation:
    """Run the scheduling loop for at most the given number of steps.

    The ledger is the queue: step i resolves ``tasks[i]``, and the loop
    stops early once every task is resolved.  Discovery enumerates the
    embeddings of each distinct base A into the top once and sorts that
    list once, by ``key()`` alone, so no two embedding objects are
    compared.  It fans the sorted list out to every pair over A in pair
    order, which puts the batch in ``(pair_index, f.key())`` order, and
    for a nonzero seed shuffles it, so the ledger is the one a per-pair
    enumeration gives."""
    pairs = cls.task_pairs(bound)
    chain = [cls.seed_model()]
    tasks: list[Task] = []
    embeddings: list = []  # the embedding of each task, in ledger order
    rng = random.Random(seed)

    def discover(stage: int, fresh: Optional[set]):
        def by_key(A, M) -> list[tuple]:
            found = [(f.key(), f)
                     for f in cls.embeddings(A, M, touching=fresh)]
            found.sort(key=itemgetter(0))
            return found

        top = chain[-1]
        per_pair = _per_base(((A, top) for A, _, _ in pairs), by_key)
        batch = [(pair_index, key, f)
                 for pair_index, found in enumerate(per_pair)
                 for key, f in found]
        if seed:
            rng.shuffle(batch)
        for pair_index, key, f in batch:
            tasks.append(Task(pair_index, key, stage))
            embeddings.append(f)

    discover(0, None)
    step = 0
    while step < min(steps, len(tasks)):
        task, f = tasks[step], embeddings[step]
        A, B, inc = pairs[task.pair_index]
        top = chain[-1]
        if cls.extend(A, B, inc, f, top) is not None:
            task.status = "realized"
        else:
            try:
                new_top = cls.amalgamate(top, A, B, f, inc)
            except AmalgamationFailed as err:
                raise AmalgamationFailed(
                    f"step {step}: {err}", triple=(A, B, f)
                ) from err
            chain.append(new_top)
            task.status = "amalgamated"
            discover(len(chain) - 1, cls.new_ids(top, new_top))
        task.resolved_at = len(chain) - 1
        step += 1
    return GenericApproximation(chain, tasks, pairs, step)


def richness_defect(M: Any, cls: AmalgamationClass, bound: int) -> list[tuple]:
    """All extension tasks into M lacking an extension; empty means rich
    at this bound."""
    pairs = cls.task_pairs(bound)
    defects = []
    for pair_index, ((A, B, inc), embeddings) in enumerate(zip(
            pairs, _per_base(((A, M) for A, _, _ in pairs), cls.embeddings))):
        for f in embeddings:
            if cls.extend(A, B, inc, f, M) is None:
                defects.append((pair_index, f.key()))
    return defects


# ---------------------------------------------------------------------------
# Bounded back-and-forth equivalence
# ---------------------------------------------------------------------------


def back_and_forth_check(
    M: Any,
    N: Any,
    depth: int,
    elements: Callable[[Any], Sequence],
    position_valid: Callable[[Any, Any, tuple, tuple], bool],
) -> bool:
    """Does the duplicator survive ``depth`` rounds of the game in which
    positions are tuples generating partially matched substructures?

    ``position_valid`` decides whether the picked tuples generate
    isomorphic substructures under the positionwise correspondence.  It
    must depend only on the set of (M-point, N-point) pairs, not on the
    order in which they were played: each pair set is checked once.

    A position is keyed by an int with one bit per pair: bit
    ``i * |N| + j`` stands for the i-th element of M against the j-th
    element of N.  One table, ``known``, maps each key reached to whether
    its position check passes and, if rounds are left, the duplicator
    survives them.  The rounds left follow from the key (``depth`` minus
    its number of pairs), so the key alone indexes the table.  ``survive``
    plays one position and writes the entry of each child it reaches, so
    a child's position check runs once and the rounds after it are
    played only if it passes.

    Moves are ordered as in game-tree search (the killer and history
    heuristics).  ``replies[(side, x)]`` is the reply that last answered
    the spoiler's pick x (an index into M's elements for side 0, into
    N's for side 1); the duplicator tries it first, then the other free
    points in order.  ``refuted[remaining]`` is the spoiler move that
    last refuted a position with that many rounds left; the spoiler
    tries it first.  The order only decides how soon a position's value
    is known: every spoiler move must be answered and one answer
    suffices, so the value is the same in any order, and ``known`` stays
    keyed by pair set.

    A negative depth raises ``PreconditionFailed`` before any check.
    """
    if depth < 0:
        raise PreconditionFailed("game", f"depth {depth} is negative")
    ms, ns = list(elements(M)), list(elements(N))
    width = len(ns)
    known: dict[int, bool] = {}
    replies: dict[tuple[int, int], int] = {}
    refuted: dict[int, tuple[int, int]] = {}

    def survive(pos_m: tuple, pos_n: tuple, key: int, remaining: int) -> bool:
        """The game value of a valid position with rounds left."""
        free = ([i for i, c in enumerate(ms) if c not in pos_m],
                [j for j, d in enumerate(ns) if d not in pos_n])
        moves = [(0, i) for i in free[0]] + [(1, j) for j in free[1]]
        killer = refuted.get(remaining)
        if killer in moves:
            moves.remove(killer)
            moves.insert(0, killer)
        for side, x in moves:
            options = free[1 - side]
            best = replies.get((side, x))
            if best in options:
                options = [best] + [y for y in options if y != best]
            for y in options:
                i, j = (y, x) if side else (x, y)
                child = key | 1 << (i * width + j)
                won = known.get(child)
                if won is None:
                    child_m, child_n = pos_m + (ms[i],), pos_n + (ns[j],)
                    won = position_valid(M, N, child_m, child_n) and (
                        remaining == 1
                        or survive(child_m, child_n, child, remaining - 1))
                    known[child] = won
                if won:
                    replies[side, x] = y
                    break
            else:
                refuted[remaining] = side, x
                return False
        return True

    try:
        if not position_valid(M, N, (), ()):
            return False
        return depth == 0 or survive((), (), 0, depth)
    finally:
        # survive refers to itself; emptying its cell breaks that cycle,
        # so M, N and the table die with the caller's last reference
        # instead of at the next cyclic collection
        del survive
