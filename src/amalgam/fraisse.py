"""Amalgamation classes and the generic-model builder.

An AmalgamationClass packages the hooks the engine needs: member
enumeration (one representative per isomorphism type), extension tasks
(pairs of members with a distinguished embedding between them), embedding
enumeration into a growing model, an extension search, and the
amalgamation procedure itself.  The builder runs the classic scheduling
loop: tasks are discovered whenever the chain grows, queued first-in
first-out, and resolved either by finding an extension in the current
top or by amalgamating the missing extension on disjointly.

Discovery after a growth step asks the ``embeddings`` hook only for the
embeddings that touch an id the new top added (its ``touching``
argument), so the search never revisits an embedding into an earlier
top, and no ledger of seen embeddings is kept.  Many task pairs share
one base member A, so discovery asks the hook once per distinct base
and hands the one list to every pair over that base (``_per_base``);
``richness_defect`` and ``check_disjoint_ap`` enumerate the same way.

Whether a member's atomic diagram pins down its isomorphism type is a
question about plain structures, answered by ``backends.separable``.

Everything is deterministic: enumeration orders are fixed, and the run
seed only perturbs tie-breaking among tasks discovered at the same stage,
so distinct seeds give different but equivalent generics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import AP_BUDGET, JEP_BUDGET, AmalgamationFailed, CapExceeded


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

    ``task_pairs(bound)`` returns triples (A, B, inclusion) with B of size
    at most the bound; ``embeddings(A, M, touching=None)`` lists the
    embeddings A -> M, and with a set ``touching`` only those with some
    image in it (``embedding_key`` gives each a stable key); ``extend``
    searches for an extension of f along the inclusion; ``amalgamate``
    must return the extended model (the previous top embeds by ids, and
    ``new_ids`` lists the ids it adds, which are never reused).

    The engine calls ``embeddings`` once per distinct base object and
    shares the returned list among every task pair over that base.  So
    the result may depend only on ``(A, M, touching)``, it must be a
    list (or another sequence that can be iterated more than once), and
    embeddings must be immutable values: one object may stand for the
    embedding of several tasks.
    """

    name: str
    seed_model: Callable[[], Any]
    members: Callable[[int], list]
    size_of: Callable[[Any], int]
    task_pairs: Callable[[int], list[tuple[Any, Any, Any]]]
    embeddings: Callable[..., list[Any]]
    embedding_key: Callable[[Any], tuple]
    extend: Callable[[Any, Any, Any, Any, Any], Optional[Any]]
    amalgamate: Callable[[Any, Any, Any, Any, Any], Any]
    new_ids: Callable[[Any, Any], set]


@dataclass
class GenericApproximation:
    chain: list
    tasks: list[Task]
    pairs: list[tuple[Any, Any, Any]]
    bound: int
    seed: int
    steps_run: int

    @property
    def top(self):
        return self.chain[-1]

    def pending(self) -> list[Task]:
        return [t for t in self.tasks if t.status == "pending"]

    def to_dict(self) -> dict:
        return {
            "chain_length": len(self.chain),
            "bound": self.bound,
            "seed": self.seed,
            "steps": self.steps_run,
            "tasks": [t.to_dict() for t in self.tasks],
        }


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


def check_jep(cls: AmalgamationClass, bound: int):
    """Joint embedding on the enumerated fragment: every pair of members
    embeds into the amalgam of the two over the seed model."""
    members = cls.members(bound)
    if len(members) ** 2 > JEP_BUDGET:
        raise CapExceeded("JEP_BUDGET", len(members) ** 2)
    seed = cls.seed_model()
    witnesses = []
    for i, M1 in enumerate(members):
        for M2 in members[i:]:
            # an enumerated member may already accommodate both
            direct = next(
                (D for D in members
                 if cls.embeddings(M1, D) and cls.embeddings(M2, D)),
                None,
            )
            if direct is not None:
                witnesses.append((M1, M2, direct))
                continue
            f_list = cls.embeddings(seed, M1)
            g_list = cls.embeddings(seed, M2)
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


def build_generic(
    cls: AmalgamationClass,
    steps: int,
    bound: int,
    seed: int = 0,
    start: Optional[Any] = None,
) -> GenericApproximation:
    """Run the scheduling loop for the given number of dequeue steps.

    Discovery enumerates the embeddings of each distinct base A into the
    top once and fans that list out to every pair over A; the batch is
    then sorted by ``(pair_index, embedding_key)`` and, for a nonzero
    seed, shuffled, so the ledger is the one a per-pair enumeration
    gives."""
    pairs = cls.task_pairs(bound)
    chain = [start if start is not None else cls.seed_model()]
    tasks: list[Task] = []
    queue: list[int] = []
    task_objects: dict[int, tuple] = {}
    rng = random.Random(seed)

    def discover(stage: int, fresh: Optional[set]):
        top = chain[-1]
        per_pair = _per_base(
            ((A, top) for A, _, _ in pairs),
            lambda A, M: cls.embeddings(A, M, touching=fresh))
        batch = [((pair_index, cls.embedding_key(f)), f)
                 for pair_index, embeddings in enumerate(per_pair)
                 for f in embeddings]
        batch.sort(key=lambda item: (item[0][0], item[0][1]))
        if seed:
            rng.shuffle(batch)
        for key, f in batch:
            index = len(tasks)
            tasks.append(Task(key[0], key[1], stage))
            task_objects[index] = (key[0], f)
            queue.append(index)

    discover(0, None)
    steps_run = 0
    for step in range(steps):
        if not queue:
            break
        index = queue.pop(0)
        task = tasks[index]
        pair_index, f = task_objects[index]
        A, B, inc = pairs[pair_index]
        top = chain[-1]
        found = cls.extend(A, B, inc, f, top)
        if found is not None:
            task.status = "realized"
            task.resolved_at = len(chain) - 1
        else:
            try:
                new_top = cls.amalgamate(top, A, B, f, inc)
            except AmalgamationFailed as err:
                raise AmalgamationFailed(
                    f"step {step}: {err}", triple=(A, B, f)
                ) from err
            fresh = cls.new_ids(top, new_top)
            chain.append(new_top)
            task.status = "amalgamated"
            task.resolved_at = len(chain) - 1
            discover(len(chain) - 1, fresh)
        steps_run += 1
    return GenericApproximation(chain, tasks, pairs, bound, seed, steps_run)


def richness_defect(M: Any, cls: AmalgamationClass, bound: int) -> list[tuple]:
    """All extension tasks into M lacking an extension; empty means rich
    at this bound."""
    pairs = cls.task_pairs(bound)
    defects = []
    for pair_index, ((A, B, inc), embeddings) in enumerate(zip(
            pairs, _per_base(((A, M) for A, _, _ in pairs), cls.embeddings))):
        for f in embeddings:
            if cls.extend(A, B, inc, f, M) is None:
                defects.append((pair_index, cls.embedding_key(f)))
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
    order in which they were played: each pair set is checked once, and
    the game value is memoised per pair set.

    A position is keyed by an int with one bit per pair: bit
    ``i * |N| + j`` stands for the i-th element of M against the j-th
    element of N.  The rounds left follow from the key (``depth`` minus
    its number of pairs), so the key alone indexes both caches.
    """
    ms, ns = list(elements(M)), list(elements(N))
    width = len(ns)
    valid: dict[int, bool] = {}
    memo: dict[int, bool] = {}

    def answered(pos_m: tuple, pos_n: tuple, key: int, i: int, j: int,
                 remaining: int) -> bool:
        """Is the position extended by the pair (ms[i], ns[j]) valid, with
        the duplicator surviving the ``remaining - 1`` rounds after it?"""
        child = key | 1 << (i * width + j)
        ok = valid.get(child)
        if ok is None:
            ok = valid[child] = position_valid(M, N, pos_m + (ms[i],),
                                               pos_n + (ns[j],))
        return ok and (remaining == 1 or
                       survive(pos_m + (ms[i],), pos_n + (ns[j],), child,
                               remaining - 1))

    def survive(pos_m: tuple, pos_n: tuple, key: int, remaining: int) -> bool:
        ok = memo.get(key)
        if ok is not None:
            return ok
        free_m = [i for i, c in enumerate(ms) if c not in pos_m]
        free_n = [j for j, d in enumerate(ns) if d not in pos_n]
        ok = all(any(answered(pos_m, pos_n, key, i, j, remaining)
                     for j in free_n) for i in free_m) and \
            all(any(answered(pos_m, pos_n, key, i, j, remaining)
                    for i in free_m) for j in free_n)
        memo[key] = ok
        return ok

    if not position_valid(M, N, (), ()):
        return False
    return depth == 0 or survive((), (), 0, depth)
