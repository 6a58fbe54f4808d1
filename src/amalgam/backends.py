"""Ready-made amalgamation classes over plain finite structures: linear
orders and simple graphs.  These exercise the engine on classical ground
and serve as counterpoints to the witnessed classes."""

from __future__ import annotations

import functools
import itertools

from .errors import AmalgamationFailed
from .fraisse import AmalgamationClass, inclusion_pairs
from .structures import (
    Embedding,
    FiniteStructure,
    Vocabulary,
    enumerate_embeddings,
    generate_substructure,
    is_isomorphic,
    relation_signature,
)

ORDER_VOCAB = Vocabulary.make(relations={"lt": 2})
GRAPH_VOCAB = Vocabulary.make(relations={"adj": 2})


def chain_structure(n: int, start: int = 0) -> FiniteStructure:
    universe = tuple(range(start, start + n))
    lt = {(universe[i], universe[j]) for i in range(n) for j in range(i + 1, n)}
    return FiniteStructure(ORDER_VOCAB, universe, {"lt": lt})


def _order_rank(M: FiniteStructure) -> list[int]:
    """Universe sorted by the order relation."""
    lt = M.relations["lt"]
    return sorted(M.universe, key=lambda x: sum(1 for y in M.universe
                                                if (y, x) in lt))


def _merge_orders(M: FiniteStructure, A: FiniteStructure, B: FiniteStructure,
                  f: Embedding, inc: Embedding) -> FiniteStructure:
    """Insert the new points of B into M, each as low as its comparisons
    with the image of A allow, keeping their B-order among themselves.

    Gap rule: walking B in order, each new point gets the next fresh id
    and is queued just above the M-image of the last A-point passed, or
    at the bottom of M if none has been passed; M's rank with each queue
    after its point is the merged order.  Collapse rule: the images of
    A's points must come in the same order in M as in B, as two order
    embeddings keep them; otherwise ``AmalgamationFailed`` is raised
    before any point is placed."""
    rank = _order_rank(M)
    position = {x: i for i, x in enumerate(rank)}
    image = {inc(a): f(a) for a in A.universe}
    walk = _order_rank(B)
    anchors = [position[image[b]] for b in walk if b in image]
    if any(lo >= hi for lo, hi in zip(anchors, anchors[1:])):
        raise AmalgamationFailed("order constraints collapsed")
    next_id = max(list(M.universe) + list(B.universe), default=-1) + 1
    queues: dict[int | None, list[int]] = {}
    last = None
    for b in walk:
        if b in image:
            last = image[b]
        else:
            queues.setdefault(last, []).append(next_id)
            next_id += 1
    rank = queues.get(None, []) + [y for x in rank
                                   for y in (x, *queues.get(x, ()))]
    lt = {(rank[i], rank[j]) for i in range(len(rank))
          for j in range(i + 1, len(rank))}
    return FiniteStructure(ORDER_VOCAB, tuple(rank), {"lt": lt})


def _structure_class(seed_model, members, amalgamate) -> AmalgamationClass:
    """A class of plain finite structures: embeddings are those of
    ``enumerate_embeddings``, and the tasks are the embeddings between
    members of different sizes.  Members and task pairs are memoised
    per bound."""
    members = functools.cache(members)
    return AmalgamationClass(
        seed_model=seed_model,
        members=members,
        task_pairs=functools.cache(lambda bound: inclusion_pairs(
            members(bound), enumerate_embeddings)),
        embeddings=lambda A, M, touching=None: enumerate_embeddings(
            A, M, touching=touching),
        extend=lambda A, B, inc, f, M: next(iter(enumerate_embeddings(
            B, M, fixed={inc(a): f(a) for a in A.universe}, first_only=True
        )), None),
        amalgamate=amalgamate,
        new_ids=lambda old, new: set(new.universe) - set(old.universe),
    )


def linear_order_class() -> AmalgamationClass:
    return _structure_class(
        lambda: chain_structure(0),
        lambda bound: [chain_structure(n) for n in range(bound + 1)],
        _merge_orders)


def _all_graphs(bound: int) -> list[FiniteStructure]:
    out: list[FiniteStructure] = []
    for n in range(bound + 1):
        universe = tuple(range(n))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for picks in itertools.product((0, 1), repeat=len(possible)):
            edges = set()
            for chosen, (i, j) in zip(picks, possible):
                if chosen:
                    edges.add((i, j))
                    edges.add((j, i))
            G = FiniteStructure(GRAPH_VOCAB, universe, {"adj": edges})
            if not any(is_isomorphic(G, H) for H in out if H.size == n):
                out.append(G)
    return out


def _merge_graphs(M, A, B, f, inc):
    image = {inc(a): f(a) for a in A.universe}
    next_id = max(list(M.universe) + list(B.universe), default=-1) + 1
    mapping = dict(image)
    for b in B.universe:
        if b not in mapping:
            mapping[b] = next_id
            next_id += 1
    universe = tuple(M.universe) + tuple(
        mapping[b] for b in B.universe if b not in image
    )
    edges = set(M.relations["adj"])
    for (x, y) in B.relations["adj"]:
        edges.add((mapping[x], mapping[y]))
    return FiniteStructure(GRAPH_VOCAB, universe, {"adj": edges})


def graph_class() -> AmalgamationClass:
    return _structure_class(
        lambda: FiniteStructure(GRAPH_VOCAB, ()), _all_graphs, _merge_graphs)


# ---------------------------------------------------------------------------
# Structure-backend helpers for the game and separability
# ---------------------------------------------------------------------------


def structure_position_valid(M, N, pos_m, pos_n) -> bool:
    """The picked tuples generate isomorphic substructures under the
    positionwise correspondence (functions propagate the match).  The
    constants belong to both generated substructures, so each declared
    constant starts out matched to its namesake, and a constant that
    only one side interprets refuses the position in either argument
    order.

    The checks run cheapest first, and each refuses a position the
    later ones would refuse too.  Steps 2 and 3 read data that M and N
    memoise for themselves, so they repeat no work for a point tuple or
    generator set seen before:

    1. M and N share a vocabulary (no position is valid otherwise), the
       picks have equal lengths and are distinct, every declared constant
       is interpreted on both sides or on neither, and pairs and
       constants seed one map;
    2. every relation agrees on the matched points, which both generated
       substructures contain, so no closure can repair a disagreement:
       the matched points of M and their partners in N have equal
       memoised ``relation_signature`` values;
    3. the generated substructures, memoised by
       ``generate_substructure``, have equal sizes and equally many
       function entries, and function images extend the map to all of
       them, an undefined image refusing the position;
    4. the one verdict on the extended map is ``Embedding(sub_m, sub_n,
       map).is_valid()``: its totality, injectivity and function tests
       catch an unmatched point, two points (a constant and a pick, say)
       sent to one and a clashing image, and its relation test compares
       the memoised signatures.
    """
    vocabulary = M.vocabulary
    if vocabulary is not N.vocabulary and vocabulary != N.vocabulary:
        return False
    mapping = dict(zip(pos_m, pos_n))
    if len(pos_m) != len(pos_n) or len(mapping) != len(pos_m) \
            or len(set(pos_n)) != len(pos_n):
        return False
    for name in vocabulary.constants:
        x, y = M.constants.get(name), N.constants.get(name)
        if (x is None) != (y is None):
            return False
        if x is not None and mapping.setdefault(x, y) != y:
            return False
    if relation_signature(M, tuple(mapping)) != \
            relation_signature(N, tuple(mapping.values())):
        return False
    sub_m = generate_substructure(M, pos_m)
    sub_n = generate_substructure(N, pos_n)
    if sub_m.size != sub_n.size:
        return False
    # the mapped entries of sub_m must cover every entry of sub_n, or N
    # defines a function value that M leaves undefined
    if any(len(table) != len(sub_n.functions[name])
           for name, table in sub_m.functions.items()):
        return False
    # propagate function images until the map closes
    changed = True
    while changed:
        changed = False
        for name, table in sub_m.functions.items():
            n_table = sub_n.functions[name]
            for args, value in table.items():
                if value not in mapping and all(x in mapping for x in args):
                    target = n_table.get(tuple(mapping[x] for x in args))
                    if target is None:
                        return False
                    mapping[value] = target
                    changed = True
    return Embedding(sub_m, sub_n, mapping).is_valid()


def separable(cls: AmalgamationClass, A: FiniteStructure, bound: int) -> bool:
    """Does the atomic diagram of A pin down its isomorphism type among
    the members of ``cls`` up to ``bound``?  A tuple of a member satisfies
    the diagram iff it is the image of an embedding of A, so it does iff
    every such image is closed and the member defines no function value
    or constant on it that A leaves undefined."""
    for B in cls.members(bound):
        for e in enumerate_embeddings(A, B):
            image = set(e.mapping.values())
            # e carries every entry of A to one of B on the image, so B
            # may define no other; that also makes the image closed
            if len(B.constants) != len(A.constants) or any(
                    sum(image.issuperset(args) for args in B.functions[name])
                    != len(table) for name, table in A.functions.items()):
                return False
    return True
