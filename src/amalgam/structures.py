"""Finite relational/functional structures and embedding search.

Structures carry an ordered universe of small integer ids so every
enumeration in the package is deterministic and reproducible.  Function
symbols may be partial; a substructure is a subset closed under every
defined function application, and closure is computed by fixpoint
iteration under an element cap.  ``enumerate_embeddings`` checks each
relation tuple and function entry as it places points, so it returns
embeddings by construction; ``Embedding.validate`` checks any other map.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, Optional, Sequence

from .errors import (
    CLOSURE_CAP,
    CapExceeded,
    InvalidEmbedding,
    VocabularyMismatch,
)
from .search import backtrack


@dataclass(frozen=True)
class Vocabulary:
    """Symbol table: relation and function symbols with arities, constants,
    and an optional index bound for truncated indexed families (R_n, F_n,
    f_n for n below the bound).

    The arity lookups read two name -> arity dicts built once from the
    declared symbols; they take no part in equality, hashing or repr."""

    relations: tuple[tuple[str, int], ...] = ()
    functions: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()
    index_bound: Optional[int] = None
    _relation_arities: dict[str, int] = field(
        init=False, repr=False, compare=False)
    _function_arities: dict[str, int] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [n for n, _ in self.relations] + [n for n, _ in self.functions] \
            + list(self.constants)
        if len(names) != len(set(names)):
            raise ValueError("symbol names must be unique across kinds")
        for name, arity in self.relations + self.functions:
            if arity < 0:
                raise ValueError(f"negative arity for {name}")
        if self.index_bound is not None and self.index_bound < 1:
            raise ValueError("index bound must be >= 1 when declared")
        object.__setattr__(self, "_relation_arities", dict(self.relations))
        object.__setattr__(self, "_function_arities", dict(self.functions))

    @staticmethod
    def make(relations: Mapping[str, int] | None = None,
             functions: Mapping[str, int] | None = None,
             constants: Iterable[str] = (),
             index_bound: Optional[int] = None) -> "Vocabulary":
        return Vocabulary(
            tuple(sorted((relations or {}).items())),
            tuple(sorted((functions or {}).items())),
            tuple(constants),
            index_bound,
        )

    def relation_arity(self, name: str) -> int:
        return self._relation_arities[name]

    def function_arity(self, name: str) -> int:
        return self._function_arities[name]


def indexed_names(prefix: str, bound: int) -> list[str]:
    """Names of a truncated indexed symbol family: prefix0 .. prefix(bound-1)."""
    return [f"{prefix}{i}" for i in range(bound)]


@dataclass
class FiniteStructure:
    """A finite structure over a vocabulary.

    relations: symbol -> set of tuples; functions: symbol -> partial map
    from argument tuples to values; constants: symbol -> element.

    A structure keeps what queries compute from it alone: its element
    set (``_elements``, built by ``validate``, or by ``restrict``, which
    skips it), and two memos, the
    substructure each generator set generates (``_substructures``, for
    ``generate_substructure``) and the relation signature of each point
    tuple (``_signatures``, for ``relation_signature``).  The game's
    position checks write it, directly and through
    ``Embedding.validate``.  All three are
    valid only while the structure is unchanged, so a structure must not
    be mutated after construction.  They take no part in equality,
    hashing or repr.
    """

    vocabulary: Vocabulary
    universe: tuple[int, ...]
    relations: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)
    functions: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    _elements: frozenset[int] = field(init=False, repr=False, compare=False)
    _substructures: dict[frozenset[int], "FiniteStructure"] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _signatures: dict[tuple[int, ...], tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.universe = tuple(self.universe)
        for name, _ in self.vocabulary.relations:
            self.relations.setdefault(name, set())
        for name, _ in self.vocabulary.functions:
            self.functions.setdefault(name, {})
        self.validate()

    def validate(self):
        elems = self._elements = frozenset(self.universe)
        if len(elems) != len(self.universe):
            raise ValueError("universe ids must be distinct")
        for name, tuples in self.relations.items():
            arity = self.vocabulary.relation_arity(name)
            for t in tuples:
                if len(t) != arity or not elems.issuperset(t):
                    raise ValueError(f"bad tuple {t} for relation {name}")
        for name, table in self.functions.items():
            arity = self.vocabulary.function_arity(name)
            for args, value in table.items():
                if len(args) != arity or not elems.issuperset(args) \
                        or value not in elems:
                    raise ValueError(f"bad entry {args}->{value} for function {name}")
        for name in self.constants:
            if name not in self.vocabulary.constants:
                raise ValueError(f"undeclared constant {name}")
            if self.constants[name] not in elems:
                raise ValueError(f"constant {name} outside universe")

    def canonical_key(self):
        return (
            self.universe,
            tuple((n, tuple(sorted(ts))) for n, ts in sorted(self.relations.items())),
            tuple((n, tuple(sorted(tb.items()))) for n, tb in sorted(self.functions.items())),
            tuple(sorted(self.constants.items())),
        )

    def __eq__(self, other):
        return isinstance(other, FiniteStructure) and \
            self.vocabulary == other.vocabulary and \
            self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash((self.vocabulary, self.canonical_key()))

    @property
    def size(self) -> int:
        return len(self.universe)

    def restrict(self, subset: Iterable[int]) -> "FiniteStructure":
        """Induced structure on a subset (not checked for closure).

        The result is built without ``validate``: its universe is the
        kept points of this valid structure, so ids are distinct; every
        kept relation tuple and function entry lies inside ``keep`` by
        construction, arities included; and a dropped constant raises
        ``ValueError`` here.  Its ``_elements`` is ``keep`` and its
        memos start empty."""
        keep = self._elements.intersection(subset)
        universe = tuple(x for x in self.universe if x in keep)
        relations = {}
        for name, tuples in self.relations.items():
            # walk the smaller side: the kept tuples or the stored ones
            arity = self.vocabulary.relation_arity(name)
            if len(universe) ** arity < len(tuples):
                relations[name] = {t for t in itertools.product(
                    universe, repeat=arity) if t in tuples}
            else:
                relations[name] = {t for t in tuples if keep.issuperset(t)}
        functions = {
            name: {args: v for args, v in table.items()
                   if keep.issuperset(args) and v in keep}
            for name, table in self.functions.items()
        }
        if not keep.issuperset(self.constants.values()):
            raise ValueError("restriction drops a constant")
        sub = object.__new__(FiniteStructure)
        sub.vocabulary, sub.universe = self.vocabulary, universe
        sub.relations, sub.functions = relations, functions
        sub.constants, sub._elements = dict(self.constants), keep
        sub._substructures, sub._signatures = {}, {}
        return sub


def generate_substructure(M: FiniteStructure, X: Iterable[int]) -> FiniteStructure:
    """Least substructure of M containing X: close X under constants and
    all defined function applications, then induce.  The result is
    memoised on M by the set of X and shared between calls, so callers
    must not mutate it; a call that raises memoises nothing."""
    key = frozenset(X)
    sub = M._substructures.get(key)
    if sub is not None:
        return sub
    if not M._elements.issuperset(key):
        raise ValueError("generators outside the universe")
    closed = set(key)
    closed.update(M.constants.values())
    changed = True
    while changed:
        changed = False
        for table in M.functions.values():
            for args, value in table.items():
                if value not in closed and set(args) <= closed:
                    closed.add(value)
                    changed = True
                    if len(closed) > CLOSURE_CAP:
                        raise CapExceeded("CLOSURE_CAP", len(closed))
    sub = M._substructures[key] = M.restrict(closed)
    return sub


def relation_signature(M: FiniteStructure, points: tuple[int, ...]) -> tuple:
    """For each relation of M in name order, the index tuples over
    ``points`` whose point tuple the relation holds of, memoised on M by
    ``points``.  Over a shared vocabulary, two signatures are equal
    exactly when ``relation_mismatch`` finds no disagreement between the
    two point lists."""
    signature = M._signatures.get(points)
    if signature is None:
        indices = range(len(points))
        rows = []
        for name, tuples in sorted(M.relations.items()):
            arity = M.vocabulary.relation_arity(name)
            rows.append(tuple(
                i for i, t in zip(itertools.product(indices, repeat=arity),
                                  itertools.product(points, repeat=arity))
                if t in tuples))
        signature = M._signatures[points] = tuple(rows)
    return signature


def relation_mismatch(A: FiniteStructure, B: FiniteStructure,
                      points: Sequence[int], images: Sequence[int],
                      ) -> Optional[tuple[str, tuple[int, ...]]]:
    """The first relation of A, with a tuple over ``points``, whose
    membership differs from that of the positionwise image tuple over
    ``images`` in B; None when every relation agrees.  A and B share a
    vocabulary."""
    for name, tuples in A.relations.items():
        arity = A.vocabulary.relation_arity(name)
        b_tuples = B.relations[name]
        for t, image in zip(itertools.product(points, repeat=arity),
                            itertools.product(images, repeat=arity)):
            if (t in tuples) != (image in b_tuples):
                return name, t
    return None


@dataclass
class Embedding:
    """An injective map preserving and reflecting relations and commuting
    with all defined functions and constants."""

    source: FiniteStructure
    target: FiniteStructure
    mapping: dict[int, int]

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def apply(self, t: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.mapping[x] for x in t)

    def validate(self):
        A, B, m = self.source, self.target, self.mapping
        if A.vocabulary is not B.vocabulary and A.vocabulary != B.vocabulary:
            raise VocabularyMismatch("embedding across vocabularies")
        if len(m) != len(A.universe) or not A._elements.issuperset(m):
            raise InvalidEmbedding("map not total on the source")
        images = tuple(m[x] for x in A.universe)
        if len(set(images)) != len(images):
            raise InvalidEmbedding("map not injective")
        if not B._elements.issuperset(images):
            raise InvalidEmbedding("image outside the target")
        if relation_signature(A, A.universe) != relation_signature(B, images):
            name, t = relation_mismatch(A, B, A.universe, images)
            raise InvalidEmbedding(f"relation {name} not matched at {t}")
        for name, table in A.functions.items():
            b_table = B.functions[name]
            for args, value in table.items():
                image = b_table.get(self.apply(args))
                if image is None or image != m[value]:
                    raise InvalidEmbedding(f"function {name} not matched at {args}")
        for name, value in A.constants.items():
            if B.constants.get(name) != m[value]:
                raise InvalidEmbedding(f"constant {name} not matched")

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except (InvalidEmbedding, VocabularyMismatch):
            return False

    def key(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.mapping.items()))


def _consistent_so_far(relations: list[tuple[int, set, set]],
                       entries: dict[int, list[tuple]],
                       mapping: dict[int, int], newly: int) -> bool:
    """Partial-map checks for ``newly``, the point just placed: the
    relation tuples over the assigned points that contain it, and the
    function entries that involve it.

    ``relations`` holds (arity, tuples of A, tuples of B) for each
    relation of positive arity, and ``entries`` maps each point of A to
    its function entries, as (args, value, table of B).  Points are
    placed one at a time and checked after each, so a relation tuple is
    checked exactly once: when its last point is placed.  Such a tuple
    holds ``newly`` first at some position p; the positions before p
    range over the points placed earlier, the ones after it over all
    assigned points.  For a binary relation these are (newly, x) for
    every assigned x and (x, newly) for every x placed earlier, and a
    direct loop over them skips building the product pools, which
    would cost more than the lookups: orders and graphs are binary, and
    the generic builds run this check for every candidate point.
    """
    image = mapping[newly]
    for arity, tuples, b_tuples in relations:
        if arity == 2:
            for x, y in mapping.items():
                if ((newly, x) in tuples) != ((image, y) in b_tuples) or \
                        x != newly and \
                        ((x, newly) in tuples) != ((y, image) in b_tuples):
                    return False
            continue
        older, points = [x for x in mapping if x != newly], list(mapping)
        for p in range(arity):
            pools = [older] * p + [[newly]] + [points] * (arity - 1 - p)
            for t in itertools.product(*pools):
                if (t in tuples) != (tuple(map(mapping.get, t)) in b_tuples):
                    return False
    for args, value, b_table in entries.get(newly, ()):
        if not all(x in mapping for x in args):
            continue
        found = b_table.get(tuple(mapping[x] for x in args))
        if found is None:
            return False
        if value in mapping:
            if found != mapping[value]:
                return False
        elif found in mapping.values():
            return False  # forced image already taken by another element
    return True


def enumerate_embeddings(A: FiniteStructure, B: FiniteStructure,
                         fixed: dict[int, int] | None = None,
                         first_only: bool = False,
                         touching: Optional[Collection[int]] = None,
                         ) -> list[Embedding]:
    """All embeddings A -> B, by ``search.backtrack`` over the ordered
    universes; results come in lexicographic order of the image sequence.

    ``fixed`` pins part of the map (used for extension tasks), and the
    constants of A are pinned to those of B.  ``touching`` keeps only the
    embeddings with some image in it, by the pin rule of ``backtrack``.

    0-ary relations are decided once, before the search.  The pins,
    constants first and then ``fixed``, must send points of A to points
    of B, and are placed one at a time through ``_consistent_so_far``,
    as the search places its slots.  So every relation tuple and
    function entry is checked once, when its last point is placed, and
    with ``backtrack``'s injectivity that is the whole check: a full map
    becomes an ``Embedding`` without being validated again.
    """
    if A.vocabulary != B.vocabulary:
        raise VocabularyMismatch("cannot embed across vocabularies")
    if A.size > B.size:
        return []
    relations = []
    for name, tuples in A.relations.items():
        arity = A.vocabulary.relation_arity(name)
        if arity:
            relations.append((arity, tuples, B.relations[name]))
        elif bool(tuples) != bool(B.relations[name]):
            return []
    entries: dict[int, list[tuple]] = {}
    for name, table in A.functions.items():
        for args, value in table.items():
            entry = (args, value, B.functions[name])
            for x in set(args) | {value}:
                entries.setdefault(x, []).append(entry)
    feasible = functools.partial(_consistent_so_far, relations, entries)
    mapping: dict[int, int] = {}
    pins = [(v, B.constants.get(n)) for n, v in A.constants.items()]
    for x, y in pins + list((fixed or {}).items()):
        if x not in A._elements or y not in B._elements \
                or mapping.get(x, y) != y:
            return []
        if x not in mapping:
            mapping[x] = y
            if not feasible(mapping, x):
                return []
    order = [x for x in A.universe if x not in mapping]
    return backtrack(order, [B.universe] * len(order), mapping, feasible,
                     lambda m: Embedding(A, B, dict(m)), first_only,
                     touching)


def is_isomorphic(A: FiniteStructure, B: FiniteStructure) -> bool:
    """True iff some embedding A -> B is surjective and B defines no
    function value or constant that A leaves undefined."""
    if A.vocabulary != B.vocabulary:
        raise VocabularyMismatch("cannot compare across vocabularies")
    if A.size != B.size or A.constants.keys() != B.constants.keys():
        return False
    # cheap invariants first
    for name in A.relations:
        if len(A.relations[name]) != len(B.relations[name]):
            return False
    for name in A.functions:
        if len(A.functions[name]) != len(B.functions[name]):
            return False
    return bool(enumerate_embeddings(A, B, first_only=True))
