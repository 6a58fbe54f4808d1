"""Finite relational/functional structures and embedding search.

Structures carry an ordered universe of small integer ids so every
enumeration in the package is deterministic and reproducible.  Function
symbols may be partial; a substructure is a subset closed under every
defined function application, and closure is computed by fixpoint
iteration under an element cap.
"""

from __future__ import annotations

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
    set (``_elements``, built by ``validate``), and two memos, the
    substructure each generator set generates (``_substructures``, for
    ``generate_substructure``) and the relation signature of each point
    tuple (``_signatures``, for ``relation_signature``).
    ``Embedding.validate`` compares relation signatures, so it fills
    the second memo on both its source and its target.  All three are
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
        """Induced structure on a subset (not checked for closure)."""
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
        constants = dict(self.constants)
        if not all(v in keep for v in constants.values()):
            raise ValueError("restriction drops a constant")
        return FiniteStructure(self.vocabulary, universe, relations,
                               functions, constants)


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


def _consistent_so_far(A: FiniteStructure, B: FiniteStructure,
                       mapping: dict[int, int], newly: int) -> bool:
    """Partial-map checks: every relation on the assigned points, and
    the function entries touching the just-assigned element."""
    assigned = mapping.keys()
    used = set(mapping.values())
    if relation_mismatch(A, B, list(assigned), list(mapping.values())) \
            is not None:
        return False
    for name, table in A.functions.items():
        b_table = B.functions[name]
        for args, value in table.items():
            involved = newly in args or value == newly
            if not involved:
                continue
            if not set(args) <= assigned:
                continue
            image = b_table.get(tuple(mapping[x] for x in args))
            if image is None:
                return False
            if value in assigned:
                if image != mapping[value]:
                    return False
            elif image in used:
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
    """
    if A.vocabulary != B.vocabulary:
        raise VocabularyMismatch("cannot embed across vocabularies")
    if A.size > B.size:
        return []
    mapping = dict(fixed or {})
    for name, value in A.constants.items():
        pinned = B.constants.get(name)
        if pinned is None or mapping.get(value, pinned) != pinned:
            return []
        mapping[value] = pinned
    # seed consistency for the pinned part
    for x in list(mapping):
        if not _consistent_so_far(A, B, mapping, x):
            return []

    def accept(m: dict[int, int]) -> Optional[Embedding]:
        e = Embedding(A, B, dict(m))
        return e if e.is_valid() else None

    order = [x for x in A.universe if x not in mapping]
    return backtrack(order, [B.universe] * len(order), mapping,
                     lambda m, x: _consistent_so_far(A, B, m, x), accept,
                     first_only, touching)


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
