"""The r-dimensional class: tuple classifications, witness functions,
closure and independence, membership, and frugal disjoint amalgamation of
k-configurations.

A structure carries, for every (r+1)-tuple over its universe, a class
index below the truncation, and witness values f_m for the indices m
below the tuple's class; at and above the class the functions return the
tuple's head, so only the low entries are stored.  Membership demands the
classes partition the tuples, the value coherence just described, and no
independent subset of size r+2 under subalgebra closure.  That last clause
is searched only on universes of at least r+2 elements, and each search
builds the witness form once (``witness_form``: the stored values alone,
as partial functions f_m) and takes every closure on it.

Independence is hereditary: the closure is monotone, so if y lies outside
cl(Y minus y) it lies outside the closure of every smaller set of the
others, and every subset of an independent set is independent.  The
search therefore runs top-down, from the largest size allowed to the
first size with an independent subset, and a search that finds an
independent triple takes no closure of the empty set or of a point.
"""

from __future__ import annotations

import csv
import io
import itertools
import random
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Iterator, Optional, Sequence

from .errors import FrugalImpossible, NoAmalgam, PreconditionFailed
from .report import CheckReport
from .structures import (
    FiniteStructure,
    Vocabulary,
    generate_substructure,
    indexed_names,
)

DEFAULT_TRUNC = 6


@dataclass
class KrStructure:
    r: int
    trunc: int
    universe: tuple[int, ...]
    classes: dict[tuple[int, ...], int] = field(default_factory=dict)
    values: dict[tuple[int, tuple[int, ...]], int] = field(default_factory=dict)

    def __post_init__(self):
        self.universe = tuple(self.universe)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(self.universe, repeat=self.r + 1)

    def restriction(self, subset: Iterable[int]) -> "KrStructure":
        keep = set(subset)
        out = KrStructure(self.r, self.trunc, tuple(x for x in self.universe
                                                    if x in keep))
        for t, n in self.classes.items():
            if set(t) <= keep:
                out.classes[t] = n
        for (m, t), v in self.values.items():
            if set(t) <= keep and v in keep:
                out.values[(m, t)] = v
        return out


@cache
def _witness_vocabulary(r: int, trunc: int) -> Vocabulary:
    return Vocabulary.make(
        functions={name: r + 1 for name in indexed_names("f", trunc)},
        index_bound=trunc)


def witness_form(M: KrStructure) -> FiniteStructure:
    """The stored values of M as partial functions f_m, with no relations
    and no head entries.  A head f_m(t) = t[0] lies in its own argument
    tuple, so it adds nothing to a closure, and closures here equal those
    of the flat form (classes as relations R_n, heads written out)
    whenever every stored value sits on a classified tuple at an index
    below the truncation, as coherence demands."""
    functions = {name: {} for name in indexed_names("f", M.trunc)}
    for (m, t), v in M.values.items():
        functions[f"f{m}"][t] = v
    return FiniteStructure(_witness_vocabulary(M.r, M.trunc), M.universe,
                           functions=functions)


def closure(form: FiniteStructure, X: Iterable[int]) -> set[int]:
    """Subalgebra closure of X under every witness function of the
    witness form (``witness_form``), by the core fixpoint closure."""
    return set(generate_substructure(form, set(X)).universe)


def is_independent(form: FiniteStructure, Y: Sequence[int]) -> bool:
    """No element of Y lies in the closure of the others, in the witness
    form."""
    return all(y not in closure(form, [z for z in Y if z != y]) for y in Y)


def max_independent_size(M: KrStructure, limit: int) -> int:
    """Largest size up to ``limit`` of an independent subset, by
    exhaustive subset search over one witness form of M.

    Sizes are tried from ``min(limit, len(M.universe))`` down, and the
    first size with an independent subset is the answer (0 if none).
    Since every subset of an independent set is independent, this equals
    the upward search that stops at the first size with none."""
    form = witness_form(M)
    for size in range(min(limit, len(M.universe)), 0, -1):
        if any(is_independent(form, Y)
               for Y in itertools.combinations(M.universe, size)):
            return size
    return 0


def _independence_bound_holds(M: KrStructure) -> bool:
    """No independent subset of size r+2; a universe of fewer than r+2
    elements holds without a search."""
    return (len(M.universe) < M.r + 2
            or max_independent_size(M, M.r + 2) <= M.r + 1)


def check_membership(M: KrStructure) -> CheckReport:
    """The three defining conditions, with witness tuples on failure.

    With no stray tuple the classified tuples lie among the
    |universe|^(r+1) tuples, so they cover them exactly when they are as
    many; only otherwise are the tuples walked for the unclassified."""
    r = CheckReport()
    elements = set(M.universe)
    stray = [t for t in M.classes
             if len(t) != M.r + 1 or not elements.issuperset(t)]
    missing = []
    if stray or len(M.classes) != len(elements) ** (M.r + 1):
        missing = [t for t in M.tuples() if t not in M.classes]
    bad_class = [t for t, n in M.classes.items()
                 if not 0 <= n < M.trunc]
    partition = not (missing or stray or bad_class)
    r.add("kr0.partition", partition, "" if partition else
          f"unclassified {missing[:3]} stray {stray[:3]} bad {bad_class[:3]}")

    detail = ""
    for t, n in M.classes.items():
        for m in range(n):
            v = M.values.get((m, t))
            if v is None or v not in elements:
                detail = f"missing witness value f{m}{t}"
                break
        if detail:
            break
    for (m, t) in M.values:
        n = M.classes.get(t)
        if n is None or m >= n:
            detail = f"stored value f{m}{t} at or above the class index"
            break
    coherent = not detail
    r.add("kr0.coherence", coherent, detail)

    r.check("kr0.independence_bound", lambda: _independence_bound_holds(M),
            f"independent subset of size {M.r + 2} found",
            guard=partition and coherent)
    return r


# ---------------------------------------------------------------------------
# Frugal disjoint amalgamation of k-configurations
# ---------------------------------------------------------------------------


@dataclass
class KConfiguration:
    """Ordered parts over one ambient id space; overlaps are implicit in
    shared ids."""

    parts: tuple[KrStructure, ...]

    def __post_init__(self):
        if not self.parts:
            raise PreconditionFailed("configuration", "no parts")
        rs = {p.r for p in self.parts}
        truncs = {p.trunc for p in self.parts}
        if len(rs) != 1 or len(truncs) != 1:
            raise PreconditionFailed("configuration", "mixed parameters")

    @property
    def union_universe(self) -> tuple[int, ...]:
        seen: list[int] = []
        for p in self.parts:
            for x in p.universe:
                if x not in seen:
                    seen.append(x)
        return tuple(sorted(seen))

    def overlap_signature(self) -> tuple:
        sizes = tuple(sorted(len(p.universe) for p in self.parts))
        pairwise = tuple(sorted(
            len(set(a.universe) & set(b.universe))
            for i, a in enumerate(self.parts)
            for b in self.parts[i + 1:]
        ))
        return sizes + ("|",) + pairwise


def _agreement_ok(config: KConfiguration) -> bool:
    for i, a in enumerate(config.parts):
        for b in config.parts[i + 1:]:
            shared = set(a.universe) & set(b.universe)
            for t in itertools.product(sorted(shared), repeat=a.r + 1):
                if a.classes.get(t) != b.classes.get(t):
                    return False
                n = a.classes.get(t, 0)
                for m in range(n):
                    if a.values.get((m, t)) != b.values.get((m, t)):
                        return False
    return True


def _interior_owner(config: KConfiguration, t: tuple[int, ...]) -> Optional[int]:
    for i, p in enumerate(config.parts):
        if set(t) <= set(p.universe):
            return i
    return None


def _completions(
    config: KConfiguration,
    class_cap: Optional[int] = None,
) -> Iterator[KrStructure]:
    """Backtracking over the cross tuples: classes in increasing index,
    witness values in increasing id order; class members only."""
    r = config.parts[0].r
    trunc = config.parts[0].trunc
    class_bound = trunc if class_cap is None else min(class_cap, trunc)
    universe = config.union_universe
    base = KrStructure(r, trunc, universe)
    for p in config.parts:
        for t, n in p.classes.items():
            base.classes[t] = n
        for key, v in p.values.items():
            base.values[key] = v
    cross = [t for t in base.tuples() if _interior_owner(config, t) is None]

    def assignments():
        for n in range(class_bound):
            for vals in itertools.product(universe, repeat=n):
                yield n, vals

    def place(index: int) -> Iterator[KrStructure]:
        if index == len(cross):
            candidate = KrStructure(r, trunc, universe,
                                    dict(base.classes), dict(base.values))
            if _independence_bound_holds(candidate):
                yield candidate
            return
        t = cross[index]
        for n, vals in assignments():
            base.classes[t] = n
            for m, v in enumerate(vals):
                base.values[(m, t)] = v
            yield from place(index + 1)
            del base.classes[t]
            for m in range(n):
                del base.values[(m, t)]

    yield from place(0)


def frugal_amalgamate(config: KConfiguration,
                      class_cap: Optional[int] = None) -> KrStructure:
    """First completion of the configuration on exactly the union
    universe, in deterministic search order.

    Preconditions: every part is a member, parts agree on their overlaps,
    and no part already covers the union (else no extension on the union
    universe could be proper).
    """
    union = set(config.union_universe)
    for p in config.parts:
        if set(p.universe) == union:
            raise FrugalImpossible(
                "a part already covers the union of the universes"
            )
        report = check_membership(p)
        if not report.passed:
            raise PreconditionFailed("membership", str(report.failing()))
    if not _agreement_ok(config):
        raise PreconditionFailed("overlap", "parts disagree on shared tuples")
    for solution in _completions(config, class_cap):
        return solution
    raise NoAmalgam("completion search exhausted")


def completion_solutions(config: KConfiguration,
                         class_cap: Optional[int] = None) -> list[KrStructure]:
    """Exhaustive completion oracle: every member completion on the union
    universe, in search order."""
    return list(_completions(config, class_cap))


# ---------------------------------------------------------------------------
# Configuration survey
# ---------------------------------------------------------------------------


def random_member(rng: random.Random, r: int, trunc: int,
                  universe: Sequence[int],
                  class_cap: int = 2) -> Optional[KrStructure]:
    """Seeded random member on the given universe, or None after 200
    draws."""
    universe = tuple(universe)
    for _ in range(200):
        M = KrStructure(r, trunc, universe)
        for t in M.tuples():
            n = rng.randrange(class_cap)
            M.classes[t] = n
            for m in range(n):
                M.values[(m, t)] = rng.choice(universe)
        if check_membership(M).passed:
            return M
    return None


def sample_configurations(
    rng: random.Random, r: int, k: int, size_bound: int, trunc: int,
    budget: int,
) -> Iterator[KConfiguration]:
    """Seeded stream of valid configurations of union cardinality at most
    the bound, parts proper, overlaps agreeing.  A union has at least
    max(2, k) points, so a smaller bound is refused before any draw."""
    if size_bound < max(2, k):
        raise PreconditionFailed(
            "survey", f"size bound {size_bound} below max(2, k) = {max(2, k)}")
    produced = 0
    attempts = 0
    while produced < budget and attempts < budget * 120:
        attempts += 1
        total = rng.randint(max(2, k), size_bound)
        universe = list(range(total))
        parts = []
        ok = True
        covers: list[set[int]] = []
        for _ in range(k):
            size = rng.randint(1, total - 1)
            covers.append(set(rng.sample(universe, size)))
        if set().union(*covers) != set(universe):
            continue
        if any(c == set(universe) for c in covers):
            continue
        for cover in covers:
            sub_universe = tuple(sorted(cover))
            M = random_member(rng, r, trunc, sub_universe)
            if M is None:
                ok = False
                break
            parts.append(M)
        if not ok:
            continue
        config = KConfiguration(tuple(parts))
        if not _agreement_ok(config):
            continue
        produced += 1
        yield config


@dataclass
class SurveyTable:
    r: int
    k: int
    rows: dict[tuple, dict[str, int]] = field(default_factory=dict)

    def record(self, signature: tuple, outcome: str):
        row = self.rows.setdefault(signature, {"success": 0, "no_amalgam": 0,
                                               "impossible": 0})
        row[outcome] += 1

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["r", "k", "signature", "success", "no_amalgam",
                         "impossible"])
        for signature in sorted(self.rows):
            row = self.rows[signature]
            writer.writerow([self.r, self.k,
                             " ".join(str(s) for s in signature),
                             row["success"], row["no_amalgam"],
                             row["impossible"]])
        return buffer.getvalue()


def survey_k_disjoint_ap(
    r: int, k: int, size_bound: int, budget: int,
    trunc: int = DEFAULT_TRUNC, seed: int = 0,
    class_cap: Optional[int] = 3,
    solver=frugal_amalgamate,
) -> SurveyTable:
    """Sample configurations and tabulate amalgamation outcomes by
    overlap signature; deterministic under a fixed seed.  A size bound
    below max(2, k) raises ``PreconditionFailed``."""
    rng = random.Random(seed)
    table = SurveyTable(r, k)
    for config in sample_configurations(rng, r, k, size_bound, trunc, budget):
        signature = config.overlap_signature()
        try:
            solver(config, class_cap)
            table.record(signature, "success")
        except NoAmalgam:
            table.record(signature, "no_amalgam")
        except FrugalImpossible:
            table.record(signature, "impossible")
    return table
