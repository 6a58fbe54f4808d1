"""Clause-by-clause membership and freeness checkers.

Reports carry one entry per clause under stable descriptive keys, built
under the one policy of ``report.CheckReport.check``.  Each clause whose
meaning depends on an earlier clause names that clause's verdict as its
guard: when the earlier clause fails it reports as skipped rather than
failed, so a mutant violating one clause fails exactly that clause.  A
clause whose evaluation meets a size cap is reported as not evaluated,
with the cap named in its detail; a report with such a clause does not
pass.  A property that holds by construction of the representation (P2
is finite, the canonical level chain is nested and contains its
generators) is not reported.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..boolalg import popcount
from ..errors import OverlappingH
from ..report import CheckReport
from .p1 import (
    P1Element,
    bare_generator,
    independent_from_mod_atomic,
    point_blocks,
    spans_generator,
    subalgebra_contains,
)
from .embeddings import TransportMap
from .structure import (
    FreeExtensionWitness,
    K1Structure,
    K1Witness,
)

# the witnessed-class clauses, skipped together by the base and witness
# gates of ``check_K1``
_K0_KEYS = ("k0.b_star", "k0.base_free", "k0.union", "k0.f_distinct",
           "k0.tail_free")


def _is_designated_atom(M: K1Structure, x: P1Element) -> bool:
    return x.free.is_zero and popcount(x.atomic) == 1 and \
        (x.atomic & M.ctx.full_mask) == x.atomic


def _level_generators(M: K1Structure, n: int) -> list[P1Element]:
    """Canonical generating set of the level-n subalgebra: the designated
    atoms together with every value of index below n."""
    gens = [M.ctx.atom(a) for a in M.atom_ids]
    for c in M.p2:
        for m in range(min(n, M.trunc)):
            if (m, c) in M.f:
                gens.append(M.f[(m, c)])
    return gens


def _within_algebra(M: K1Structure) -> bool:
    """G1 is defined exactly on P0, the named generators are generators,
    and every G1 value, F value and witness top lies in the algebra of the
    declared atoms and generators."""
    full, gens = M.ctx.full_mask, set(M.gen_ids)
    every = list(M.g1.values()) + list(M.f.values())
    if M.witness is not None:
        every.append(M.witness.b_star)
    return set(M.g1) == set(M.p0) and set(M.named_gens) <= gens and all(
        not x.atomic & ~full and set(x.free.support) <= gens for x in every)


def _escapes(M: K1Structure) -> bool:
    """Every designated atom leaves every value column, and leaves it
    before the witness threshold when there is a witness."""
    bound = M.witness.n_star if M.witness is not None else None
    for a in M.p0:
        atom = M.g1[a].atomic
        for c in M.p2:
            below = [n for n in range(M.trunc) if M.f[(n, c)].atomic & atom]
            if len(below) == M.trunc and M.trunc > 0:
                return False
            if bound is not None and any(n >= bound for n in below):
                return False
    return True


def check_Kminus1(M: K1Structure) -> CheckReport:
    r = CheckReport()
    ids = [*M.p0, *M.p2, *M.atom_ids, *M.gen_ids]
    sorts = r.check("km1.partition", lambda: len(set(ids)) == len(ids),
                    "P0, P2, the designated atoms and the generators share "
                    "ids")
    algebra = r.check("km1.algebra", lambda: _within_algebra(M),
                      "elements stray outside the declared algebra",
                      guard=sorts)

    hom = r.check("km1.trace_hom",
                  lambda: all(_is_designated_atom(M, M.g1[a]) for a in M.p0),
                  "a G1 value is not a designated atom, so the trace map is "
                  "not a homomorphism", guard=algebra)
    # read without M.ctx, which refuses repeated atom ids that
    # km1.partition reports
    unhit = sum(1 << a for a in set(M.atom_ids))
    for x in M.g1.values():
        unhit &= ~x.atomic
    # two joins of designated atoms share a trace exactly when their
    # symmetric difference is unhit by G1 (compare d against 0)
    r.check("km1.trace_distinct", lambda: unhit == 0,
            f"designated atoms {bin(unhit)} are invisible to the trace map",
            guard=hom)
    r.check("km1.atom_bijection",
            lambda: len({M.g1[a].atomic for a in M.p0}) == len(M.p0) and all(
                M.trace(M.g1[a]) == frozenset([a]) for a in M.p0),
            "G1 is not a trace-faithful bijection", guard=hom)

    table = r.check(
        "km1.f_table",
        lambda: all((n, c) in M.f for c in M.p2 for n in range(M.trunc))
        and all(c in M.p2 and 0 <= n < M.trunc for (n, c) in M.f),
        "value table is not total on [0, trunc) x P2", guard=algebra)
    r.check("km1.eventual_escape", lambda: _escapes(M),
            "a designated atom never escapes some value tail", guard=table)

    def generated() -> bool:
        gens = _level_generators(M, M.trunc) + \
            [bare_generator(g) for g in M.named_gens]
        return spans_generator(M.ctx, gens, M.gen_ids)

    r.check("km1.generation", generated,
            "the values and named generators do not generate the algebra",
            guard=table)
    return r


def check_K1(M: K1Structure, w: Optional[K1Witness] = None) -> CheckReport:
    w = w if w is not None else M.witness
    r = check_Kminus1(M)
    if r.failing():
        for key in _K0_KEYS:
            r.skip(key, "base membership failed")
        return r
    if w is None:
        r.add("k0.b_star", False, "no witness supplied")
        for key in _K0_KEYS[1:]:
            r.skip(key)
        return r

    r.add("k0.b_star", w.b_star == M.ctx.b_star,
          "witness top differs from the join of the designated atoms")
    base_gens = _level_generators(M, w.n_star)

    def base_free() -> bool:
        blocks = point_blocks(M.ctx, base_gens)
        quotient_atoms = sum(1 for b in blocks if not b.free.is_zero)
        return quotient_atoms & (quotient_atoms - 1) == 0 and quotient_atoms > 0

    r.check("k0.base_free", base_free,
            "the number of blocks off the atomic ideal is not a power of "
            "two, so the base level is not free over the atomic ideal")

    if M.named_gens:
        r.add("k0.union", False, "the level chain does not exhaust the algebra")
    else:
        # the top level spans what km1.generation spanned: its verdict or cap
        (generation,) = [i for i in r.items if i.key == "km1.generation"]
        r.add("k0.union", generation.passed, generation.detail)

    r.add("k0.f_distinct", all(
        len({M.f[(n, c)] for n in range(M.trunc)}) == M.trunc for c in M.p2),
        "a value repeats within one name's column")

    slots = [(m, c) for c in M.p2 for m in range(w.n_star, M.trunc)]
    tails = [M.f[s] for s in slots]
    first: dict[P1Element, tuple[int, int]] = {}
    repeats = [(first[t], s) for s, t in zip(slots, tails)
               if first.setdefault(t, s) != s]
    disjoint = all(t.atomic == 0 for t in tails)
    # a family with a repeat is not independent, and a tail meeting the
    # atomic top fails at once; else freeness from the base level modulo
    # the atomic ideal.  Its test elements, the base elements off that
    # ideal, include 1, so independence already makes every signed
    # minterm of the tails nonzero.
    if repeats:
        detail = "tail slots (index, name) {} and {} hold one value".format(
            *repeats[0])
    elif disjoint:
        detail = "the tail family is not free from the base level"
    else:
        detail = "a tail value meets the atomic top"
    r.check("k0.tail_free",
            lambda: not repeats and disjoint
            and independent_from_mod_atomic(tails, base_gens),
            detail)
    return r


# ---------------------------------------------------------------------------
# Free extensions
# ---------------------------------------------------------------------------


def check_free_extension(
    M1: K1Structure,
    M2: K1Structure,
    w: FreeExtensionWitness,
    transport: Optional[TransportMap] = None,
) -> CheckReport:
    """Verify the witness (I, H) for M1 being freely extended by M2.

    ``transport`` is the inclusion; omitted means the identity transport
    (shared ids, no new atoms under old elements).
    """
    t = transport or TransportMap()
    r = CheckReport()

    image_gens = t.apply(M1.generator_elements())
    image_support = {g for x in image_gens for g in x.free.support}

    def witness_domain() -> bool:
        return all(not i.free.is_zero for i in w.independent) and not any(
            set(i.free.support) <= image_support and
            subalgebra_contains(M2.ctx, image_gens, i)
            for i in w.independent)

    r.check("fr.witness_domain", witness_domain,
            "an independence witness element lies in the atomic ideal "
            "or in the extended-from algebra")

    span = list(w.independent) + image_gens + \
        [M2.ctx.atom(a) for a in M2.atom_ids]
    r.check("fr.generation",
            lambda: spans_generator(M2.ctx, span, M2.gen_ids),
            "I with the old algebra and the atomic ideal fails to generate")

    r.check("fr.independence",
            lambda: independent_from_mod_atomic(list(w.independent),
                                                image_gens),
            "I is not independent from the old algebra modulo the "
            "atomic ideal")

    p2_map = dict(t.p2_map)
    old_p2 = {p2_map.get(c, c) for c in M1.p2}
    new_p2 = [c for c in M2.p2 if c not in old_p2]
    h = w.h
    witness_set = set(w.independent)

    def scheduled(c: int) -> list[P1Element]:
        return [M2.f[(n, c)] for n in range(h.get(c, 0), M2.trunc)]

    domain = r.check("fr.h_domain", lambda: set(h) == set(new_p2),
                     "H is not exactly defined on the new names")
    r.check("fr.tails",
            lambda: all(len(set(vals)) == len(vals) and set(vals) <= witness_set
                        for vals in map(scheduled, new_p2)),
            "a scheduled tail value escapes I or repeats", guard=domain)

    tails = {c: set(scheduled(c)) & witness_set for c in M2.p2}
    r.add("fr.collisions",
          not any(tails[c] & tails[d] for c in M2.p2 for d in M2.p2 if c < d),
          "two names share a scheduled tail value (collisions must be empty)")
    return r


def compose_free_witnesses(
    w12: FreeExtensionWitness,
    w23: FreeExtensionWitness,
    transport23: Optional[TransportMap] = None,
) -> FreeExtensionWitness:
    """Union composition: transported I1 with I2, merged H (disjoint domains)."""
    t = transport23 or TransportMap()
    h1, h2 = w12.h, w23.h
    p2_map = dict(t.p2_map)
    moved_h1 = {p2_map.get(c, c): v for c, v in h1.items()}
    if set(moved_h1) & set(h2):
        raise OverlappingH(f"shared names {sorted(set(moved_h1) & set(h2))}")
    independent = t.apply(w12.independent) + list(w23.independent)
    merged = dict(moved_h1)
    merged.update(h2)
    return FreeExtensionWitness.make(independent, merged)


def union_of_chain(
    chain: Sequence[K1Structure],
    witnesses: Sequence[FreeExtensionWitness],
) -> tuple[K1Structure, list[FreeExtensionWitness]]:
    """The top of a finite free chain, with one composed witness per tail:
    entry i certifies chain[i] freely extended by the top."""
    if len(witnesses) != len(chain) - 1:
        raise ValueError("need one witness per link")
    composed: list[FreeExtensionWitness] = []
    for start, acc in enumerate(witnesses):
        for w in witnesses[start + 1:]:
            acc = compose_free_witnesses(acc, w)
        composed.append(acc)
    return chain[-1], composed
