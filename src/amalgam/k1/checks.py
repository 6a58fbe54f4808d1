"""Clause-by-clause membership and freeness checkers.

Reports carry one entry per clause under stable descriptive keys.  Checks
whose meaning depends on an earlier clause are guarded: when the earlier
clause fails they report as skipped rather than failed, so a mutant
violating one clause fails exactly that clause.  A clause whose evaluation
meets a size cap is reported as not evaluated, with the cap named in its
detail; a report with such a clause does not pass.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..boolalg import popcount
from ..errors import CapExceeded, OverlappingH
from ..report import CheckReport
from .freepart import var
from .p1 import (
    P1Element,
    independent_from_mod_atomic,
    point_blocks,
    spans_generator,
    subalgebra_contains,
    zero_atomic_minterms_nonzero,
)
from .embeddings import TransportMap
from .structure import (
    FreeExtensionWitness,
    K1Structure,
    K1Witness,
)


def _add_capped(r: CheckReport, key: str, holds: Callable[[], bool],
                failure: str) -> None:
    """Add clause ``key`` with the value of ``holds()``; when a size cap
    stops the evaluation, the clause is recorded as not evaluated and its
    detail names the cap."""
    try:
        ok = holds()
    except CapExceeded as err:
        r.add(key, None, f"{err}; not evaluated")
        return
    r.add(key, ok, "" if ok else failure)


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


def check_Kminus1(M: K1Structure) -> CheckReport:
    r = CheckReport("membership:base")
    ids = [M.p0, M.p2, M.atom_ids, M.gen_ids]
    flat = [x for group in ids for x in group]
    disjoint_sorts = len(flat) == len(set(flat))
    r.add("km1.partition", len(set(M.p0) & set(M.p2)) == 0,
          "P0 and P2 share ids" if set(M.p0) & set(M.p2) else "")

    algebra_ok = disjoint_sorts
    full = M.ctx.full_mask
    every = list(M.g1.values()) + list(M.f.values())
    if M.witness is not None:
        every.append(M.witness.b_star)
    for x in every:
        if x.atomic & ~full:
            algebra_ok = False
        if any(g not in M.gen_ids for g in x.free.support):
            algebra_ok = False
    if set(M.g1) != set(M.p0):
        algebra_ok = False
    if any(g not in M.gen_ids for g in M.named_gens):
        algebra_ok = False
    r.add("km1.algebra", algebra_ok,
          "" if algebra_ok else "elements stray outside the declared algebra")
    if not algebra_ok:
        for key in ("km1.trace_hom", "km1.trace_distinct", "km1.atom_bijection",
                    "km1.p2_finite", "km1.f_table", "km1.eventual_escape",
                    "km1.generation"):
            r.skip(key)
        return r

    hom_ok = all(_is_designated_atom(M, M.g1[a]) for a in M.p0)
    r.add("km1.trace_hom", hom_ok,
          "" if hom_ok else "a G1 value is not a designated atom, so the "
          "trace map is not a homomorphism")

    if hom_ok:
        named_atoms = 0
        for a in M.p0:
            named_atoms |= M.g1[a].atomic
        unhit = full & ~named_atoms
        # two joins of designated atoms share a trace exactly when their
        # symmetric difference is unhit by G1 (compare d against 0)
        r.add("km1.trace_distinct", unhit == 0,
              "" if unhit == 0 else
              f"designated atoms {bin(unhit)} are invisible to the trace map")
        injective = len({M.g1[a].atomic for a in M.p0}) == len(M.p0)
        traces_ok = injective and all(
            M.trace(M.g1[a]) == frozenset([a]) for a in M.p0
        )
        r.add("km1.atom_bijection", traces_ok,
              "" if traces_ok else "G1 is not a trace-faithful bijection")
    else:
        r.skip("km1.trace_distinct")
        r.skip("km1.atom_bijection")

    r.add("km1.p2_finite", True, "finite by representation")

    table_ok = all((n, c) in M.f for c in M.p2 for n in range(M.trunc)) and \
        all(c in M.p2 and 0 <= n < M.trunc for (n, c) in M.f)
    r.add("km1.f_table", table_ok,
          "" if table_ok else "value table is not total on [0, trunc) x P2")
    if not table_ok:
        r.skip("km1.eventual_escape")
        r.skip("km1.generation")
        return r

    escape_ok = True
    witness_bound = M.witness.n_star if M.witness is not None else None
    for a in M.p0:
        atom = M.g1[a].atomic
        for c in M.p2:
            below = [n for n in range(M.trunc) if M.f[(n, c)].atomic & atom]
            if len(below) == M.trunc and M.trunc > 0:
                escape_ok = False
            if witness_bound is not None and any(n >= witness_bound for n in below):
                escape_ok = False
    r.add("km1.eventual_escape", escape_ok,
          "" if escape_ok else "a designated atom never escapes some value tail")

    gens = _level_generators(M, M.trunc) + \
        [P1Element(0, var(g)) for g in M.named_gens]
    _add_capped(r, "km1.generation",
                lambda: all(spans_generator(M.ctx, gens, g) for g in M.gen_ids),
                "the values and named generators do not generate the algebra")
    return r


def check_K1(M: K1Structure, w: Optional[K1Witness] = None) -> CheckReport:
    w = w if w is not None else M.witness
    base = check_Kminus1(M)
    r = CheckReport("membership:witnessed")
    r.items = list(base.items)
    if base.failing():
        for key in ("k0.b_star", "k0.chain", "k0.base_free", "k0.union",
                    "k0.f_distinct", "k0.tail_free", "k0.level_generation"):
            r.skip(key, "base membership failed")
        return r
    if w is None:
        r.add("k0.b_star", False, "no witness supplied")
        return r

    r.add("k0.b_star", w.b_star == M.ctx.b_star,
          "" if w.b_star == M.ctx.b_star else
          "witness top differs from the join of the designated atoms")

    r.add("k0.chain", True, "canonical chain is nested by construction")
    base_gens = _level_generators(M, w.n_star)

    def base_free() -> bool:
        blocks = point_blocks(M.ctx, base_gens)
        quotient_atoms = sum(1 for b in blocks if not b.free.is_zero)
        return quotient_atoms & (quotient_atoms - 1) == 0 and quotient_atoms > 0

    _add_capped(r, "k0.base_free", base_free,
                "the number of blocks off the atomic ideal is not a power of "
                "two, so the base level is not free over the atomic ideal")

    if M.named_gens:
        r.add("k0.union", False, "the level chain does not exhaust the algebra")
    else:
        # the top level spans what km1.generation spanned: its verdict or cap
        (generation,) = [i for i in base.items if i.key == "km1.generation"]
        r.add("k0.union", generation.passed, generation.detail)

    distinct_ok = True
    for c in M.p2:
        vals = [M.f[(n, c)] for n in range(M.trunc)]
        if len(set(vals)) != len(vals):
            distinct_ok = False
    r.add("k0.f_distinct", distinct_ok,
          "" if distinct_ok else "a value repeats within one name's column")

    tails = [M.f[(m, c)] for c in M.p2 for m in range(w.n_star, M.trunc)]
    tail_disjoint = all(t.atomic == 0 for t in tails)
    if not tail_disjoint:
        r.add("k0.tail_free", False, "a tail value meets the atomic top")
    else:
        # nonzero signed minterms, and freeness from the base level
        # against its elements off the atomic ideal (test elements d
        # with d meet b* = 0)
        _add_capped(r, "k0.tail_free",
                    lambda: zero_atomic_minterms_nonzero(M.ctx, tails) and
                    independent_from_mod_atomic(tails, base_gens),
                    "the tail family is not free from the base level")

    r.add("k0.level_generation", True,
          "canonical levels contain their generators by construction")
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
    r = CheckReport("free-extension")

    image_gens = [t.apply(x) for x in M1.generator_elements()]
    image_support = {g for x in image_gens for g in x.free.support}

    def witness_domain() -> bool:
        return all(not i.free.is_zero for i in w.independent) and not any(
            set(i.free.support) <= image_support and
            subalgebra_contains(M2.ctx, image_gens, i)
            for i in w.independent)

    _add_capped(r, "fr.witness_domain", witness_domain,
                "an independence witness element lies in the atomic ideal "
                "or in the extended-from algebra")

    span = list(w.independent) + image_gens + \
        [M2.ctx.atom(a) for a in M2.atom_ids]
    _add_capped(r, "fr.generation",
                lambda: all(spans_generator(M2.ctx, span, g)
                            for g in M2.gen_ids),
                "I with the old algebra and the atomic ideal fails to generate")

    _add_capped(r, "fr.independence",
                lambda: independent_from_mod_atomic(list(w.independent),
                                                    image_gens),
                "I is not independent from the old algebra modulo the "
                "atomic ideal")

    old_p2 = {t.p2(c) for c in M1.p2}
    new_p2 = [c for c in M2.p2 if c not in old_p2]
    h = w.h
    domain_ok = set(h) == set(new_p2)
    r.add("fr.h_domain", domain_ok,
          "" if domain_ok else "H is not exactly defined on the new names")

    witness_set = set(w.independent)
    if domain_ok:
        tails_ok = True
        for c in new_p2:
            start = h[c]
            vals = [M2.f[(n, c)] for n in range(start, M2.trunc)]
            if len(set(vals)) != len(vals) or any(v not in witness_set for v in vals):
                tails_ok = False
        r.add("fr.tails", tails_ok,
              "" if tails_ok else "a scheduled tail value escapes I or repeats")
    else:
        r.skip("fr.tails")

    collisions_ok = True
    for c in M2.p2:
        for d in M2.p2:
            if c >= d:
                continue
            start_c = h.get(c, 0)
            start_d = h.get(d, 0)
            tail_c = {M2.f[(n, c)] for n in range(start_c, M2.trunc)} & witness_set
            tail_d = {M2.f[(n, d)] for n in range(start_d, M2.trunc)} & witness_set
            if tail_c & tail_d:
                collisions_ok = False
    r.add("fr.collisions", collisions_ok,
          "" if collisions_ok else
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
    moved_h1 = {t.p2(c): v for c, v in h1.items()}
    if set(moved_h1) & set(h2):
        raise OverlappingH(f"shared names {sorted(set(moved_h1) & set(h2))}")
    independent = [t.apply(x) for x in w12.independent] + list(w23.independent)
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
