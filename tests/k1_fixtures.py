"""Chain builders for the k1 tests: free-extension witnesses derived
from a member or an inclusion, a link that adds fresh names, the meet
and complement of k1 elements, and the tail-drain chains with the
witness of each link.  The package builds its chains by amalgamation
(``k1.ops.amalgamate_free``) and needs none of these; the first five
came from ``amalgam.k1.ops`` (``derive_free_witness``,
``derive_pair_witness``, ``extend_with_names``) and ``amalgam.k1.p1``
(``meet`` and ``comp``, once ``P1Context.meet`` and ``P1Context.comp``)."""

from dataclasses import replace

from amalgam.fraisse import build_generic
from amalgam.k1 import FreeExtensionWitness, K1Structure, MatchEmbedding
from amalgam.k1.engine import k1_class
from amalgam.k1.ops import amalgamate_free
from amalgam.k1.freepart import conj, neg, var
from amalgam.k1.p1 import P1Context, P1Element


def meet(x: P1Element, y: P1Element) -> P1Element:
    return P1Element(x.atomic & y.atomic, conj(x.free, y.free))


def comp(ctx: P1Context, x: P1Element) -> P1Element:
    """The complement of x relative to the designated atoms of ``ctx``."""
    return P1Element(ctx.full_mask & ~x.atomic, neg(x.free))


def derive_free_witness(M: K1Structure) -> FreeExtensionWitness:
    """Free-over-minimal witness for a value-generated member: the bare
    generators form the independent set, every name's tail starts at the
    witness threshold."""
    n_star = M.witness.n_star if M.witness else 0
    independent = [P1Element(0, var(g)) for g in M.gen_ids]
    return FreeExtensionWitness.make(independent, {c: n_star for c in M.p2})


def derive_pair_witness(
    N1: K1Structure, N2: K1Structure, inclusion: MatchEmbedding
) -> FreeExtensionWitness:
    """Witness that N2 freely extends the embedded copy of N1: fresh
    generators of N2 are the independent set."""
    inc_p0, inc_p2 = dict(inclusion.p0_map), dict(inclusion.p2_map)
    used = set()
    for a in N1.p0:
        used |= set(N2.g1[inc_p0[a]].free.support)
    for c in N1.p2:
        for n in range(N1.trunc):
            used |= set(N2.f[(n, inc_p2[c])].free.support)
    fresh = [g for g in N2.gen_ids if g not in used]
    independent = [P1Element(0, var(g)) for g in fresh]
    n_star = N2.witness.n_star if N2.witness else 0
    old_p2 = {inc_p2[c] for c in N1.p2}
    h = {c: n_star for c in N2.p2 if c not in old_p2}
    return FreeExtensionWitness.make(independent, h)


def extend_with_names(M: K1Structure,
                      count: int) -> tuple[K1Structure, FreeExtensionWitness]:
    """Add ``count`` fresh names with all-generator value columns; the new
    tails (from index 0) form the free-extension witness."""
    N = M.copy()
    ids = N.fresh_ids(count * (1 + N.trunc))
    new_names = ids[:count]
    gens = ids[count:]
    N.p2 = N.p2 + tuple(new_names)
    N.gen_ids = tuple(sorted(set(N.gen_ids) | set(gens)))
    independent = []
    pos = 0
    for c in new_names:
        for n in range(N.trunc):
            value = P1Element(0, var(gens[pos]))
            N.f[(n, c)] = value
            independent.append(value)
            pos += 1
    witness = FreeExtensionWitness.make(independent, {c: 0 for c in new_names})
    return N, witness


def drain_with_link_witnesses(bound: int, seed: int, trunc: int = 6):
    """The chain of the tail drain ``build_generic_k1(50_000, bound,
    trunc, seed)`` builds, and the witness that ``amalgamate_free`` gave
    for each link ``chain[i] -> chain[i + 1]``."""
    records = []

    def amalgamate(M, A, B, f, inc):
        records.append(amalgamate_free(M, A, B, f, inc))
        return records[-1].amalgam

    approx = build_generic(replace(k1_class(trunc, 0), amalgamate=amalgamate),
                           50_000, bound, seed)
    return approx.chain, [r.witness for r in records]
