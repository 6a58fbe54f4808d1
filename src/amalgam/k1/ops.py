"""Constructive operations: free amalgamation, trace-element adjunction,
and labeling of good sequences.

The amalgamation follows the four-step recipe: (1) extend the big
structure's element algebra by one fresh designated atom per new atom of
the small extension, each placed by a principal ultrafilter choice that
respects the base traces and avoids the independence witness; the
choices are read off one table, ``_principal_points``, that maps each
sign vector over the base image to the least window point of its block;
(2, 3) the amalgamation base and the quotient of the free amalgam are
implicit in the product representation, which keeps designated and free
coordinates separated by construction, so the quotient's effect reduces
to the ultrafilter bookkeeping; (4) rebuild the structure: merged value
tables, extended atom bijection, derived traces.  Values reach the
amalgam through ``TransportMap.apply``, one call per list: M1's values,
N2's new names, and each of the two checks that both routes agree over
the base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import (
    CollapseDetected,
    HarvestFailed,
    NoBasisThrough,
    PreconditionFailed,
    UltrafilterChoiceFailed,
    WitnessAlignmentFailed,
)
from ..boolalg import PrincipalIdeal, rebase_with_element
from ..report import CheckReport
from .freepart import ZERO, rename, support_components, var
from .p1 import (
    P1Context,
    P1Element,
    _signature_blocks,
    bare_generator,
    independent_from_mod_atomic,
    materialize,
    unmaterialize,
)
from .embeddings import MatchEmbedding, TransportMap, _generator_lists
from .structure import (
    FreeExtensionWitness,
    K1Structure,
    K1Witness,
)


@dataclass
class AmalgamResult:
    amalgam: K1Structure
    big_transport: TransportMap  # M1 -> M2
    small_embedding: TransportMap  # N2 -> M2
    witness: FreeExtensionWitness  # M1 freely extended by M2
    new_atoms: tuple[int, ...]


def _principal_points(ctx: P1Context, images: Sequence[P1Element]):
    """Sign vector over ``images`` -> least window point of its block, as
    the (generator, 1) pairs of the lowest set bit of the block's point
    table; vectors whose block has no window point are absent."""
    sigma, blocks = _signature_blocks(ctx, images)
    least = {}
    for v, (_, table) in blocks.items():
        if table:
            p = (table & -table).bit_length() - 1
            least[v] = tuple((sigma[i], 1) for i in range(p.bit_length())
                             if p >> i & 1)
    return least


def _trace_vector(images: Sequence[P1Element], bit: int) -> int:
    """Sign vector over ``images`` of the designated atom ``bit``."""
    return sum(1 << i for i, img in enumerate(images) if img.atomic & bit)


def _gen_rename(images1: Sequence[P1Element],
                images2: Sequence[P1Element]) -> dict[int, int]:
    """Positionwise generator correspondence from the two images of N1:
    the generator of an image value in N2 maps to the generator of the
    corresponding image value in M1."""
    gen_map: dict[int, int] = {}
    for img1, img2 in zip(images1, images2):
        s2 = img2.free.support
        s1 = img1.free.support
        if len(s1) != len(s2):
            raise WitnessAlignmentFailed(
                "matched values disagree on free support size"
            )
        for g2, g1 in zip(s2, s1):
            if gen_map.setdefault(g2, g1) != g1:
                raise WitnessAlignmentFailed(
                    "inconsistent generator correspondence between the images"
                )
    for img1, img2 in zip(images1, images2):
        moved = rename(img2.free, {g: gen_map[g] for g in img2.free.support})
        if moved != img1.free:
            raise WitnessAlignmentFailed(
                "image free parts do not correspond under the generator map"
            )
    return gen_map


def amalgamate_free(
    M1: K1Structure,
    N1: K1Structure,
    N2: K1Structure,
    into_big: MatchEmbedding,
    into_small: MatchEmbedding,
) -> AmalgamResult:
    """Amalgamate the extension N1 <= N2 onto M1 over the embedding of N1.

    Returns the amalgam M2 with transports for both sides and the witness
    that M1 is freely extended by M2.  Every new designated atom of N2 is
    placed inside M1's algebra by a deterministic principal ultrafilter
    choice: the least window point of the base block with the new atom's
    sign vector (zero on all generators outside the base image, so the
    choice avoids the independence witness).  A block without window
    points has no room off the existing atoms, and the choice fails.

    M1's values move along the big transport in one ``apply`` call, and
    N2's new names along the small embedding in another; the two route
    checks over the base map their lists the same way before comparing.
    """
    big_p0, big_p2 = dict(into_big.p0_map), dict(into_big.p2_map)
    small_p0, small_p2 = dict(into_small.p0_map), dict(into_small.p2_map)
    _, images1 = _generator_lists(N1, M1, big_p0, big_p2)
    _, images2 = _generator_lists(N1, N2, small_p0, small_p2)
    gen_rename = _gen_rename(images1, images2)

    old_p0 = {small_p0[a] for a in N1.p0}
    old_p2 = {small_p2[c] for c in N1.p2}
    new_p0 = [a for a in N2.p0 if a not in old_p0]
    # the table's window may pass WINDOW_CAP, so it is built only when a
    # new atom or an atom of M1 off the base image needs a point
    needs_points = new_p0 or len(M1.atom_ids) > len(N1.p0)
    least = _principal_points(M1.ctx, images1) if needs_points else {}
    new_p2 = [c for c in N2.p2 if c not in old_p2]
    new_atom_count = len(new_p0)

    taken = M1.all_ids() | N2.all_ids()
    next_id = max(taken, default=-1) + 1

    def take(k: int) -> list[int]:
        nonlocal next_id
        out = list(range(next_id, next_id + k))
        next_id += k
        return out

    fresh_atoms = take(new_atom_count)
    fresh_p0 = take(new_atom_count)
    fresh_p2 = take(len(new_p2))
    private_gens = sorted(set(N2.gen_ids) - set(gen_rename))
    fresh_gens = take(len(private_gens))
    gen_map = dict(gen_rename)
    gen_map.update(dict(zip(private_gens, fresh_gens)))

    # ultrafilter choice per new atom of N2
    splits = []
    small_atom_map = {}
    for a in N1.p0:
        # positions of N1's designated atoms inside each structure
        small_atom_map[N2.g1[small_p0[a]].atomic.bit_length() - 1] = \
            M1.g1[big_p0[a]].atomic.bit_length() - 1
    for new_a, atom_id in zip(new_p0, fresh_atoms):
        nu_bit = N2.g1[new_a].atomic
        point = least.get(_trace_vector(images2, nu_bit))
        if point is None:
            # the analog of a nonprincipal ultrafilter needs room off the
            # atoms; a purely atomic block would split an existing atom
            raise UltrafilterChoiceFailed(
                f"no atomless position matches the trace of the new atom {new_a}"
            )
        splits.append((atom_id, point))
        small_atom_map[nu_bit.bit_length() - 1] = atom_id

    big_transport = TransportMap(splits=tuple(splits))

    small_embedding = TransportMap(
        p0_map=tuple(sorted(
            [(small_p0[a], big_p0[a]) for a in N1.p0] +
            list(zip(new_p0, fresh_p0))
        )),
        p2_map=tuple(sorted(
            [(small_p2[c], big_p2[c]) for c in N1.p2] +
            list(zip(new_p2, fresh_p2))
        )),
        atom_map=tuple(sorted(small_atom_map.items())),
        gen_map=tuple(sorted(gen_map.items())),
        splits=_extra_atom_splits(M1, N1, big_p0, images1, least, gen_rename),
    )

    # assemble the amalgam
    atom_ids = tuple(sorted(M1.atom_ids + tuple(fresh_atoms)))
    gen_ids = tuple(sorted(M1.gen_ids + tuple(fresh_gens)))
    old_keys = [(n, c) for c in M1.p2 for n in range(M1.trunc)]
    moved = big_transport.apply([M1.g1[a] for a in M1.p0] +
                                [M1.f[k] for k in old_keys])
    g1 = dict(zip(M1.p0, moved))
    f = dict(zip(old_keys, moved[len(M1.p0):]))
    ctx2 = P1Context(atom_ids)
    for p0_id, atom_id in zip(fresh_p0, fresh_atoms):
        g1[p0_id] = P1Element(1 << atom_id, ZERO)
    fresh_keys = [(n, c) for c in fresh_p2 for n in range(N2.trunc)]
    f.update(zip(fresh_keys, small_embedding.apply(
        [N2.f[(n, c)] for c in new_p2 for n in range(N2.trunc)])))

    n_star = max(
        M1.witness.n_star if M1.witness else 0,
        N2.witness.n_star if N2.witness else 0,
    )
    M2 = K1Structure(
        trunc=M1.trunc,
        p0=M1.p0 + tuple(fresh_p0),
        p2=M1.p2 + tuple(fresh_p2),
        atom_ids=atom_ids,
        gen_ids=gen_ids,
        g1=g1,
        f=f,
        named_gens=M1.named_gens,
    )
    M2.witness = K1Witness(n_star, ctx2.b_star)

    # consistency of the two routes into the amalgam over the base
    base_keys = [(n, c) for c in N1.p2 for n in range(N1.trunc)]
    via_small = small_embedding.apply([N2.f[(n, small_p2[c])]
                                       for n, c in base_keys])
    for (n, c), value in zip(base_keys, via_small):
        if f[(n, big_p2[c])] != value:
            raise CollapseDetected(
                f"value ({n}, {c}) disagrees between the two routes"
            )
    via_small = small_embedding.apply([N2.g1[small_p0[a]] for a in N1.p0])
    for a, value in zip(N1.p0, via_small):
        if g1[big_p0[a]] != value:
            raise CollapseDetected(f"atom image of {a} disagrees")

    witness = FreeExtensionWitness.make(
        [bare_generator(g) for g in fresh_gens],
        {c: n_star for c in fresh_p2},
    )
    return AmalgamResult(M2, big_transport, small_embedding, witness,
                         tuple(fresh_atoms))


def _extra_atom_splits(M1, N1, big_p0, images1, least, gen_rename):
    """How M1's designated atoms beyond the base sit under transported
    elements of the small side: each such atom follows the principal point
    of its base block, evaluated in the small side's coordinates."""
    base_atoms = {M1.g1[big_p0[a]].atomic for a in N1.p0}
    inverse = {g1: g2 for g2, g1 in gen_rename.items()}
    splits = []
    for atom_id in M1.atom_ids:
        bit = 1 << atom_id
        if bit in base_atoms:
            continue
        point_m1 = least.get(_trace_vector(images1, bit))
        if point_m1 is None:
            raise CollapseDetected(
                "an off-base designated atom sits in a purely atomic base "
                "block; the base embedding is not faithful"
            )
        point_small = tuple(sorted(
            (inverse[g], v) for g, v in point_m1 if g in inverse
        ))
        if len(point_small) != len(point_m1):
            raise CollapseDetected(
                "a base block depends on a generator invisible to the base"
            )
        splits.append((atom_id, point_small))
    return tuple(splits)


# ---------------------------------------------------------------------------
# Trace-element adjunction
# ---------------------------------------------------------------------------


def adjoin_trace_element(
    M: K1Structure, u: Sequence[int]
) -> tuple[K1Structure, P1Element]:
    """Extend by one named free generator whose designated-atom trace is
    exactly u: the new element is (join of u's atoms) or-ed with a fresh
    generator living below the complement of the atomic top."""
    u = tuple(sorted(set(u)))
    if not set(u) <= set(M.p0):
        raise PreconditionFailed("trace-domain", "u must be a subset of P0")
    g = M.fresh_ids(1)[0]
    mask = 0
    for a in u:
        mask |= M.g1[a].atomic
    b = P1Element(mask, var(g))
    N = M.copy()
    N.gen_ids = tuple(sorted(N.gen_ids + (g,)))
    N.named_gens = tuple(sorted(N.named_gens + (g,)))
    return N, b


# ---------------------------------------------------------------------------
# Good sequences and labeling
# ---------------------------------------------------------------------------


# Each link of a good sequence adds at least SURPLUS new names, and an old
# P0 element may stay in the traces of the next SLACK values of the
# sequence before it must leave them.
SURPLUS = 2
SLACK = 1


def check_good_sequence(
    chain: Sequence[K1Structure],
    b_seq: Sequence[P1Element],
):
    """Clause report for a candidate good sequence along a free chain.

    (a) each link adds at least ``SURPLUS`` new names, (b) each b_n lives
    in the next structure (its atoms designated there, its free support
    among its generators) and is free there from the current algebra
    modulo the atomic ideal, (c) old P0 elements eventually leave every
    b_n's trace (``SLACK`` links of grace).  (b) and (c) read one b_n per
    link, so they are skipped when the sequence is longer than the chain
    has links.
    """
    r = CheckReport()
    shape = len(b_seq) <= max(len(chain) - 1, 0)
    r.add("good.shape", shape, "sequence longer than the chain")
    r.add("good.surplus", all(len(set(N.p2) - set(M.p2)) >= SURPLUS
                              for M, N in zip(chain, chain[1:])),
          f"a link adds fewer than {SURPLUS} names")
    r.check("good.in_next",
            lambda: all(not b.atomic & ~N.ctx.full_mask
                        and set(b.free.support) <= set(N.gen_ids)
                        for b, N in zip(b_seq, chain[1:])),
            "some b_n lies outside the next structure", guard=shape)
    r.check("good.freeness",
            lambda: all(independent_from_mod_atomic(
                [b], chain[i].generator_elements())
                for i, b in enumerate(b_seq)),
            "some b_n is not free from the current algebra", guard=shape)
    r.check("good.escape",
            lambda: not any(b_seq[n].atomic & M.g1[a].atomic
                            for i, M in enumerate(chain) for a in M.p0
                            for n in range(i + SLACK, len(b_seq))),
            "an old P0 element stays inside later traces", guard=shape)
    return r


def label_good_sequence(
    chain: Sequence[K1Structure],
    witnesses: Sequence[FreeExtensionWitness],
    b_seq: Sequence[P1Element],
) -> tuple[K1Structure, int, list[FreeExtensionWitness], FreeExtensionWitness]:
    """Produce a labeled extension: one new name whose value column is the
    good sequence.

    For each link, harvest from the link's independence witness a finite
    set J around b_n's support, rebase it so that b_n itself becomes a
    witness element (working in the flattened algebra over the link's
    support window), and bump the tail thresholds of names whose scheduled
    values were harvested.  The chain top then gains one name c whose
    column is b_0, b_1, ..., padded by fresh generators.

    Returns the labeled structure, the new name, the rebased per-link
    witnesses (with a final link scheduling only the padding), and the
    sharp bottom witness: relative to the chain bottom the whole column is
    fresh, so its tail threshold is 0.
    """
    report = check_good_sequence(chain, b_seq)
    if not report.passed:
        raise PreconditionFailed("good-sequence", str(report.failing()))
    top = chain[-1]
    rebased: list[FreeExtensionWitness] = []
    for i, b in enumerate(b_seq):
        w = witnesses[i]
        if b in w.independent:
            rebased.append(w)
            continue
        rebased.append(_rebase_link(chain[i], chain[i + 1], w, b, i))

    # one new name whose value column is the sequence, padded by fresh
    # generators, with tail threshold 0: every value is a witness element
    labeled = top.copy()
    pad_count = top.trunc - len(b_seq)
    if pad_count < 0:
        raise PreconditionFailed("good-sequence",
                                 "sequence longer than the truncation")
    fresh = labeled.fresh_ids(1 + pad_count)
    c_label, pad_gens = fresh[0], fresh[1:]
    labeled.p2 = labeled.p2 + (c_label,)
    labeled.gen_ids = tuple(sorted(set(labeled.gen_ids) | set(pad_gens)))
    for n, b in enumerate(b_seq):
        labeled.f[(n, c_label)] = b
    pads = []
    for k, g in enumerate(pad_gens):
        value = bare_generator(g)
        labeled.f[(len(b_seq) + k, c_label)] = value
        pads.append(value)
    # labeling absorbs adjoined generators into the value table
    labeled.named_gens = ()
    last_atomic = max(
        [n + 1 for n, b in enumerate(b_seq) if b.atomic] or [0]
    )
    n_star = max(top.witness.n_star if top.witness else 0, last_atomic)
    labeled.witness = K1Witness(n_star, labeled.ctx.b_star)

    # relative to the top only the padding is new content
    final_witness = FreeExtensionWitness.make(pads, {c_label: len(b_seq)})
    link_witnesses = rebased + [final_witness]
    bottom_independent: list[P1Element] = []
    bottom_h: dict[int, int] = {}
    for w in rebased:
        bottom_independent.extend(w.independent)
        bottom_h.update(w.h)
    bottom_independent.extend(pads)
    bottom_h[c_label] = 0
    bottom_witness = FreeExtensionWitness.make(bottom_independent, bottom_h)
    return labeled, c_label, link_witnesses, bottom_witness


def _rebase_link(
    low: K1Structure,
    high: K1Structure,
    w: FreeExtensionWitness,
    b: P1Element,
    link: int,
) -> FreeExtensionWitness:
    """Swap part of a link witness so that b itself becomes a member.

    Harvest the support-connected part J of the witness around b, check b
    is generated by J with the old algebra and the atomic ideal, flatten
    the link onto an explicit algebra and rebase there, then pull the new
    set back and bump the tail thresholds of names whose scheduled values
    were harvested.  Independence modulo the atomic ideal factors through
    support components, so the flat algebra needs only the generators of
    the lower structure in b's component, and its window stays that of
    the component however large the lower structure grows.
    """
    members = list(w.independent)
    component = support_components([b.free] + [x.free for x in members])[0]
    J = [members[i - 1] for i in component[1:]]
    if not J:
        raise HarvestFailed(link, "the element shares no support with the witness")

    low_gens = low.generator_elements()
    near = support_components([x.free for x in [b] + J + low_gens])[0]
    low_gens = [low_gens[i - 1 - len(J)] for i in near if i > len(J)]
    ctx = high.ctx
    flatten = J + [b] + low_gens
    B2, masks, sigma = materialize(ctx, flatten)
    flat_j = masks[: len(J)]
    flat_b = masks[len(J)]
    flat_low = masks[len(J) + 1:]
    k = len(ctx.atom_ids)
    ideal = PrincipalIdeal(B2, (1 << k) - 1)
    try:
        new_flat = rebase_with_element(B2, flat_low, ideal, flat_j, flat_b)
    except (PreconditionFailed, NoBasisThrough) as err:
        raise HarvestFailed(link, f"rebase failed: {err}") from err
    J_star = [unmaterialize(ctx, sigma, m) for m in new_flat]
    kept = [x for x in members if x not in J]
    h = dict(w.h)
    harvested = set(J)
    for c in h:
        scheduled = [n for n in range(h[c], high.trunc)
                     if high.f[(n, c)] in harvested]
        if scheduled:
            h[c] = max(scheduled) + 1
    return FreeExtensionWitness.make(kept + J_star, h)
