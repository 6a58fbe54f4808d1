"""Finite Boolean algebras in atom-canonical form.

A finite Boolean algebra is (up to isomorphism) the power set of its atoms,
so an algebra is represented by its atom count and an element is an int
bitmask over atom indices.  Meet, join and complement are single bitwise
operations; every ideal is principal, so ideals are carried by their
generator element.

The module supplies the calculus the rest of the package leans on:
quotients, independence modulo an ideal, the coproduct/pushout of two
algebras over a common subalgebra, and basis manipulation inside free
algebras.  Every block partition (the atoms of a generated subalgebra,
the sign patterns a family realizes) comes from one partition
refinement, ``refine``, which ``k1.p1`` and ``k1.embeddings`` share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    INDEPENDENCE_CAP,
    CapExceeded,
    ImproperIdeal,
    InvalidEmbedding,
    NoBasisThrough,
    NotFree,
    PreconditionFailed,
    TrivialElement,
)


def popcount(x: int) -> int:
    return bin(x).count("1")


def bits(x: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    i = 0
    while x:
        if x & 1:
            yield i
        x >>= 1
        i += 1


def refine(universe: int, masks: Iterable[int]) -> list[tuple[int, int]]:
    """The set bits of ``universe`` grouped by their sign vector over
    ``masks``, as (vector, block) pairs: bit i of a vector is set when its
    block lies under masks[i].

    The universe is refined one mask at a time into blocks of bits with
    equal vectors so far, so the cost follows the number of distinct
    vectors rather than the number of bits.  A mask that cuts the
    universe nowhere splits no block and costs no walk; one that cuts it
    everywhere splits none either, and only sets its bit on every block.
    Every block is nonempty, so an empty universe has no block and the
    masks are not read.
    """
    if not universe:
        return []
    blocks = [(0, universe)]
    for i, mask in enumerate(masks):
        bit = 1 << i
        cut = universe & mask
        if cut == universe:
            blocks = [(v | bit, block) for v, block in blocks]
        elif cut:
            refined = []
            for v, block in blocks:
                inside = block & mask
                if inside:
                    refined.append((v | bit, inside))
                if inside != block:
                    refined.append((v, block ^ inside))
            blocks = refined
    return blocks


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """Power-set algebra on ``atom_count`` atoms."""

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 0:
            raise ValueError("atom_count must be >= 0")

    @property
    def full(self) -> int:
        return (1 << self.atom_count) - 1

    def complement(self, x: int) -> int:
        return ~x & self.full

    def is_element(self, x: int) -> bool:
        return 0 <= x <= self.full

    def subalgebra_blocks(self, gens: Iterable[int]) -> list[int]:
        """Atoms of the subalgebra generated by ``gens``.

        Two atoms of the ambient algebra are merged when no generator
        separates them; the blocks of that partition are exactly the
        minimal nonzero elements of the generated subalgebra.
        """
        return sorted(block for _, block in refine(self.full, gens))

    def subalgebra_contains(self, gens: Iterable[int], x: int) -> bool:
        """x lies in <gens> iff every block is inside x or disjoint from it."""
        for block in self.subalgebra_blocks(gens):
            inter = block & x
            if inter != 0 and inter != block:
                return False
        return True


@dataclass(frozen=True)
class PrincipalIdeal:
    """The downward closure of ``generator`` inside ``algebra``.

    In a finite Boolean algebra every ideal has this form, so the type is
    lossless.
    """

    algebra: FiniteBooleanAlgebra
    generator: int

    def __post_init__(self):
        if not self.algebra.is_element(self.generator):
            raise ValueError("generator outside the algebra")

    def __contains__(self, x: int) -> bool:
        return x & ~self.generator == 0

    @property
    def is_proper(self) -> bool:
        return self.generator != self.algebra.full


@dataclass(frozen=True)
class BAEmbedding:
    """Unital embedding between finite Boolean algebras.

    ``atom_images[i]`` is the (nonempty) target-atom set assigned to the
    i-th source atom; the images must partition the target's atoms.  The
    induced element map then preserves 0, 1, meet, join and complement and
    is injective.
    """

    source: FiniteBooleanAlgebra
    target: FiniteBooleanAlgebra
    atom_images: tuple[int, ...]

    def __post_init__(self):
        if len(self.atom_images) != self.source.atom_count:
            raise InvalidEmbedding("one atom image per source atom required")
        seen = 0
        for img in self.atom_images:
            if img == 0:
                raise InvalidEmbedding("atom image must be nonempty")
            if img & seen:
                raise InvalidEmbedding("atom images must be disjoint")
            if img & ~self.target.full:
                raise InvalidEmbedding("atom image outside target")
            seen |= img
        if seen != self.target.full:
            raise InvalidEmbedding("atom images must cover the target atoms")

    def __call__(self, x: int) -> int:
        img = 0
        for i in bits(x):
            img |= self.atom_images[i]
        return img


@dataclass(frozen=True)
class Quotient:
    """Result of dividing an algebra by a principal ideal.

    The quotient is realized as the relative algebra below the complement
    of the generator: ``project`` meets with that complement and re-indexes
    the surviving atoms; ``lift`` is the canonical section placing a
    quotient element back on the same ambient atoms.
    """

    algebra: FiniteBooleanAlgebra
    atom_map: tuple[int, ...]  # quotient atom index -> ambient atom index

    def project(self, x: int) -> int:
        y = 0
        for qi, ai in enumerate(self.atom_map):
            if x & (1 << ai):
                y |= 1 << qi
        return y

    def lift(self, y: int) -> int:
        x = 0
        for qi, ai in enumerate(self.atom_map):
            if y & (1 << qi):
                x |= 1 << ai
        return x


def quotient(B: FiniteBooleanAlgebra, I: PrincipalIdeal) -> Quotient:
    """Divide B by the ideal I.

    The projection x -> x meet gen(I)^c is a surjective homomorphism with
    kernel exactly I.
    """
    if not I.is_proper:
        raise ImproperIdeal("cannot divide by the improper ideal")
    surviving = [i for i in range(B.atom_count) if not I.generator & (1 << i)]
    return Quotient(FiniteBooleanAlgebra(len(surviving)), tuple(surviving))


def is_independent_mod_ideal(
    B: FiniteBooleanAlgebra,
    Y: Iterable[int],
    X: Iterable[int],
    I: PrincipalIdeal,
) -> bool:
    """Is Y independent from X modulo the ideal I?

    The defining condition quantifies over all Boolean polynomials that are
    not identically zero; writing a polynomial in disjunctive normal form
    reduces it to its minterms, and downward closure of ideals reduces
    those to the full minterms over Y.  So the check is: for every sign
    pattern over Y and every a in <X> - I, the meet of the signed minterm
    with a stays outside I.  Only the atoms (blocks) of <X> need to be
    tested: any a outside I sits above a block outside I.  A block stays
    outside I exactly on its atoms off the generator of I, so the check
    refines the atoms off that generator by X, and asks each block to
    realize all 2^|Y| sign vectors over Y.

    With X empty the condition degenerates to "every Boolean combination
    of Y meets every nonzero element", i.e. plain independence over the
    zero ideal when I = (0).  Y = empty set is vacuously independent.
    """
    ys = sorted(set(Y))
    if len(ys) > INDEPENDENCE_CAP:
        raise CapExceeded("INDEPENDENCE_CAP", len(ys))
    return all(len(refine(block, ys)) == 1 << len(ys)
               for _, block in refine(B.full & ~I.generator, X))


# ---------------------------------------------------------------------------
# Pushout (coproduct over a common subalgebra)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushoutResult:
    algebra: FiniteBooleanAlgebra
    into_left: BAEmbedding  # A -> D
    into_right: BAEmbedding  # B -> D
    base_images: tuple[int, ...]  # D-image of each C atom (via either leg)


def _fiber(e: BAEmbedding) -> list[int]:
    """For each target atom, the index of the source atom whose image holds it."""
    owner = [-1] * e.target.atom_count
    for i, img in enumerate(e.atom_images):
        for t in bits(img):
            owner[t] = i
    return owner


def pushout(
    A: FiniteBooleanAlgebra,
    B: FiniteBooleanAlgebra,
    C: FiniteBooleanAlgebra,
    eA: BAEmbedding,
    eB: BAEmbedding,
) -> PushoutResult:
    """Disjoint amalgamation D of A and B over C.

    Atoms of D are the pairs (alpha, beta) of an A-atom and a B-atom lying
    under images of the same C-atom; an element of A maps to the pairs
    whose first coordinate it contains (symmetrically for B).  The two
    inclusions agree on C, their ranges meet exactly in the image of C,
    and the construction satisfies the coproduct universal property
    (checked exhaustively by the oracle suite for small targets).
    """
    if eA.source is not C and eA.source != C:
        raise InvalidEmbedding("left embedding must start at C")
    if eB.source is not C and eB.source != C:
        raise InvalidEmbedding("right embedding must start at C")
    if eA.target != A:
        raise InvalidEmbedding("left embedding must land in A")
    if eB.target != B:
        raise InvalidEmbedding("right embedding must land in B")
    owner_a = _fiber(eA)
    owner_b = _fiber(eB)
    pairs = [
        (i, j)
        for i in range(A.atom_count)
        for j in range(B.atom_count)
        if owner_a[i] == owner_b[j]
    ]
    D = FiniteBooleanAlgebra(len(pairs))
    images_a = [0] * A.atom_count
    images_b = [0] * B.atom_count
    for d_index, (i, j) in enumerate(pairs):
        images_a[i] |= 1 << d_index
        images_b[j] |= 1 << d_index
    iA = BAEmbedding(A, D, tuple(images_a))
    iB = BAEmbedding(B, D, tuple(images_b))
    base = tuple(iA(eA(1 << g)) for g in range(C.atom_count))
    return PushoutResult(D, iA, iB, base)


def pushout_independence(
    po: PushoutResult,
    I2: Iterable[int],
    J: PrincipalIdeal,
) -> bool:
    """Named check: the left-side set I2 stays independent from the
    embedded right algebra modulo the ideal J of the pushout.

    Preconditions (each raises PreconditionFailed when violated):
      * I2 is independent from the amalgamation base over the zero ideal,
        so its signed minterms are nonzero and meet every base atom;
      * the subalgebra generated by the images of I2 together with the
        right algebra meets J only in 0;
      * the right algebra's image is not contained in J.

    Under these the conclusion is forced: a signed minterm meets every
    base atom, hence meets every nonzero right-side element inside the
    coproduct, and the nonzero meet lies in the guarded subalgebra, so it
    stays outside J.  The check still computes the independence directly
    and returns it.
    """
    D = po.algebra
    images = [po.into_left(x) for x in I2]
    base_gens = list(po.base_images)
    if not is_independent_mod_ideal(D, images, base_gens, PrincipalIdeal(D, 0)):
        raise PreconditionFailed(
            "base-independence", "I2 not independent from the base over (0)"
        )
    right_gens = list(po.into_right.atom_images)
    for block in D.subalgebra_blocks(images + right_gens):
        if block != 0 and block in J:
            raise PreconditionFailed(
                "ideal-avoidance",
                "subalgebra spanned by I2 and the right algebra meets the ideal",
            )
    if po.into_right(po.into_right.source.full) in J:
        raise PreconditionFailed("right-side", "right algebra lies inside the ideal")
    return is_independent_mod_ideal(D, images, right_gens, J)


# ---------------------------------------------------------------------------
# Bases of free algebras
# ---------------------------------------------------------------------------


def is_free_basis(F: FiniteBooleanAlgebra, J: Sequence[int]) -> bool:
    """J is independent over (0) and generates F.

    Equivalent formulation used here: F has 2^|J| atoms and J splits them
    into 2^|J| blocks, so that the 2^|J| signed minterms are pairwise
    distinct atoms of F and exhaust them.
    """
    return F.atom_count == 1 << len(J) == len(refine(F.full, J))


def find_basis_containing(F: FiniteBooleanAlgebra, n: int, b: int) -> tuple[int, ...]:
    """A free basis of F (free on n generators) whose first element is b.

    Succeeds exactly when b sits above half the atoms: automorphisms of a
    finite algebra are atom permutations, so some automorphism carries the
    first standard generator (which holds half the atoms) to b and the
    standard basis to one through b.
    """
    if F.atom_count != 1 << n:
        raise NotFree(f"expected 2^{n} atoms, found {F.atom_count}")
    if b == 0 or b == F.full:
        raise TrivialElement("no basis contains 0 or 1")
    half = 1 << (n - 1)
    if popcount(b) != half:
        raise NoBasisThrough(
            f"element spans {popcount(b)} of {F.atom_count} atoms, needs {half}"
        )
    # standard generator i holds the atoms whose index has bit i set
    inside = sorted(bits(b))
    outside = sorted(bits(F.complement(b)))
    perm = [0] * F.atom_count
    pos_in = pos_out = 0
    for t in range(F.atom_count):
        if t & 1:
            perm[t] = inside[pos_in]
            pos_in += 1
        else:
            perm[t] = outside[pos_out]
            pos_out += 1
    basis = []
    for i in range(n):
        g = 0
        for t in range(F.atom_count):
            if t & (1 << i):
                g |= 1 << perm[t]
        basis.append(g)
    assert basis[0] == b
    assert is_free_basis(F, basis)
    return tuple(basis)


def rebase_with_element(
    B2: FiniteBooleanAlgebra,
    B1_gens: Iterable[int],
    I2: PrincipalIdeal,
    J1: Sequence[int],
    b: int,
) -> tuple[int, ...]:
    """Replace the independent set J1 by one containing b.

    Requires J1 independent from <B1_gens> modulo I2, b independent from
    <B1_gens> modulo I2, and b generated by J1 together with I2.  The
    result J1' contains b, is independent from <B1_gens> modulo I2, and
    generates (with I2) the same subalgebra as J1.

    Works in the quotient by I2: the image of J1 generates a free
    subalgebra there, a basis through the image of b is found by an atom
    permutation, and each basis element is pulled back along the canonical
    section (b keeps its original preimage).
    """
    b1_gens = list(B1_gens)
    J1 = list(J1)
    if not is_independent_mod_ideal(B2, J1, b1_gens, I2):
        raise PreconditionFailed("J1-independence", "J1 not independent from B1 mod I2")
    if not is_independent_mod_ideal(B2, [b], b1_gens, I2):
        raise PreconditionFailed("b-independence", "b not independent from B1 mod I2")
    span_gens = J1 + [1 << i for i in bits(I2.generator)]
    if not B2.subalgebra_contains(span_gens, b):
        raise PreconditionFailed("b-membership", "b not generated by J1 with I2")
    if b in J1:
        return tuple([b] + [y for y in J1 if y != b])

    q = quotient(B2, I2)
    yq = [q.project(y) for y in J1]
    blocks = q.algebra.subalgebra_blocks(yq)
    if len(blocks) != 1 << len(J1):
        # cannot happen when the independence precondition holds
        raise PreconditionFailed("J1-independence", "projected J1 is not free")
    # view the generated subalgebra as its own algebra on the blocks
    F = FiniteBooleanAlgebra(len(blocks))
    bq = q.project(b)
    b_in_F = 0
    for t, block in enumerate(blocks):
        inter = block & bq
        if inter == block:
            b_in_F |= 1 << t
        elif inter:
            raise PreconditionFailed("b-membership", "b not a union of J1-blocks mod I2")
    basis_in_F = find_basis_containing(F, len(J1), b_in_F)

    def to_ambient(x_in_F: int) -> int:
        y = 0
        for t in bits(x_in_F):
            y |= blocks[t]
        return q.lift(y)

    result = [b] + [to_ambient(x) for x in basis_in_F[1:]]
    return tuple(result)
