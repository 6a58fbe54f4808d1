"""Exception hierarchy and size caps for the amalgam package.

Every operational failure mode gets its own class so callers can react
to, or assert on, the precise contract that was breached.

Every bounded search in the package checks its size against one of the
caps below and raises ``CapExceeded`` past it.  No other module defines
a cap, and no function takes one as a parameter.
"""

# Width w of any 2^w truth table over a support window.
WINDOW_CAP = 18
# Size of a family whose 2^|Y| sign patterns are enumerated.
INDEPENDENCE_CAP = 14
# Elements of a generated substructure.
CLOSURE_CAP = 512
# Member pairs that ``fraisse.check_jep`` may enumerate.
JEP_BUDGET = 10000
# Embeddings that ``fraisse.check_disjoint_ap`` may try.
AP_BUDGET = 20000

_LIMITS = {
    "WINDOW_CAP": WINDOW_CAP,
    "INDEPENDENCE_CAP": INDEPENDENCE_CAP,
    "CLOSURE_CAP": CLOSURE_CAP,
    "JEP_BUDGET": JEP_BUDGET,
    "AP_BUDGET": AP_BUDGET,
}


class AmalgamError(Exception):
    """Base class for all package errors."""


class VocabularyMismatch(AmalgamError):
    """Two structures were combined but declare different vocabularies."""


class CapExceeded(AmalgamError):
    """A bounded search met an input past one of the caps above.

    ``cap`` names the cap, ``limit`` is its value and ``seen`` the size
    that exceeded it.
    """

    def __init__(self, cap: str, seen: int):
        self.cap, self.limit, self.seen = cap, _LIMITS[cap], seen
        super().__init__(f"{seen} exceeds {cap} = {self.limit}")


class InvalidEmbedding(AmalgamError):
    """A map presented as an embedding violates the embedding invariant."""


class ImproperIdeal(AmalgamError):
    """The ideal generator is 1, so the quotient would be degenerate."""


class NotFree(AmalgamError):
    """The algebra is not free on the requested number of generators."""


class NoBasisThrough(AmalgamError):
    """No basis of the free algebra passes through the given element."""


class TrivialElement(AmalgamError):
    """The element is 0 or 1, which no basis may contain."""


class PreconditionFailed(AmalgamError):
    """A documented operation precondition does not hold.

    ``clause`` names which precondition failed.
    """

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        super().__init__(f"{clause}: {detail}" if detail else clause)


class AmalgamationFailed(AmalgamError):
    """The class amalgamation hook could not amalgamate a triple."""

    def __init__(self, message: str, triple=None):
        self.triple = triple
        super().__init__(message)


class WitnessAlignmentFailed(AmalgamationFailed):
    """Witness indices of nested structures could not be aligned."""


class UltrafilterChoiceFailed(AmalgamationFailed):
    """No atom realizes the trace constraints required for a fresh atom."""


class CollapseDetected(AmalgamError):
    """The amalgamation quotient collapsed an element it must preserve.

    This is an internal consistency failure, i.e. a bug signal, never a
    legitimate outcome on valid inputs.
    """


class OverlappingH(AmalgamError):
    """Two free-extension witnesses declare overlapping H domains."""


class HarvestFailed(AmalgamError):
    """A chain link lacks the fresh elements needed for labeling."""

    def __init__(self, link: int, detail: str = ""):
        self.link = link
        super().__init__(f"link {link}: {detail}" if detail else f"link {link}")


class NoAmalgam(AmalgamError):
    """The completion search was exhausted without finding an amalgam."""


class FrugalImpossible(AmalgamError):
    """A configuration member already covers the union, so no extension
    on the union universe can be proper."""
