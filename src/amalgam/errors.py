"""Exception hierarchy for the amalgam package.

Every operational failure mode gets its own class so callers (and the CLI)
can react to, or assert on, the precise contract that was breached.
"""


class AmalgamError(Exception):
    """Base class for all package errors."""


class VocabularyMismatch(AmalgamError):
    """Two structures were combined but declare different vocabularies."""


class ClosureDiverges(AmalgamError):
    """Substructure closure exceeded the configured element cap."""


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


class EnumerationOverflow(AmalgamError):
    """A class enumeration exceeded its configured budget."""


class AmalgamationFailed(AmalgamError):
    """The class amalgamation hook could not amalgamate a triple."""

    def __init__(self, message: str, triple=None):
        self.triple = triple
        super().__init__(message)


class WitnessAlignmentFailed(AmalgamError):
    """Witness indices of nested structures could not be aligned."""


class UltrafilterChoiceFailed(AmalgamError):
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
