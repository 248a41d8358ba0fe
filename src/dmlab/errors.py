"""Exception types shared across the library.

Every domain error derives from DmlabError so callers (and the CLI) can
separate expected refusals from genuine bugs.
"""


class DmlabError(Exception):
    """Base class for all library errors."""


class InvalidFamily(DmlabError, ValueError):
    """Sequence family parameters violate the family's constraints."""


class IndexOutOfRange(DmlabError, IndexError):
    """Term index outside the range a finite family covers."""


class Undecidable(DmlabError):
    """The question cannot be settled from a finite description."""


class DivergentSeries(DmlabError):
    """A tail bound was requested for a series that diverges."""


class SeriesConverges(DmlabError):
    """A divergence-based certificate was requested for a convergent series."""


class DepthBudgetExceeded(DmlabError):
    """A builder asked for more levels than the configured cap allows."""


class NodeBudgetExceeded(DmlabError):
    """A builder would materialize more nodes than the configured cap allows."""


class EmptyRemainder(DmlabError):
    """No component survives the cut-out at the requested stage."""


class FailsThickness(DmlabError):
    """No positive witness-ball constant exists for the construction."""


class MisalignedTrees(DmlabError):
    """Restriction target does not line up with the base measure's support."""


class ZeroMassBall(DmlabError):
    """A scanned ball carries no mass: measure and space do not match."""


class NotUniformlyPerfect(DmlabError):
    """Gap-ratio diagnostics exceed the uniform-perfectness threshold."""


class TailTooLarge(DmlabError):
    """The product tail cannot be bounded below zero at any tractable cutoff."""


class NotInEllT(DmlabError):
    """The gap sequence fails the summability needed by the certificate."""


class PreconditionViolated(DmlabError, ValueError):
    """Inputs fail a documented precondition of the operation."""


class GapTooSmall(DmlabError):
    """The surviving gap is smaller than the scale the bound requires."""


class ExponentWindowEmpty(DmlabError):
    """No admissible exponent exists between the given decay rates."""


class LengthMismatch(DmlabError, ValueError):
    """Interval lengths do not match the declared length family."""


class EnclosureInconclusive(DmlabError):
    """Certified bounds stayed too wide at the maximum working precision.

    `bits` is the precision reached when the ladder ran out, None when the
    refusal holds at any precision."""

    def __init__(self, message: str, bits: int | None = None) -> None:
        super().__init__(message)
        self.bits = bits
