"""Exception types shared across the package."""


class CalculusError(Exception):
    """Base class for all domain errors raised by this package."""


class NotDominant(CalculusError):
    """An integer tuple is not weakly decreasing (or not canonical), or a
    label with a negative entry was given where a polynomial label is
    needed: a multiplier, a Schur polynomial, a highest-weight vector or a
    tensor problem."""


class MixedSigns(CalculusError):
    """A signature mixes strictly positive and strictly negative entries."""


class RankTooSmall(CalculusError):
    """The rank k cannot hold a label: a rank-k computation or
    Signature.pad(k) was given a label longer than k."""


class EmptyProduct(CalculusError):
    """A tensor decomposition was requested with no factors."""


class DimensionMismatch(CalculusError):
    """A matrix does not conform to the expected row/column layout."""


class IndexOutOfRange(CalculusError):
    """A generator index lies outside the 1..p / 1..q window."""


class WeightMismatch(CalculusError):
    """Monomials fed to the unipotent solver do not share one weight."""


class NotSymmetric(CalculusError):
    """Schur decomposition was attempted on a non-symmetric polynomial."""


class RowAllocationViolation(CalculusError):
    """A factor state uses rows outside its allocated block."""


class SpanViolation(CalculusError):
    """A transformed dual state leaves the provided span."""


class SelfCheckError(CalculusError):
    """An internal self-check failed: the invariant-basis dimension disagrees
    with the Weyl multiplicity, a multiplier or oracle spectrum has a
    negative multiplicity, the sorted row union of the factors does not
    occur exactly once in the spectrum at the stabilization bound, a packed
    exponent of a Clebsch-Gordan table outgrows its bit field, or the
    embedded states of an invariant basis are not independent."""


class ExpressionSyntaxError(CalculusError):
    """Raised by the CLI expression parser; carries the offset of the error."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
