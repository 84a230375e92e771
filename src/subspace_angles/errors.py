"""Exception types shared across the package."""


class GaError(Exception):
    """Base class for all errors raised by this package."""


class SignatureMismatchError(GaError):
    """Operands live in different algebras."""


class NegativeSquareError(GaError):
    """Norm requested for an element whose squared norm is negative.

    Possible in Cl(p,q) with q > 0; reported explicitly instead of
    returning NaN.
    """


class NotABladeError(GaError):
    """Multivector is not a simple k-vector."""


class DegenerateSpanError(GaError):
    """Spanning vectors are linearly dependent within tolerance."""


class AmbiguousRankError(GaError):
    """Grade-part norms straddle the zero threshold too closely to
    classify intersection/perpendicularity counts reliably."""


class NonEuclideanError(GaError):
    """Operation defined only over a Euclidean signature."""


class CarrierError(GaError):
    """Conformal object has no usable Euclidean direction part."""


class ProblemFormatError(GaError):
    """Input problem document rejected; message carries position info
    when available."""
