"""Exception types shared across the package."""


class GaError(Exception):
    """Base class for all errors raised by this package."""


class SignatureMismatchError(GaError):
    """Operands live in different algebras."""


class NotABladeError(GaError):
    """Multivector is not a simple k-vector."""


class DegenerateSpanError(GaError):
    """Spanning vectors are linearly dependent within tolerance."""


class AmbiguousRankError(GaError):
    """The angle report would break its own invariants: the counts of
    principal planes and reversed directions do not fit the blades'
    grades, s + t exceeds r, or the rotor residual is above its bound. At
    the fixed cutoff of 1e-9 no angle has both its versine and its cosine
    at or below it, so s + t cannot exceed r; the clause stays in the
    guard as a safety check."""


class NonEuclideanError(GaError):
    """Operation defined only over a Euclidean signature."""


class CarrierError(GaError):
    """Conformal object has no usable Euclidean direction part."""


class ProblemFormatError(GaError):
    """Input problem document rejected; message carries position info
    when available."""
