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
    grades, s + t exceeds r (a cutoff of 0.5 or more can count one angle
    as both zero and right), or the rotor residual is above its bound."""


class NonEuclideanError(GaError):
    """Operation defined only over a Euclidean signature."""


class CarrierError(GaError):
    """Conformal object has no usable Euclidean direction part."""


class ProblemFormatError(GaError):
    """Input problem document rejected; message carries position info
    when available."""
