"""Exception types shared across the package."""


class GraphconcError(Exception):
    """Base class for all package-specific errors."""


class InvalidModel(GraphconcError):
    """Raised when model parameters are out of range (rates, shapes, symmetry)."""


class InvalidRates(InvalidModel):
    """Block-model rates violate 0 <= b <= a <= n or n is odd."""


class DimensionMismatch(GraphconcError):
    """Operands have incompatible shapes."""


class SizeExceeded(GraphconcError):
    """Input larger than a routine's documented guard rail."""


class WidthExceeded(SizeExceeded):
    """Too many columns for exact sign-vector enumeration."""


class EntryOutOfRange(GraphconcError):
    """Matrix entries outside the range a bound requires."""


class ZeroDegree(GraphconcError):
    """A (shifted) degree is zero where the Laplacian needs it positive."""


class ZeroGap(GraphconcError):
    """Spectral gap is not strictly positive."""


class LengthMismatch(GraphconcError):
    """Vectors that must align have different lengths."""


class NoConvergence(GraphconcError):
    """Raised when an iterative eigensolver fails to meet its tolerance.

    Carries the best estimate found so far in ``best`` (solver dependent:
    a float for norm estimates, an (eigenvalues, eigenvectors) pair or
    None for eigenpair solvers) so callers can decide whether to use it
    anyway.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class DecompositionError(GraphconcError):
    """Raised when the edge decomposition cannot certify its guarantees."""


class RowFilterEmpty(DecompositionError):
    """Every row of a block failed the row filter (degenerate block)."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class VerificationError(GraphconcError):
    """Raised by verifiers when a certified property fails to hold."""
