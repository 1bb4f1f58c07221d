"""Exception types shared across the package."""


class AxiaError(Exception):
    """Base class for all package-specific errors."""


class PoleAtPoint(AxiaError):
    """Evaluation of a rational function at a root of its denominator."""


class ZeroPolynomial(AxiaError):
    """An operation that requires a nonzero polynomial got the zero polynomial."""


class NonSquare(AxiaError):
    """A square matrix was required."""


class DimensionMismatch(AxiaError):
    """Vector/matrix dimensions are incompatible."""


class NotIdempotent(AxiaError):
    """A vector claimed to be an axis is not idempotent."""


class NotSemisimple(AxiaError):
    """Eigenspace dimensions of an adjoint do not sum to the algebra dimension."""


class NotAnIdeal(AxiaError):
    """A subspace claimed to be an ideal does not absorb products."""


class NotGraded(AxiaError):
    """A basis claimed to grade an algebra and its form does not."""


class CompletionInsufficient(AxiaError):
    """Equivariant table completion left some basis pairs undefined."""

    def __init__(self, missing_pairs):
        self.missing_pairs = sorted(missing_pairs)
        super().__init__(f"completion left {len(self.missing_pairs)} pairs "
                         f"undefined: {self.missing_pairs}")


class CompletionInconsistent(AxiaError):
    """Symmetry forces two different values for the same table entry."""

