"""Exception types raised by the analysis pipeline."""


class CommchainError(Exception):
    """Base class for all package errors."""


class NotCommuting(CommchainError):
    """The commutator gate rejected the term; ``residual`` is its commutator residual."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"term is not commuting (residual {residual:.6e})")


class NotHermitian(CommchainError):
    """Input operator is not hermitian within tolerance."""


class NotPSD(CommchainError):
    """Input operator has an eigenvalue significantly below zero."""


class InvalidSpec(CommchainError):
    """Synthesis specification fails dimension bookkeeping."""


class DecompositionFailed(CommchainError):
    """Site decomposition postconditions could not be met."""


class FactorizationFailed(CommchainError):
    """A bond compression does not factor with identities on the outer slots."""


class NotScaleInvariant(CommchainError):
    """Operation requires a scale-invariant interaction graph."""


class InvalidK(CommchainError):
    """Requested degeneracy is outside 1..d."""


class CommutificationFailed(CommchainError):
    """Conjugated term is not commuting; the certificate X is invalid."""


class SingularS(CommchainError):
    """MPS map is singular (not injective)."""


class TooLarge(CommchainError):
    """Requested chain exceeds a size cap (exact diagonalization, census or ground states)."""


class NonIntegerSpectrum(CommchainError):
    """Chain spectrum is not integral; the local term is not commuting."""
