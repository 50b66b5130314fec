"""Exception types shared across the package."""


class BckError(Exception):
    """Base class for all package errors."""


class DomainError(BckError):
    """A chart point (or a finite-difference stencil around it) leaves the
    domain on which a kernel or metric is defined."""


class SingularMetricError(BckError):
    """A fiber metric is numerically singular or indefinite where it must be
    positive definite."""


class StructuralError(BckError):
    """A structural identity that the inputs must satisfy (Hermitian symmetry,
    skewness, type purity) is violated beyond tolerance."""


def require(holds, message: str) -> None:
    """Raise StructuralError(message) unless `holds`.  A tolerance gate reads
    `require(residual <= tol, ...)`, so that a NaN residual fails it."""
    if not holds:
        raise StructuralError(message)
