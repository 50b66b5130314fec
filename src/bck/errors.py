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


def row_by_row(run, count: int):
    """`run(slice(0, count))`, where `run(rows)` evaluates and checks the
    rows `rows` of a batch of `count`.  If that raises a BckError, the
    shortest failing prefix, found by bisection, raises its own: for rows
    that fail independently, the error a loop over the rows raises first."""
    try:
        return run(slice(0, count))
    except BckError as exc:
        error = exc
    lo, hi = 0, count - 1  # the prefix of hi + 1 rows fails
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(slice(0, mid + 1))
        except BckError as exc:
            hi, error = mid, exc
        else:
            lo = mid + 1
    raise error
