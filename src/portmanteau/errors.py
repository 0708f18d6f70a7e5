"""Exception types shared across the package."""


class PortmanteauError(Exception):
    """Base class for all package-specific errors."""


class TooShort(PortmanteauError):
    """Series has fewer observations than the operation requires."""


class NonFinite(PortmanteauError):
    """Input contains NaN or infinite values."""


class DegenerateVariance(PortmanteauError):
    """A zero-lag variance is (numerically) zero, e.g. a constant series."""


class LagOutOfRange(PortmanteauError):
    """Requested lag is not smaller than the series length."""


class LagTooLarge(PortmanteauError):
    """Lag order violates the 1 <= m < n/2 constraint."""


class SingularToeplitz(PortmanteauError):
    """A leading Toeplitz minor is not positive definite.

    ``lag`` is the smallest order at which the recursion broke down.
    """

    def __init__(self, lag: int):
        self.lag = lag
        super().__init__(f"autocorrelation Toeplitz minor of order {lag} is not positive definite")


class NotPositiveDefinite(PortmanteauError):
    """Cholesky factorization failed; ``pivot`` is the 1-based failing minor order."""

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (leading minor {pivot})")


class DegenerateSample(PortmanteauError):
    """Sample correlation matrices are too degenerate for the statistic."""


class NonPositiveVariance(PortmanteauError):
    """Conditional variances must be strictly positive."""


class NonPositiveDf(PortmanteauError):
    """Degrees of freedom m - correction is not positive."""


class InvalidOrder(PortmanteauError):
    """Lag order / model order combination yields an invalid null distribution."""


class NonStationary(PortmanteauError):
    """Autoregressive polynomial has a root on or inside the unit circle."""


class NonInvertible(PortmanteauError):
    """Moving-average polynomial has a root on or inside the unit circle."""


class InvalidSpec(PortmanteauError):
    """Model or experiment specification violates its constraints."""


class SingularDesign(PortmanteauError):
    """Least-squares design matrix is rank deficient."""


class EmptySample(PortmanteauError):
    """An empty collection was passed where at least one element is required."""


class CsvFormatError(PortmanteauError):
    """Malformed input CSV; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ConfigError(PortmanteauError):
    """Malformed experiment/model JSON configuration."""
