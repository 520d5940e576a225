"""Exception types shared across the package.

Split by how the CLI reports them: configuration problems exit with 2,
numerical failures with 3. Exit 4, a verification gap, raises nothing.
"""

# Largest register held as a dense array anywhere in the package: 24 qubits,
# 2**24 amplitudes.
MAX_DENSE_QUBITS = 24


class TtnError(Exception):
    """Base class for all package errors."""


class ConfigError(TtnError):
    """Bad run configuration (unknown keys, out-of-range values, bad files)."""


class ParameterError(ConfigError):
    """A single argument is outside its documented domain."""


class CapacityError(ConfigError):
    """The instance is too large for a desk-scale guard: a dense object
    past the cap, or a structure scan over too many trees."""


class NumericalError(TtnError):
    """Base class for failures of the numerical machinery itself."""


class DegenerateDistributionError(NumericalError):
    """A canonical correlation reached 1: the distribution is singular
    across the requested cut."""


class IllConditionedError(NumericalError):
    """A marginal covariance block is numerically singular."""


class GenerationError(NumericalError):
    """Covariance resampling exhausted its rejection budget."""


class RankError(NumericalError):
    """A matrix passed to pivot selection is rank deficient."""


class PivotDegeneracyError(NumericalError):
    """Cross interpolation produced a singular pivot block."""


class PrecisionError(NumericalError):
    """The requested accuracy is below what the retained spectrum resolves."""


class NormalizationError(NumericalError):
    """A quantity that must be normalized is not."""


class ShapeError(NumericalError):
    """Tensor or leg dimensions are inconsistent with the operation."""


class CircuitValidityError(NumericalError):
    """A placement list is not a valid isometric circuit."""

