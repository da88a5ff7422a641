"""Exception types shared across the package."""


class TsvLabError(Exception):
    """Base class for all errors raised by tsvlab."""


class DimensionError(TsvLabError):
    """Vector or matrix dimensions are empty, inconsistent, or mismatched."""


class ZeroStateError(TsvLabError):
    """A state vector with zero norm cannot be normalized."""


class NotHermitianError(TsvLabError):
    """A matrix given for an Operator is not Hermitian."""


class NotMeasurableError(TsvLabError):
    """A product of observables is not Hermitian, or overflows float64: not measurable."""


class NullEnsembleError(TsvLabError):
    """The pre/post-selection admits no ensemble for this measurement.

    Raised when every conditional outcome amplitude vanishes, i.e. the
    selections are incompatible with measuring the given observable at the
    given time.
    """


class OrthogonalSelectionError(TsvLabError):
    """Weak value is undefined: pre- and post-selection are orthogonal."""


class TimeWindowError(TsvLabError):
    """A requested time lies outside the schedule's time window."""


class RangeError(TsvLabError):
    """A quantity is well defined but lies outside the float64 range."""


class ConfigError(TsvLabError):
    """A pointer grid, a Monte Carlo run's samples or seed, or the echoed ``verify --workers``, is out of its limits."""


class ProblemFileError(TsvLabError):
    """A problem file is malformed or internally inconsistent."""
