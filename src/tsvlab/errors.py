"""Exception types shared across the package."""


class TsvLabError(Exception):
    """Base class for all errors raised by tsvlab."""


class DimensionError(TsvLabError):
    """Vector or matrix dimensions are empty, inconsistent, or mismatched."""


class ZeroStateError(TsvLabError):
    """A state vector with zero norm cannot be normalized."""


class NotHermitianError(TsvLabError):
    """An operation required a Hermitian operator and got something else."""


class NotMeasurableError(TsvLabError):
    """A product of observables is not Hermitian, hence not measurable."""


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
    """A pointer grid configuration violates its sizing requirements."""


class ProblemFileError(TsvLabError):
    """A problem file is malformed or internally inconsistent."""
