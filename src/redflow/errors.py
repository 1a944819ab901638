"""Exception hierarchy shared by all redflow modules."""


class RedflowError(Exception):
    """Base class for all errors raised by this package."""


class NumericalError(RedflowError):
    """A computation has no finite or well-defined result for its input
    (the command line reports it with exit code 4)."""


class ZeroVarianceSignal(NumericalError):
    """A signal is constant where a non-degenerate signal is required."""


class InvalidRate(RedflowError):
    """A sample rate is not a finite number > 0."""


class WindowTooLarge(RedflowError):
    """Lag window leaves no valid rows for the given series length."""


class UnknownChannel(RedflowError):
    """A requested channel label does not exist in the recording."""


class ShapeMismatch(RedflowError):
    """Operands disagree in length, rate, or dimensions."""


class ChannelOrderMismatch(RedflowError):
    """Recording channels do not match the decoder's channel list and order."""


class SingularSystem(NumericalError):
    """Ridge normal equations are rank-deficient beyond tolerance at lambda = 0,
    or a lambda > 0 is too small to lift their smallest eigenvalue clear of rounding."""


class InsufficientTrials(RedflowError):
    """Too few trials for the requested cross-validation or training."""


class SeriesTooShort(RedflowError):
    """Series too short for the requested history embedding."""


class DegenerateCovariance(NumericalError):
    """Covariance is numerically rank-deficient; the Gaussian information
    quantity diverges or cannot be computed."""


class TooFewSamples(RedflowError):
    """Fewer samples than the estimator's minimum."""


class EmptySupport(RedflowError):
    """No grid point exceeds the requested density level."""


class NoPoints(RedflowError):
    """An aggregation received no input points."""


class DegenerateX(NumericalError):
    """Regressor values are all equal; slope is unidentifiable."""


class OutOfRange(NumericalError):
    """Argument outside its mathematical domain."""


class NonpositiveDistortion(NumericalError):
    """dB conversion requested for a distortion that is zero or negative."""


class UnstableModel(NumericalError):
    """Autoregressive model has spectral radius >= 1 (no stationary law)."""


class ConfigError(RedflowError):
    """Run configuration is missing, malformed, or inconsistent."""


class DataError(RedflowError):
    """Input dataset or intermediate files are missing or inconsistent."""
