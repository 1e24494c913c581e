"""Exception hierarchy shared by all cmfda modules."""


class CmfdaError(Exception):
    """Base class for all library errors."""


class DegenerateInput(CmfdaError):
    """An index formula was evaluated with a zero denominator."""


class OutOfRangeDay(CmfdaError):
    """Day of year outside 1..366."""


class OutOfRange(CmfdaError):
    """Grid index or day outside its documented range."""


class InsufficientData(CmfdaError):
    """Too few clear observations to fit a model."""


class RankDeficient(CmfdaError):
    """Normal-equation matrix is singular beyond tolerance."""


class WrongWindowLength(CmfdaError):
    """Residual window does not match the rule's consecutive count."""


class SingularCovariance(CmfdaError):
    """Covariance matrix is not positive definite."""


class EmptyHistory(CmfdaError):
    """Standardizer fitted on an empty history."""


class DegenerateHistory(CmfdaError):
    """History has zero spread everywhere; no usable scale exists."""


class OutOfDomain(CmfdaError):
    """Probability outside the open interval (0, 1)."""


class KeyMismatch(CmfdaError):
    """Prediction and label maps cover different pixel sets."""


class DegenerateClass(CmfdaError):
    """Labels (or a confusion matrix) contain only one class."""


class InitOffGrid(CmfdaError):
    """Annealing start point is not on the search grid."""


class TooFewPositives(CmfdaError):
    """Not enough minority-class pixels to stratify the requested folds."""


class ShapeMismatch(CmfdaError):
    """Paired rasters have different shapes."""


class InvalidConfig(CmfdaError):
    """Synthetic-scene configuration violates its own constraints."""


class ParseError(CmfdaError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaVersionMismatch(CmfdaError):
    """File header does not declare the expected format and version."""
