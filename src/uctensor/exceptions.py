"""Exception types shared across the package."""


class UctensorError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveValueError(UctensorError, ValueError):
    """An observed value or a scale was <= 0, or a fill underflowed to 0
    (zero is reserved for 'unobserved')."""


class NonFiniteValueError(UctensorError, ValueError):
    """An observed value was inf or nan, or a fill overflowed to inf."""


class IndexOutOfBoundsError(UctensorError, IndexError):
    """An index lies outside the tensor shape."""


class DuplicateIndexError(UctensorError, ValueError):
    """The same cell was given more than one value."""


class InvalidKError(UctensorError, ValueError):
    """Subtensor dimensionality k outside [1, D-1], or wrong for the model."""


class ShapeMismatchError(UctensorError, ValueError):
    """Tensor and scale set disagree on shape, or a features table does
    not fit its users and feature blocks."""


class EmptyTensorError(UctensorError, ValueError):
    """The operation needs at least one observed entry."""


class NotAMatrixError(UctensorError, ValueError):
    """A 2-dimensional tensor was required."""


class InvalidGammaError(UctensorError, ValueError):
    """An ordering permutation has duplicates or out-of-range entries."""


class EmptyInputError(UctensorError, ValueError):
    """A metric was asked for on an empty pair list."""


class KeyOrderError(UctensorError, ValueError):
    """A dataset's key order does not list each of its records once by
    strictly increasing, in-range (user, product) key."""


class ParseError(UctensorError, ValueError):
    """A data file could not be parsed; message carries file and line number."""


class MissingFeatureFileError(UctensorError, ValueError):
    """A feature-dependent mode was requested without user features."""


class UnknownCategoryError(UctensorError, ValueError):
    """A feature category outside {age, gender, occupation}."""


class TooFewRecordsError(UctensorError, ValueError):
    """Not enough records (or folds) for the requested split."""


class UnknownUserError(UctensorError, KeyError):
    """A raw user id that is not in the vocabulary."""

    __str__ = Exception.__str__  # not KeyError's, which quotes the message


class DidNotConvergeError(UctensorError, RuntimeError):
    """Sweep cap reached before the residual dropped below epsilon.

    Carries the partial model (with its residual trace) in ``model``.
    """

    def __init__(self, message, model=None):
        super().__init__(message)
        self.model = model
