"""Exception taxonomy shared across the package.

Numerical failures (factorization or optimization breakdowns) derive from
NumericalError so the command line can map them to a distinct exit code.
Everything else signals misuse of an interface.
"""


class InfoselectError(Exception):
    """Base class for all package errors."""


class NumericalError(InfoselectError):
    """A numerical routine failed beyond recovery."""


class NotPositiveDefinite(NumericalError):
    """Matrix could not be factorized even after the jitter schedule."""


class SingularGram(NumericalError):
    """A similarity matrix that must be invertible is rank deficient."""


class DidNotConverge(NumericalError):
    """Iterative fit hit its iteration cap before the tolerance.

    Carries the last iterate and gradient norm for post-mortems.
    """

    def __init__(self, message, weights=None, grad_norm=None, iterations=None):
        super().__init__(message)
        self.weights = weights
        self.grad_norm = grad_norm
        self.iterations = iterations


class NonFiniteMatrix(NumericalError, ValueError):
    """A matrix built from finite inputs overflowed to NaN or infinity."""


class DimensionMismatch(InfoselectError):
    """Array shapes are incompatible with the operation."""


class NonFiniteInput(InfoselectError, ValueError):
    """Input features hold NaN or infinite values."""


class UnsupportedHead(InfoselectError, ValueError):
    """Operation is not defined for the model's output head."""


class LabelOutOfRange(InfoselectError):
    """A label does not fit the output head."""


class MissingLabels(InfoselectError):
    """Operation needs labels the dataset does not carry."""


class EmptyEvalSet(InfoselectError):
    """Transductive score called with no evaluation points."""


class EmptySampleSet(InfoselectError):
    """Monte Carlo estimate called with no weight samples."""


class TooFewSamples(InfoselectError):
    """Not enough samples for the estimator to be defined."""


class BatchTooLarge(InfoselectError):
    """Requested batch exceeds what the candidate pool can provide."""


class TooManySubsets(InfoselectError):
    """Exhaustive enumeration would exceed the subset budget."""


class TooManyConfigurations(InfoselectError):
    """Joint label enumeration would exceed the configuration budget."""


class LengthMismatch(InfoselectError):
    """Paired sequences disagree in length or are too short."""


class DegenerateConstantInput(InfoselectError):
    """Rank correlation of a constant sequence is undefined."""


class PoolExhausted(InfoselectError):
    """Acquisition asked for more points than the pool holds."""


class MalformedHeader(InfoselectError):
    """CSV header does not match the expected column layout."""


class NonNumericCell(InfoselectError):
    """CSV data cell failed to parse as a number.

    Carries the zero-based row and column of the offending cell.
    """

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class ConfigError(InfoselectError):
    """Experiment configuration is inconsistent or incomplete."""
