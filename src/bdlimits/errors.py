"""Exception hierarchy for bdlimits.

Every error raised by this package derives from :class:`BdLimitsError`,
so callers can catch one type at the boundary. Subclasses also inherit
from the closest builtin (ValueError / RuntimeError) to stay friendly to
generic handlers.
"""


class BdLimitsError(Exception):
    """Base class for all bdlimits errors."""


class ParameterError(BdLimitsError, ValueError):
    """A scalar argument is outside its documented range."""


class AlphabetMismatchError(BdLimitsError, ValueError):
    """Two distributions or a dataset/distribution pair disagree on alphabet size."""


class ResourceCapError(BdLimitsError, RuntimeError):
    """An exact oracle would sum over more types than the configured cap."""


class ImpossibleSampleError(BdLimitsError, ValueError):
    """A dataset contains a symbol with zero probability under both hypotheses."""


class DegenerateDirectionError(BdLimitsError, ValueError):
    """The projection direction satisfies (v . 1)^2 >= K, so no valid shift exists."""


class DegenerateFitError(BdLimitsError, ValueError):
    """Training data contains a single class; a separating fit is undefined."""


class ConfigurationError(BdLimitsError, ValueError):
    """Mutually inconsistent experiment configuration (e.g. prior vs. flavor)."""
