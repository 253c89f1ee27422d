"""Exception types shared across the toolkit."""


class TrisectrixError(Exception):
    """Base class for all library-specific errors."""


class AngleOutOfRange(TrisectrixError):
    """An angle lies outside the domain supported by the construction."""


class ParameterOutOfRange(TrisectrixError):
    """A locus parameter lies outside the curve's valid regime."""


class MaxIterationsExceeded(TrisectrixError):
    """The root bracket failed to shrink below tolerance within the step budget.

    The best result found so far is attached as ``result`` so callers can
    inspect the partial solve instead of losing it.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class MismatchDetected(TrisectrixError):
    """Independent trisection estimates disagree beyond tolerance.

    The full cross-validation report is attached as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
