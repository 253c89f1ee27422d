"""Exception types shared across the toolkit."""


class TrisectrixError(Exception):
    """Base class for all library-specific errors."""


class AngleOutOfRange(TrisectrixError):
    """An angle lies outside the domain supported by the construction."""


class ParameterOutOfRange(TrisectrixError):
    """A locus parameter lies outside the curve's valid regime."""


class MaxIterationsExceeded(TrisectrixError):
    """The solver stopped before reaching tolerance: no upper bracket within
    its doublings, or a bracket collapsed to two adjacent floats.

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
