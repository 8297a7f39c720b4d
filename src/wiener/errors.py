"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: hypothesis and
certification failures exit 2, malformed input exits 3.
"""


class WienerError(Exception):
    """Base class for all library errors.

    Carries a ``report`` dict, empty unless the raiser records the
    quantities behind the failure.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class InvalidInput(WienerError):
    """Malformed or out-of-domain input (NaN coefficients, bad JSON, ...)."""


class BoundOverflow(WienerError):
    """A certified upper bound overflowed to infinity."""


class HypothesisFailure(WienerError):
    """A precondition of a certified operation could not be established.

    ``report`` holds the quantities that failed.
    """


class CertificationFailure(WienerError):
    """The hypothesis held but the target certificate was not reached.

    Distinct from HypothesisFailure: the input may well be fine, the
    search simply hit its cap.  ``report`` records the best attempt.
    """


class ToleranceUnreachable(WienerError):
    """A requested tolerance cannot be met within a cap on the work.

    Raised for a quadrature panel count, a series length
    (``l1z._series_cut``, so ``neumann_invert`` too) and the node count of
    ``l1r.convolve``.
    """
