"""Exception types shared across the toolkit."""


class PolyradError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PolyradError, ValueError):
    """An argument lies outside the mathematical domain of an operation
    (nonpositive gamma argument, violated embedding condition, ...)."""


class NonConvergenceError(PolyradError):
    """An improper integral does not converge: a divergent tail (a stated
    power law of a quadrature, or the iteration chain's outer integral), an
    integrand that is not finite or does not follow its stated power law
    beyond the window, or no agreement of successive sums by the smallest
    step."""


class OdeError(PolyradError):
    """Base class for initial-value-problem integration failures; ``result``
    holds the partial trajectory up to the failure."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class StepUnderflowError(OdeError):
    """The adaptive step size fell below the floor (blow-up or stiffness)."""


class BlowupError(OdeError):
    """A level u_j of the solution exceeded its blow-up bound, which follows
    the dilation scale of the data, or a step left the float range
    (non-global solution)."""


class DepartureError(OdeError):
    """The solution left the reference solution it was checked against by
    more than a verdict threshold, so the verdict is settled before r_max."""
