"""Exception types shared across the toolkit."""


class PolyradError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PolyradError, ValueError):
    """An argument lies outside the mathematical domain of an operation
    (nonpositive gamma argument, violated embedding condition, ...)."""


class SobolevConditionError(DomainError):
    """The embedding condition alpha - 2m + 1 > 0 fails."""

    def __init__(self, m: int, alpha: float):
        self.m = m
        self.alpha = alpha
        super().__init__(
            f"Sobolev condition violated: alpha - 2m + 1 = {alpha - 2 * m + 1:g} <= 0 "
            f"(m={m}, alpha={alpha:g})"
        )


class NonConvergenceError(PolyradError):
    """Adaptive quadrature failed to converge (divergent or pathological
    integrand, or subdivision budget exhausted)."""


class TailDivergenceError(PolyradError):
    """Declared tail decay is too slow for the outer iteration integral."""


class UnsupportedProfileError(PolyradError, TypeError):
    """An operation that needs the derivative chain of a RadialProfile got
    something else (e.g. a plain callable)."""


class DivisionGuardError(PolyradError, ZeroDivisionError):
    """A normalizing quantity fell below the absolute tolerance."""


class OdeError(PolyradError):
    """Base class for initial-value-problem integration failures; ``result``
    holds the partial trajectory up to the failure."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class StepUnderflowError(OdeError):
    """The adaptive step size fell below the floor (blow-up or stiffness)."""


class BlowupError(OdeError):
    """The solution magnitude exceeded the overflow threshold
    (non-global solution)."""
