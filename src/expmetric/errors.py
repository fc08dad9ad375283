"""Exception types shared across the toolkit."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a formula."""


class EscapeError(RuntimeError):
    """An orbit escaped to infinity where a bounded orbit was required."""


class InsideJuliaError(RuntimeError):
    """A point did not escape within budget; it is inside or on the Julia set."""


class SamplingResolutionError(RuntimeError):
    """Boundary sampling was too coarse to resolve a pulled-back domain."""


class RayTracingError(RuntimeError):
    """Newton refinement failed while descending an external ray."""
