"""Exception types shared across the package."""

__all__ = [
    "GraphParseError",
    "DisconnectedGraphError",
    "CapExceededError",
    "InternalConsistencyError",
]


class GraphParseError(ValueError):
    """Malformed graph input. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DisconnectedGraphError(ValueError):
    """Raised by operations that are only defined for connected graphs."""


class CapExceededError(ValueError):
    """Refusal: the instance exceeds the size cap of an exhaustive routine."""


class InternalConsistencyError(RuntimeError):
    """A guarantee the solvers rely on failed at runtime.

    This always indicates a bug (either here or in the assumptions baked
    into a solver branch); it is raised loudly instead of returning a
    possibly wrong answer.
    """
