"""Exception types shared across the package."""


class FlockLabError(Exception):
    """Base class for package-specific failures."""


class StabilityError(FlockLabError):
    """A time step violates an explicit stability guard (alpha*dt or CFL)."""


class ScenarioError(FlockLabError):
    """A scenario document is malformed; carries the offending key and line."""

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        where = []
        if key is not None:
            where.append(f"key '{key}'")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
