"""The package's two exception types, one for bad input and one for a bug, and the rule for counts."""


class InputError(ValueError):
    """Raised on any bad input; an optional ``location`` (a JSON path like ``I[2]``) names the field."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class InternalConsistencyError(RuntimeError):
    """Raised when two computations that must agree do not (a bug, not bad input)."""


def require_nonnegative_int(name: str, value: int) -> None:
    """Reject a value of the option ``name`` that is not an int of at least 0 (bools included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError(f"{name} must be a nonnegative int, got {value!r}")
