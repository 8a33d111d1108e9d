"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an operation receives arguments outside its contract."""


class ValidationError(InputError):
    """Raised when an ideal pair or an instance file fails validation.

    Carries an optional ``location`` (e.g. a JSON path like ``I[2]``) so CLI
    errors can point at the offending field.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message if location is None else f"{location}: {message}")
        self.location = location


class InternalConsistencyError(RuntimeError):
    """Raised when two computations that must agree do not (a bug, not bad input)."""
