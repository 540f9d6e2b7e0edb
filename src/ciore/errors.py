"""Exception types shared across the package."""


class LogicError(Exception):
    """Misuse of the logical machinery (arity mismatch, quantifier where a
    propositional formula is required, unbound atom, and so on), or an
    input file that cannot be read."""


class ParseError(LogicError):
    """Malformed formula, sequent or JSON input."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)


class AtomCapExceeded(LogicError):
    """A validity check would enumerate more atoms than the configured cap."""


class UsageError(Exception):
    """A setting out of its range: a budget or cap that is not a positive
    integer."""


class InternalError(Exception):
    """An impossible state was reached; indicates a bug, surfaced loudly."""
