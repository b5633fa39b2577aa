"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


class ParseError(DomainError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def read_only(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable value classes;
    their ``__init__`` sets fields with ``object.__setattr__``."""
    raise AttributeError(f"{type(self).__name__} is immutable: "
                         f"cannot assign or delete {name!r}")
