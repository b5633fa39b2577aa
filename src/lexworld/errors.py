"""Exception types and the immutable value base shared across the package."""

from operator import attrgetter


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


class ParseError(DomainError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class Value:
    """Base of the immutable value classes.

    A subclass lists its fields in ``__slots__``, in the order of its
    ``__init__`` parameters, and its ``__init__`` validates them and sets
    them with ``object.__setattr__``; afterwards assignment and deletion
    raise AttributeError.  Instances compare and hash by class and fields.
    Copies and unpickled objects are rebuilt by calling the class on the
    fields, so ``__init__`` validates them again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # (*fields, class), read in one C call.  attrgetter returns a bare
        # value for a single name, so the class also keeps the result a
        # tuple.
        cls._key = property(attrgetter(*cls.__slots__, "__class__"))

    def _read_only(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: "
                             f"cannot assign or delete {name!r}")

    __setattr__ = __delattr__ = _read_only

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key[:-1]
