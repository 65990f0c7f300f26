"""The one base of the package's immutable records.

A subclass names its fields in ``_fields``, in its ``__init__`` order, and
sets them in ``__init__`` past the refusing ``__setattr__`` (through
``object.__setattr__``, a slot's own setter, or the instance dict).  From
those names the base gives it equality and a hash field by field, a
``Name(field=value, ...)`` repr, and a ``__reduce__`` that rebuilds the
record through ``__init__``, so a record pickles and copies.  Attributes
derived from the fields are not pickled; ``__init__`` derives them again.
"""

from operator import attrgetter

__all__ = ["Record"]


class Record:
    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # one field's value, or a tuple of several: what eq and hash compare
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)
