"""Immutable value classes without `dataclasses`.

A record's fields are the names in its class's ``__slots__``, or the
first of them where its `_fields` says so.  Its ``__init__`` sets each
field once through `set_field`; after that, assignment and deletion raise
AttributeError.  Two records are equal when they are of the same class and
their fields are equal, and a record hashes as the tuple of its fields, so
a record never equals a tuple or a record of another class with equal
fields.
"""

from __future__ import annotations

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()
