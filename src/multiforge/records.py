"""The base of the package's mutable records.

Immutable records are `typing.NamedTuple`s.  A record that is edited in
place, has a mutable default or needs a setup step is a `__slots__` class
on `Record`, which gives it the equality and the ``Name(field=value, ...)``
repr of a non-frozen dataclass without importing `dataclasses` or
generating methods per class at import time.
"""


class Record:
    """Compares the `_fields` of two records of the same class, in order,
    and shows them in its repr.  Unhashable, like a non-frozen dataclass."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
