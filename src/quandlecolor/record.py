"""Frozen records: the package's immutable values with named fields.

A record class lists its fields, in order, in ``__slots__`` and sets them
in its own ``__init__`` through :data:`set_field`, beside the checks and
normalizations it makes on construction.  :class:`Record` gives it the
rest: equality by class and fields, a hash of the fields, the repr
``Crossing(sign=1, under_in=2, under_out=3, over=1)``, an AttributeError on
assigning or deleting any attribute, and :meth:`Record._replace`, which
builds the changed copy through the class's own constructor, so that its
checks run again (pickling and ``copy`` go through it too).  A class that caches values read from its fields
(``functools.cached_property``) lists ``__dict__`` in its slots as well:
what is kept there is no field, so ``==``, hash and repr never see it.
"""

from __future__ import annotations

# sets one field in a record's own __init__, past Record.__setattr__
set_field = object.__setattr__


class Record:
    """Base of the frozen records (see the module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with ``changes`` to its fields, built by the class's own constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
