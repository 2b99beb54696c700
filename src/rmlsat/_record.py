"""Bases for the package's small value types.

A subclass names its fields, in order, in __match_args__ and writes its
own __init__.  _Record compares two instances of the same class field by
field, prints them as Name(field=value, ...) and leaves them unhashable;
_Frozen adds a hash of the field tuple and refuses assignment and
deletion, which its subclasses' __init__ bypasses with
object.__setattr__.  This is the behaviour of @dataclass and
@dataclass(frozen=True), without importing dataclasses at start-up.
"""


class _Record:
    __slots__ = ()
    __match_args__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
