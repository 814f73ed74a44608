"""Value records without generated code.

A ``@dataclass`` compiles its methods from source at every import.
:class:`Value` is one plain class whose methods read a record's fields
off the leaf class's ``__slots__`` when called, so declaring a record
on it costs what declaring a plain class costs.
"""


class Value:
    """A frozen dataclass's equality, hash and repr for a ``__slots__``
    record whose ``__init__`` stores each field; it pickles and copies
    through ``__init__``.

    The fields are the leaf class's ``__slots__``: a record is a leaf,
    and a base shared by records declares ``__slots__ = ()`` (as
    ``FaultPhase`` does).  Nothing refuses an assignment to a field;
    no code assigns to one after ``__init__``, since the hash reads the
    fields.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


def replace(record, **changes):
    """A copy of the slotted *record* with *changes*, built by its
    ``__init__`` (so its checks run again)."""
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    fields.update(changes)
    return type(record)(**fields)
