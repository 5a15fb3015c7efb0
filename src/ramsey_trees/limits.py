"""Global size guards.

Tree constructors refuse to build trees with more than max_leaves() leaves,
and every operation that materializes a combinatorial family refuses to
produce more than max_enumeration() items: a copy list or triple set by its
size, the lazy copy stream by the running total of the lists it builds on
the way, not the copies it yields. Both are process-global knobs; the CLI
seeds max_leaves from the RAMSEY_MAX_LEAVES environment variable.

It also holds what the other modules share for checking and holding their
arguments: the integer check and the base of the immutable value classes.
"""

from __future__ import annotations

from .errors import ResourceLimitError

DEFAULT_MAX_LEAVES = 1 << 20
DEFAULT_MAX_ENUMERATION = 1_000_000

_max_leaves = DEFAULT_MAX_LEAVES
_max_enumeration = DEFAULT_MAX_ENUMERATION


def _require_int(what: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless value is an int (a bool is not) of at least
    minimum, which is 1 for a positive integer or 0 for a non-negative one."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {value!r}")


class _Value:
    """Base of the package's immutable value classes, in place of frozen
    dataclasses, so that no CLI process pays for importing dataclasses and,
    through it, inspect. A subclass lists its fields in _fields; its
    __init__ validates its arguments and stores the fields with
    self.__dict__.update, as __setattr__ refuses. Instances are equal when
    their classes are the same and their fields are equal, hash by their
    fields (so not when a field is unhashable), print as
    Name(field=value, ...), and refuse assignment and deletion. They keep a
    __dict__, so copy, deepcopy and pickle restore them without calling
    __init__ or __setattr__."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def max_leaves() -> int:
    return _max_leaves


def set_max_leaves(n: int) -> None:
    _require_int("max leaves", n)
    global _max_leaves
    _max_leaves = n


def max_enumeration() -> int:
    return _max_enumeration


def set_max_enumeration(n: int) -> None:
    _require_int("max enumeration", n)
    global _max_enumeration
    _max_enumeration = n


def check_leaves(n: int) -> None:
    if n > _max_leaves:
        raise ResourceLimitError(
            f"tree would have {n} leaves, over the configured limit {_max_leaves}"
        )


def check_enumeration(n: int) -> None:
    if n > _max_enumeration:
        raise ResourceLimitError(
            f"enumeration would produce {n} items, over the configured limit {_max_enumeration}"
        )
