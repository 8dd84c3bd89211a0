"""Record types built from closures: the part of ``dataclasses`` adux uses.

Every ``adux`` command is a fresh process, so import time is paid on each
call. ``dataclasses`` writes each generated method as Python source and
compiles it at run time, which no bytecode cache can save: about six
compiles per class, for each of adux's 17 record types, plus the import of
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``). Measured with
Python 3.11.7 on a 2-vCPU shared VM, medians of 15-21 fresh interpreters:
with bytecode caches, ``import adux`` took 32.3 ms with ``dataclasses`` and
7.2 ms with this module, and ``python -c "import adux, adux.cli"`` 73.8
and 51.9 ms; without caches, the latter took 91.1 and 72.2 ms.

:func:`record` builds the methods of a frozen dataclass from closures over
the field names, reading no source and compiling nothing. Every record is
an immutable value; it supports what adux's records use, and no more:

- ``__init__`` taking fields by position or keyword, with defaults from the
  class body, then calling ``__post_init__`` when the class has one, looked
  up on the instance at each call. A missing, unknown or repeated argument
  is a ``TypeError`` that names it;
- ``__repr__`` printing what the ``dataclasses`` one prints;
- ``__eq__`` over the fields' tuple for objects of the same class, and
  ``__hash__`` of that tuple;
- ``__setattr__`` and ``__delattr__`` raising :class:`FrozenInstanceError`.

The field names are kept in ``__match_args__``, as ``dataclasses`` does,
so records also work in ``match`` class patterns. ``dataclasses.fields``,
``asdict`` and ``is_dataclass`` do not apply to them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, TypeVar

_T = TypeVar("_T")


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


def _arguments_error(cls: type, names: tuple[str, ...], required: int,
                     args: tuple, kwargs: dict) -> TypeError:
    """A TypeError naming what is wrong with a call of ``cls``'s ``__init__``."""
    positional = names[:len(args)]
    problems = []
    if len(args) > len(names):
        problems.append(f"{len(args)} positional arguments for {len(names)} fields")
    for label, listed in (
        ("missing", [n for n in names[:required] if n not in positional and n not in kwargs]),
        ("unexpected", [n for n in kwargs if n not in names]),
        ("repeated", [n for n in positional if n in kwargs]),
    ):
        if listed:
            problems.append(f"{label} {', '.join(map(repr, listed))}")
    return TypeError(f"{cls.__qualname__}() got bad arguments: {'; '.join(problems)}")


def record(cls: type[_T]) -> type[_T]:
    """Class decorator: make ``cls`` a frozen value type with the methods
    of a frozen dataclass over its annotated fields, in their order. Fields
    with a default come after those without one."""
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = len(names) - len(defaults)
    for name in names[required:]:
        if name not in defaults:
            raise TypeError(f"non-default field {name!r} follows a default one")
    count = len(names)
    fieldset = frozenset(names)
    post_init = hasattr(cls, "__post_init__")

    # Within about 0.3 us a call of the generated __init__ on Python 3.11:
    # positional values join the keywords, then the defaults and the
    # keywords are merged into the instance's empty __dict__ as whole dicts,
    # in C. (Storing key by key would leave a shared-key dict, whose
    # attributes read several times slower.) One comparison of its keys
    # then catches a missing or unknown name; a name given twice is caught
    # before.
    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if args:
            if len(args) > count or (kwargs and not kwargs.keys().isdisjoint(names[:len(args)])):
                raise _arguments_error(cls, names, required, args, kwargs)
            i = 0
            for value in args:  # cheaper than zip() for a few values
                kwargs[names[i]] = value
                i += 1
        d = self.__dict__
        d.update(defaults)
        d.update(kwargs)
        if d.keys() != fieldset:
            raise _arguments_error(cls, names, required, (), kwargs)
        if post_init:
            self.__post_init__()

    values = attrgetter(*names) if count > 1 else lambda self: (getattr(self, names[0]),)

    def __repr__(self: Any) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self))) + ")")

    def __eq__(self: Any, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self: Any) -> int:
        return hash(values(self))

    def __setattr__(self: Any, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self: Any, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
