"""Record types built from closures: the part of ``dataclasses`` adux uses.

Every ``adux`` command is a fresh process, so import time is paid on each
call. ``dataclasses`` writes each generated method as Python source and
compiles it at run time, which no bytecode cache can save: about six
compiles per class, 123 for adux's 21 record types, plus the import of
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``). Measured with
Python 3.11.7 on a 2-vCPU shared VM, medians of 15-21 fresh interpreters:
with bytecode caches, ``import adux`` took 32.3 ms with ``dataclasses`` and
7.2 ms with this module, and ``python -c "import adux, adux.cli"`` 73.8
and 51.9 ms; without caches, the latter took 91.1 and 72.2 ms.

:func:`record` builds the same methods from closures over the field names,
reading no source and compiling nothing. It supports what adux's records
use, and no more:

- ``__init__`` taking fields by position or keyword, with defaults from the
  class body or a per-instance ``default_factory`` given by :func:`field`,
  then calling ``__post_init__`` when the class has one, looked up on the
  instance at each call. A missing, unknown or repeated argument is a
  ``TypeError`` that names it;
- ``__repr__`` printing what the ``dataclasses`` one prints;
- ``__eq__`` over the fields' tuple for objects of the same class, and for
  frozen records ``__hash__`` of that tuple (mutable ones are unhashable);
- with ``frozen=True``, ``__setattr__`` and ``__delattr__`` raising
  :class:`FrozenInstanceError`;
- :func:`replace`.

The field names are kept in ``__match_args__``, as ``dataclasses`` does,
so records also work in ``match`` class patterns. ``dataclasses.fields``,
``asdict`` and ``is_dataclass`` do not apply to them.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, TypeVar

_T = TypeVar("_T")
_MISSING: Any = object()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Field:
    __slots__ = ("default_factory",)

    def __init__(self, default_factory: Callable[[], Any]) -> None:
        self.default_factory = default_factory


def field(*, default_factory: Callable[[], Any]) -> Any:
    """A field whose default ``default_factory`` makes for each instance."""
    return _Field(default_factory)


def replace(obj: _T, **changes: Any) -> _T:
    """A new record like ``obj`` with ``changes`` applied, built (and
    checked) by the class's ``__init__``."""
    values = {name: getattr(obj, name) for name in obj.__match_args__}
    return obj.__class__(**{**values, **changes})


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


def record(cls: type[_T] | None = None, /, *, frozen: bool = False) -> Any:
    """Class decorator: give ``cls`` the methods of a dataclass over its
    annotated fields, in their order. Fields with a default come after
    those without one."""

    def build(cls: type[_T]) -> type[_T]:
        _install(cls, frozen)
        return cls

    return build if cls is None else build(cls)


def _install(cls: type, frozen: bool) -> None:
    names = tuple(cls.__annotations__)
    defaults: dict[str, Any] = {}
    factories: list[tuple[str, Callable[[], Any]]] = []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            delattr(cls, name)
            factories.append((name, value.default_factory))
            continue
        if value is not _MISSING:
            defaults[name] = value
        elif defaults or factories:
            raise TypeError(f"non-default field {name!r} follows a default one")
    required = len(names) - len(defaults) - len(factories)
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
        if defaults:
            d.update(defaults)
        d.update(kwargs)
        if factories:
            for name, make in factories:
                if name not in d:
                    d[name] = make()
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

    methods: dict[str, Any] = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__}
    if frozen:
        def __hash__(self: Any) -> int:
            return hash(values(self))

        def __setattr__(self: Any, name: str, value: Any) -> None:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")

        def __delattr__(self: Any, name: str) -> None:
            raise FrozenInstanceError(f"cannot delete field {name!r}")

        methods.update(__hash__=__hash__, __setattr__=__setattr__, __delattr__=__delattr__)
    else:
        methods["__hash__"] = None
    for attr, method in methods.items():
        if method is not None:
            method.__qualname__ = f"{cls.__qualname__}.{attr}"
        setattr(cls, attr, method)
    cls.__match_args__ = names
