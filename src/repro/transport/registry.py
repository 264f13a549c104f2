"""Congestion-control registry: name → factory, one entry per protocol.

Every CC module registers its class at import time with
:func:`register`; config validation, scenario specs, and the CLI read
:func:`available` instead of a hard-coded tuple, so adding a protocol
is one new module that registers itself — no edits elsewhere.

The registry is a *leaf* module (it imports nothing from ``repro``):
``repro.core.config`` reaches it through a function-scope import, and
the built-in protocol modules are imported lazily on first lookup so
the names are present no matter which module the process touched first.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Tuple, Type

__all__ = ["available", "create", "is_registered", "register"]

#: name -> CC class; every class takes ``(swift_config, initial_cwnd)``.
_FACTORIES: Dict[str, Callable] = {}

#: Modules shipped with the package that self-register on import, in
#: the order their names are reported (the paper's protocol first).
_BUILTIN_MODULES = (
    "repro.transport.swift",
    "repro.transport.dctcp",
    "repro.transport.cubic",
    "repro.transport.hostcc",
    "repro.transport.timely",
)

#: Canonical reporting order: the paper's protocol first, then the
#: baselines; protocols registered from outside sort after them.
_BUILTIN_ORDER = ("swift", "dctcp", "cubic", "hostcc", "timely")

_builtins_loaded = False


def register(name: str) -> Callable[[Type], Type]:
    """Class decorator registering a congestion-control factory.

    The decorated class must be constructible as
    ``cls(swift_config, initial_cwnd)``.  Re-registering a name with a
    different factory raises — two protocols cannot share a name.
    """

    def decorate(cls: Type) -> Type:
        existing = _FACTORIES.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"congestion control {name!r} is already registered "
                f"to {existing!r}")
        _FACTORIES[name] = cls
        return cls

    return decorate


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        for module in _BUILTIN_MODULES:
            importlib.import_module(module)


def available() -> Tuple[str, ...]:
    """All registered protocol names (built-ins first, stable order)."""
    _ensure_builtins()
    builtins = tuple(n for n in _BUILTIN_ORDER if n in _FACTORIES)
    extras = tuple(sorted(n for n in _FACTORIES
                          if n not in _BUILTIN_ORDER))
    return builtins + extras


def is_registered(name: str) -> bool:
    """Whether ``name`` is a registered protocol: one dict lookup, for
    checks on hot paths that :func:`available`'s tuples would slow."""
    _ensure_builtins()
    return name in _FACTORIES


def create(name: str, swift_config, initial_cwnd: float = 2.0):
    """Instantiate the congestion control registered under ``name``."""
    _ensure_builtins()
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; "
            f"expected one of {available()}") from None
    return factory(swift_config, initial_cwnd)
