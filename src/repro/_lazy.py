"""Module surfaces that import a name's defining module on first read.

A package ``__init__`` (or any module that re-exports) declares ``_LAZY``,
a map from each re-exported name to the module that defines it, and binds
the PEP 562 hooks this returns::

    _LAZY = {"GatherPolicy": "repro.core.policy", ...}
    __all__ = list(_LAZY)
    __getattr__, __dir__ = lazy_surface(__name__, _LAZY)

Importing the package then loads none of those modules; the first read of
a name (``repro.core.GatherPolicy``, ``from repro.core import
GatherPolicy``) imports its module and binds the name on the package, so
every later read is a plain attribute lookup.  Code inside :mod:`repro`
imports from the defining module instead, so a run loads only the modules
it executes.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

__all__ = ["lazy_surface"]


def lazy_surface(
    module_name: str, lazy: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of module ``module_name``, which
    re-exports each name in ``lazy`` from the module it maps to."""
    namespace = sys.modules[module_name].__dict__

    def __getattr__(name: str) -> object:
        home = lazy.get(name)
        if home is None:
            raise AttributeError(f"module {module_name!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(home), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *lazy})

    return __getattr__, __dir__
