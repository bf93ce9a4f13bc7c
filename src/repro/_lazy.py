"""Lazy package exports (PEP 562), shared by the package roots.

A package root imports its light modules at load time and lists the names
it re-exports from heavy ones (a module that loads numpy, a process pool,
the bench harness or another subpackage) in :func:`lazy_exports`.  A lazy
name is imported from its module the first time it is read and is then
cached in the package namespace, so ``from repro.core import
MultiModuleCFM`` keeps working while ``import repro.core`` stays light.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, namespace: Dict[str, object],
                 lazy: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for ``package``.

    ``namespace`` is the package's ``globals()``; ``lazy`` maps a module
    (relative to the package) to the names the package exports from it.
    An unknown name raises :class:`AttributeError` naming the package.
    """
    home = {name: module for module, names in lazy.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
