"""PEP 562 re-exports: one ``{name: home module}`` table per package.

A package ``__init__`` lists each public name with the module that
defines it and installs the pair :func:`lazy_exports` builds as its
``__getattr__``/``__dir__``.  A name's home module loads on its first
lookup and the object is cached in the package namespace, so later reads
skip the hook and ``import repro.<package>`` costs only the ``__init__``:
each entry point loads the submodules it uses, and no package init can
close an import cycle through a sibling's.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``__getattr__`` and ``__dir__`` serving ``table`` for ``package``.

    ``table`` maps each re-exported name to the absolute name of its home
    module.  The value served is the home module's own object, so
    ``package.name is home.name``.  Threads racing on a first lookup all
    get that one object: the import system serializes the home module's
    import, and the cache write stores the same value.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        home = table.get(name)
        if home is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(home), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
