"""The lazy package surface: one PEP 562 hook for every re-export.

A package ``__init__`` that only re-exports names from its submodules
declares a table from defining submodule to public names instead of
importing them::

    __getattr__, __dir__ = surface(__name__, {
        "repro.dtd.structure": ("AttributeKind", "DTDStructure"),
        "repro.dtd.dtdc": ("DTDC",),
    })

The first access to a name imports its submodule and binds the value on
the package, so every later access is a plain attribute read and no
import ever lands inside a steady-state call.  ``import repro`` thus
costs one module, and a CLI run or a shard node pays only for the
submodules it touches.

Name-collision rule: a public name that is also the dotted name of a
submodule in the table (``repro.dtd.validate`` is both a function and a
module) is bound when the package is imported.  Otherwise a later
``import repro.dtd.validate`` anywhere in the process would rebind the
package attribute to the submodule — the import system sets a freshly
loaded submodule on its parent — and ``from repro.dtd import validate``
would return the module instead of the function.

``submodules`` names submodules that are exports in their own right
(``repro.engines``); ``deprecated`` maps a name to the warning it raises
on every access, and such a name is never bound, so each access warns.
"""

from __future__ import annotations

import sys
import warnings
from collections.abc import Callable, Iterable, Mapping
from typing import Any

#: Every surface built so far: package -> {name: (module, is_module)},
#: where ``is_module`` marks a name that is the submodule itself.
SURFACES: dict[str, dict[str, tuple[str, bool]]] = {}


def surface(package: str, exports: Mapping[str, Iterable[str]], *,
            submodules: Iterable[str] = (),
            deprecated: Mapping[str, str] | None = None,
            ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair for ``package``.

    ``exports`` maps a defining submodule to the names it provides.
    The pair is also installed on the package at once, so a colliding
    name's eager import (see the module docstring) can already resolve
    the package's other names.
    """
    where: dict[str, tuple[str, bool]] = {
        name: (module, False)
        for module, names in exports.items() for name in names}
    for name in submodules:
        where[name] = (f"{package}.{name}", True)
    SURFACES[package] = where
    warn = deprecated or {}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module, is_module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        if name in warn:
            warnings.warn(warn[name], DeprecationWarning, stacklevel=2)
        # __import__ rather than importlib.import_module: it goes through
        # the interpreter's own import path, so ``-X importtime`` still
        # attributes a lazily loaded module to itself
        __import__(module)
        loaded = sys.modules[module]
        value = loaded if is_module else getattr(loaded, name)
        if name not in warn:
            namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    for name, (module, is_module) in where.items():
        if not is_module and name not in warn \
                and module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__
