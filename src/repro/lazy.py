"""Lazy package exports: a package imports a submodule on first use.

A package ``__init__`` that imports its whole subtree makes every
``from repro.<pkg> import Name`` load — and, without a bytecode cache,
compile — modules the caller never runs.  Each init instead names the
submodule that defines each exported name and lets :func:`attach`
resolve it on first attribute access (PEP 562), the pattern of
Scientific Python SPEC 1::

    __getattr__, __dir__, __all__ = attach(__name__, {
        "director": ["FleetDirector", "StormReport"],
        "ring": ["HashRing", "key_position", "key_positions"],
    })

``from repro.fleet import FleetDirector`` then imports
``repro.fleet.director`` (and what it imports), nothing else.

Two rules keep the exports right:

* **A name that is also a submodule name is bound eagerly.**  Importing
  a submodule binds it on its package, and ``__getattr__`` only runs
  for names the package lacks, so after ``import repro.crypto.sha256``
  a lazy ``sha256`` would resolve to the module, not the function.
  ``tests/test_imports.py`` checks every package for such a name.
* **Registration packages stay eager.**  A package whose import fills a
  registry (``repro.tflm.ops``, ``repro.analysis.rules``) keeps its
  plain imports.

Resolved values are not cached on the package: every lookup reads the
defining module, so a function patched there (a profiler's wrapper) is
what the package exports too, and the original again once restored.
Like :mod:`repro.hookslot` this module sits at the bottom of the import
graph and imports nothing from the package.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["attach"]


def attach(package: str, submod_attrs: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``, exporting
    each name in ``submod_attrs[submodule]`` from
    ``package.submodule``."""
    owner: dict[str, str] = {}
    for submodule, names in submod_attrs.items():
        for name in names:
            owner[name] = f"{package}.{submodule}"

    def __getattr__(name: str):
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        return getattr(importlib.import_module(module), name)

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)
