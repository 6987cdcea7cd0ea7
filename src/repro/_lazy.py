"""Lazy package re-exports (PEP 562).

Every package ``__init__`` re-exports its public names through
:func:`lazy_exports`, so ``import repro.cli`` loads only the modules the
command it runs needs, while ``from repro import ProcessMiner`` still
works.  A name resolves on first access and is cached in the package
namespace, so later lookups are plain attribute reads.

>>> import repro.core
>>> "ProcessMiner" in dir(repro.core)
True
>>> repro.core.ProcessMiner.__module__
'repro.core.miner'
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair re-exporting ``exports``.

    ``exports`` maps each public name to the module that defines it; a
    module name starting with ``.`` is relative to ``package``.  Call it
    from the package ``__init__`` itself::

        __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
