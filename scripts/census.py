#!/usr/bin/env python3
"""Count the package's size and surface, so changes that shrink it compare alike.

Prints one JSON line:

* ``src_lines``        - lines in every ``.py`` file under ``src/``.
* ``public_names``     - distinct objects listed in the ``convsearch``
  modules' ``__all__``: functions, classes and constants alike.
* ``settable_values``  - parameters a caller can set on the public API: for
  each name in a ``convsearch`` module's ``__all__``, a function's
  parameters, or a class's constructor parameters (dataclass fields
  included) plus the parameters of its public methods.  ``self`` and
  ``cls`` are not counted, nor are ``*args`` and ``**kwargs``; an object
  listed by more than one module is counted once.
* ``defaulted_values`` - the subset of ``settable_values`` with a default.
* ``cli_options``      - option flags (``--help`` aside) across every
  subcommand of :func:`convsearch.cli.build_parser`, nested ones included.

Run from anywhere:  python3 scripts/census.py
(it counts the repository the script sits in)
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _parameters(func) -> list[inspect.Parameter]:
    try:
        signature = inspect.signature(func)
    except (TypeError, ValueError):  # a builtin without a signature
        return []
    skipped = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    return [
        p for p in signature.parameters.values()
        if p.kind not in skipped and p.name not in ("self", "cls")
    ]


def _surface(obj) -> list[inspect.Parameter]:
    """The parameters of a public function, or of a class's constructor and public methods."""
    if not inspect.isclass(obj):
        return _parameters(obj) if callable(obj) else []
    params = _parameters(obj)
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            params += _parameters(member)
    return params


def _cli_options(parser: argparse.ArgumentParser) -> int:
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_cli_options(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def census() -> dict:
    src = REPO / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("convsearch")
    seen: set[int] = set()
    settable = defaulted = 0
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"convsearch.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            params = _surface(obj)
            settable += len(params)
            defaulted += sum(p.default is not inspect.Parameter.empty for p in params)
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in src.rglob("*.py")
    )
    cli = importlib.import_module("convsearch.cli")
    return {
        "src_lines": lines,
        "public_names": len(seen),
        "settable_values": settable,
        "defaulted_values": defaulted,
        "cli_options": _cli_options(cli.build_parser()),
    }


def main() -> None:
    print(json.dumps(census()))


if __name__ == "__main__":
    main()
