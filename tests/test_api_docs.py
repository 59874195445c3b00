"""docs/api.md names only what the packages export.

Every backticked name in the symbol column of a ``## repro.X`` table
must resolve as an attribute of ``repro.X`` that is not a submodule
(a deleted function can leave a submodule of its name behind), so a
symbol deleted or renamed in the code cannot stay on the page.
Wildcard rows (``area_*``, ``FIG3_*``) name families, not symbols, and
are skipped; a slashed entry such as ``ResistorShort/Open`` names each
spelling.
"""

import importlib
import inspect
import re
from pathlib import Path

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def _names(entry: str):
    """The symbols one backticked entry names: its leading identifier,
    then one per ``/`` alternative, which replaces the last word."""
    head, *alternatives = entry.split("/")
    name = re.match(r"\w+", head).group(0)
    stem = name[:re.search(r"([A-Z][a-z0-9]*|[a-z0-9]+)$", name).start()]
    return [name] + [stem + alternative for alternative in alternatives]


def documented_symbols():
    """``(module, name)`` for every symbol-column name in docs/api.md."""
    symbols = []
    module = None
    for line in API_DOC.read_text(encoding="utf-8").splitlines():
        heading = re.match(r"## (repro\.\w+)", line)
        if line.startswith("## "):
            module = heading.group(1) if heading else None
            continue
        cells = line.split("|")
        if module is None or len(cells) < 3 or cells[1].strip() in (
                "symbol", "---"):
            continue
        for entry in re.findall(r"`([^`]+)`", cells[1]):
            if "*" not in entry:
                symbols += [(module, name) for name in _names(entry)]
    return symbols


def _resolves(module: str, name: str) -> bool:
    value = getattr(importlib.import_module(module), name, None)
    return value is not None and not inspect.ismodule(value)


def test_every_documented_symbol_resolves():
    symbols = documented_symbols()
    assert len(symbols) > 100
    missing = [f"{module}.{name}" for module, name in symbols
               if not _resolves(module, name)]
    assert missing == []
