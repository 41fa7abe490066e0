"""The two reference routes stay independent of the library's code paths.

``tests/oracles.py`` and ``covrough._laws``, the raw law checker with the
walk over the coverings it checks, are what the library is compared
against, so neither may reach the operations they check.  Both import
only the standard library, by absolute imports, so independence holds by
what they import: no function in them can reach library code.
"""

import ast
import sys
from pathlib import Path

import pytest

import covrough

# tests/oracles.py and src/covrough/_laws.py, by module name
REFERENCES = {
    "oracles": Path(__file__).parent / "oracles.py",
    "_laws": Path(covrough.__file__).parent / "_laws.py",
}


def _imports(source):
    """The modules that ``source`` imports, as written: a relative import
    keeps its leading dots."""
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    return imported


def _foreign(imported):
    """The imports that are relative or leave the standard library."""
    return [
        m
        for m in imported
        if m.startswith(".") or m.split(".")[0] not in sys.stdlib_module_names
    ]


@pytest.mark.parametrize("path", list(REFERENCES.values()), ids=list(REFERENCES))
def test_reference_imports_only_the_stdlib(path):
    imported = _imports(path.read_text())
    assert imported, "expected the reference to import the stdlib"
    assert _foreign(imported) == []


@pytest.mark.parametrize(
    "source",
    [
        "from .setsys import Block",
        "from . import oracle",
        "import covrough",
        "from covrough.setsys import Block",
    ],
    ids=["relative-module", "relative-package", "package", "absolute-module"],
)
def test_library_import_is_rejected(source):
    imported = _imports(source)
    assert imported and _foreign(imported) == imported
