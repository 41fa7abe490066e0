"""The two reference routes stay independent of the library's code paths.

``tests/oracles.py`` and the oracle's raw law checker, with the generator
of the coverings it checks, are what the library is compared against, so
neither may reach the operations they check.
"""

import ast
import inspect
from pathlib import Path

from covrough import oracle

# The raw law checker and the generator of the coverings it checks; every
# oracle function they reach by name is checked with them.
ROOTS = ("_check_covering", "_orbit_representatives")

# The helpers of the checker and the generator: a closure that lost one of
# them would no longer follow the calls.
KNOWN = {
    "_check_covering",
    "_element_tables",
    "_cov_masks",
    "_subset_union",
    "_reducible_flags",
    "_reduct_masks",
    "_no_union_ok",
    "_image_laws",
    "_nesting_ok",
    "_degrees_match_blocks",
    "_core_scan",
    "_relabelling_columns",
    "_orbit_representatives",
    "_lambda_laws",
    "_element_columns",
    "_meet_columns",
}


def _names(code):
    """Global and attribute names used by ``code`` and the code nested in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _names(const)
    return names


def _oracle_functions():
    """The functions defined in ``oracle``, by name, unwrapped from any
    cache."""
    found = {}
    for name, value in vars(oracle).items():
        if callable(value):
            value = inspect.unwrap(value)
        if inspect.isfunction(value) and value.__module__ == oracle.__name__:
            found[name] = value
    return found


def _checker():
    """The oracle functions reachable by name from ``ROOTS``."""
    functions = _oracle_functions()
    reached = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_names(functions[name].__code__) & functions.keys())
    return {name: functions[name] for name in reached}


def _library_operations():
    """Functions that ``oracle`` imports from the other covrough modules."""
    return {
        name
        for name, value in vars(oracle).items()
        if inspect.isfunction(value)
        and value.__module__.startswith("covrough.")
        and value.__module__ != oracle.__name__
    }


def test_reference_imports_nothing_from_covrough():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "expected the reference to import the stdlib"
    assert not [m for m in imported if m.split(".")[0] == "covrough"]


def test_law_checker_calls_no_library_operation():
    library = _library_operations()
    assert {"cov", "is_invariable", "is_partition", "table"} <= library
    checker = _checker()
    assert KNOWN <= checker.keys()
    for name, function in checker.items():
        used = _names(function.__code__) & library
        assert not used, f"oracle.{name} uses {sorted(used)}"
