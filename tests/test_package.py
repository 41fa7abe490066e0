"""The package's public names, and the modules that load on first use.

``import covrough`` loads the paper's operators only.  The exhaustive
oracle, with its law checker ``_laws``, and the full report load when a
name or a command first needs them, and ``json`` when a covering file is
first read or written.
"""

import json
import subprocess
import sys

import pytest

import covrough
from covrough import Universe, make_covering, write_covering

EAGER = [
    "covrough",
    "covrough._table",
    "covrough.cli",
    "covrough.degrees",
    "covrough.errors",
    "covrough.neighborhoods",
    "covrough.reduction",
    "covrough.setsys",
]

# Prints the covrough modules loaded after each step, as one JSON list.
STEPS = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "covrough")

import covrough, covrough.cli
steps = [loaded()]
covrough.verify_laws
steps.append(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = covrough.cli.run(["analyze", sys.argv[1]])
steps.append(loaded())
print(json.dumps([code, steps]))
"""


def test_oracle_and_report_load_on_first_use(tmp_path):
    path = tmp_path / "c.json"
    u = Universe(("1", "2", "3"))
    write_covering(make_covering(u, [["1"], ["1", "2"], ["3"]]), path)
    done = subprocess.run(
        [sys.executable, "-c", STEPS, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    code, (imported, after_verify, after_analyze) = json.loads(done.stdout)
    assert code == 0
    assert imported == EAGER
    assert after_verify == sorted(EAGER + ["covrough._laws", "covrough.oracle"])
    # The benchmark's tracer (perfbench/spans.py) looks each module of its
    # LAYERS up in sys.modules, so every one of them must be loaded once
    # one verify and one analyze have run.
    assert after_analyze == sorted(after_verify + ["covrough.report"])


def test_import_leaves_json_unloaded():
    # the covering file format imports json when a reader or writer runs
    done = subprocess.run(
        [sys.executable, "-c", "import sys, covrough; print('json' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "False\n"


def test_import_leaves_dataclasses_unloaded():
    # the value types are plain slotted classes: dataclasses, with the
    # inspect, ast and dis it pulls in, was most of the import's time
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, covrough, covrough.cli; "
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert done.stdout == "False False\n"


def test_every_public_name_resolves():
    for name in covrough.__all__:
        assert getattr(covrough, name).__name__ == name


def test_names_are_read_from_their_home_module(monkeypatch):
    # not cached in the package: a rebinding in the home module shows
    from covrough import oracle

    assert covrough.verify_laws is oracle.verify_laws
    wrapped = object()
    monkeypatch.setattr(oracle, "verify_laws", wrapped)
    assert covrough.verify_laws is wrapped


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from covrough import *", namespace)
    assert set(covrough.__all__) <= set(namespace)
    for name in covrough.__all__:
        assert namespace[name] is getattr(covrough, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        covrough.no_such_name
    assert not hasattr(covrough, "no_such_name")
