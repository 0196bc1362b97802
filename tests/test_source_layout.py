"""Static checks on the package source.

Imports happen at module level, so a module's dependencies are visible at
its top.  The one exception is the CLI's command handlers (``_cmd_*`` in
``cli.py``): each imports, relatively, the package modules its command
runs, so that a call compiles only what its command runs (without a
bytecode cache, compiling is most of a call's start-up).  Which modules each
command loads is pinned below.  The package's lazy exports go through
``importlib`` and need no exception.  The oracle imports nothing from the
main modules but data types, so the paths it cross-checks are never shared
with it.  How a
scalar is represented is known to ``exactalg`` alone: no other module
imports ``fractions``, names ``FpElement`` (bar the package's re-export) or
reads ``.numerator`` / ``.denominator``.  Cover enumeration
(``.irredundant_covers``) is for the oracle only: the sheaf checks work on
minimal covers, so the oracle's cover-by-cover check stays independent.
Every command line call pays for what importing the CLI loads, so only the
oracle, which the CLI never imports, may use ``dataclasses``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "sheafplectic"

ORACLE_MAY_IMPORT = {"Field", "Matrix", "PrimeField", "Subspace",
                     "ExplicitPresheaf", "Section", "SubmoduleSheaf",
                     "PairingSheaf"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _command_import(path, fn, node):
    """A relative import of a package module in a CLI command handler."""
    return (path.name == "cli.py"
            and getattr(fn, "name", "").startswith("_cmd_")
            and isinstance(node, ast.ImportFrom) and node.level == 1
            and (PKG / ("%s.py" % node.module)).is_file())


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += ["%s:%d" % (path.name, node.lineno)
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))
                          and not _command_import(path, fn, node)]
    assert sorted(set(found)) == []


def test_oracle_imports_only_data_types_from_the_package():
    names = []
    for node in ast.walk(_tree(PKG / "oracle.py")):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("sheafplectic")):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names
                      if alias.name.startswith("sheafplectic")]
    assert [n for n in names if n not in ORACLE_MAY_IMPORT] == []


def test_scalar_representation_stays_in_exactalg():
    found = []
    for path in sorted(PKG.glob("*.py")):
        if path.name == "exactalg.py":
            continue
        for node in ast.walk(_tree(path)):
            where = "%s:%d" % (path.name, getattr(node, "lineno", 0))
            if isinstance(node, ast.Import):
                found += ["%s import %s" % (where, alias.name)
                          for alias in node.names
                          if alias.name.split(".")[0] == "fractions"]
            elif isinstance(node, ast.ImportFrom) and \
                    (node.module or "").split(".")[0] == "fractions":
                found.append("%s from fractions" % where)
            elif isinstance(node, ast.Attribute) and \
                    node.attr in ("numerator", "denominator", "FpElement"):
                found.append("%s .%s" % (where, node.attr))
            elif isinstance(node, ast.Name) and node.id == "FpElement":
                found.append("%s FpElement" % where)
            elif isinstance(node, ast.alias) and node.name == "FpElement" \
                    and path.name != "__init__.py":
                found.append("%s imports FpElement" % path.name)
    assert found == []


def test_cover_enumeration_stays_with_the_oracle():
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PKG.glob("*.py"))
             if path.name not in ("space.py", "oracle.py")
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute)
             and node.attr == "irredundant_covers"]
    assert found == []


def test_only_the_oracle_imports_dataclasses():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(_tree(path)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [node.module]
                     if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names and path.name != "oracle.py":
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    probe = ("import json, sys; before = set(sys.modules); "
             "import sheafplectic.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    loaded = json.loads(proc.stdout)
    assert "sheafplectic.cli" in loaded
    assert "sheafplectic.oracle" not in loaded
    assert [m for m in loaded if m in ("dataclasses", "inspect")] == []


VALIDATE_LOADS = {"_records", "exactalg", "space", "sheaf", "cli"}
ANNIHILATOR_LOADS = VALIDATE_LOADS | {"pairing"}
SYMPLECTIC_LOADS = ANNIHILATOR_LOADS | {"symplectic"}
COMMAND_LOADS = [
    (["validate"], VALIDATE_LOADS),
    (["annihilator", "--pairing", "dot", "--sub", "L"], ANNIHILATOR_LOADS),
    (["classify", "--sub", "L"], SYMPLECTIC_LOADS),
    (["darboux", "--at", "p0"], SYMPLECTIC_LOADS),
    (["reduce", "--sub", "L"], SYMPLECTIC_LOADS),
    (["check", "--suite", "transpose"], SYMPLECTIC_LOADS | {"suites"}),
]


@pytest.mark.parametrize("argv, loads", COMMAND_LOADS,
                         ids=[argv[0] for argv, _ in COMMAND_LOADS])
def test_each_command_loads_only_the_modules_it_runs(argv, loads):
    probe = ("import json, sys; from sheafplectic import cli; "
             "code = cli.main(sys.argv[1:]); "
             "print(json.dumps([code] + sorted(sys.modules)), "
             "file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(PKG.parent))
    manifest = PKG.parents[1] / "manifests" / "point_rank2.json"
    proc = subprocess.run([sys.executable, "-c", probe, "-m", str(manifest)]
                          + argv, env=env, capture_output=True, text=True,
                          check=True)
    code, *modules = json.loads(proc.stderr)
    assert code == 0
    assert {m.split(".", 1)[1] for m in modules
            if m.startswith("sheafplectic.")} == loads
