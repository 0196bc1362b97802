"""Static checks on the package source.

Imports happen at module level, so a module's dependencies are visible at
its top.  The one exception is the CLI's command handlers (``_cmd_*`` in
``cli.py``): each imports, relatively, the package modules its command
runs, and ``check`` imports through ``importlib`` the module that
``cli.SUITES`` names for its suite, so that a call compiles only what its
command runs (without a bytecode cache, compiling is most of a call's
start-up).  Which modules each command and each suite loads is pinned
below: every call loads the module-sheaf data (``modsheaf``), only the
``completeness`` suite loads the sheaf axioms (``sheaf``), and only
``classify``, ``darboux``, ``reduce`` and the ``darboux`` and ``reduction``
suites load ``symplectic``.  Besides those handlers, only the package's
lazy exports (``__getattr__`` in ``__init__.py``) call
``importlib.import_module``.  How a scalar is represented is known
to ``exactalg`` alone: no other module imports ``fractions``, names
``FpElement`` (bar the package's re-export) or reads ``.numerator`` /
``.denominator``.  Every command line call pays for what importing the CLI
loads, so no package module uses ``dataclasses`` (which loads
``inspect``), and the CLI reads its command line from its own table
instead of ``argparse`` (which loads ``gettext`` and, through it,
``locale``): neither importing the CLI nor running a command loads any of
these five.

The oracle (``tests/oracle.py``) ships with the tests, not the package.  It
imports nothing from the package but data types, so the paths it
cross-checks are never shared with it.  Cover enumeration
(``.irredundant_covers``) is for the oracle only: no package module but
``space`` names it, since the sheaf checks work on minimal covers, so the
oracle's cover-by-cover check stays independent.

The README's command block runs every tool in ``tools/``, and every
``python tools/<name>.py`` the README names exists, so a deleted or
renamed tool cannot stay documented.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parents[1] / "src" / "sheafplectic"
COMPILED_LINES = PKG.parents[1] / "tools" / "compiled_lines.py"
README = PKG.parents[1] / "README.md"
ORACLE = Path(__file__).resolve().with_name("oracle.py")

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


def _import_module(path, fn, node):
    """A call of ``importlib.import_module`` outside the CLI command
    handlers and the package's lazy exports."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "import_module"
            and (path.name, getattr(fn, "name", "")) != ("__init__.py",
                                                         "__getattr__")
            and not (path.name == "cli.py"
                     and getattr(fn, "name", "").startswith("_cmd_")))


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += ["%s:%d" % (path.name, node.lineno)
                          for node in ast.walk(fn)
                          if (isinstance(node, (ast.Import, ast.ImportFrom))
                              and not _command_import(path, fn, node))
                          or _import_module(path, fn, node)]
    assert sorted(set(found)) == []


def test_oracle_imports_only_data_types_from_the_package():
    names = []
    for node in ast.walk(_tree(ORACLE)):
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
             if path.name != "space.py"
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute)
             and node.attr == "irredundant_covers"]
    assert found == []


def test_no_package_module_imports_dataclasses():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for node in ast.walk(_tree(path)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [node.module]
                     if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


NEVER_LOADED = ("dataclasses", "inspect", "argparse", "gettext", "locale")


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
    assert [m for m in loaded if m in NEVER_LOADED] == []


VALIDATE_LOADS = {"_records", "exactalg", "space", "modsheaf", "cli"}
ANNIHILATOR_LOADS = VALIDATE_LOADS | {"pairing"}
SYMPLECTIC_LOADS = ANNIHILATOR_LOADS | {"symplectic"}
SUITE_LOADS = ANNIHILATOR_LOADS | {"suites"}
PAIRING_SUITE_LOADS = SUITE_LOADS | {"pairing_suites"}
COMMAND_LOADS = [
    (["validate"], VALIDATE_LOADS),
    (["annihilator", "--pairing", "dot", "--sub", "L"], ANNIHILATOR_LOADS),
    (["classify", "--sub", "L"], SYMPLECTIC_LOADS),
    (["darboux", "--at", "p0"], SYMPLECTIC_LOADS),
    (["reduce", "--sub", "L"], SYMPLECTIC_LOADS),
    (["check", "--suite", "annihilator-theorem"], PAIRING_SUITE_LOADS),
    (["check", "--suite", "transpose"], PAIRING_SUITE_LOADS),
    (["check", "--suite", "hom-exactness"], PAIRING_SUITE_LOADS),
    (["check", "--suite", "completeness"],
     SUITE_LOADS | {"sheaf", "sheaf_suites"}),
    (["check", "--suite", "darboux"],
     SUITE_LOADS | {"symplectic", "symplectic_suites"}),
    (["check", "--suite", "reduction"],
     SUITE_LOADS | {"symplectic", "symplectic_suites"}),
]


@pytest.mark.parametrize("argv, loads", COMMAND_LOADS,
                         ids=[argv[0] + ("-" + argv[2] if argv[0] == "check"
                                         else "")
                              for argv, _ in COMMAND_LOADS])
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
    assert [m for m in modules if m in NEVER_LOADED] == []
    assert {m.split(".", 1)[1] for m in modules
            if m.startswith("sheafplectic.")} == loads


def test_compiled_lines_lists_what_each_call_loads():
    # one row per call on point_rank2.json: the call, its exit code, the
    # lines of its modules and the modules, which are those pinned above
    # plus the package's __init__ and __main__
    proc = subprocess.run([sys.executable, str(COMPILED_LINES)],
                          capture_output=True, text=True, check=True)
    rows = {}
    for line in proc.stdout.splitlines()[1:]:
        call, code, total, modules = re.fullmatch(
            r"(.*?) +exit (\d+) +([\d,]+) lines  (.*)", line).groups()
        modules = modules.split()
        assert code == "0"
        assert int(total.replace(",", "")) == sum(
            len((PKG / ("%s.py" % m)).read_text(encoding="utf-8").splitlines())
            for m in modules)
        rows[call] = set(modules) - {"__init__", "__main__"}
    assert rows == {" ".join(argv): loads for argv, loads in COMMAND_LOADS}


def test_the_readme_runs_every_tool_and_names_no_other():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Install and test\n\n```sh\n(.*?)```", text,
                      re.S).group(1)
    tools = {path.stem for path in COMPILED_LINES.parent.glob("*.py")}
    assert set(re.findall(r"^python tools/(\w+)\.py", block, re.M)) == tools
    assert set(re.findall(r"python tools/(\w+)\.py", text)) <= tools
