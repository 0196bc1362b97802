"""Static checks on the package source.

Imports happen at module level only, so a module's dependencies are all
visible at its top.  The oracle imports nothing from the main modules but
data types, so the paths it cross-checks are never shared with it.  How a
scalar is represented is known to ``exactalg`` alone: no other module
imports ``fractions``, names ``FpElement`` (bar the package's re-export) or
reads ``.numerator`` / ``.denominator``.  Cover enumeration
(``.irredundant_covers``) is for the oracle only: the sheaf checks work on
minimal covers, so the oracle's cover-by-cover check stays independent.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "sheafplectic"

ORACLE_MAY_IMPORT = {"Field", "Matrix", "PrimeField", "Subspace",
                     "ExplicitPresheaf", "Section", "SubmoduleSheaf",
                     "PairingSheaf"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PKG.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += ["%s:%d" % (path.name, node.lineno)
                          for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
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
