"""Static checks on the package source.

Imports happen at module level only, so a module's dependencies are all
visible at its top.  The oracle imports nothing from the main modules but
data types, so the paths it cross-checks are never shared with it.
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
