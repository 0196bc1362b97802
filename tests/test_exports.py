"""The package's names load on first use and are the defining modules' own."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sheafplectic

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sheafplectic.__all__)
def test_export_is_the_defining_modules_object(name):
    home = importlib.import_module("sheafplectic." + sheafplectic._HOME[name])
    value = getattr(sheafplectic, name)
    assert value is getattr(home, name)
    if isinstance(value, (type, types.FunctionType)):
        assert value.__module__ == home.__name__


def test_dir_lists_every_export():
    assert set(sheafplectic.__all__) <= set(dir(sheafplectic))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(sheafplectic, "no_such_name")
    assert not hasattr(sheafplectic, "no_such_name")


def test_submodule_by_name():
    assert getattr(sheafplectic, "pairing") is \
        importlib.import_module("sheafplectic.pairing")


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library example\n\n```python\n(.*?)```", readme,
                        re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", snippet], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["True", "2"]
