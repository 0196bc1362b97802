"""Print the package modules that each command and each check suite loads,
and their total source lines.

Usage::

    python tools/compiled_lines.py [MANIFEST]

MANIFEST defaults to ``manifests/point_rank2.json``.  Each call (every
command, then ``check --suite`` for every suite in ``cli.SUITES``) runs in
a fresh interpreter as ``python -m sheafplectic`` runs it.  The commands
take the manifest's first pairing, sub-module and point by name.  The
modules a call loaded are read off ``sys.modules`` when it ends; the
package's ``__main__``, which ``runpy`` executes without keeping it there,
is counted too.  Without a bytecode cache (``PYTHONDONTWRITEBYTECODE=1``)
a call compiles each of them, so the total is the "lines compiled" column
of the README's start-up table.

One line per call: the call, its exit code, the line total and the
modules.  The exit code is 1 if a call ended with a code other than 0
(pass) or 1 (a mathematical fail), 0 otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PKG = REPO / "src" / "sheafplectic"
sys.path.insert(0, str(REPO / "src"))

from sheafplectic.cli import SUITES  # noqa: E402

# runs the command line given after it as ``python -m sheafplectic`` would
# and writes its exit code and loaded package modules on stderr
PROBE = """
import json, runpy, sys
sys.argv[0] = "sheafplectic"
try:
    runpy.run_module("sheafplectic", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
names = [m for m in sys.modules
         if m == "sheafplectic" or m.startswith("sheafplectic.")]
print(json.dumps([code, names]), file=sys.stderr)
"""


def calls(manifest: Path) -> list:
    """Each command line, with the manifest's first names, and each suite."""
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    pairing = min(doc.get("pairings", {}), default="none")
    sub = min(doc.get("submodules", {}), default="none")
    point = (doc["space"]["points"] or ["none"])[0]
    return [["validate"],
            ["annihilator", "--pairing", pairing, "--sub", sub],
            ["classify", "--sub", sub],
            ["darboux", "--at", point],
            ["reduce", "--sub", sub]] + \
        [["check", "--suite", suite] for suite in SUITES]


def source_file(module: str) -> Path:
    """The file of a package module: ``sheafplectic`` is ``__init__.py``."""
    _, _, name = module.partition(".")
    return PKG / ("%s.py" % (name or "__init__"))


def loads(manifest: Path, argv: list):
    """The exit code of one call and the package modules it loaded,
    ``__main__`` included, by their names in the package."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, "-m", str(manifest)]
                          + argv, env=env, capture_output=True, text=True)
    code, names = json.loads(proc.stderr.splitlines()[-1])
    return code, sorted({"__main__"} | {source_file(m).stem for m in names})


def lines(module: str) -> int:
    return len((PKG / ("%s.py" % module)).read_text(
        encoding="utf-8").splitlines())


def main(argv) -> int:
    manifest = Path(argv[0]) if argv else \
        REPO / "manifests" / "point_rank2.json"
    worst = 0
    print("# %s" % manifest.name)
    for call in calls(manifest):
        code, modules = loads(manifest, call)
        worst = max(worst, code)
        print("%-34s exit %d %6s lines  %s"
              % (" ".join(call), code,
                 "{:,}".format(sum(map(lines, modules))), " ".join(modules)))
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
