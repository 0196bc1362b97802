"""Record, or check, the exit code and stdout digest of a fixed list of CLI
calls, so that "every report is byte-identical" is a committed check.

Usage::

    python tools/parity.py            # rewrite tests/parity_digests.json
    python tools/parity.py --check    # compare against it

The calls are:

- every set-up, timed and known-defect call of one pass of the benchmark's
  ``lattice``, ``dense-q`` and ``dense-fp`` workloads at seeds 51 and 52,
  from the plans in ``perfbench/workloads.py``;
- every suite at ``--seed-rng`` 1, 7 and 8 on the shipped manifests and on
  a manifest with no points;
- ``validate`` on each manifest of ``MALFORMED``, which the validator
  refuses with exit 3;
- every suite at ``--seed-rng`` 7 on generated rank-8 manifests over Q and
  F_10007, on the 6-point discrete space and the 12-point chain.
- ``darboux`` at each point of ``NEGATIVE_PIVOT``, with and without
  ``--abs-normalize``.

Each call runs in this process through ``sheafplectic.cli.main``; its exit
code and the SHA-256 of its stdout are kept under a label made of the
manifest's file name and the arguments, never a temporary path.  With
``--check`` each label whose record moved is printed and the exit code is
1 if any did.  A change that alters a report, or a benchmark change to
``workloads.py``, regenerates the file and says which labels moved.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DIGESTS = REPO / "tests" / "parity_digests.json"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402
from sheafplectic import cli  # noqa: E402

ZERO_POINT = {"format": "sheafplectic-manifest/1",
              "space": {"points": [], "opens": [[]]}, "field": "Q", "rank": 2}

# the Sierpinski space at rank 4 over Q: the standard block at a, and at b
# the rank-2 form u ^ w, u = (1, 0, 1, 0), w = (0, -1, 0, 1), whose first
# pivot is negative; b lies outside a's minimal open
NEGATIVE_PIVOT = dict(
    ZERO_POINT, space={"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]},
    rank=4, form={
        "a": [["0", "1", "0", "0"], ["-1", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "-1", "0"]],
        "b": [["0", "-1", "0", "1"], ["1", "0", "1", "0"],
              ["0", "-1", "0", "1"], ["-1", "0", "-1", "0"]]})

# name -> bytes of a manifest the validator refuses with exit 3, one for
# each refusal that needs its own handling: not UTF-8, nested past the
# decoder's recursion, an integer literal past Python's 4,300 digits, and
# open sets whose members are not point names
MALFORMED = {
    "utf16": b"\xff\xfe" + json.dumps(ZERO_POINT).encode("utf-16-le"),
    "deep": b"[" * 200000,
    "long-integer": json.dumps(dict(
        ZERO_POINT, space={"points": ["p"], "opens": [[], ["p"]]},
        field={"Fp": 10007}, rank=1, pairings={"one": {"p": [[0]]}}),
    ).replace("[[0]]", "[[%s]]" % ("9" * 5000)).encode("utf-8"),
    "opens-members": json.dumps(dict(
        ZERO_POINT, space={"points": ["a"], "opens": [[], ["a", 1, None]]}),
    ).encode("utf-8"),
}


def _suites(path, seed_rngs):
    return [(path, ["check", "--suite", suite, "--seed-rng", str(s)])
            for s in seed_rngs for suite in workloads.SUITES]


def _pass(name, seed, workdir):
    """Every call of one pass of a workload: (prefix, manifest, argv)."""
    os.makedirs(workdir, exist_ok=True)
    plan = workloads.WORKLOADS[name](seed, workdir)
    return [("%s:%d" % (name, seed), call.manifest, call.argv)
            for call in plan.validates + plan.calls + plan.known_defects]


def slice_calls(workdir):
    """The fixed slice tier-1 checks: the shipped-manifest suites at
    ``--seed-rng`` 7 and one ``dense-q`` pass at seed 51."""
    calls = [("", path, argv) for shipped in workloads.SHIPPED
             for path, argv in _suites(shipped, [7])]
    return calls + _pass("dense-q", 51, workdir)


def all_calls(workdir):
    calls = []
    for name in workloads.WORKLOADS:
        for seed in (51, 52):
            calls += _pass(name, seed, os.path.join(workdir, name, str(seed)))
    zero = workloads._write(workdir, "zero_point", gen.Built(ZERO_POINT, {}))
    for path in workloads.SHIPPED + (zero,):
        calls += [("", p, argv) for p, argv in _suites(path, [1, 7, 8])]
    for name, data in MALFORMED.items():
        path = os.path.join(workdir, name + ".json")
        Path(path).write_bytes(data)
        calls.append(("", path, ["validate"]))
    for space_name, space in (("discrete6", gen.discrete_space(6)),
                              ("chain12", gen.chain_space(12))):
        for field in ("Q", "F"):
            built = gen.symplectic_manifest(random.Random(1), *space, field, 8)
            path = workloads._write(
                workdir, "%s-%s8" % (space_name, field.lower()), built)
            calls += [("", p, argv) for p, argv in _suites(path, [7])]
    path = workloads._write(workdir, "negative_pivot",
                            gen.Built(NEGATIVE_PIVOT, {}))
    calls += [("", path, ["darboux", "--at", x, *flag])
              for x in ("a", "b") for flag in ([], ["--abs-normalize"])]
    return calls


def run(manifest, argv):
    """Exit code and stdout digest of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["-m", manifest, *argv])
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(
                out.getvalue().encode("utf-8")).hexdigest()}


def digests(make_calls) -> dict:
    """Label -> record for the calls ``make_calls(workdir)`` builds."""
    with tempfile.TemporaryDirectory() as workdir:
        out = {}
        for prefix, manifest, argv in make_calls(workdir):
            label = " ".join(filter(None, [prefix, os.path.basename(manifest),
                                           *argv]))
            out[label] = run(manifest, argv)
        return out


def moved(found: dict, recorded: dict) -> list:
    """The labels of ``found`` whose record differs from ``recorded``."""
    return sorted(label for label, rec in found.items()
                  if recorded.get(label) != rec)


def main(argv) -> int:
    os.chdir(REPO)
    found = digests(all_calls)
    if "--check" not in argv:
        DIGESTS.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
        print("%d calls recorded in %s" % (len(found), DIGESTS.relative_to(REPO)))
        return 0
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    changed = moved(found, recorded) + sorted(set(recorded) - set(found))
    for label in changed:
        print(label)
    print("%d of %d calls moved" % (len(changed), len(recorded)))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
