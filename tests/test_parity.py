"""Reports stay byte-identical: a fixed slice of the calls of
``tools/parity.py`` (the shipped-manifest suites at ``--seed-rng`` 7 and one
``dense-q`` pass at seed 51) against ``parity_digests.json``, in this
process and in two child processes under different hash seeds."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "tools"))

import parity  # noqa: E402

RECORDED = json.loads(parity.DIGESTS.read_text(encoding="utf-8"))
PROBE = ("import json, sys; sys.path.insert(0, 'tools'); import parity; "
         "print(json.dumps(parity.digests(parity.slice_calls)))")


def test_the_slice_matches_the_recorded_digests(monkeypatch):
    monkeypatch.chdir(REPO)
    found = parity.digests(parity.slice_calls)
    assert len(found) > 18
    assert parity.moved(found, RECORDED) == []


def test_the_slice_is_the_same_under_two_hash_seeds():
    found = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", PROBE], cwd=REPO,
                              env=dict(os.environ, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, check=True)
        found.append(json.loads(proc.stdout))
    assert found[0] == found[1]
    assert parity.moved(found[0], RECORDED) == []
