"""The three workloads: which manifests each one generates and which CLI
calls one pass makes, each with the outcome its construction implies.

A pass is a fixed list of calls; a run repeats whole passes, so every run
of a workload measures the same mix.  Sizes are fixed per workload and the
seed varies the manifests' entries (within a narrow band of entry sizes,
see ``gen.median_draw``), the random topologies (within a band of cover
counts) and the call order.  The suites' own random draws
use fixed ``--seed-rng`` values (1, 2, 3, ... in construction order),
because their cost depends on them far more than on the manifest.
"""

from __future__ import annotations

import itertools
import json
import os
import random

import gen

SUITES = ("completeness", "annihilator-theorem", "transpose", "hom-exactness",
          "darboux", "reduction")
SHIPPED = ("manifests/point_rank2.json", "manifests/discrete_f3.json",
           "manifests/sierpinski_rank4.json")

SIERPINSKI = (["a", "b"], [[], ["a"], ["a", "b"]])
DISCRETE2 = (["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
POINT = (["p0"], [[], ["p0"]])


class Call:
    """One CLI call and the outcome its manifest's construction implies:
    the exit code, the final record's verdict, and optionally some fields
    of that record."""

    def __init__(self, manifest, argv, exit_code=0, verdict="pass",
                 fields=None):
        self.manifest = manifest
        self.argv = list(argv)
        self.exit_code = exit_code
        self.verdict = verdict
        self.fields = fields or {}

    @property
    def label(self):
        return "%s %s" % (os.path.basename(self.manifest), " ".join(self.argv))


class Plan:
    def __init__(self, validates, calls, known_defects=()):
        self.validates = validates  # one validate call per manifest: set-up
        self.calls = calls  # one pass
        self.known_defects = list(known_defects)  # probed once per run


def _write(workdir, name, built):
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(built.doc, handle, indent=1)
    return path


def _suite(path, suite, seed_rng):
    return Call(path, ["check", "--suite", suite, "--seed-rng", str(seed_rng)])


def _expected_calls(path, facts, rng, commands):
    """Calls on a generated manifest, with outcomes from its facts."""
    points = facts["points"]
    n = facts["rank"]
    out = []
    for cmd in commands:
        if cmd == "validate":
            out.append(Call(path, ["validate"], fields={
                "points": len(points), "rank": n}))
        elif cmd.startswith("annihilator"):
            sub = cmd.split(":")[1]
            dims = {x: n - facts["subs"][sub][x] for x in points}
            out.append(Call(path, ["annihilator", "--pairing", "dot",
                                   "--sub", sub], verdict="value",
                            fields={"dims": dims}))
        elif cmd.startswith("classify"):
            sub = cmd.split(":")[1]
            lag = all(facts["subs"][sub][x] * 2 == n for x in points)
            out.append(Call(path, ["classify", "--sub", sub], verdict="value",
                            fields={"isotropic": lag, "coisotropic": True,
                                    "symplectic_sub": False,
                                    "lagrangian": lag}))
        elif cmd.startswith("darboux"):
            argv = ["darboux", "--at", points[rng.randrange(len(points))]]
            if cmd == "darboux:seed":
                argv += ["--seed", "t"]
            out.append(Call(path, argv, fields={
                "half_rank": facts["form_rank"] // 2,
                "neighborhood": sorted(points)}))
        elif cmd == "reduce:C":
            out.append(Call(path, ["reduce", "--sub", "C"], fields={
                "reduced_dims": facts["reduced_dims"]}))
        else:
            raise ValueError(cmd)
    return out


# ---------------------------------------------------------------------------
# cli-small: per-call overhead on tiny inputs, every command and option

# Outcomes of the shipped manifests, derived by hand from their contents.
_SHIPPED_CALLS = [
    ("point_rank2", ["validate"], 0, "pass", {"rank": 2}),
    ("point_rank2", ["annihilator", "--pairing", "dot", "--sub", "L"], 0,
     "value", {"dims": {"p0": 1}}),
    ("point_rank2", ["annihilator", "--pairing", "omega", "--sub", "zero"], 0,
     "value", {"dims": {"p0": 2}}),
    ("point_rank2", ["classify", "--sub", "L"], 0, "value",
     {"isotropic": True, "coisotropic": True, "lagrangian": True}),
    ("point_rank2", ["darboux", "--at", "p0", "--seed", "t"], 0, "pass",
     {"half_rank": 1}),
    ("point_rank2", ["darboux", "--at", "p0", "--seed", "S"], 1, "fail",
     {"error": "BadSeed"}),
    ("point_rank2", ["reduce", "--sub", "L"], 0, "pass",
     {"reduced_dims": {"p0": 0}}),
    ("point_rank2", ["reduce", "--sub", "zero"], 1, "fail",
     {"error": "NotCoisotropic"}),
    ("discrete_f3", ["validate"], 0, "pass", {"field": "F3"}),
    ("discrete_f3", ["annihilator", "--pairing", "dot", "--sub", "G"], 0,
     "value", {"dims": {"a": 1, "b": 1}}),
    ("discrete_f3", ["darboux", "--at", "a"], 0, "pass", {"half_rank": 1}),
    ("discrete_f3", ["darboux", "--at", "b", "--abs-normalize"], 1, "fail",
     {"error": "ValueError"}),
    ("discrete_f3", ["reduce", "--sub", "G"], 0, "pass",
     {"reduced_dims": {"a": 0, "b": 0}}),
    ("sierpinski_rank4", ["validate"], 0, "pass", {"opens": 3}),
    ("sierpinski_rank4", ["annihilator", "--pairing", "phi", "--sub", "F"], 0,
     "value", {"dims": {"a": 1, "b": 1}}),
    ("sierpinski_rank4", ["classify", "--sub", "F"], 0, "value",
     {"isotropic": False, "coisotropic": True, "lagrangian": False}),
    ("sierpinski_rank4", ["darboux", "--at", "a", "--abs-normalize"], 0,
     "pass", {"half_rank": 2}),
    ("sierpinski_rank4", ["reduce", "--sub", "F"], 0, "pass",
     {"reduced_dims": {"a": 2, "b": 2}}),
]

# Suites whose expected verdict on a degenerate form is "pass" but which
# fail at the time this benchmark was written (suites._pairing_sources
# keeps a degenerate manifest form).  They are probed once per run and
# reported on their own line.
DEGENERATE_DEFECT_SUITES = ("annihilator-theorem", "transpose")
DEGENERATE_SUITES = ("completeness", "reduction")  # timed in every pass


def _cli_surface(rng, seed_rngs, workdir):
    """Every command and option on the shipped manifests and on one with a
    degenerate form: light calls, mostly start-up, import and parsing.
    Returns the validate calls, the timed calls and the known defects."""
    shipped = {os.path.basename(p)[:-5]: p for p in SHIPPED}
    table = [Call(shipped[m], argv, code, verdict, fields)
             for m, argv, code, verdict, fields in _SHIPPED_CALLS]
    validates = [call for call in table if call.argv == ["validate"]]
    calls = [call for call in table if call.argv != ["validate"]]
    # rank 3 with a form of rank 2: valid, but not symplectic
    field = rng.choice(("Q", "F"))
    degen = gen.symplectic_manifest(rng, *DISCRETE2, field, 3, form_rank=2)
    dpath = _write(workdir, "degenerate", degen)
    validates += _expected_calls(dpath, degen.facts, rng, ["validate"])
    calls += _expected_calls(dpath, degen.facts, rng,
                             ["annihilator:G", "darboux"])
    calls.append(Call(dpath, ["classify", "--sub", "G"], 1, "fail",
                      {"error": "ValueError"}))
    # every suite on two of the shipped manifests, each with its own
    # --seed-rng, and two on the degenerate one
    for k, suite in enumerate(SUITES):
        for path in (SHIPPED[k % 3], SHIPPED[(k + 1) % 3]):
            calls.append(_suite(path, suite, next(seed_rngs)))
    for suite in DEGENERATE_SUITES:
        calls.append(_suite(dpath, suite, next(seed_rngs)))
    defects = [_suite(dpath, s, 1) for s in DEGENERATE_DEFECT_SUITES]
    return validates, calls, defects


# ---------------------------------------------------------------------------
# lattice: cover enumeration and the sheaf axioms on dense topologies, plus
# the light calls of the CLI surface

COVER_BAND = (45, 55)  # total irredundant covers of a random topology


def _banded_space(rng, n):
    while True:
        points, opens = gen.random_space(rng, n, 10, 40)
        if COVER_BAND[0] <= gen.irredundant_cover_count(opens) <= COVER_BAND[1]:
            return points, opens


# (name, space, field, rank): completeness runs on every manifest and
# hom-exactness on every other one.  The light calls of the CLI surface
# are most of a pass on purpose, so the median call sits inside a cluster
# of similar costs and does not jump between call types from run to run.
_LATTICE = (
    ("discrete3-q2", lambda rng: gen.discrete_space(3), "Q", 2),
    ("discrete4-f2", lambda rng: gen.discrete_space(4), "F", 2),
    ("discrete4-q1", lambda rng: gen.discrete_space(4), "Q", 1),
    ("chain12-f1", lambda rng: gen.chain_space(12), "F", 1),
    ("chain8-q2", lambda rng: gen.chain_space(8), "Q", 2),
    ("random6-q1", lambda rng: _banded_space(rng, 6), "Q", 1),
    ("random7-f1", lambda rng: _banded_space(rng, 7), "F", 1),
)


def lattice(seed, workdir):
    rng = random.Random("lattice:%d" % seed)
    seed_rngs = itertools.count(1)
    validates, calls, defects = _cli_surface(rng, seed_rngs, workdir)
    for k, (name, space, field, rank) in enumerate(_LATTICE):
        points, opens = space(rng)
        built = gen.symplectic_manifest(rng, points, opens, field, rank)
        path = _write(workdir, name, built)
        validates += _expected_calls(path, built.facts, rng, ["validate"])
        calls.append(_suite(path, "completeness", next(seed_rngs)))
        if k % 2 == 0:
            calls.append(_suite(path, "hom-exactness", next(seed_rngs)))
    rng.shuffle(calls)
    return Plan(validates, calls, defects)


# ---------------------------------------------------------------------------
# dense-q / dense-fp: exact elimination on large stalks

_DENSE_SUITES = (("s4", "completeness"), ("s4", "hom-exactness"),
                 ("s6", "darboux"), ("s6", "reduction"),
                 ("d8", "annihilator-theorem"), ("d8", "transpose"),
                 ("d8", "darboux"))
# The p12 and p16 calls are light on purpose: with them more than half of
# a pass, the median call sits inside a cluster of similar costs and does
# not jump between call types from run to run.
_DENSE_SINGLES = (("p12", ["darboux", "darboux:seed", "classify:C",
                           "annihilator:L", "reduce:C"]),
                  ("p16", ["darboux", "darboux:seed", "classify:C",
                           "annihilator:C", "reduce:C"]),
                  ("p24", ["darboux", "classify:C", "reduce:C"]),
                  ("p32", ["darboux"]),
                  ("p40", ["darboux"]))


def dense(seed, workdir, field):
    tag = "dense-%s" % ("q" if field == "Q" else "fp")
    rng = random.Random("%s:%d" % (tag, seed))
    shapes = {"s4": (SIERPINSKI, 4), "s6": (SIERPINSKI, 6),
              "d8": (DISCRETE2, 8), "p12": (POINT, 12), "p16": (POINT, 16),
              "p24": (POINT, 24),
              "p32": (POINT, 32), "p40": (POINT, 40)}
    built = {key: gen.symplectic_manifest(rng, *space, field, rank)
             for key, (space, rank) in shapes.items()}
    paths = {key: _write(workdir, "%s-%s" % (tag, key), b)
             for key, b in built.items()}
    calls = [_suite(paths[key], suite, k)
             for k, (key, suite) in enumerate(_DENSE_SUITES, 1)]
    for key, cmds in _DENSE_SINGLES:
        calls += _expected_calls(paths[key], built[key].facts, rng, cmds)
    validates = [call for key in shapes for call in _expected_calls(
        paths[key], built[key].facts, rng, ["validate"])]
    rng.shuffle(calls)
    return Plan(validates, calls)


WORKLOADS = {
    "lattice": lattice,
    "dense-q": lambda seed, workdir: dense(seed, workdir, "Q"),
    "dense-fp": lambda seed, workdir: dense(seed, workdir, "F"),
}
