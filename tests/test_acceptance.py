"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything is exact rational or prime-field arithmetic;
the stated wall-clock budgets are asserted.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from sheafplectic.exactalg import (
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    rank_of,
    subspace_intersection,
    subspace_sum,
)
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    Section,
    SubmoduleSheaf,
    intersect_submodules,
    sum_submodules,
)
from sheafplectic.pairing import (
    annihilator,
    induced_endomorphism,
    induced_pairing,
    left_annihilator,
    check_hom_exactness,
)
from sheafplectic.pairing_suites import rand_invariant_endo
from sheafplectic.sheaf import (
    check_completeness,
    constant_presheaf,
    sections_presheaf,
)
from sheafplectic.space import discrete
from sheafplectic.suites import (
    rand_invertible,
    rand_matrix,
    rand_nondegenerate_pairing,
    rand_space,
    rand_stalks,
)
from sheafplectic.symplectic import (
    SymplecticModule,
    classify,
    darboux,
    darboux_reconstructs,
    form_perp,
    form_rank,
    reduce,
    reduce_lagrangian,
    standard_form,
)
from sheafplectic.symplectic_suites import (
    nowhere_zero_lowered_covector,
    rand_coisotropic_with_lagrangian,
    rand_rankwise_form,
)

from oracle import (
    enum_annihilator,
    enum_rank,
    enum_submodule_sections,
    recompute_rank_via_minors,
)

REPO = Path(__file__).resolve().parents[1]


def _report(name, budget, started):
    elapsed = time.monotonic() - started
    print("[acceptance] %s: PASS in %.2fs (budget %ds)" % (name, elapsed, budget))
    assert elapsed < budget, "%s exceeded its %ds budget: %.2fs" % (
        name, budget, elapsed)


def _stalk_dims(f, u):
    return sum(f.stalks[x].dim for x in f.space.member_points(u))


def test_criterion_1_annihilator_theorem():
    started = time.monotonic()
    rng = random.Random(101)
    for _ in range(200):
        space = rand_space(rng, max_points=4)
        rank = rng.randint(1, 6)
        e = FreeModuleSheaf(space, QQ, rank)
        p = rand_nondegenerate_pairing(e, rng)
        g = rand_stalks(e, rng)
        h = rand_stalks(e, rng)
        perp_g = annihilator(p, g)
        perp_h = annihilator(p, h)
        # (a) dimension formula over every open
        for u in range(len(space.opens)):
            npts = len(space.member_points(u))
            assert _stalk_dims(g, u) + _stalk_dims(perp_g, u) == rank * npts
        # (b) double orthogonal returns the canonical stalks
        back = left_annihilator(p, perp_g)
        assert all(back.stalks[x] == g.stalks[x] for x in space.points)
        # (c) and (d): the two De Morgan laws
        s = sum_submodules([g, h])
        meet = intersect_submodules([g, h])
        pi = intersect_submodules([perp_g, perp_h])
        ps = sum_submodules([perp_g, perp_h])
        assert all(annihilator(p, s).stalks[x] == pi.stalks[x]
                   for x in space.points)
        assert all(annihilator(p, meet).stalks[x] == ps.stalks[x]
                   for x in space.points)
        # (e) inclusion reversal plus injectivity
        perp_s = annihilator(p, s)
        assert all(perp_s.stalks[x].is_subspace_of(perp_g.stalks[x])
                   for x in space.points)
        if any(g.stalks[x] != s.stalks[x] for x in space.points):
            assert any(perp_g.stalks[x] != perp_s.stalks[x]
                       for x in space.points)
        # (f) direct-sum splitting
        split = {x: rand_invertible(QQ, rng, rank) for x in space.points}
        cut = rng.randint(0, rank)
        ga = SubmoduleSheaf(e, {x: Subspace.span(QQ, rank, split[x].entries[:cut])
                                for x in space.points})
        gb = SubmoduleSheaf(e, {x: Subspace.span(QQ, rank, split[x].entries[cut:])
                                for x in space.points})
        pa, pb = annihilator(p, ga), annihilator(p, gb)
        for x in space.points:
            assert subspace_sum(pa.stalks[x], pb.stalks[x]) == \
                Subspace.full(QQ, rank)
            assert subspace_intersection(pa.stalks[x], pb.stalks[x]).dim == 0
    _report("criterion 1 (annihilator theorem, 200 instances)", 30, started)


def test_criterion_2_induced_structures():
    started = time.monotonic()
    rng = random.Random(202)
    for _ in range(50):
        space = rand_space(rng, max_points=4)
        rank = rng.randint(1, 6)
        e = FreeModuleSheaf(space, QQ, rank)
        p = rand_nondegenerate_pairing(e, rng)
        g = rand_stalks(e, rng)
        ip = induced_pairing(p, g)   # the construction checks nondegeneracy
        # (g) representative independence, on random shifted representatives
        full = space.index_of(space.points)
        for x in space.points:
            for v in g.stalks[x].basis:
                t = tuple(QQ.from_int(rng.randint(-3, 3)) for _ in range(rank))
                z = [QQ.zero] * rank
                for row in ip.perp.stalks[x].basis:
                    c = QQ.from_int(rng.randint(-3, 3))
                    z = [a + c * b for a, b in zip(z, row)]
                shifted = tuple(a + b for a, b in zip(t, z))
                sv = Section(space.minimal_open(x),
                             {y: (v if y == x else (QQ.zero,) * rank)
                              for y in space.member_points(space.minimal_open(x))})
                tv = Section(sv.over, {y: (t if y == x else (QQ.zero,) * rank)
                                       for y in sv.values})
                tv2 = Section(sv.over, {y: (shifted if y == x else (QQ.zero,) * rank)
                                        for y in sv.values})
                assert p.evaluate(sv, tv) == p.evaluate(sv, tv2)
        # (h) invariance of the orthogonal and the transposes identity
        endo = rand_invariant_endo(e, g, rng)
        res = induced_endomorphism(p, endo, g)  # verifies both internally
        for x in space.points:
            for w in res.pairing.perp.stalks[x].basis:
                assert res.pairing.perp.stalks[x].contains(
                    res.transpose.mats[x].mat_vec(w))
            lhs = res.pairing.pairing.gram[x] @ res.induced.mats[x]
            rhs = res.restricted.mats[x].transpose() @ res.pairing.pairing.gram[x]
            assert lhs.entries == rhs.entries
    _report("criterion 2 (induced structures, 50 instances)", 20, started)


def test_criterion_3_darboux():
    started = time.monotonic()
    rng = random.Random(303)
    seeded_done = 0
    for k in range(200):
        if k % 2 == 0:
            space = rand_space(rng, max_points=4)
            constant = True
        else:
            space = discrete(["p%d" % i for i in range(rng.randint(1, 3))])
            constant = False
        n = rng.randint(2, 8)
        r = 2 * rng.randint(1, n // 2)
        e = FreeModuleSheaf(space, QQ, n)
        w = rand_rankwise_form(e, rng, r, constant=constant)
        x = space.points[rng.randrange(len(space.points))]
        res = darboux(w, x)
        assert darboux_reconstructs(w, res)
        assert 2 * res.half_rank == form_rank(w, res.neighborhood) == r
        # covectors stay independent at every point of the neighbourhood
        for y in space.member_points(res.neighborhood):
            rows = [s.values[y] for pair in res.pairs for s in pair]
            assert rank_of(Matrix.from_rows(QQ, rows, cols=n)) == 2 * res.half_rank
        if seeded_done < 50 and constant:
            seed = nowhere_zero_lowered_covector(w, x)
            if seed is not None:
                sres = darboux(w, x, seed=seed)
                upts = space.member_points(sres.neighborhood)
                assert sres.pairs[0][1].values == {y: seed.values[y] for y in upts}
                assert darboux_reconstructs(w, sres)
                seeded_done += 1
    assert seeded_done >= 50
    _report("criterion 3 (Darboux, 200 instances, %d seeded)" % seeded_done,
            30, started)


def test_criterion_4_reduction():
    started = time.monotonic()
    rng = random.Random(404)
    for _ in range(100):
        space = rand_space(rng, max_points=4)
        n = 2 * rng.randint(1, 3)
        e = FreeModuleSheaf(space, QQ, n)
        sm = SymplecticModule(e, standard_form(e))
        f, g = rand_coisotropic_with_lagrangian(e, rng)
        assert classify(sm, f).coisotropic
        red = reduce(sm, f)   # construction verifies nondegeneracy of the form
        perp = form_perp(sm, f)
        for x in space.points:
            assert red.reduced_dim(x) == f.stalks[x].dim - perp.stalks[x].dim
            assert rank_of(red.reduced_form[x]) == red.reduced_dim(x)
        res = reduce_lagrangian(red, g)   # verifies isotropy internally
        for x in space.points:
            assert 2 * res.stalks[x].dim == red.reduced_dim(x)
            b = res.stalks[x].matrix()
            assert (b @ red.reduced_form[x] @ b.transpose()).is_zero()
    _report("criterion 4 (reduction, 100 instances)", 30, started)


def test_criterion_5_completeness():
    started = time.monotonic()
    rng = random.Random(505)
    for k in range(20):
        space = rand_space(rng, max_points=4)
        rank = rng.randint(1, 4)
        e = FreeModuleSheaf(space, QQ, rank)
        g = rand_stalks(e, rng)
        h = rand_stalks(e, rng)
        p = rand_nondegenerate_pairing(e, rng)
        construction = (g, annihilator(p, g), sum_submodules([g, h]),
                        intersect_submodules([g, h]))[k % 4]
        assert check_completeness(sections_presheaf(construction)).ok
    # and the classical failure, with its witness cover
    space = discrete(("a", "b"))
    rep = check_completeness(constant_presheaf(space, QQ, 1))
    assert rep.s2 is not None
    members = {frozenset(space.opens[m]) for m in rep.s2.cover.members}
    assert members == {frozenset("a"), frozenset("b")}
    _report("criterion 5 (completeness, 20 constructions + counterexample)",
            10, started)


def test_criterion_6_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(606)
    f2 = PrimeField(2)

    def section_set(sections):
        return {(s.over, tuple(sorted(s.values.items()))) for s in sections}

    for _ in range(50):
        space = rand_space(rng, max_points=2)
        rank = rng.randint(1, 3)
        e = FreeModuleSheaf(space, f2, rank)
        gram = {x: rand_matrix(f2, rng, rank, rank, 0, 1)
                for x in space.points}
        from sheafplectic.pairing import PairingSheaf
        p = PairingSheaf(e, e, gram)
        g = rand_stalks(e, rng)
        h = rand_stalks(e, rng)
        perp = annihilator(p, g)
        meet = intersect_submodules([g, h])
        for u in range(len(space.opens)):
            brute = enum_annihilator(p, g, u)
            assert section_set(brute) == \
                section_set(enum_submodule_sections(perp, u))
            both = [s for s in enum_submodule_sections(g, u)
                    if h.contains_section(s)]
            assert section_set(both) == \
                section_set(enum_submodule_sections(meet, u))
        m = rand_matrix(f2, rng, rng.randint(1, 3), rng.randint(1, 3), 0, 1)
        assert enum_rank(m) == rank_of(m)
    for _ in range(100):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(QQ, rng, r, c)
        assert recompute_rank_via_minors(m) == rank_of(m)
    _report("criterion 6 (oracle equivalence, 50 + 100 instances)", 60, started)


def test_criterion_7_hom_exactness():
    started = time.monotonic()
    rng = random.Random(707)
    for _ in range(25):
        space = rand_space(rng, max_points=3)
        rank = rng.randint(1, 3)
        e = FreeModuleSheaf(space, QQ, rank)
        f = rand_stalks(e, rng)
        probe = FreeModuleSheaf(space, QQ, rng.randint(0, 2))
        rep = check_hom_exactness(f, probe)
        assert rep.ok
        assert len(rep.opens) == len(space.opens)
    _report("criterion 7 (hom exactness, 25 triples)", 10, started)


def test_criterion_8_cli_end_to_end():
    started = time.monotonic()
    jobs = [
        ("manifests/point_rank2.json", ("classify", "--sub", "L"), 0),
        ("manifests/sierpinski_rank4.json", ("darboux", "--at", "a"), 0),
        ("manifests/discrete_f3.json",
         ("check", "--suite", "annihilator-theorem", "--seed-rng", "7"), 0),
    ]
    for manifest, cmd, expected in jobs:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "sheafplectic", "-m", manifest, *cmd],
                capture_output=True, cwd=REPO,
                env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
            assert proc.returncode == expected
            runs.append(proc.stdout)
        assert runs[0] == runs[1], "reports differ between runs for %s" % manifest
        for line in runs[0].decode().splitlines():
            json.loads(line)
    _report("criterion 8 (CLI end-to-end, 3 manifests)", 5, started)
