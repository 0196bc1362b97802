"""Guards, postconditions and the suites' failure and skip branches, each
run in process.

Malformed input to the library raises a named error with a fixed message;
there is one parametrized test per module.  The ``RuntimeError``
postconditions check what the kernels answered: each is tripped by
patching one kernel to answer wrongly, and where a command runs it, the
command line reports it as an internal error, exit code 4.  The suites'
failure branches are reached the same way, and each test names exactly
the checks that fail.
"""

import json
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from sheafplectic import (modsheaf, pairing, pairing_suites, symplectic,
                          symplectic_suites)
from sheafplectic.cli import main, parse_manifest
from sheafplectic.exactalg import (
    AmbientMismatch,
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    coordinates,
    echelon_complement,
    inverse,
    orthogonal_complement,
    solve,
)
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    PairingSheaf,
    ParentMismatch,
    QuotientSheaf,
    Section,
    SubmoduleSheaf,
    TwoFormSheaf,
    full_submodule,
    intersect_submodules,
    quotient,
    sum_submodules,
    zero_submodule,
)
from sheafplectic.pairing import (
    Degenerate,
    canonical_pairing,
    check_hom_exactness,
    induced_endomorphism,
    induced_pairing,
    quotient_dual_iso,
)
from sheafplectic.sheaf import (
    ExplicitPresheaf,
    glue,
    restrict_section,
    sheafify,
)
from sheafplectic.space import Cover, FiniteSpace, UnknownPoint, sierpinski
from sheafplectic.symplectic import (
    BadSeed,
    ReducedModule,
    SymplecticModule,
    darboux,
    flat,
    form_perp,
    form_rank,
    lagrangian_complement,
    reduce,
    reduce_lagrangian,
    standard_form,
)

MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
F3 = PrimeField(3)
ONE = FiniteSpace(("p",), [(), ("p",)])
E2 = FreeModuleSheaf(ONE, QQ, 2)
E3 = FreeModuleSheaf(ONE, QQ, 3)
E4 = FreeModuleSheaf(ONE, QQ, 4)


def qmat(rows):
    return Matrix.from_rows(QQ, [[F(a) for a in r] for r in rows])


def sub(e, rows):
    """The sub-sheaf of ``e`` spanned by ``rows`` at its one point."""
    return SubmoduleSheaf(e, {"p": Subspace.span(
        QQ, e.rank, [[F(a) for a in r] for r in rows])})


J2 = qmat([[0, 1], [-1, 0]])
W2 = standard_form(E2)
SM2 = SymplecticModule(E2, W2)
SM4 = SymplecticModule(E4, standard_form(E4))
S0 = Section(0, {})
S1 = Section(1, {"p": (F(1), F(0))})
SIERPINSKI = FreeModuleSheaf(sierpinski(), QQ, 2)
# rank 2 at a, rank 4 at b, whose minimal open holds a: a replay that
# stops after one step lets a into b's neighbourhood
RANK_JUMP = TwoFormSheaf(FreeModuleSheaf(sierpinski(), QQ, 4), {
    "a": qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
    "b": qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])})
REAL_REPLAY = symplectic._replay


def raises_exactly(thunk, error, message):
    with pytest.raises(error) as info:
        thunk()
    assert type(info.value) is error
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# malformed input

@pytest.mark.parametrize("thunk, error, message", [
    pytest.param(lambda: Matrix.from_rows(QQ, [[F(1)], [F(1), F(2)]]),
                 ValueError, "ragged rows", id="ragged"),
    pytest.param(lambda: Matrix.from_rows(QQ, [[F(1)]], cols=2),
                 ValueError, "declared cols 2 != row width 1", id="cols"),
    pytest.param(lambda: Matrix.from_rows(QQ, []), ValueError,
                 "empty matrix needs an explicit column count", id="empty"),
    pytest.param(lambda: J2 @ qmat([[1]]), ValueError,
                 "shape mismatch: 2x2 @ 1x1", id="matmul"),
    pytest.param(lambda: J2 + qmat([[1]]), ValueError,
                 "shape mismatch in matrix sum", id="add"),
    pytest.param(lambda: J2.mat_vec((F(1),)), ValueError,
                 "vector length 1 != cols 2", id="mat-vec"),
    pytest.param(lambda: J2.vec_mat((F(1),)), ValueError,
                 "vector length 1 != rows 2", id="vec-mat"),
    pytest.param(lambda: Subspace.span(QQ, 2, [[F(1)]]), AmbientMismatch,
                 "row length 1 != ambient 2", id="span"),
    pytest.param(lambda: solve(J2, (F(1),)), ValueError,
                 "rhs length 1 != rows 2", id="solve"),
    pytest.param(lambda: coordinates(Subspace.full(QQ, 2), [(F(1),)]),
                 AmbientMismatch, "vector length 1 != ambient 2",
                 id="coordinates"),
    pytest.param(lambda: orthogonal_complement(Subspace.full(QQ, 2),
                                               qmat([[1]])),
                 AmbientMismatch, "gram is 1x1, ambient is 2", id="gram"),
    pytest.param(lambda: echelon_complement(Subspace.full(QQ, 2),
                                            Subspace.zero(QQ, 2)),
                 AmbientMismatch, "subspace is not inside the enclosing space",
                 id="complement"),
])
def test_exactalg_rejects_malformed_input(thunk, error, message):
    raises_exactly(thunk, error, message)


def test_a_matrix_that_is_not_square_is_neither_skew_nor_invertible():
    assert not qmat([[0, 1]]).is_skew()
    assert inverse(qmat([[0, 1]])) is None


def _not_functorial():
    """On the V (a below b and c), one dimension over each nonempty open and
    identity restrictions, except that (ac -> a) is zero: the germs of a
    section over abc on ab and ac then disagree on a."""
    space = FiniteSpace(("a", "b", "c"), [(), ("a",), ("a", "b"), ("a", "c"),
                                          ("a", "b", "c")])
    dims = [0, 1, 1, 1, 1]
    return ExplicitPresheaf(space, QQ, dims, {
        (u, v): qmat([[0]]) if (u, v) == (3, 1) else
        Matrix.identity(QQ, 1) if dims[v] else Matrix.zeros(QQ, 0, dims[u])
        for u, big in enumerate(space.opens)
        for v, small in enumerate(space.opens) if small <= big})


def test_functoriality_failures_name_each_chain():
    assert _not_functorial().functoriality_failures() == [(4, 3, 1)]


@pytest.mark.parametrize("thunk, error, message", [
    pytest.param(lambda: S0 + S1, ValueError, "sections over different opens",
                 id="add"),
    pytest.param(lambda: restrict_section(ONE, S0, 1), ValueError,
                 "restriction target is not inside the section's open",
                 id="restrict"),
    pytest.param(lambda: glue(ONE, Cover(1, (1,)), []), ValueError,
                 "one local section per cover member required", id="glue-count"),
    pytest.param(lambda: glue(ONE, Cover(1, (0,)), [S0]), ValueError,
                 "cover members do not cover the target", id="glue-cover"),
    pytest.param(lambda: sum_submodules([]), ValueError,
                 "need at least one sub-sheaf", id="fold-empty"),
    pytest.param(lambda: intersect_submodules([full_submodule(E2),
                                               full_submodule(E3)]),
                 ParentMismatch, "sub-sheaves of different parents",
                 id="fold-parents"),
    pytest.param(lambda: MorphismSheaf(E2, E2, {"p": Matrix.zeros(QQ, 2, 2)})
                 .inverse(), ValueError,
                 "morphism is not invertible at point 'p'", id="inverse"),
    pytest.param(lambda: PairingSheaf(E2, SIERPINSKI, {}), ParentMismatch,
                 "pairing sides live on different spaces", id="pairing-spaces"),
    pytest.param(lambda: W2.evaluate(S0, S1), ValueError,
                 "sections live over different opens", id="evaluate"),
    pytest.param(lambda: quotient(zero_submodule(E2), full_submodule(E3)),
                 ParentMismatch, "enclosing sub-sheaf lives in another sheaf",
                 id="within"),
    pytest.param(lambda: quotient(full_submodule(E2), zero_submodule(E2)),
                 ParentMismatch,
                 "stalk at 'p' is not inside the enclosing stalk", id="inside"),
    pytest.param(lambda: sheafify(_not_functorial()), ValueError,
                 "section germs are not compatible families; presheaf is not "
                 "functorial", id="sheafify"),
])
def test_sheaf_rejects_malformed_input(thunk, error, message):
    raises_exactly(thunk, error, message)


@pytest.mark.parametrize("thunk, error, message", [
    pytest.param(lambda: induced_pairing(
        PairingSheaf(E2, E2, {"p": Matrix.zeros(QQ, 2, 2)}), full_submodule(E2)),
        Degenerate, "pairing is degenerate at 'p'", id="induced-degenerate"),
    pytest.param(lambda: induced_pairing(canonical_pairing(E2),
                                         full_submodule(E3)),
                 ParentMismatch, "sub-sheaf does not live in the left side",
                 id="induced-parent"),
    pytest.param(lambda: check_hom_exactness(
        full_submodule(E2), FreeModuleSheaf(ONE, F3, 1)), ParentMismatch,
        "probe lives on a different space or field", id="probe"),
])
def test_pairing_rejects_malformed_input(thunk, error, message):
    raises_exactly(thunk, error, message)


@pytest.mark.parametrize("thunk, error, message", [
    pytest.param(lambda: FiniteSpace(("a", "a"), [()]), ValueError,
                 "duplicate point names", id="duplicate"),
    pytest.param(lambda: FiniteSpace(("a",), [("b",)]), UnknownPoint,
                 "open set names unknown point 'b'", id="unknown"),
    pytest.param(lambda: ONE.index_of(("q",)), ValueError,
                 "['q'] is not an open set of this space", id="not-open"),
])
def test_space_rejects_malformed_input(thunk, error, message):
    raises_exactly(thunk, error, message)


@pytest.mark.parametrize("thunk, error, message", [
    pytest.param(lambda: form_rank(W2, 0), ValueError,
                 "rank over the empty open is undefined", id="empty-open"),
    pytest.param(lambda: darboux(W2, "q"), UnknownPoint, "q",
                 id="unknown-point"),
    pytest.param(lambda: darboux(
        TwoFormSheaf(FreeModuleSheaf(ONE, F3, 2), {"p": Matrix.from_rows(
            F3, [[F3.zero, F3.one], [-F3.one, F3.zero]])}),
        "p", abs_normalize=True), ValueError,
        "absolute-value normalization needs an ordered field", id="unordered"),
    pytest.param(lambda: darboux(
        TwoFormSheaf(SIERPINSKI, {"a": J2, "b": J2}), "b",
        seed=Section(1, {"a": (F(1), F(0))})), BadSeed,
        "seed is not defined at 'b'", id="seed-open"),
    pytest.param(lambda: darboux(W2, "p", seed=Section(1, {"p": (F(1),)})),
                 BadSeed, "seed row at 'p' has wrong length", id="seed-length"),
    pytest.param(lambda: SymplecticModule(E2, standard_form(E4)),
                 ParentMismatch, "form lives on a different module",
                 id="module"),
    pytest.param(lambda: standard_form(E3), ValueError,
                 "standard form needs even rank", id="odd-rank"),
    pytest.param(lambda: form_perp(SM2, full_submodule(E3)), ParentMismatch,
                 "sub-sheaf does not live in the left side", id="perp"),
])
def test_symplectic_rejects_malformed_input(thunk, error, message):
    raises_exactly(thunk, error, message)


# ---------------------------------------------------------------------------
# postconditions: one kernel answers wrongly

def _double(m):
    return None if m is None else m + m


def _quotient_by_zero(f, within=None):
    """The quotient that ``quotient`` gives with no denominator."""
    return REAL["modsheaf.quotient"](zero_submodule(f.parent), within)


def _with_proj(quot, proj, complements=None):
    """``quot`` with its projection (and complements) replaced."""
    return QuotientSheaf(quot.parent, quot.by, quot.within,
                         quot.complements if complements is None else complements,
                         quot.proj.map(lambda x, q: proj(q)))


def _repeated_projection(f):
    """The quotient by ``f`` with the whole stalk as its complement and each
    row of the projection taken twice."""
    return _with_proj(REAL["modsheaf.quotient"](f), lambda q: Matrix.from_rows(
        q.field, q.entries * 2, cols=q.cols), _quotient_by_zero(f).complements)


def _reduced(red, quotient=None, reduced_form=None):
    """``red`` with its quotient or its reduced form replaced."""
    return ReducedModule(
        red.source, red.by, red.perp,
        red.quotient if quotient is None else quotient,
        red.reduced_form if reduced_form is None else reduced_form)


def _identity_form(sm, f):
    red = REAL["symplectic.reduce"](sm, f)
    return _reduced(red, reduced_form=red.reduced_form.map(
        lambda x, g: Matrix.identity(g.field, g.rows)))


def _zero_projection(sm, f):
    red = REAL["symplectic.reduce"](sm, f)
    return _reduced(red, quotient=_with_proj(
        red.quotient, lambda q: Matrix.zeros(q.field, q.rows, q.cols)))


def _scaled(s, k):
    """``s`` with each basis vector times ``k``: no longer canonical."""
    return Subspace(s.field, s.ambient_dim,
                    tuple(tuple(s.field.from_int(k) * a for a in v) for v in s.basis))


REAL = {"modsheaf.quotient": modsheaf.quotient,
        "modsheaf.echelon_projection": modsheaf.echelon_projection,
        "modsheaf.echelon_complement": modsheaf.echelon_complement,
        "pairing.coordinates": pairing.coordinates,
        "symplectic.reduce": symplectic.reduce}

# sub-sheaves of E2 and E4 that the calls below take
LINE = sub(E2, [[1, 0]])
LAGRANGIAN4 = sub(E4, [[1, 0, 0, 1], [0, 1, 1, 0]])
COISOTROPIC4 = sub(E4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
IDENTITY2 = MorphismSheaf(E2, E2, {"p": Matrix.identity(QQ, 2)})

POSTCONDITIONS = [
    # (module, name, wrong kernel, library call, message, command line)
    pytest.param(
        modsheaf, "echelon_projection",
        lambda s, c: REAL["modsheaf.echelon_projection"](_scaled(s, -1), c),
        lambda: quotient(sub(E2, [[1, 1]])),
        "projection does not kill the denominator at 'p'",
        ["sierpinski_rank4.json", "check", "--suite", "hom-exactness"],
        id="quotient-proj"),
    pytest.param(
        modsheaf, "echelon_complement",
        lambda s, within=None: _scaled(REAL["modsheaf.echelon_complement"](s, within), 2),
        lambda: quotient(LINE),
        "projection is not the identity on the complement at 'p'",
        ["sierpinski_rank4.json", "reduce", "--sub", "F"],
        id="quotient-complement"),
    pytest.param(
        pairing, "quotient", _quotient_by_zero,
        lambda: induced_pairing(canonical_pairing(E2), LINE),
        "induced pairing failed to be nondegenerate at 'p'",
        ["discrete_f3.json", "check", "--suite", "annihilator-theorem"],
        id="induced-pairing"),
    pytest.param(
        pairing, "transpose_endomorphism", lambda p, s: s,
        lambda: induced_endomorphism(canonical_pairing(E2), MorphismSheaf(
            E2, E2, {"p": qmat([[1, 1], [0, 1]])}), LINE),
        "annihilator failed to be invariant at 'p'",
        ["sierpinski_rank4.json", "check", "--suite", "annihilator-theorem"],
        id="perp-invariant"),
    pytest.param(
        pairing, "quotient", lambda f: _with_proj(REAL["modsheaf.quotient"](f),
                                                  lambda q: q + q),
        lambda: induced_endomorphism(canonical_pairing(E2), IDENTITY2, LINE),
        "induced map does not commute with projection at 'p'",
        ["discrete_f3.json", "check", "--suite", "annihilator-theorem"],
        id="induced-commutes"),
    pytest.param(
        pairing, "coordinates",
        lambda s, vs: _double(REAL["pairing.coordinates"](s, vs)),
        lambda: induced_endomorphism(canonical_pairing(E2), IDENTITY2, LINE),
        "induced maps are not transposes at 'p'",
        ["discrete_f3.json", "check", "--suite", "annihilator-theorem"],
        id="induced-transposes"),
    pytest.param(
        pairing, "annihilator", lambda p, f: zero_submodule(p.right),
        lambda: quotient_dual_iso(LINE),
        "dual of the quotient missed the annihilator at 'p'", None,
        id="dual-image"),
    pytest.param(
        pairing, "quotient", _repeated_projection,
        lambda: quotient_dual_iso(LINE),
        "quotient dual map is not injective at 'p'", None, id="dual-injective"),
    pytest.param(
        symplectic, "coordinates", lambda s, vs: None, lambda: flat(W2),
        "lowered representative escaped the image at 'p'", None,
        id="flat-image"),
    pytest.param(
        symplectic, "rank_of", lambda m: -1, lambda: flat(W2),
        "quotient-image comparison is singular at 'p'", None, id="flat-iso"),
    pytest.param(
        symplectic, "rank_of", lambda m: -1, lambda: darboux(W2, "p"),
        "rank mismatch on the returned neighbourhood at 'p'",
        ["sierpinski_rank4.json", "darboux", "--at", "a"], id="darboux-rank"),
    pytest.param(
        symplectic, "_replay",
        lambda a, steps, seed_row: REAL_REPLAY(a, steps[:1], seed_row),
        lambda: darboux(RANK_JUMP, "b"),
        "rank mismatch on the returned neighbourhood at 'a'", None,
        id="darboux-lower-rank"),
    pytest.param(
        symplectic, "kernel_basis", lambda m: Subspace.zero(m.field, m.cols),
        lambda: lagrangian_complement(SM2, LINE),
        "complement construction got stuck at 'p'",
        ["point_rank2.json", "classify", "--sub", "L"], id="complement-stuck"),
    pytest.param(
        symplectic, "kernel_basis", lambda m: Subspace.full(m.field, m.cols),
        lambda: lagrangian_complement(SM4, LAGRANGIAN4),
        "complement is not isotropic at 'p'", None, id="complement-isotropic"),
    pytest.param(
        symplectic, "subspace_intersection", lambda a, b: a,
        lambda: lagrangian_complement(SM2, LINE),
        "complement meets the sub-sheaf at 'p'",
        ["point_rank2.json", "classify", "--sub", "L"], id="complement-meets"),
    pytest.param(
        Matrix, "is_skew", lambda self: False,
        lambda: reduce(SM2, full_submodule(E2)),
        "reduced form not alternating at 'p'", None, id="reduced-skew"),
    pytest.param(
        symplectic, "quotient", _quotient_by_zero,
        lambda: reduce(SM2, LINE), "reduced form degenerate at 'p'",
        ["point_rank2.json", "reduce", "--sub", "L"], id="reduced-rank"),
    pytest.param(
        symplectic_suites, "reduce", _identity_form,
        lambda: reduce_lagrangian(symplectic_suites.reduce(SM4, COISOTROPIC4),
                                  sub(E4, [[1, 0, 0, 0], [0, 0, 1, 0]])),
        "projected Lagrangian is not isotropic at 'p'",
        ["sierpinski_rank4.json", "check", "--suite", "reduction"],
        id="lagrangian-isotropic"),
    pytest.param(
        symplectic_suites, "reduce", _zero_projection,
        lambda: reduce_lagrangian(symplectic_suites.reduce(SM4, COISOTROPIC4),
                                  sub(E4, [[1, 0, 0, 0], [0, 0, 1, 0]])),
        "projected Lagrangian has wrong dimension at 'p'",
        ["sierpinski_rank4.json", "check", "--suite", "reduction"],
        id="lagrangian-dimension"),
]


@pytest.mark.parametrize("module, name, wrong, call, message, argv",
                         POSTCONDITIONS)
def test_a_wrong_kernel_trips_the_postcondition(monkeypatch, capsys, module,
                                                name, wrong, call, message,
                                                argv):
    monkeypatch.setattr(module, name, wrong)
    raises_exactly(call, RuntimeError, message)
    if argv is not None:
        code = main(["-m", str(MANIFESTS / argv[0]), *argv[1:]])
        rec = json.loads(capsys.readouterr().out)
        assert code == 4
        assert (rec["verdict"], rec["error"]) == ("error", "RuntimeError")
        assert rec["witness"].startswith(message.split(" at '")[0])


# ---------------------------------------------------------------------------
# the suites' failure and skip branches

def _ctx(points, opens, rank, **sections):
    return parse_manifest(json.dumps({
        "format": "sheafplectic-manifest/1",
        "space": {"points": points, "opens": opens}, "field": "Q",
        "rank": rank, **sections}))


def _failing(suite, ctx, seed=7):
    return [r["check"] for r in suite(ctx, random.Random(seed)) if not r["ok"]]


def _checks(prefix, sources, parts):
    return ["%s/%s/%s" % (prefix, s, p) for s in sources for p in parts]


SIERPINSKI4 = parse_manifest((MANIFESTS / "sierpinski_rank4.json").read_text())
# two points and no open that separates them: an open's dimensions sum over
# both points, so only the per-point count sees stalks swapped between them
INDISCRETE2 = _ctx(["a", "b"], [[], ["a", "b"]], 2)
REAL_ANNIHILATOR = pairing_suites.annihilator
REAL_REDUCE = symplectic_suites.reduce


def _swapped_annihilator(p, g):
    perp = REAL_ANNIHILATOR(p, g).stalks
    return SubmoduleSheaf(p.right, {"a": perp["b"], "b": perp["a"]})


@pytest.mark.parametrize("suite, ctx, owner, name, wrong, failed", [
    pytest.param(pairing_suites.suite_annihilator_theorem, SIERPINSKI4,
                 pairing_suites,
                 "annihilator", lambda p, g: zero_submodule(p.right),
                 _checks("annihilator-theorem", ["pairing:phi", "form"], "abef"),
                 id="annihilator"),
    pytest.param(pairing_suites.suite_annihilator_theorem, INDISCRETE2,
                 pairing_suites,
                 "annihilator", _swapped_annihilator,
                 _checks("annihilator-theorem", ["canonical"], "ab"),
                 id="swapped-stalks"),
    pytest.param(pairing_suites.suite_annihilator_theorem, SIERPINSKI4,
                 pairing_suites,
                 "sum_submodules", lambda fs: zero_submodule(fs[0].parent),
                 _checks("annihilator-theorem", ["pairing:phi", "form"], "cde"),
                 id="sum"),
    pytest.param(pairing_suites.suite_transpose, SIERPINSKI4, MorphismSheaf,
                 "transpose", lambda m: m.compose(m),
                 ["transpose/additivity", "transpose/contravariance",
                  "transpose/kernel-is-image-annihilator"], id="square"),
    pytest.param(pairing_suites.suite_transpose, SIERPINSKI4, MorphismSheaf,
                 "transpose", lambda m: m + m,
                 ["transpose/identity", "transpose/contravariance",
                  "transpose/inverse", "transpose/kernel-is-image-annihilator"],
                 id="double"),
    pytest.param(pairing_suites.suite_transpose, SIERPINSKI4, pairing_suites,
                 "transpose_endomorphism", lambda p, s: s,
                 ["transpose/endomorphism-identity"], id="endomorphism"),
    pytest.param(symplectic_suites.suite_reduction, SIERPINSKI4,
                 symplectic_suites, "reduce",
                 lambda sm, f: REAL_REDUCE(sm, full_submodule(sm.module)),
                 ["reduction/submodule:F", "reduction/submodule:L"] +
                 ["reduction/random-%d" % k for k in range(1, 5)],
                 id="reduce-by-everything"),
])
def test_a_wrong_kernel_fails_exactly_these_checks(monkeypatch, suite, ctx,
                                                   owner, name, wrong, failed):
    monkeypatch.setattr(owner, name, wrong)
    assert _failing(suite, ctx) == failed


DISCRETE = (["a", "b"], [[], ["a"], ["b"], ["a", "b"]])
J3_RANK2 = [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]
J4_RANK2 = [["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0"] * 4, ["0"] * 4]


def test_a_degenerate_form_is_skipped_for_the_canonical_pairing():
    ctx = _ctx(*DISCRETE, 3, form={x: J3_RANK2 for x in DISCRETE[0]})
    recs = pairing_suites.suite_annihilator_theorem(ctx, random.Random(1))
    assert [(r["check"], r["ok"], r["detail"]) for r in recs] == \
        [("annihilator-theorem/form/skipped", True,
          "form is degenerate at point a")] + \
        [(c, True, "") for c in _checks("annihilator-theorem", ["canonical"],
                                        "abcdefh")]


def test_a_degenerate_form_reduces_no_manifest_submodule():
    line = {x: [["1", "0", "0", "0"]] for x in DISCRETE[0]}
    ctx = _ctx(*DISCRETE, 4, form={x: J4_RANK2 for x in DISCRETE[0]},
               submodules={"F": line})
    recs = symplectic_suites.suite_reduction(ctx, random.Random(1))
    assert [r["check"] for r in recs] == \
        ["reduction/random-%d" % k for k in range(5)]
    assert all(r["ok"] for r in recs)


def test_darboux_skips_a_vanishing_form_and_a_point_with_no_neighbourhood():
    # on the Sierpinski space the form vanishes at a, below b
    ctx = _ctx(["a", "b"], [[], ["a"], ["a", "b"]], 2, form={
        "a": [["0", "0"], ["0", "0"]], "b": [["0", "1"], ["-1", "0"]]})
    recs = symplectic_suites.suite_darboux(ctx, random.Random(1))
    assert [(r["check"], r["ok"], r["detail"]) for r in recs[:2]] == [
        ("darboux/form-at-a", True, "form vanishes at the point"),
        ("darboux/form-at-b", True, "no admissible neighbourhood, witness a")]
    assert all(r["ok"] for r in recs)
    assert symplectic_suites.nowhere_zero_lowered_covector(ctx.form,
                                                           "b") is None


@pytest.mark.parametrize("points, opens, rank, suite, record", [
    pytest.param([], [[]], 2, symplectic_suites.suite_darboux,
                 ("darboux/skipped", True, "no points"), id="no-points"),
    pytest.param(["p"], [[], ["p"]], 1, symplectic_suites.suite_darboux,
                 ("darboux/skipped", True, "rank below two"), id="rank-one"),
    pytest.param(["p"], [[], ["p"]], 1, symplectic_suites.suite_reduction,
                 ("reduction/skipped", True, "odd or zero rank"), id="odd-rank"),
])
def test_a_suite_with_nothing_to_draw_is_skipped(points, opens, rank, suite,
                                                 record):
    recs = suite(_ctx(points, opens, rank), random.Random(1))
    assert [(r["check"], r["ok"], r["detail"]) for r in recs] == [record]
