"""Manifest-driven command line: validate, annihilator, classify, darboux,
reduce, and the named check suites.

Manifests are strict JSON (format "sheafplectic-manifest/1").  Rational
entries are strings like "3/2" or "-1"; prime-field entries are plain
integers reduced modulo p.  The machine report is line-delimited JSON with
a fixed key order and no timing, so identical inputs produce byte-identical
output; the human rendering adds timing.

Exit codes: 0 pass, 1 fail (with the witness in the report), 2 usage,
3 unreadable or invalid input, 4 internal error (an ``error`` record).
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from ._records import record
from .exactalg import Matrix, PrimeField, QQ, Subspace, long_literal
from .space import FiniteSpace, UnknownPoint, validate_topology
from .modsheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    PairingSheaf,
    PointFamily,
    Section,
    SubmoduleSheaf,
    TwoFormSheaf,
)

MANIFEST_FORMAT = "sheafplectic-manifest/1"
MAX_POINTS = 12
MAX_OPENS = 64
# primality is tested by trial division, in time growing with sqrt(modulus)
MAX_MODULUS = 2 ** 31 - 1
# each suite by name, with the module that holds it as ``suite_`` and the
# name with dashes made underscores: parsing the command line loads no
# suite, and a check loads its suite's module alone
SUITES = {"annihilator-theorem": "pairing_suites",
          "completeness": "sheaf_suites", "darboux": "symplectic_suites",
          "hom-exactness": "pairing_suites", "reduction": "symplectic_suites",
          "transpose": "pairing_suites"}


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__("parse error at %d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


class ValidationError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__("invalid manifest at %s: %s" % (path, message))
        self.path = path
        self.message = message


class UnknownName(ValueError):
    def __init__(self, symbol: str):
        super().__init__("unknown name: %s" % symbol)
        self.symbol = symbol


@record
class Manifest:
    space: FiniteSpace
    field: object
    rank: int
    form: Optional[TwoFormSheaf]
    pairings: Dict[str, PairingSheaf]
    submodules: Dict[str, SubmoduleSheaf]
    morphisms: Dict[str, MorphismSheaf]

    @property
    def module(self) -> FreeModuleSheaf:
        return FreeModuleSheaf(self.space, self.field, self.rank)


def _parse_scalar(field, path: str, value):
    try:
        return field.parse(value)
    except ValueError as exc:
        raise ParseError(0, 0, "%s: %s" % (path, exc))


def _parse_matrix(field, path: str, value, cols: int,
                  rows: Optional[int] = None) -> Matrix:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValidationError(path, "matrix must be a list of rows")
    if rows is not None and len(value) != rows:
        raise ValidationError(path, "expected %d rows, got %d" % (rows, len(value)))
    parsed = []
    for i, row in enumerate(value):
        if len(row) != cols:
            raise ValidationError("%s[%d]" % (path, i),
                                  "expected %d entries, got %d" % (cols, len(row)))
        parsed.append([_parse_scalar(field, "%s[%d][%d]" % (path, i, j), v)
                       for j, v in enumerate(row)])
    return Matrix.from_rows(field, parsed, cols=cols)


def _point_map(space: FiniteSpace, path: str, value, parse) -> PointFamily:
    """A manifest map with one entry per point; ``parse(path, entry)``
    turns each entry into its value, point by point in space order."""
    if not isinstance(value, dict):
        raise ValidationError(path, "must map point names to matrices")
    try:
        family = PointFamily(space.points, value)
    except ValueError as exc:
        raise ValidationError(path, str(exc))
    return family.map(lambda x, entry: parse("%s.%s" % (path, x), entry))


def parse_manifest(text: str) -> Manifest:
    """Parse and fully validate a manifest; every invariant is enforced here."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.colno, exc.msg)
    except RecursionError as exc:
        raise ParseError(0, 0, str(exc))
    except ValueError:  # an int past the digit limit
        raise ParseError(0, 0, str(long_literal()))
    if not isinstance(doc, dict):
        raise ValidationError("$", "top level must be an object")
    allowed = {"format", "space", "field", "rank", "form", "pairings",
               "submodules", "morphisms"}
    for key in doc:
        if key not in allowed:
            raise ValidationError(key, "unknown section")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValidationError("format", "expected %r" % MANIFEST_FORMAT)

    spc = doc.get("space")
    if not isinstance(spc, dict) or set(spc) != {"points", "opens"}:
        raise ValidationError("space", "needs exactly 'points' and 'opens'")
    points = spc["points"]
    if not isinstance(points, list) or \
            not all(isinstance(p, str) for p in points):
        raise ValidationError("space.points", "must be a list of names")
    if len(points) > MAX_POINTS:
        raise ValidationError("space.points", "%d points exceed the cap of %d"
                              % (len(points), MAX_POINTS))
    opens = spc["opens"]
    if not isinstance(opens, list) or not all(
            isinstance(o, list) and all(isinstance(p, str) for p in o)
            for o in opens):
        raise ValidationError("space.opens", "must be a list of point lists")
    try:
        space = FiniteSpace(points, opens)
    except (UnknownPoint, ValueError) as exc:
        raise ValidationError("space", str(exc))
    if len(space.opens) > MAX_OPENS:
        raise ValidationError("space.opens", "%d opens exceed the cap of %d"
                              % (len(space.opens), MAX_OPENS))
    topo = validate_topology(space)
    if not topo.ok:
        raise ValidationError("space", str(topo))

    fld = doc.get("field")
    if fld == "Q":
        field = QQ
    elif isinstance(fld, dict) and set(fld) == {"Fp"}:
        p = fld["Fp"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValidationError("field.Fp", "modulus must be an integer")
        if p > MAX_MODULUS:
            raise ValidationError("field.Fp", "modulus %d exceeds the cap of %d"
                                  % (p, MAX_MODULUS))
        try:
            field = PrimeField(p)
        except ValueError as exc:
            raise ValidationError("field.Fp", str(exc))
    else:
        raise ValidationError("field", "must be \"Q\" or {\"Fp\": prime}")

    rank = doc.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise ValidationError("rank", "must be a non-negative integer")
    module = FreeModuleSheaf(space, field, rank)

    def square(path, value):
        return _parse_matrix(field, path, value, rank, rows=rank)

    def skew(path, value):
        m = square(path, value)
        if not m.is_skew():
            raise ValidationError(path, "diagonal must be zero" if any(
                m.entries[i][i] for i in range(rank)) else "matrix must be skew")
        return m

    def stalk(path, rows):
        if not isinstance(rows, list):
            raise ValidationError(path, "must be a list of basis rows")
        return Subspace.span(field, rank,
                             _parse_matrix(field, path, rows, rank).entries)

    # morphisms may have any row count (one-row seeds), the same at every point
    heights = []

    def rows_of_equal_height(path, value):
        m = _parse_matrix(field, path, value, rank)
        if heights and m.rows != heights[0]:
            raise ValidationError(path, "row count differs between points")
        heights.append(m.rows)
        return m

    form = None
    if "form" in doc:
        form = TwoFormSheaf(module, _point_map(space, "form", doc["form"], skew))

    def named(key, what, build):
        # a section mapping names to families, each built in name order
        table = doc.get(key, {})
        if not isinstance(table, dict):
            raise ValidationError(key, "must map names to " + what)
        return {name: build("%s.%s" % (key, name), table[name])
                for name in sorted(table)}

    def morphism(path, value):
        heights.clear()
        mats = _point_map(space, path, value, rows_of_equal_height)
        target = FreeModuleSheaf(space, field, heights[0] if heights else 0)
        return MorphismSheaf(module, target, mats)

    pairings = named("pairings", "gram families", lambda path, value:
                     PairingSheaf(module, module,
                                  _point_map(space, path, value, square)))
    submodules = named("submodules", "stalk bases", lambda path, value:
                       SubmoduleSheaf(module,
                                      _point_map(space, path, value, stalk)))
    morphisms = named("morphisms", "matrix families", morphism)

    return Manifest(space, field, rank, form, pairings, submodules, morphisms)


def _format_matrix(field, m: Matrix) -> list:
    return [[field.format(a) for a in row] for row in m.entries]


def emit_manifest(m: Manifest) -> str:
    """Canonical manifest text; parse . emit is the identity on parses."""
    doc = {
        "format": MANIFEST_FORMAT,
        "space": {"points": list(m.space.points),
                  "opens": [sorted(o) for o in m.space.opens]},
        "field": "Q" if m.field == QQ else {"Fp": m.field.p},
        "rank": m.rank,
    }
    if m.form is not None:
        doc["form"] = {x: _format_matrix(m.field, m.form.coeff[x])
                       for x in m.space.points}
    if m.pairings:
        doc["pairings"] = {name: {x: _format_matrix(m.field, p.gram[x])
                                  for x in m.space.points}
                           for name, p in sorted(m.pairings.items())}
    if m.submodules:
        doc["submodules"] = {name: {x: _format_matrix(m.field,
                                                      f.stalks[x].matrix())
                                    for x in m.space.points}
                             for name, f in sorted(m.submodules.items())}
    if m.morphisms:
        doc["morphisms"] = {name: {x: _format_matrix(m.field, mor.mats[x])
                                   for x in m.space.points}
                           for name, mor in sorted(m.morphisms.items())}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands: each handler imports the modules it runs, so that a call
# compiles only those

def _open_names(space: FiniteSpace, u: int) -> list:
    return sorted(space.opens[u])


def _cmd_validate(m: Manifest, args) -> Tuple[int, List[dict]]:
    rec = {
        "command": "validate",
        "verdict": "pass",
        "points": len(m.space.points),
        "opens": len(m.space.opens),
        "field": "Q" if m.field == QQ else "F%d" % m.field.p,
        "rank": m.rank,
        "form": m.form is not None,
        "pairings": sorted(m.pairings),
        "submodules": sorted(m.submodules),
        "morphisms": sorted(m.morphisms),
    }
    return 0, [rec]


def _named(table: dict, name: str):
    if name not in table:
        raise UnknownName(name)
    return table[name]


def _cmd_annihilator(m: Manifest, args) -> Tuple[int, List[dict]]:
    from .pairing import annihilator
    perp = annihilator(_named(m.pairings, args.pairing),
                       _named(m.submodules, args.sub))
    rec = {
        "command": "annihilator",
        "verdict": "value",
        "pairing": args.pairing,
        "sub": args.sub,
        "stalks": {x: _format_matrix(m.field, perp.stalks[x].matrix())
                   for x in m.space.points},
        "dims": {x: perp.stalks[x].dim for x in m.space.points},
    }
    return 0, [rec]


def _form_of(m: Manifest) -> TwoFormSheaf:
    if m.form is None:
        raise UnknownName("form")
    return m.form


def _cmd_classify(m: Manifest, args) -> Tuple[int, List[dict]]:
    from .symplectic import SymplecticModule, classify
    sub = _named(m.submodules, args.sub)
    c = classify(SymplecticModule(m.module, _form_of(m)), sub)
    rec = {
        "command": "classify",
        "verdict": "value",
        "sub": args.sub,
        "isotropic": c.isotropic,
        "coisotropic": c.coisotropic,
        "symplectic_sub": c.symplectic_sub,
        "lagrangian": c.lagrangian,
    }
    if c.isotropic_complement is not None:
        rec["isotropic_complement"] = {
            x: _format_matrix(m.field, c.isotropic_complement.stalks[x].matrix())
            for x in m.space.points}
    return 0, [rec]


def _cmd_darboux(m: Manifest, args) -> Tuple[int, List[dict]]:
    from .symplectic import BadSeed, darboux
    form = _form_of(m)
    if args.at not in m.space.points:
        raise UnknownName(args.at)
    seed = None
    if args.seed is not None:
        mor = _named(m.morphisms, args.seed)
        if mor.target.rank != 1:
            raise BadSeed("seed %r must be a single covector row per point"
                          % args.seed)
        full = m.space.index_of(m.space.points)
        seed = Section(full, {x: mor.mats[x].row(0) for x in m.space.points})
    res = darboux(form, args.at, seed=seed, abs_normalize=args.abs_normalize)
    rec = {
        "command": "darboux",
        "verdict": "pass",
        "at": args.at,
        "neighborhood": _open_names(m.space, res.neighborhood),
        "half_rank": res.half_rank,
        "pairs": [
            {"first": {x: [m.field.format(a) for a in s1.values[x]]
                       for x in m.space.member_points(res.neighborhood)},
             "second": {x: [m.field.format(a) for a in s2.values[x]]
                        for x in m.space.member_points(res.neighborhood)}}
            for s1, s2 in res.pairs],
        "pivots": [list(step) for step in res.pivots],
        "permutation": list(res.permutation),
    }
    return 0, [rec]


def _cmd_reduce(m: Manifest, args) -> Tuple[int, List[dict]]:
    from .symplectic import NotCoisotropic, SymplecticModule, reduce
    sub = _named(m.submodules, args.sub)
    red = reduce(SymplecticModule(m.module, _form_of(m)), sub)
    if not red.coisotropic:
        raise NotCoisotropic("submodule %r is not co-isotropic" % args.sub)
    rec = {
        "command": "reduce",
        "verdict": "pass",
        "sub": args.sub,
        "reduced_dims": {x: red.reduced_dim(x) for x in m.space.points},
        "reduced_form": {x: _format_matrix(m.field, red.reduced_form[x])
                         for x in m.space.points},
    }
    return 0, [rec]


def _cmd_check(m: Manifest, args) -> Tuple[int, List[dict]]:
    from .suites import run_suite
    home = importlib.import_module("." + SUITES[args.suite], __package__)
    records = run_suite(getattr(home, "suite_" + args.suite.replace("-", "_")),
                        m, args.seed_rng)
    out = []
    ok_all = True
    for r in records:
        out.append({"command": "check", "suite": args.suite,
                    "check": r["check"],
                    "verdict": "pass" if r["ok"] else "fail",
                    "detail": r["detail"]})
        ok_all = ok_all and r["ok"]
    out.append({"command": "check", "suite": args.suite,
                "verdict": "pass" if ok_all else "fail",
                "checks": len(records)})
    return (0 if ok_all else 1), out


_DISPATCH = {
    "validate": _cmd_validate,
    "annihilator": _cmd_annihilator,
    "classify": _cmd_classify,
    "darboux": _cmd_darboux,
    "reduce": _cmd_reduce,
    "check": _cmd_check,
}


def run_command(m: Manifest, cmd: str, args) -> Tuple[int, List[dict]]:
    """Dispatch one command; math failures come back as fail reports.

    Every named outcome (``UnknownName``, ``BadSeed``, ``ZeroFormAt``, ...)
    subclasses ``ValueError``.
    """
    try:
        return _DISPATCH[cmd](m, args)
    except ValueError as exc:
        if cmd == "check":  # a suite records its outcomes: an escape is a fault
            raise
        rec = {"command": cmd, "verdict": "fail",
               "error": type(exc).__name__, "witness": str(exc)}
        return 1, [rec]


def _render(records: List[dict], human: bool, elapsed: float) -> str:
    if not human:
        return "".join(json.dumps(r) + "\n" for r in records)
    lines = []
    for r in records:
        verdict = r.get("verdict", "")
        head = r.get("command", "")
        rest = {k: v for k, v in r.items() if k not in ("command", "verdict")}
        lines.append("[%s] %s %s" % (verdict, head,
                                     json.dumps(rest) if rest else ""))
    lines.append("elapsed: %.3fs" % elapsed)
    return "\n".join(lines) + "\n"


# the command line, read as argparse read it: each command maps its options
# to (required, kind), the kind being ``str`` for a value, ``bool`` for a
# flag, ``int`` or the tuple of the values allowed; an option's destination
# is its name with the dashes made underscores
MAIN_OPTIONS = {"--manifest": (True, str), "--human": (False, bool)}
COMMANDS = {"validate": {},
            "annihilator": {"--pairing": (True, str), "--sub": (True, str)},
            "classify": {"--sub": (True, str)},
            "darboux": {"--at": (True, str), "--seed": (False, str),
                        "--abs-normalize": (False, bool)},
            "reduce": {"--sub": (True, str)},
            "check": {"--suite": (True, tuple(SUITES)),
                      "--seed-rng": (False, int)}}
_SHORT = {"-h": "--help", "-m": "--manifest"}
_LABELS = {"--help": "-h/--help", "--manifest": "--manifest/-m"}
_USAGE = ("usage: sheafplectic [-h] (-m | --manifest) MANIFEST [--human] "
          "COMMAND [OPTION ...]")


def _fail(message: str):
    sys.stderr.write("%s\nsheafplectic: error: %s\n" % (_USAGE, message))
    raise SystemExit(2)


def _option(word: str, options: dict):
    """``(name, attached value or None)`` for a word naming one of
    ``options`` or ``--help``, ``(None, None)`` for any other option and
    None for an operand, each as argparse tells them apart."""
    if word[:2] == "--" and word != "--":
        name, eq, value = word.partition("=")
        names = [name] if name in options else [
            n for n in ("--help", *options) if n.startswith(name)]
        if len(names) > 1:
            _fail("ambiguous option: %s could match %s"
                  % (word, ", ".join(names)))
        if names:
            return names[0], (value if eq else None)
    elif _SHORT.get(word[:2]) in ("--help", *options):  # -mPATH, -m=PATH
        rest = word[2:]
        return _SHORT[word[:2]], (rest.removeprefix("=") if rest else None)
    # "-", negative numbers and words with a space are operands
    body = word[1:].removesuffix("\n")
    if word[:1] != "-" or word == "-" or " " in word or \
            body.replace(".", "", 1).isdecimal() and body[-1] != ".":
        return None
    return None, None


def _help() -> str:
    commands = ["  " + " ".join([command] + [
        name if required else "[%s]" % name
        for name, (required, _) in options.items()])
        for command, options in COMMANDS.items()]
    return "\n".join([_USAGE, "", "commands:", *commands, "",
                      "suites: " + ", ".join(SUITES),
                      "A value follows its option as the next word or after "
                      "'=', or right after -m;",
                      "a long option may be cut to any prefix that names "
                      "no other."])


def _refuse_ambiguous(words: list, options: dict):
    """Refuse an ambiguous prefix before "--" before any word is read."""
    for word in words[:words.index("--")] if "--" in words else words:
        _option(word, options)


def parse_args(argv) -> SimpleNamespace:
    """``manifest``, ``human``, ``command`` and the command's options;
    ``-h`` prints the usage and exits 0, a refused line exits 2."""
    words, options, command = list(argv), MAIN_OPTIONS, None
    found, extras = {}, []
    _refuse_ambiguous(words, options)
    while words:
        word = words.pop(0)
        if word == "--" and command:  # no option follows, and no command
                                      # takes an operand
            extras += [word, *words]
            break
        hit = None if word == "--" else _option(word, options)
        if hit is None and command is None:
            if word not in COMMANDS:
                _fail("argument command: invalid choice: %r (choose from %s)"
                      % (word, ", ".join(map(repr, COMMANDS))))
            command, options = word, COMMANDS[word]
            _refuse_ambiguous(words, options)
            continue
        if hit is None or hit[0] is None:
            extras.append(word)
            continue
        name, value = hit
        label = _LABELS.get(name, name)
        kind = bool if name == "--help" else options[name][1]
        if kind is bool and value is not None:
            _fail("argument %s: ignored explicit argument %r" % (label, value))
        if name == "--help":
            print(_help())
            raise SystemExit(0)
        if kind is not bool and value is None:
            if not words or _option(words[0], options) is not None:
                _fail("argument %s: expected one argument" % label)
            value = words.pop(0)
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail("argument %s: invalid int value: %r" % (label, value))
        if isinstance(kind, tuple) and value not in kind:
            _fail("argument %s: invalid choice: %r (choose from %s)"
                  % (label, value, ", ".join(map(repr, kind))))
        found[name] = True if kind is bool else value
    for table in (COMMANDS.get(command, {}), MAIN_OPTIONS):
        missing = [_LABELS.get(name, name) for name, (req, _) in table.items()
                   if req and name not in found]
        missing += ["command"] * (table is MAIN_OPTIONS and command is None)
        if missing:
            _fail("the following arguments are required: "
                  + ", ".join(missing))
    if extras:
        _fail("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"):
            found.get(name, kind() if kind in (bool, int) else None)
        for name, (_, kind) in {**MAIN_OPTIONS, **COMMANDS[command]}.items()})


def _outcome(command: str, verdict: str, error: str, witness: str) -> str:
    return json.dumps({"command": command, "verdict": verdict,
                       "error": error, "witness": witness}) + "\n"


def _report(args, started: float) -> Tuple[int, str]:
    """The exit code and the text of stdout for parsed arguments."""
    try:
        with open(args.manifest, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return 3, _outcome(args.command, "fail", "InputError", str(exc))
    try:
        manifest = parse_manifest(text)
        code, records = run_command(manifest, args.command, args)
    except (ParseError, ValidationError) as exc:
        return 3, _outcome(args.command, "fail", type(exc).__name__, str(exc))
    except Exception as exc:
        # not an input error and not a mathematical fail: a fault of the
        # program, reported apart from both
        return 4, _outcome(args.command, "error", type(exc).__name__, str(exc))
    return code, _render(records, args.human, time.monotonic() - started)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    code, text = _report(args, started)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader of stdout has gone: say so on stderr, and point stdout
        # at the null device so that the interpreter's final flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write(_outcome(args.command, "error", "BrokenPipeError",
                                  str(exc)))
        return 4
    return code
