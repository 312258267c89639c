"""Command-line surface: instance checks, constructions, calculus and
metric reports.

Commands: check | construct | calculus | groupdga | metric | curvature
| su2 | catalog.  Output is deterministic (sorted keys, fixed term
order); exit codes are 0 on success, 1 when a requested check fails,
2 for usage errors or unknown instances, 3 for malformed instance
files.  Colored PASS/FAIL markers are suppressed when NO_COLOR is set
or stdout is not a terminal.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from math import comb, gcd
from typing import Callable, NamedTuple

from .catalog import b_lie, load_catalog
from .constructions import (
    cotangent_prelie,
    check_cotangent_bicovariance,
    xi_action_on_g,
)
from .dga import check_calculus
from .exact_core import Scalar, Tensor, Verdict, ratfunc_equal
from .group_dga import GroupDGA, GroupDGAData, _d_squared_size, \
    check_group_dga
from .liebialg import (
    LieAlgebra,
    LieBialgebra,
    LieCoalgebra,
    check_bialgebra_cocycle,
    check_lie_algebra,
    check_matched_pair,
)
from .metric import (
    _closed_form_curvature,
    _tidy_ratfunc,
    check_metric,
    scalar_curvature_classical,
    standard_metric,
)
from .prelie import (
    PreLieProduct,
    check_bicovariance,
    check_compatibility,
    check_cybe,
    check_flat_right_action,
    check_left_symmetry,
    check_rmatrix_symmetric_part,
    induced_bracket,
    xi_from_rmatrix,
)
from .su2 import verify_su2_bicrossproduct_omega, verify_su2_semiclassical

USAGE_ERROR, CHECK_FAILED, SCHEMA_ERROR = 2, 1, 3

# `calculus` refuses a run over more PBW words than this, counting the
# empty word: C(dim + max-len, max-len).  The first order costs two
# contractions whatever the max-len, so a run costs d of each word once,
# for the connectedness certificate.  The slowest admitted run measured, a
# dense dim-3 instance file at --max-len 12 (455 words), takes 0.45 s on
# a 2-vCPU machine under Python 3.11; dense dim-4 at --max-len 8 (495
# words) takes 0.32 s and b4 at --max-len 30 0.34 s
MAX_PBW_WORDS = 500
# and any run with words longer than this: a word of length n carries
# lambda-polynomials of degree up to n, so the cost per word grows with
# n and the word count alone does not bound dim 1 (x o x = x takes 7 ms
# at --max-len 30, 0.08 s at 100, 0.5 s at 200 and 7 s at 499).  Dim 2
# meets the word limit at this length too
MAX_WORD_LEN = 30
# `groupdga`, and `check` on a group_dga instance, apply d twice to each
# monomial alpha^A g of a group of order s on n points with |A| up to
# min(--max-len, this): about s * C(n + L, L) of them, so without a cap
# the run grows with --max-len (groupdga-s3 takes 2.5 ms at L = 3 and
# 67 ms at L = 7 on a 2-vCPU machine under Python 3.11)
GROUP_DGA_MAX_LEN = 3
# and refuse an instance whose d^2 certificate would write more alpha
# exponents than this (group_dga._d_squared_size).  d of alpha^A g has a
# term for each point that g moves theta off, and every term is keyed by
# n exponents, so the monomial count alone bounds neither a dense theta
# nor many points (Z_2 swapping 400 points with a dense theta has 402
# monomials at --max-len 1 and takes 2.3 s).  The slowest admitted run
# measured, Z_29 rotating 29 points with a dense theta at --max-len 1
# (734k exponents), takes about 0.5 s in process on a 2-vCPU machine under
# Python 3.11, most of it the rank of omega; Z_2 swapping 14 points with
# a dense theta at --max-len 3 (618k) takes 0.25 s.  The bound does not
# reach group_dga._validate, which runs when the instance is read: its
# associativity test runs on a generating set, O(s^2 log s) in the order
# s of a group (Z_300 on one point reads in 0.05 s), though a table that
# is no group can take up to s generators and O(s^3) (max on 0..299,
# associative without inverses, takes 2.5 s)
MAX_D_SQUARED_EXPONENTS = 750_000


class SchemaError(Exception):
    pass


class UsageError(Exception):
    pass


class PreconditionFailed(Exception):
    """A library precondition does not hold for an instance: its report
    becomes {"error": msg} and the run fails."""


# ---------------------------------------------------------------------------
# serialization helpers

def _scalar_json(v: Scalar):
    """[re_num, re_den, im_num, im_den], each part in lowest terms."""
    re, im, den = v.triple
    g, h = gcd(re, den), gcd(im, den)
    return [re // g, den // g, im // h, den // h]


def tensor_triples(t: Tensor):
    """Sparse triples [i, j, k, re_num, re_den, im_num, im_den]."""
    return [[*key, *_scalar_json(v)] for key, v in sorted(t.entries.items())]


def _parse_scalar(v):
    """Accept int, [num, den], or [re_n, re_d, im_n, im_d]."""
    if isinstance(v, list) and len(v) == 4:
        return Scalar.from_ratios(*_parse_ratio(v[:2], "scalar"),
                                  *_parse_ratio(v[2:], "scalar"))
    return Scalar.from_ratios(*_parse_ratio(v, "scalar"), 0, 1)


def _parse_ratio(v, what):
    """Accept int or [num, den] with integer parts (JSON true and false
    are not numbers here) and a nonzero denominator, as (num, den)."""
    num, den = v if isinstance(v, list) and len(v) == 2 else (v, 1)
    if type(num) is not int or type(den) is not int:
        raise SchemaError(f"bad {what} encoding {v!r}")
    if den == 0:
        raise SchemaError(f"zero denominator in {v!r}")
    return num, den


def _parse_fraction(v):
    """A rational parameter: int or [num, den], as a Fraction."""
    return Fraction(*_parse_ratio(v, "rational"))


def _parse_int(v, what):
    if type(v) is not int:
        raise SchemaError(f"{what} must be an integer, got {v!r}")
    return v


def _load_instance_file(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    for field in ("id", "kind", "payload"):
        if field not in data:
            raise SchemaError(f"{path}: missing field {field!r}")
    if not isinstance(data["id"], str):
        raise SchemaError(f"{path}: id must be a string")
    kind, payload = data["kind"], data["payload"]
    try:
        if kind == "prelie":
            obj = _parse_prelie(payload)
        elif kind == "metric":
            obj = _parse_metric(payload)
        elif kind == "group_dga":
            obj = _parse_group_dga(payload)
        else:
            raise SchemaError(f"{path}: unsupported kind {kind!r}")
    except (KeyError, TypeError, IndexError) as exc:
        raise SchemaError(f"{path}: malformed payload ({exc})")
    return {"id": data["id"], "kind": kind, "build": lambda obj=obj: obj,
            "params": {}}


def _parse_prelie(payload):
    dim = _parse_int(payload["dim"], "dim")
    if dim < 1:
        raise SchemaError(f"dim must be positive, got {dim}")
    names = payload.get("names", [f"e{i}" for i in range(dim)])
    if not (isinstance(names, list) and len(names) == dim
            and all(isinstance(n, str) for n in names)):
        raise SchemaError(f"names must be a list of {dim} strings, "
                          f"got {names!r}")
    entries = {}
    for row in payload["xi"]:
        if not isinstance(row, list) or len(row) != 7:
            raise SchemaError(f"bad coefficient triple {row!r}")
        i, j, k = (_parse_int(v, "index") for v in row[:3])
        if not all(0 <= v < dim for v in (i, j, k)):
            raise SchemaError(f"index out of range in {row!r}")
        if (i, j, k) in entries:
            raise SchemaError(f"repeated coefficient triple {row!r}")
        # four nonzero-denominator ints go straight in; anything else
        # takes _parse_scalar for its error
        a, da, b, db = row[3:]
        if type(a) is type(da) is type(b) is type(db) is int and da and db:
            entries[(i, j, k)] = Scalar.from_ratios(a, da, b, db)
        else:
            entries[(i, j, k)] = _parse_scalar(row[3:])
    return PreLieProduct(dim, tuple(names), Tensor((dim, dim, dim), entries))


# the case of each calculus and the parameters its metric takes
_METRIC_FAMILIES = {"b1": (1, ("alpha",)), "b2": (2, ("beta",)),
                    "b3": (3, ()), "b4": (4, ()), "b5": (5, ())}


def _parse_metric(payload):
    calculus = payload["calculus"]
    if calculus not in _METRIC_FAMILIES:
        raise SchemaError(f"unknown calculus {calculus!r}")
    case, takes = _METRIC_FAMILIES[calculus]
    extra = sorted(set(payload) - {"calculus", "c", *takes})
    if extra:
        raise SchemaError(f"{calculus} takes no parameter {extra[0]!r}")
    kwargs = {key: _parse_fraction(payload[key]) for key in takes
              if key in payload}
    c = payload.get("c", {})
    if not isinstance(c, dict):
        raise SchemaError(f"c must be an object, got {c!r}")
    extra = sorted(set(c) - {"c1", "c2", "c3"})
    if extra:
        raise SchemaError(f"unknown metric coefficient {extra[0]!r}")
    for key in ("c1", "c2", "c3"):
        if key in c:
            kwargs[key] = _parse_scalar(c[key])
    try:
        return standard_metric(case, **kwargs)
    except ValueError as exc:
        raise SchemaError(str(exc))


def _parse_group_dga(payload):
    theta = tuple(_parse_scalar(v) for v in payload["theta"])
    data = GroupDGAData(
        cayley=tuple(tuple(_parse_int(v, "cayley entry") for v in row)
                     for row in payload["cayley"]),
        action=tuple(tuple(_parse_int(v, "action entry") for v in row)
                     for row in payload["action"]),
        theta=theta)
    try:
        return GroupDGA(data)
    except ValueError as exc:
        raise SchemaError(str(exc))


# ---------------------------------------------------------------------------
# instance resolution and checks

def _resolve(ids, files):
    catalog = {e["id"]: e for e in load_catalog()}
    out = [_load_instance_file(path) for path in files or ()]
    for iid in ids or ():
        if iid not in catalog:
            raise UsageError(f"unknown instance {iid!r}")
        out.append(catalog[iid])
    # the report is keyed by id, so a repeated id would hide a result
    seen = set()
    for entry in out:
        if entry["id"] in seen:
            raise UsageError(f"duplicate instance id {entry['id']!r}")
        seen.add(entry["id"])
    return out


def _prelie_context(entry, obj):
    """The Lie algebra (and bialgebra, when known) of a pre-Lie instance:
    [x,t] = x in dim 2, else the one its catalog entry names, if any."""
    if obj.dim == 2:
        lie = b_lie()
        # bicovariance carrier: abelian algebra with cobracket dual to
        # the [x,t] = x bracket (the calculus quantises functions on b*)
        cob = {(k, i, j): v for (i, j, k), v in lie.bracket.entries.items()}
        bialg = LieBialgebra(
            LieAlgebra(2, lie.basis_names, Tensor((2, 2, 2), {})),
            LieCoalgebra(2, lie.basis_names, Tensor((2, 2, 2), cob)))
        return lie, bialg
    lie = entry.get("lie")
    return (lie() if lie else None), None


def _check_instance(entry, max_len):
    obj = entry["build"]()
    kind = entry["kind"]
    report = {}
    if kind == "prelie":
        report["left_symmetry"] = check_left_symmetry(obj)
        lie, bialg = _prelie_context(entry, obj)
        if lie is not None:
            report["compatibility"] = check_compatibility(obj, lie)
            report["flat_right_action"] = check_flat_right_action(obj, lie)
        if bialg is not None:
            report["bicovariance"] = check_bicovariance(obj, bialg)
    elif kind == "bialgebra":
        report.update(check_lie_algebra(obj.algebra.bracket))
        report["cocycle"] = check_bialgebra_cocycle(obj)
    elif kind == "matched_pair":
        report["matched_pair"] = check_matched_pair(obj)
    elif kind == "rmatrix":
        report["symmetric_part_invariant"] = check_rmatrix_symmetric_part(obj)
        report["cybe"] = check_cybe(obj)
        report["induced_left_symmetry"] = \
            check_left_symmetry(xi_from_rmatrix(obj))
    elif kind == "cotangent_input":
        X = cotangent_prelie(obj)
        report["left_symmetry"] = check_left_symmetry(X)
        report["cotangent_bicovariance"] = check_cotangent_bicovariance(obj)
    elif kind == "metric":
        report.update(check_metric(obj))
    elif kind == "group_dga":
        rep = check_group_dga(obj, max_len=min(max_len, GROUP_DGA_MAX_LEN))
        report["passed"] = rep["passed"]
        report["warnings"] = len(rep["warnings"])
    return report


# ---------------------------------------------------------------------------
# output helpers

def _emit(payload, as_json, passed):
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    use_color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")

    def mark(v):
        if isinstance(v, bool):
            word = "PASS" if v else "FAIL"
            if use_color:
                return f"\x1b[32m{word}\x1b[0m" if v \
                    else f"\x1b[31m{word}\x1b[0m"
            return word
        return str(v)

    def walk(obj, indent=""):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, dict):
                print(f"{indent}{key}:")
                walk(val, indent + "  ")
            else:
                print(f"{indent}{key}: {mark(val)}")

    walk(payload)
    print("overall:", mark(passed))


def _as_bools(report):
    """The report with each Verdict replaced by its truth value."""
    return {key: _as_bools(v) if isinstance(v, dict)
            else bool(v) if isinstance(v, Verdict) else v
            for key, v in report.items()}


def _all_bools_pass(report):
    ok = True
    for v in report.values():
        if isinstance(v, dict):
            ok = ok and _all_bools_pass(v)
        elif isinstance(v, bool):
            ok = ok and v
    return ok


# ---------------------------------------------------------------------------
# commands: one report per entry, run by `_run`

def _precondition(fn, obj):
    """Call a library function whose ValueError means that `obj` fails
    the function's precondition."""
    try:
        return fn(obj)
    except ValueError as exc:
        raise PreconditionFailed(str(exc)) from exc


def _construct_report(entry, args):
    obj = entry["build"]()
    kind = entry["kind"]
    if kind == "prelie":
        return {"product": tensor_triples(obj.xi),
                "induced_bracket": tensor_triples(
                    _precondition(induced_bracket, obj).bracket)}
    if kind == "cotangent_input":
        return {"product": tensor_triples(cotangent_prelie(obj).xi)}
    if kind == "rmatrix":
        X = xi_from_rmatrix(obj)
        return {"product": tensor_triples(X.xi),
                "action_on_carrier":
                    tensor_triples(xi_action_on_g(X).coefficients)}
    # bialgebra, the last kind construct accepts
    return {"bracket": tensor_triples(obj.algebra.bracket),
            "cobracket": tensor_triples(obj.coalgebra.cobracket)}


def _calculus_report(entry, args):
    obj = entry["build"]()
    lie, _ = _prelie_context(entry, obj)
    if lie is None:
        lie = _precondition(induced_bracket, obj)
    return check_calculus(lie, obj, args.max_len, args.lam)


def _calculus_bound(entries, args):
    for entry in entries:
        words = comb(entry["build"]().dim + args.max_len, args.max_len)
        if words > MAX_PBW_WORDS:
            raise UsageError(
                f"{entry['id']}: calculus at --max-len {args.max_len} would "
                f"differentiate {words} PBW words, over the limit of "
                f"{MAX_PBW_WORDS}")
    if args.max_len > MAX_WORD_LEN:
        raise UsageError(
            f"calculus at --max-len {args.max_len} would differentiate "
            f"words longer than the limit of {MAX_WORD_LEN}")


def _group_dga_bound(entries, args):
    max_len = min(args.max_len, GROUP_DGA_MAX_LEN)
    for entry in entries:
        if entry["kind"] != "group_dga":
            continue
        monomials, exponents = _d_squared_size(entry["build"](), max_len)
        if exponents > MAX_D_SQUARED_EXPONENTS:
            raise UsageError(
                f"{entry['id']}: d^2 at max-len {max_len} would write "
                f"{exponents} alpha exponents on {monomials} monomials, "
                f"over the limit of {MAX_D_SQUARED_EXPONENTS}")


def _groupdga_report(entry, args):
    rep = check_group_dga(entry["build"](),
                          max_len=min(args.max_len, GROUP_DGA_MAX_LEN))
    return {"passed": rep["passed"], "warnings": sorted(rep["warnings"])}


def _curvature_report(entry, args):
    M = entry["build"]()
    R = _precondition(scalar_curvature_classical, M)
    report = {"scalar_curvature": repr(_tidy_ratfunc(R))}
    expected = _closed_form_curvature(M)
    if expected is not None:
        report["matches_closed_form"] = ratfunc_equal(R, expected)
    return report


def _instance_entries(name, args):
    if not args.instance and not args.instance_file:
        raise UsageError(f"{name} requires --instance or --instance-file")
    return _resolve(args.instance, args.instance_file)


_METRIC_PARAMS = ("alpha", "beta", "c1", "c2", "c3")


def _metric_entries(name, args):
    """The instances, or else the one metric that --case and its
    parameter flags describe, read as an instance-file payload."""
    params = {key: getattr(args, key) for key in _METRIC_PARAMS
              if getattr(args, key) is not None}
    if args.case is None:
        if params:
            raise UsageError(f"--{next(iter(params))} needs --case")
        if not args.instance and not args.instance_file:
            raise UsageError(f"{name} requires --case, --instance or "
                             "--instance-file")
        return _resolve(args.instance, args.instance_file)
    if args.instance or args.instance_file:
        raise UsageError("--case cannot be combined with --instance or "
                         "--instance-file")
    payload = {"calculus": f"b{args.case}", "c": {}}
    try:
        for key, text in params.items():
            target = payload if key in ("alpha", "beta") else payload["c"]
            target[key] = json.loads(text)
        M = _parse_metric(payload)
    except (json.JSONDecodeError, SchemaError) as exc:
        raise UsageError(f"bad metric parameter: {exc}")
    return [{"id": f"case{args.case}", "kind": "metric",
             "build": lambda: M}]


_SU2_MODELS = [
    {"id": "semiclassical", "kind": "su2",
     "build": verify_su2_semiclassical},
    {"id": "bicrossproduct_omega", "kind": "su2",
     "build": verify_su2_bicrossproduct_omega},
]


class Command(NamedTuple):
    flags: tuple                 # the flags it reads, besides --json
    kinds: tuple | None          # the instance kinds it accepts (None: all)
    report: Callable             # report(entry, args) -> dict
    entries: Callable = _instance_entries   # entries(name, args) -> list
    bound: Callable = None       # bound(entries, args) refuses too much work


_INSTANCE_FLAGS = ("--instance", "--instance-file")
_METRIC_FLAGS = (*_INSTANCE_FLAGS, "--case", "--alpha", "--beta",
                 "--c1", "--c2", "--c3")

COMMANDS = {
    "check": Command((*_INSTANCE_FLAGS, "--max-len"), None,
                     lambda entry, args: _check_instance(entry,
                                                         args.max_len),
                     bound=_group_dga_bound),
    "construct": Command(_INSTANCE_FLAGS,
                         ("prelie", "cotangent_input", "rmatrix",
                          "bialgebra"), _construct_report),
    "calculus": Command((*_INSTANCE_FLAGS, "--max-len", "--lambda"),
                        ("prelie",), _calculus_report,
                        bound=_calculus_bound),
    "groupdga": Command((*_INSTANCE_FLAGS, "--max-len"), ("group_dga",),
                        _groupdga_report, bound=_group_dga_bound),
    "metric": Command(_METRIC_FLAGS, ("metric",),
                      lambda entry, args: check_metric(entry["build"]()),
                      _metric_entries),
    "curvature": Command(_METRIC_FLAGS, ("metric",), _curvature_report,
                         _metric_entries),
    "su2": Command((), None, lambda entry, args: {"passed": entry["build"]()},
                   lambda name, args: _SU2_MODELS),
    "catalog": Command((), None, lambda entry, args: {"kind": entry["kind"]},
                       lambda name, args: load_catalog()),
}


def _run(name, args):
    """Resolve the entries, reject a kind the command does not apply to,
    read --lambda, refuse too much work, report on each entry, read each
    Verdict as a bool, emit; exit 0 or 1."""
    command = COMMANDS[name]
    entries = command.entries(name, args)
    for entry in entries:
        if command.kinds is not None and entry["kind"] not in command.kinds:
            raise UsageError(f"{entry['id']}: {name} does not apply to "
                             f"kind {entry['kind']!r}")
    if "--lambda" in command.flags:
        try:
            args.lam = Scalar(_parse_fraction(json.loads(args.lam)))
        except (json.JSONDecodeError, SchemaError):
            raise UsageError(f"bad --lambda value {args.lam!r}")
    if command.bound is not None:
        command.bound(entries, args)
    payload, failed = {}, False
    for entry in entries:
        try:
            payload[entry["id"]] = command.report(entry, args)
        except PreconditionFailed as exc:
            payload[entry["id"]] = {"error": str(exc)}
            failed = True
    payload = _as_bools(payload)
    passed = not failed and _all_bools_pass(payload)
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing

def _positive_int(text):
    """argparse type of --max-len: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


_FLAG_OPTIONS = {
    "--instance": dict(action="append", default=[],
                       help="catalog instance id (repeatable)"),
    "--instance-file": dict(action="append", default=[],
                            help="JSON instance file (repeatable)"),
    "--max-len": dict(type=_positive_int, default=3,
                      help="word-length bound for exhaustive checks"),
    "--lambda": dict(dest="lam", default="1",
                     help="numeric deformation parameter (rational)"),
    "--case": dict(type=int, help="metric case 1-5"),
    "--alpha": dict(help="case 1 parameter (rational)"),
    "--beta": dict(help="case 2 parameter (rational)"),
    "--c1": dict(help="metric coefficient (rational)"),
    "--c2": dict(help="metric coefficient (rational)"),
    "--c3": dict(help="metric coefficient (rational)"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prelie-calculus",
        description="Exact checks for pre-Lie structures, their "
                    "enveloping-algebra calculi and quantum metrics.")
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in command.flags:
            p.add_argument(flag, **_FLAG_OPTIONS[flag])
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
    return parser


# main parses with one parser per process: building it costs about
# 1.5 ms, and parse_args leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return _run(args.command, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SCHEMA_ERROR


if __name__ == "__main__":
    sys.exit(main())
