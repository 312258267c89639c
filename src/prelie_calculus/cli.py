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
import json
import os
import sys
from fractions import Fraction

from .catalog import b_lie, load_catalog, su2_dual_lie
from .constructions import (
    cotangent_prelie,
    check_cotangent_bicovariance,
    xi_action_on_g,
)
from .dga import check_first_order, kernel_of_d
from .exact_core import Scalar, Tensor, ratfunc_equal
from .group_dga import GroupDGAData, build_group_dga, check_group_dga
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


class SchemaError(Exception):
    pass


# ---------------------------------------------------------------------------
# serialization helpers

def _scalar_json(v: Scalar):
    return [v.re.numerator, v.re.denominator,
            v.im.numerator, v.im.denominator]


def tensor_triples(t: Tensor):
    """Sparse triples [i, j, k, re_num, re_den, im_num, im_den]."""
    return [[*key, *_scalar_json(v)] for key, v in sorted(t.entries.items())]


def _parse_scalar(v):
    """Accept int, [num, den], or [re_n, re_d, im_n, im_d]."""
    if isinstance(v, int):
        return Scalar(v)
    if isinstance(v, list) and len(v) == 2:
        return Scalar(Fraction(v[0], v[1]))
    if isinstance(v, list) and len(v) == 4:
        return Scalar(Fraction(v[0], v[1]), Fraction(v[2], v[3]))
    raise SchemaError(f"bad scalar encoding {v!r}")


def _parse_fraction(v):
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, list) and len(v) == 2:
        return Fraction(v[0], v[1])
    raise SchemaError(f"bad rational encoding {v!r}")


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
    dim = int(payload["dim"])
    names = tuple(payload.get("names") or (f"e{i}" for i in range(dim)))
    entries = {}
    for row in payload["xi"]:
        if not isinstance(row, list) or len(row) != 7:
            raise SchemaError(f"bad coefficient triple {row!r}")
        i, j, k = (int(v) for v in row[:3])
        if not all(0 <= v < dim for v in (i, j, k)):
            raise SchemaError(f"index out of range in {row!r}")
        entries[(i, j, k)] = _parse_scalar(row[3:])
    return PreLieProduct(dim, names, Tensor((dim, dim, dim), entries))


def _parse_metric(payload):
    calculus = payload["calculus"]
    case = {"b1": 1, "b2": 2, "b3": 3, "b4": 4, "b5": 5}.get(calculus)
    if case is None:
        raise SchemaError(f"unknown calculus {calculus!r}")
    kwargs = {}
    if "alpha" in payload:
        kwargs["alpha"] = _parse_fraction(payload["alpha"])
    if "beta" in payload:
        kwargs["beta"] = _parse_fraction(payload["beta"])
    c = payload.get("c", {})
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
        cayley=tuple(tuple(int(v) for v in row)
                     for row in payload["cayley"]),
        action=tuple(tuple(int(v) for v in row)
                     for row in payload["action"]),
        theta=theta)
    try:
        return build_group_dga(data)
    except ValueError as exc:
        raise SchemaError(str(exc))


# ---------------------------------------------------------------------------
# instance resolution and checks

def _resolve(ids, files):
    catalog = {e["id"]: e for e in load_catalog()}
    out = []
    for path in files or ():
        out.append(_load_instance_file(path))
    for iid in ids or ():
        if iid not in catalog:
            raise KeyError(iid)
        out.append(catalog[iid])
    return out


def _prelie_context(entry, obj):
    """The Lie algebra (and bialgebra, when known) carried by a pre-Lie
    catalog instance."""
    if obj.dim == 2:
        lie = b_lie()
        # bicovariance carrier: abelian algebra with cobracket dual to
        # the [x,t] = x bracket (the calculus quantises functions on b*)
        cob = {(k, i, j): v for (i, j, k), v in lie.bracket.entries.items()}
        bialg = LieBialgebra(
            LieAlgebra(2, lie.basis_names, Tensor((2, 2, 2), {})),
            LieCoalgebra(2, lie.basis_names, Tensor((2, 2, 2), cob)))
        return lie, bialg
    if entry["id"].startswith("su2"):
        return su2_dual_lie(), None
    return None, None


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
            report["bicovariance"] = bool(check_bicovariance(obj, bialg))
    elif kind == "bialgebra":
        lie_rep = check_lie_algebra(obj.algebra.bracket)
        report["antisymmetry"] = lie_rep["antisymmetry"]
        report["jacobi"] = lie_rep["jacobi"]
        report["cocycle"] = bool(check_bialgebra_cocycle(obj))
    elif kind == "matched_pair":
        report["matched_pair"] = bool(check_matched_pair(obj))
    elif kind == "rmatrix":
        report["symmetric_part_invariant"] = \
            bool(check_rmatrix_symmetric_part(obj))
        report["cybe"] = bool(check_cybe(obj))
        report["induced_left_symmetry"] = \
            check_left_symmetry(xi_from_rmatrix(obj))
    elif kind == "cotangent_input":
        X = cotangent_prelie(obj)
        report["left_symmetry"] = check_left_symmetry(X)
        report["cotangent_bicovariance"] = \
            bool(check_cotangent_bicovariance(obj))
    elif kind == "metric":
        report.update(check_metric(obj))
    elif kind == "group_dga":
        rep = check_group_dga(obj, max_len=min(max_len, 3))
        report["passed"] = rep["passed"]
        report["warnings"] = len(rep["warnings"])
    else:
        report["known_kind"] = False
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


def _all_bools_pass(report):
    ok = True
    for v in report.values():
        if isinstance(v, dict):
            ok = ok and _all_bools_pass(v)
        elif isinstance(v, bool):
            ok = ok and v
    return ok


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args):
    if not args.instance and not args.instance_file:
        raise UsageError("check requires at least one --instance "
                         "or --instance-file")
    entries = _resolve(args.instance, args.instance_file)
    payload = {}
    for entry in entries:
        payload[entry["id"]] = _check_instance(entry, args.max_len)
    passed = _all_bools_pass(payload)
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


def _cmd_construct(args):
    if not args.instance:
        raise UsageError("construct requires --instance")
    entries = _resolve(args.instance, None)
    payload = {}
    for entry in entries:
        obj = entry["build"]()
        kind = entry["kind"]
        if kind == "prelie":
            out = {"product": tensor_triples(obj.xi),
                   "induced_bracket":
                       tensor_triples(induced_bracket(obj).bracket)}
        elif kind == "cotangent_input":
            out = {"product": tensor_triples(cotangent_prelie(obj).xi)}
        elif kind == "rmatrix":
            X = xi_from_rmatrix(obj)
            out = {"product": tensor_triples(X.xi),
                   "action_on_carrier":
                       tensor_triples(xi_action_on_g(X).coefficients)}
        elif kind == "bialgebra":
            out = {"bracket": tensor_triples(obj.algebra.bracket),
                   "cobracket": tensor_triples(obj.coalgebra.cobracket)}
        else:
            raise UsageError(
                f"construct does not apply to kind {kind!r}")
        payload[entry["id"]] = out
    _emit(payload, args.json, True)
    return 0


def _lie_for_calculus(entry, obj):
    lie, _ = _prelie_context(entry, obj)
    if lie is None:
        lie = induced_bracket(obj)
    return lie


def _cmd_calculus(args):
    if not args.instance and not args.instance_file:
        raise UsageError("calculus requires --instance or --instance-file")
    entries = _resolve(args.instance, args.instance_file)
    payload = {}
    for entry in entries:
        if entry["kind"] != "prelie":
            raise UsageError(
                f"{entry['id']}: calculus needs a pre-Lie instance")
        obj = entry["build"]()
        lie = _lie_for_calculus(entry, obj)
        first = check_first_order(lie, obj, max_len=args.max_len)
        try:
            lam = Scalar(_parse_fraction(json.loads(args.lam)))
        except (json.JSONDecodeError, SchemaError):
            raise UsageError(f"bad --lambda value {args.lam!r}")
        kernel = kernel_of_d(lie, obj, args.max_len, lam)
        payload[entry["id"]] = {
            "first_order": bool(first),
            "kernel_dimension": kernel["dimension"],
            "connected": kernel["dimension"] == 1,
        }
    passed = all(v["first_order"] and v["connected"]
                 for v in payload.values())
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


def _cmd_groupdga(args):
    if not args.instance and not args.instance_file:
        raise UsageError("groupdga requires --instance or --instance-file")
    entries = _resolve(args.instance, args.instance_file)
    payload = {}
    passed = True
    for entry in entries:
        if entry["kind"] != "group_dga":
            raise UsageError(f"{entry['id']}: not a group DGA instance")
        rep = check_group_dga(entry["build"](),
                              max_len=min(args.max_len, 3))
        payload[entry["id"]] = {
            "passed": rep["passed"],
            "warnings": sorted(rep["warnings"]),
        }
        passed = passed and rep["passed"]
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


def _metric_from_args(args):
    if args.instance or args.instance_file:
        entries = _resolve(args.instance, args.instance_file)
        out = []
        for entry in entries:
            if entry["kind"] != "metric":
                raise UsageError(f"{entry['id']}: not a metric instance")
            out.append((entry["id"], entry["build"]()))
        return out
    if args.case is None:
        raise UsageError("metric/curvature needs --case, --instance or "
                         "--instance-file")
    kwargs = {}
    try:
        if args.alpha is not None:
            kwargs["alpha"] = _parse_fraction(json.loads(args.alpha))
        if args.beta is not None:
            kwargs["beta"] = _parse_fraction(json.loads(args.beta))
        for key in ("c1", "c2", "c3"):
            v = getattr(args, key)
            if v is not None:
                kwargs[key] = Scalar(_parse_fraction(json.loads(v)))
    except (json.JSONDecodeError, SchemaError) as exc:
        raise UsageError(f"bad metric parameter: {exc}")
    try:
        M = standard_metric(args.case, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))
    return [(f"case{args.case}", M)]


def _cmd_metric(args):
    pairs = _metric_from_args(args)
    payload = {}
    for name, M in pairs:
        payload[name] = check_metric(M)
    passed = _all_bools_pass(payload)
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


def _cmd_curvature(args):
    pairs = _metric_from_args(args)
    payload = {}
    passed = True
    for name, M in pairs:
        try:
            R = scalar_curvature_classical(M)
        except ValueError as exc:
            payload[name] = {"error": str(exc)}
            passed = False
            continue
        entry = {"scalar_curvature": repr(_tidy_ratfunc(R))}
        expected = _closed_form_curvature(M)
        if expected is not None:
            entry["matches_closed_form"] = ratfunc_equal(R, expected)
            passed = passed and entry["matches_closed_form"]
        payload[name] = entry
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


def _cmd_su2(args):
    payload = {
        "semiclassical": verify_su2_semiclassical(),
        "bicrossproduct_omega": verify_su2_bicrossproduct_omega(),
    }
    passed = all(v["passed"] for v in payload.values())
    _emit(payload, args.json, passed)
    return 0 if passed else CHECK_FAILED


def _cmd_catalog(args):
    payload = {e["id"]: {"kind": e["kind"]} for e in load_catalog()}
    _emit(payload, args.json, True)
    return 0


class UsageError(Exception):
    pass


def _add_common(p):
    p.add_argument("--instance", action="append", default=[],
                   help="catalog instance id (repeatable)")
    p.add_argument("--instance-file", action="append", default=[],
                   help="JSON instance file (repeatable)")
    p.add_argument("--max-len", type=int, default=3,
                   help="word-length bound for exhaustive checks")
    p.add_argument("--lambda", dest="lam", default="1",
                   help="numeric deformation parameter (rational)")
    p.add_argument("--json", action="store_true",
                   help="emit a JSON report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prelie-calculus",
        description="Exact checks for pre-Lie structures, their "
                    "enveloping-algebra calculi and quantum metrics.")
    sub = parser.add_subparsers(dest="command")
    for name, fn in (("check", _cmd_check),
                     ("construct", _cmd_construct),
                     ("calculus", _cmd_calculus),
                     ("groupdga", _cmd_groupdga),
                     ("metric", _cmd_metric),
                     ("curvature", _cmd_curvature),
                     ("su2", _cmd_su2),
                     ("catalog", _cmd_catalog)):
        p = sub.add_parser(name)
        _add_common(p)
        if name in ("metric", "curvature"):
            p.add_argument("--case", type=int, default=None)
            p.add_argument("--alpha", default=None)
            p.add_argument("--beta", default=None)
            p.add_argument("--c1", default=None)
            p.add_argument("--c2", default=None)
            p.add_argument("--c3", default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyError as exc:
        print(f"error: unknown instance {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SCHEMA_ERROR


if __name__ == "__main__":
    sys.exit(main())
