"""Golden witnesses for every structure-constant checker.

Each case runs one checker on inputs derived from a catalog instance,
once as built and once for each of three seeded single-coefficient
mutations of every input tensor.  ``tests/data/checker_witnesses.json``
holds the mutations and the results recorded from the dense loop
checkers that the contraction engine replaced.  Verdicts must match
exactly and witness lists as multisets (their order is not part of the
contract).

To record the fixture again, from a checker implementation that is
already trusted:

    PYTHONPATH=src python tests/test_checker_witnesses.py
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from prelie_calculus.catalog import (
    b_lie,
    load_catalog,
    su2_bialgebra,
    su2_dual_lie,
)
from prelie_calculus.constructions import (
    CotangentInput,
    SemidirectInput,
    _check_commutative,
    check_associative,
    check_braided_conditions,
    check_cotangent_bicovariance,
    check_module_condition,
    check_tangent_bicovariance,
    infinitesimal_braiding,
    xi_action_on_g,
)
from prelie_calculus.exact_core import Scalar, Tensor, ZERO
from prelie_calculus.liebialg import (
    ActionTensor,
    LieAlgebra,
    LieBialgebra,
    LieCoalgebra,
    MatchedPair,
    RMatrix,
    check_action_axiom,
    check_bialgebra_cocycle,
    check_crossed_module,
    check_lie_algebra,
    check_matched_pair,
    check_right_action_axiom,
    coadjoint_action,
    double_cross_sum,
)
from prelie_calculus.prelie import (
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

FIXTURE = Path(__file__).parent / "data" / "checker_witnesses.json"
MUTATIONS_PER_TENSOR = 3


def _names(n):
    return tuple(f"e{i}" for i in range(n))


def _lie(c):
    return LieAlgebra(c.shape[0], _names(c.shape[0]), c)


def _bialg(t):
    n = t["c"].shape[0]
    return LieBialgebra(LieAlgebra(n, _names(n), t["c"]),
                        LieCoalgebra(n, _names(n), t["d"]))


def _prelie(x):
    return PreLieProduct(x.shape[0], _names(x.shape[0]), x)


def _action(a):
    return ActionTensor(a.shape[0], a.shape[1], a)


def _cotangent(t):
    return CotangentInput(_bialg(t), _prelie(t["xi"]), _prelie(t["circ"]),
                          _prelie(t["star"]))


def _matched_pair(t):
    return MatchedPair(_lie(t["g"]), _lie(t["m"]), _action(t["ra"]),
                       _action(t["la"]))


# checker name -> call on a dict of named input tensors
CALLS = {
    "check_lie_algebra": lambda t: check_lie_algebra(t["c"]),
    "check_bialgebra_cocycle":
        lambda t: check_bialgebra_cocycle(_bialg(t), with_witnesses=True),
    "check_action_axiom": lambda t: check_action_axiom(
        _action(t["a"]), _lie(t["c"]), with_witnesses=True),
    "check_right_action_axiom": lambda t: check_right_action_axiom(
        _action(t["a"]), _lie(t["c"]), with_witnesses=True),
    "check_matched_pair":
        lambda t: check_matched_pair(_matched_pair(t), with_witnesses=True),
    "double_cross_sum": lambda t: double_cross_sum(_matched_pair(t)),
    "check_crossed_module": lambda t: check_crossed_module(
        _bialg(t), _action(t["act"]), _action(t["act_dual"])),
    "check_left_symmetry":
        lambda t: check_left_symmetry(_prelie(t["xi"]), with_witnesses=True),
    "induced_bracket": lambda t: induced_bracket(_prelie(t["xi"])),
    "check_compatibility": lambda t: check_compatibility(
        _prelie(t["xi"]), _lie(t["c"]), with_witnesses=True),
    "check_flat_right_action": lambda t: check_flat_right_action(
        _prelie(t["xi"]), _lie(t["c"]), with_witnesses=True),
    "check_bicovariance[Xi-bi]": lambda t: check_bicovariance(
        _prelie(t["xi"]), _bialg(t), with_witnesses=True, variant="Xi-bi"),
    "check_bicovariance[bi]": lambda t: check_bicovariance(
        _prelie(t["xi"]), _bialg(t), with_witnesses=True, variant="bi"),
    "check_rmatrix_symmetric_part": lambda t: check_rmatrix_symmetric_part(
        RMatrix(_bialg(t), t["r"]), with_witnesses=True),
    "check_cybe":
        lambda t: check_cybe(RMatrix(_bialg(t), t["r"]), with_witnesses=True),
    "xi_from_rmatrix": lambda t: xi_from_rmatrix(RMatrix(_bialg(t), t["r"])),
    "check_associative":
        lambda t: check_associative(_prelie(t["xi"]), with_witnesses=True),
    "_check_commutative": lambda t: _check_commutative(_prelie(t["xi"])),
    "check_module_condition": lambda t: check_module_condition(
        SemidirectInput(_prelie(t["circ"]), _prelie(t["star"]),
                        _action(t["a"])), with_witnesses=True),
    "check_tangent_bicovariance": lambda t: check_tangent_bicovariance(
        _prelie(t["circ"]), _prelie(t["star"]), _bialg(t),
        with_witnesses=True),
    "check_braided_conditions": lambda t: check_braided_conditions(
        _prelie(t["xi"]), _bialg(t), with_witnesses=True),
    "infinitesimal_braiding":
        lambda t: infinitesimal_braiding(_prelie(t["xi"]), _bialg(t)),
    "check_cotangent_bicovariance": lambda t: check_cotangent_bicovariance(
        _cotangent(t), with_witnesses=True),
}


def _antisymmetrized(x):
    n = x.shape[0]
    entries = {}
    for (i, j, k), v in x.entries.items():
        entries[(i, j, k)] = entries.get((i, j, k), ZERO) + v
        entries[(j, i, k)] = entries.get((j, i, k), ZERO) - v
    return Tensor((n, n, n), entries)


def _zero(n):
    return Tensor((n, n, n), {})


def cases():
    """[(checker, instance id, {name: Tensor})] over the catalog."""
    out = []

    def add(checkers, iid, **tensors):
        for checker in checkers:
            out.append((checker, iid, tensors))

    # the bialgebra the CLI pairs with every dim-2 pre-Lie instance:
    # abelian, cobracket dual to [x, t] = x
    b = b_lie().bracket
    kk = {"c": _zero(2),
          "d": Tensor((2, 2, 2), {(k, i, j): v
                                  for (i, j, k), v in b.entries.items()})}
    su2 = su2_bialgebra()
    su2_t = {"c": su2.algebra.bracket, "d": su2.coalgebra.cobracket}
    bicov = ("check_bicovariance[Xi-bi]", "check_bicovariance[bi]")
    for entry in load_catalog():
        iid, kind = entry["id"], entry["kind"]
        if kind == "prelie":
            x = entry["build"]().xi
            lie, bialg = (b, kk) if x.shape[0] == 2 \
                else (su2_dual_lie().bracket, su2_t)
            add(("check_left_symmetry", "induced_bracket",
                 "check_associative", "_check_commutative"), iid, xi=x)
            add(("check_lie_algebra",), iid, c=_antisymmetrized(x))
            add(("check_compatibility", "check_flat_right_action"), iid,
                xi=x, c=lie)
            add(bicov, iid, xi=x, **bialg)
            add(("check_crossed_module",), iid,
                act=coadjoint_action(_bialg(bialg)).coefficients,
                act_dual=x.scale(Scalar(-1)), **bialg)
            if x.shape[0] == 2:
                add(("check_braided_conditions", "infinitesimal_braiding"),
                    iid, xi=x, **kk)
                add(("check_tangent_bicovariance",), iid,
                    circ=x, star=_zero(2), **kk)
                add(("check_module_condition",), iid,
                    circ=x, star=_zero(2), a=b)
        elif kind == "bialgebra":
            B = entry["build"]()
            t = {"c": B.algebra.bracket, "d": B.coalgebra.cobracket}
            co = coadjoint_action(B).coefficients
            add(("check_lie_algebra", "check_bialgebra_cocycle"), iid, **t)
            add(("check_action_axiom", "check_right_action_axiom"), iid,
                a=co, c=t["c"])
            add(("check_crossed_module",), iid, act=co,
                act_dual=_zero(B.dim), **t)
        elif kind == "matched_pair":
            P = entry["build"]()
            t = {"g": P.g.bracket, "m": P.m.bracket,
                 "ra": P.right_action.coefficients,
                 "la": P.left_action.coefficients}
            add(("check_matched_pair", "double_cross_sum"), iid, **t)
            add(("check_action_axiom",), iid, a=t["la"], c=t["m"])
            add(("check_right_action_axiom",), iid, a=t["ra"], c=t["g"])
            add(("check_lie_algebra",), iid + "/g", c=t["g"])
            add(("check_lie_algebra",), iid + "/m", c=t["m"])
        elif kind == "rmatrix":
            R = entry["build"]()
            B = R.carrier
            t = {"c": B.algebra.bracket, "d": B.coalgebra.cobracket}
            add(("check_rmatrix_symmetric_part", "check_cybe",
                 "xi_from_rmatrix"), iid, r=R.r, **t)
            add(("check_lie_algebra", "check_bialgebra_cocycle"), iid, **t)
            x = xi_from_rmatrix(R).xi
            xid = iid + "/xi"
            add(("check_left_symmetry", "check_associative"), xid, xi=x)
            add(bicov + ("check_braided_conditions",
                         "infinitesimal_braiding"), xid, xi=x, **t)
            add(("check_crossed_module",), xid,
                act=coadjoint_action(B).coefficients,
                act_dual=x.scale(Scalar(-1)), **t)
        elif kind == "cotangent_input":
            C = entry["build"]()
            t = {"c": C.carrier.algebra.bracket,
                 "d": C.carrier.coalgebra.cobracket}
            add(("check_cotangent_bicovariance",), iid, xi=C.xi.xi,
                circ=C.circ.xi, star=C.star.xi, **t)
            add(("check_braided_conditions", "infinitesimal_braiding")
                + bicov, iid, xi=C.xi.xi, **t)
            add(("check_module_condition",), iid, circ=C.circ.xi,
                star=C.star.xi, a=xi_action_on_g(C.xi).coefficients)
            add(("check_associative", "_check_commutative"), iid + "/star",
                xi=C.star.xi)
            add(("check_tangent_bicovariance",), iid, circ=C.circ.xi,
                star=C.star.xi, **t)
    return out


def _scalar_json(v):
    return [v.re.numerator, v.re.denominator, v.im.numerator,
            v.im.denominator]


def _scalar(row):
    return Scalar(Fraction(row[0], row[1]), Fraction(row[2], row[3]))


def mutate(tensors, mutation):
    """Inputs with one coefficient replaced: [name, index, scalar]."""
    if mutation is None:
        return tensors
    name, idx, value = mutation
    t = tensors[name]
    entries = dict(t.entries)
    entries[tuple(idx)] = _scalar(value)
    return {**tensors, name: Tensor(t.shape, entries)}


def run_case(checker, tensors):
    """JSON form of a checker's result; a raised ValueError or
    AssertionError is a verdict of its own."""
    try:
        result = CALLS[checker](tensors)
    except (ValueError, AssertionError) as exc:
        return {"raises": type(exc).__name__}
    if isinstance(result, LieAlgebra):
        result = result.bracket
    elif isinstance(result, PreLieProduct):
        result = result.xi
    if isinstance(result, Tensor):
        return {"shape": list(result.shape),
                "entries": [list(k) + _scalar_json(v)
                            for k, v in sorted(result.entries.items())]}
    return json.loads(json.dumps(result))


def canonical(result):
    """Witness lists sorted, so that comparison is by multiset."""
    if not isinstance(result, dict):
        return result
    out = {}
    for key, val in result.items():
        if key == "witnesses" and isinstance(val, dict):
            val = {k: sorted(v, key=json.dumps) for k, v in val.items()}
        elif key == "witnesses":
            val = sorted(val, key=json.dumps)
        out[key] = val
    return out


def record():
    rows = []
    for checker, iid, tensors in cases():
        rng = random.Random(f"{checker}|{iid}")
        mutations = [None]
        for name in sorted(tensors):
            t = tensors[name]
            for _ in range(MUTATIONS_PER_TENSOR):
                idx = tuple(rng.randrange(d) for d in t.shape)
                step = rng.choice((1, -1, 2, -2))
                delta = Scalar(step) if rng.random() < 0.75 \
                    else Scalar(0, step)
                value = t.entries.get(idx, ZERO) + delta
                mutations.append([name, list(idx), _scalar_json(value)])
        for mutation in mutations:
            rows.append({"checker": checker, "instance": iid,
                         "mutation": mutation,
                         "result": run_case(checker,
                                            mutate(tensors, mutation))})
    FIXTURE.parent.mkdir(exist_ok=True)
    with open(FIXTURE, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row, separators=(",", ":"))
                                    for row in rows) + "\n]\n")


def _rows():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    recorded = Counter((r["checker"], r["instance"]) for r in _rows()
                       if r["mutation"] is None)
    current = Counter((c, iid) for c, iid, _ in cases())
    assert recorded == current
    assert set(CALLS) == {c for c, _ in current}


@pytest.mark.parametrize("checker", sorted(CALLS))
def test_matches_recorded_witnesses(checker):
    inputs = {(c, iid): t for c, iid, t in cases() if c == checker}
    rows = [r for r in _rows() if r["checker"] == checker]
    assert rows
    for row in rows:
        tensors = mutate(inputs[(checker, row["instance"])], row["mutation"])
        got = canonical(run_case(checker, tensors))
        assert got == canonical(row["result"]), (row["instance"],
                                                 row["mutation"])


if __name__ == "__main__":
    record()
