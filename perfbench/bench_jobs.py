"""Seeded inputs and expected verdicts for the three workloads.

A workload is a sequence of rounds.  Every round holds the same
stratified job mix (the same commands at the same sizes and height
classes); the seed draws the parameters inside each stratum and the
order of the jobs.  The expected answer of every job comes from this
file and ``bench_oracle``, never from ``prelie_calculus``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import bench_oracle

WORKLOADS = ("calculus", "axioms", "geometry")

# -- the paper's pre-Lie products, basis (x, t) = (0, 1) for dim 2 and
# the dual Chevalley basis (phi, psi+, psi-) for su2* -----------------

_NEG_I = (Fraction(0), Fraction(-1))
_NEG_HALF_I = (Fraction(0), Fraction(-1, 2))


def _real(v):
    return (Fraction(v), Fraction(0))


def _b_table(which, param=0):
    p = Fraction(param)
    table = {
        "b1": {(1, 0, 0): -1, (1, 1, 1): p},
        "b2": {(0, 1, 0): p, (1, 0, 0): p - 1, (1, 1, 1): p},
        "b3": {(1, 0, 0): -1, (1, 1, 0): 1, (1, 1, 1): -1},
        "b4": {(0, 0, 1): 1, (1, 0, 0): -1, (1, 1, 1): -2},
        "b5": {(0, 1, 0): 1, (1, 1, 0): 1, (1, 1, 1): 1},
    }[which]
    return {k: _real(v) for k, v in table.items() if v != 0}


PRELIE_PRODUCTS = {
    "b1(alpha=-2)": (2, _b_table("b1", -2)),
    "b1(alpha=0)": (2, _b_table("b1", 0)),
    "b1(alpha=1)": (2, _b_table("b1", 1)),
    "b1(alpha=3)": (2, _b_table("b1", 3)),
    "b2(beta=1)": (2, _b_table("b2", 1)),
    "b2(beta=2)": (2, _b_table("b2", 2)),
    "b3": (2, _b_table("b3")),
    "b4": (2, _b_table("b4")),
    "b5": (2, _b_table("b5")),
    "su2-dual-prelie": (3, {(0, 0, 0): _NEG_I, (0, 1, 1): _NEG_HALF_I,
                            (0, 2, 2): _NEG_HALF_I}),
}

CATALOG_IDS = (*PRELIE_PRODUCTS, "su2", "su2-coadjoint-pair",
               "b-quasitriangular", "cotangent-1", "cotangent-2",
               "metric-case1(alpha=-2)", "metric-case1(alpha=1)",
               "metric-case2(beta=1)", "metric-case2(beta=2)",
               "metric-case4", "metric-case5", "groupdga-z2", "groupdga-s3")

# checks the CLI runs per catalog kind; every one holds for the catalog
_CHECK_FIELDS = {
    "prelie2": ("bicovariance", "compatibility", "flat_right_action",
                "left_symmetry"),
    "su2-dual-prelie": ("compatibility", "flat_right_action",
                        "left_symmetry"),
    "su2": ("antisymmetry", "cocycle", "jacobi"),
    "su2-coadjoint-pair": ("matched_pair",),
    "b-quasitriangular": ("cybe", "induced_left_symmetry",
                          "symmetric_part_invariant"),
    "cotangent-1": ("cotangent_bicovariance", "left_symmetry"),
    "cotangent-2": ("cotangent_bicovariance", "left_symmetry"),
}

# heights of numerators and denominators in metric parameter draws
HEIGHTS = (3, 50, 10 ** 6)
METRIC_CASES = (1, 2, 4, 5)
# dims of the dense instance files, and the summand dims of each; every
# dim above 4 holds the complex su2* product, so that check cost grows
# with dim alone (real tables take the cheaper real Scalar path)
DENSE_SHAPES = {4: (2, 2), 5: (2, 3), 6: (3, 3), 7: (2, 2, 3)}
DENSE_PER_DIM = 3
# the dim-2 products with three nonzero constants; the sparser ones
# leave the basis-changed table far from dense
DENSE_SUMMANDS = ("b2(beta=2)", "b3", "b4", "b5")
DENSE_TRIES = 20


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the test its answer must pass."""
    label: str
    argv: tuple
    verify: Callable[[int, object], bool]
    rows: int = 0   # instance-file rows the CLI parses


# -- verdict predicates -----------------------------------------------

def _exact(expect_rc, expect_payload):
    def verify(rc, payload):
        return rc == expect_rc and payload == expect_payload
    return verify


def _all_true(key, fields):
    return _exact(0, {key: {f: True for f in fields}})


def parse_triples(rows):
    """CLI tensor rows [i, j, k, re_n, re_d, im_n, im_d] as a table."""
    return {(r[0], r[1], r[2]): (Fraction(r[3], r[4]), Fraction(r[5], r[6]))
            for r in rows}


def _table_dim(table):
    return 1 + max(max(key) for key in table)


def _construct_verify(iid):
    if iid in PRELIE_PRODUCTS:
        _, table = PRELIE_PRODUCTS[iid]
        bracket = bench_oracle.antisymmetrize(table)

        def fields_ok(out):
            return (set(out) == {"product", "induced_bracket"}
                    and parse_triples(out["product"]) == table
                    and parse_triples(out["induced_bracket"]) == bracket)
    elif iid == "su2":
        def fields_ok(out):
            br = parse_triples(out["bracket"])
            dual = {(j, k, i): v for (i, j, k), v in
                    parse_triples(out["cobracket"]).items()}
            return (set(out) == {"bracket", "cobracket"}
                    and bench_oracle.is_lie_bracket(br, 3)
                    and bench_oracle.is_lie_bracket(dual, 3))
    else:
        keys = {"product"} | ({"action_on_carrier"}
                              if iid == "b-quasitriangular" else set())

        def fields_ok(out):
            table = parse_triples(out["product"])
            return (set(out) == keys and
                    bench_oracle.is_left_symmetric(table, _table_dim(table)))

    def verify(rc, payload):
        return (rc == 0 and isinstance(payload, dict)
                and set(payload) == {iid} and fields_ok(payload[iid]))
    return verify


def _curvature_verify(key):
    def verify(rc, payload):
        if rc != 0 or not isinstance(payload, dict) or set(payload) != {key}:
            return False
        entry = payload[key]
        return (set(entry) == {"matches_closed_form", "scalar_curvature"}
                and entry["matches_closed_form"] is True
                and isinstance(entry["scalar_curvature"], str))
    return verify


# -- dense pre-Lie instance files --------------------------------------

def _unimodular(rng, n):
    """A seeded integer matrix of determinant +-1 and its inverse, as
    (P, Q) with P Q = 1: unit lower times unit upper triangular, with
    the basis order permuted."""
    lower = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0)
              for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[sum(lower[i][m] * upper[m][j] for m in range(n))
          for j in range(n)] for i in range(n)]
    p = [[p[i][perm[j]] for j in range(n)] for i in range(n)]
    return p, _integer_inverse(p)


def _integer_inverse(p):
    n = len(p)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    q = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    if any(v.denominator != 1 for row in q for v in row):
        raise ValueError("basis change is not unimodular")
    return [[int(v) for v in row] for row in q]


def _direct_sum(parts):
    table, offset = {}, 0
    for dim, part in parts:
        for (i, j, k), v in part.items():
            table[(i + offset, j + offset, k + offset)] = v
        offset += dim
    return offset, table


def _change_basis(table, p, q):
    """Structure constants in the basis f_a = sum_i P[i][a] e_i."""
    n = len(p)
    out = {}
    for (i, j, k), (re, im) in table.items():
        for a in range(n):
            if not p[i][a]:
                continue
            for b in range(n):
                s = p[i][a] * p[j][b]
                if not s:
                    continue
                for c in range(n):
                    w = s * q[c][k]
                    if w:
                        old = out.get((a, b, c), (0, 0))
                        out[(a, b, c)] = (old[0] + w * re, old[1] + w * im)
    return {key: v for key, v in out.items() if v != (0, 0)}


def dense_instance(rng, dim, mutate):
    """A dense pre-Lie table of the given dim: a direct sum of catalog
    products under a seeded unimodular basis change, with one
    coefficient changed when ``mutate`` is set."""
    two = [PRELIE_PRODUCTS[i] for i in DENSE_SUMMANDS]
    parts = [rng.choice(two) if d == 2 else PRELIE_PRODUCTS["su2-dual-prelie"]
             for d in DENSE_SHAPES[dim]]
    n, base = _direct_sum(parts)
    # redraw the basis change until at least 90% of the n^3 constants
    # are nonzero, so that check cost depends on dim alone
    table = {}
    for _ in range(DENSE_TRIES):
        p, q = _unimodular(rng, n)
        table = max(table, _change_basis(base, p, q), key=len)
        if 10 * len(table) >= 9 * n ** 3:
            break
    if mutate:
        key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        re, im = table.get(key, (0, 0))
        table[key] = (re + rng.choice((-2, -1, 1, 2)), im)
        if table[key] == (0, 0):
            del table[key]
    return table


def instance_document(iid, dim, table):
    rows = [[i, j, k, re.numerator, re.denominator,
             im.numerator, im.denominator]
            for (i, j, k), (re, im) in sorted(table.items())]
    return {"id": iid, "kind": "prelie",
            "payload": {"dim": dim,
                        "names": [f"f{a}" for a in range(dim)],
                        "xi": rows}}


def write_dense_pool(seed, r, out_dir: Path):
    """Write round r's DENSE_PER_DIM files per dim, half of them mutants.

    Returns [(path, id, dim, nnz, expected_verdict)]; the same seed
    gives byte-identical files.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = []
    serial = 0
    for dim in sorted(DENSE_SHAPES):
        for copy in range(DENSE_PER_DIM):
            rng = random.Random(f"dense:{seed}:{r}:{dim}:{copy}")
            mutate = (serial % 2 == 1)
            table = dense_instance(rng, dim, mutate)
            iid = f"dense-r{r}-d{dim}-{copy}"
            path = out_dir / f"{iid}.json"
            path.write_text(json.dumps(
                instance_document(iid, dim, table),
                sort_keys=True, separators=(",", ":")) + "\n")
            verdict = bench_oracle.is_left_symmetric(table, dim)
            pool.append((path, iid, dim, len(table), verdict))
            serial += 1
    return pool


# -- parameter draws ---------------------------------------------------

def draw_rational(rng, height):
    """A nonzero rational with numerator and denominator of absolute
    value at most ``height``."""
    while True:
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        if num:
            return Fraction(num, den)


def _flag(q: Fraction):
    return str(q.numerator) if q.denominator == 1 \
        else f"[{q.numerator},{q.denominator}]"


def draw_lambda(rng):
    if rng.randrange(6) == 0:
        return Fraction(0)
    return draw_rational(rng, 9)


def draw_metric(rng, case, height):
    """Flags for a metric/curvature job; c2 = 0 outside case 1, and the
    case-1 draw keeps c1 c3 != c2^2."""
    args = {}
    if case == 1:
        args["alpha"] = draw_rational(rng, height)
    if case == 2:
        args["beta"] = draw_rational(rng, height)
    while True:
        c1, c3 = draw_rational(rng, height), draw_rational(rng, height)
        c2 = draw_rational(rng, height) if case == 1 else Fraction(0)
        if c1 * c3 != c2 * c2:
            break
    args.update(c1=c1, c3=c3)
    if case == 1:
        args["c2"] = c2
    flags = ["--case", str(case)]
    for key in sorted(args):
        flags += [f"--{key}", _flag(args[key])]
    return flags


# -- rounds -------------------------------------------------------------

def _calculus_round(rng):
    jobs = []
    for iid, (dim, _) in PRELIE_PRODUCTS.items():
        for max_len in ((3, 4, 5) if dim == 2 else (3, 4)):
            lam = _flag(draw_lambda(rng))
            expect = {iid: {"connected": True, "first_order": True,
                            "kernel_dimension": 1}}
            jobs.append(Job(f"calculus {iid} len{max_len}",
                            ("calculus", "--instance", iid, "--max-len",
                             str(max_len), "--lambda", lam, "--json"),
                            _exact(0, expect)))
    return jobs


def _axioms_catalog_jobs():
    jobs = []
    ids = list(PRELIE_PRODUCTS) + [k for k in _CHECK_FIELDS
                                   if k not in PRELIE_PRODUCTS
                                   and k != "prelie2"]
    for iid in ids:
        fields = _CHECK_FIELDS.get(iid, _CHECK_FIELDS["prelie2"])
        jobs.append(Job(f"check {iid}", ("check", "--instance", iid,
                                         "--json"),
                        _all_true(iid, fields)))
        if iid != "su2-coadjoint-pair":   # construct has no matched pairs
            jobs.append(Job(f"construct {iid}",
                            ("construct", "--instance", iid, "--json"),
                            _construct_verify(iid)))
    return jobs


def _dense_jobs(pool):
    return [Job(f"check dense-d{dim} nnz{nnz}",
                ("check", "--instance-file", str(path), "--json"),
                _exact(0 if ok else 1, {iid: {"left_symmetry": ok}}),
                rows=nnz)
            for path, iid, dim, nnz, ok in pool]


def _geometry_round(rng):
    jobs = []
    for case in METRIC_CASES:
        for height in HEIGHTS:
            for cmd in ("metric", "curvature"):
                flags = draw_metric(rng, case, height)
                key = f"case{case}"
                verify = _all_true(key, ("central", "nondegenerate", "real",
                                         "wedge_symmetric")) \
                    if cmd == "metric" else _curvature_verify(key)
                jobs.append(Job(f"{cmd} case{case} h{height}",
                                (cmd, *flags, "--json"), verify))
    jobs.append(Job("su2", ("su2", "--json"), _exact(0, {
        "bicrossproduct_omega": {"passed": True},
        "semiclassical": {"passed": True}})))
    for iid in ("groupdga-z2", "groupdga-s3"):
        jobs.append(Job(f"groupdga {iid}",
                        ("groupdga", "--instance", iid, "--json"),
                        _exact(0, {iid: {"passed": True, "warnings": []}})))
    return jobs


class Workload:
    """The job source of one workload at one seed; instance files go
    under work_dir."""

    def __init__(self, name, seed, work_dir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.work_dir = name, seed, work_dir

    def round(self, r):
        """The jobs of round r, in seeded order."""
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        if self.name == "calculus":
            jobs = _calculus_round(rng)
        elif self.name == "axioms":
            jobs = _axioms_catalog_jobs() + _dense_jobs(
                write_dense_pool(self.seed, r, self.work_dir))
        else:
            jobs = _geometry_round(rng)
        rng.shuffle(jobs)
        return jobs

    def warmup(self):
        """A few cheap jobs that load every code path the rounds use."""
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        if self.name == "calculus":
            return [j for j in _calculus_round(rng) if "len3" in j.label]
        if self.name == "axioms":
            pool = write_dense_pool(self.seed, "warmup", self.work_dir)
            return _axioms_catalog_jobs() + _dense_jobs(pool[:1])
        return [j for j in _geometry_round(rng)
                if "h3" in j.label or "z2" in j.label]
