import ast
import inspect
import random
import re
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from math import comb

import pytest

from prelie_calculus import cli, group_dga
from prelie_calculus.exact_core import ONE, Scalar, ZERO
from prelie_calculus.group_dga import (
    GroupDGA,
    GroupDGAData,
    _d_squared_size,
    _generators,
    _monomials,
    check_group_dga,
    s3_instance,
    z2_instance,
)


def greedy_generators(cayley, identity):
    """The greedy generators of _generators without its doubling rule:
    on a table that is no group they may be up to s elements."""
    reached = {identity}
    gens = []
    for g in range(len(cayley)):
        if g not in reached:
            gens.append(g)
            frontier = set(reached)
            while frontier:
                frontier = {cayley[x][h] for x in frontier
                            for h in gens} - reached
                reached |= frontier
    return gens


def trivial_instance() -> GroupDGA:
    """Trivial group on one point with theta = x_1."""
    return GroupDGA(GroupDGAData(
        cayley=((0,),), action=((0,),), theta=(ONE,)))


# -- the generator-pair oracle: the four lists that check_group_dga no
# longer sweeps, since README proves them from the rewrite rules

def omega_tilde(dga, a):
    """omega-tilde on the augmentation ideal, valued in V* (+) V.

    Returns (psi, v): psi the y-components, v the x-components.
    Monomials alpha^A g with A supported on one index i map to
    (-1)^(|A|-1) alpha_{g^{-1}|>i}; pure group terms g map to
    g^{-1}|>theta - theta; mixed-support monomials map to zero.
    """
    psi = [ZERO] * dga.n
    vec = [ZERO] * dga.n
    for (A, g, eta), c in a.items():
        assert not eta, "omega-tilde is defined on degree-0 terms"
        support = [i for i, e in enumerate(A) if e > 0]
        if not support:
            if g == dga.identity:
                continue  # the unit is projected out
            for k, t in enumerate(dga._theta_forms[g]):
                vec[k] = vec[k] + c * t
        elif len(support) == 1:
            i = support[0]
            sign = Scalar((-1) ** (A[i] - 1))
            j = dga.data.action[dga.inv[g]][i]
            psi[j] = psi[j] + c * sign
        # products of distinct alphas *-multiply to zero
    return psi, vec


def crossed_action(dga, pair, key):
    """Right action of a monomial alpha^A g on V* (+) V from the
    cotangent crossed module: (psi+v) <| g = g^{-1}|>(psi+v) and
    (psi+v) <| (alpha_i g) = -g^{-1}|>(alpha_i * psi); higher alpha
    degree acts by iterated *, and * is idempotent per point."""
    psi, vec = pair
    A, g, eta = key
    assert not eta, "only degree-0 monomials act"
    moved = dga.data.action[dga.inv[g]]
    npsi = [ZERO] * dga.n
    nvec = [ZERO] * dga.n
    support = [i for i, e in enumerate(A) if e > 0]
    if not support:
        for j in range(dga.n):
            npsi[moved[j]] = psi[j]
            nvec[moved[j]] = vec[j]
    # alpha_{i1}*...*alpha_{ik}*psi kills v and all but the common point
    elif len(support) == 1:
        i = support[0]
        npsi[moved[i]] = Scalar((-1) ** sum(A)) * psi[i]
    return npsi, nvec


def reference_generator_sweeps(dga):
    """Tagged witnesses of graded Leibniz on pairs of generators, forms
    included ("leibniz", a, b); [alpha_i, d alpha_j] = delta_ij d alpha_j
    ("alpha_form", i, j); the omega-tilde right-module property
    omega(pi(u) v) = omega(pi(u)) <| v on pairs of alphas and group
    elements ("omega_module", u, v); and omega(g alpha_j) = y_j through
    the rewrite g alpha_j = alpha_{g|>j} g ("omega_welldef", g, j)."""
    witnesses = []
    build = {"alpha": dga.alpha, "group": dga.group, "form": dga.form}
    gens0 = [("alpha", i) for i in range(dga.n)] \
        + [("group", g) for g in range(dga.size)]
    gens = gens0 + [("form", f) for f in range(2 * dga.n)]
    for la, lb in iproduct(gens, repeat=2):
        a, b = build[la[0]](la[1]), build[lb[0]](lb[1])
        da_b, a_db = dga.mul(dga.d(a), b), dga.mul(a, dga.d(b))
        rhs = dga.sub(da_b, a_db) if la[0] == "form" \
            else dga.add(da_b, a_db)
        if not dga.is_zero(dga.sub(dga.d(dga.mul(a, b)), rhs)):
            witnesses.append(("leibniz", la, lb))

    for i, j in iproduct(range(dga.n), repeat=2):
        ai, yj = dga.alpha(i), dga.form(j)
        comm = dga.sub(dga.mul(ai, yj), dga.mul(yj, ai))
        if not dga.is_zero(dga.sub(comm, yj if i == j else {})):
            witnesses.append(("alpha_form", i, j))

    # pi(u) = u - eps(u) 1: eps kills alphas and sends every group
    # element to 1, and eps(pi(u) v) = 0
    for la, lb in iproduct(gens0, repeat=2):
        u, v = build[la[0]](la[1]), build[lb[0]](lb[1])
        pu = dga.sub(u, dga.group(dga.identity)) if la[0] == "group" \
            else u
        (vkey,) = v
        if omega_tilde(dga, dga.mul(pu, v)) != \
                crossed_action(dga, omega_tilde(dga, pu), vkey):
            witnesses.append(("omega_module", la, lb))

    for g, j in iproduct(range(dga.size), range(dga.n)):
        y_j = [ZERO] * dga.n
        y_j[j] = ONE
        if omega_tilde(dga, dga.mul(dga.group(g), dga.alpha(j))) \
                != (y_j, [ZERO] * dga.n):
            witnesses.append(("omega_welldef", g, j))
    return witnesses


def permutation_group_dga(generators, theta):
    """The group that the permutations generate, acting on their
    points, with its Cayley table read off composition."""
    n = len(generators[0])
    perms = [tuple(range(n))]
    for p in perms:
        for q in generators:
            pq = tuple(p[q[i]] for i in range(n))
            if pq not in perms:
                perms.append(pq)
    lookup = {p: i for i, p in enumerate(perms)}
    cayley = tuple(tuple(lookup[tuple(p[q[i]] for i in range(n))]
                         for q in perms) for p in perms)
    return GroupDGA(GroupDGAData(cayley=cayley, action=tuple(perms),
                                 theta=theta))


# generators of each permutation group the oracle is run on
FAMILIES = {
    "z2-on-2": [(1, 0)],
    "z2-on-4": [(1, 0, 3, 2)],
    "z3": [(1, 2, 0)],
    "z4": [(1, 2, 3, 0)],
    "s3": [(1, 2, 0), (0, 2, 1)],
    "z2xz2": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "z2-fixing-one": [(1, 0, 2)],
    "trivial-on-2": [(0, 1)],
}


def seeded_family(name, seed):
    """The group of FAMILIES[name] with a seeded Gaussian-rational
    theta."""
    rng = random.Random(seed)
    generators = FAMILIES[name]

    def part():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    return permutation_group_dga(generators, tuple(
        Scalar(part(), part()) for _ in generators[0]))


class TestOracle:
    """The four generator-pair lists are theorems of the rewrite rules
    (README): the oracle finds no witness on any valid instance."""

    @pytest.mark.parametrize("name", ["trivial", "z2", "s3"])
    def test_catalog_instances(self, name):
        assert reference_generator_sweeps(INSTANCES[name]()) == []

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name", FAMILIES)
    def test_seeded_families(self, name, seed):
        dga = seeded_family(name, seed)
        assert reference_generator_sweeps(dga) == []
        assert check_group_dga(dga, max_len=2)["passed"]


class TestValidation:
    def test_non_group_table_rejected(self):
        # {0,1} with absorbing 1 is a monoid without inverses
        with pytest.raises(ValueError, match="inverse"):
            GroupDGA(GroupDGAData(
                cayley=((0, 1), (1, 1)), action=((0,), (0,)), theta=(ONE,)))
        # a genuinely non-associative table
        with pytest.raises(ValueError, match="associative"):
            GroupDGA(GroupDGAData(
                cayley=((0, 1, 2), (1, 2, 0), (2, 1, 0)),
                action=((0,), (0,), (0,)), theta=(ONE,)))

    def test_non_associative_only_off_the_generators(self):
        """Z_4 with 2.2 = 1 and 2.3 = 0: every product with the generator
        1 is that of Z_4 and the defect is a product of non-generators,
        yet the test on the generator finds a failing triple."""
        cayley = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 1, 0), (3, 0, 1, 2))
        assert _generators(cayley, 0) == [1]
        with pytest.raises(ValueError, match="not associative") as exc:
            GroupDGA(GroupDGAData(cayley=cayley, action=((0,),) * 4,
                                  theta=(ONE,)))
        a, b, c = ast.literal_eval(str(exc.value).rsplit(" at ", 1)[1])
        assert cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]

    def test_associativity_agrees_with_the_full_scan(self, monkeypatch):
        """On every table of order 3 with identity 0, on Z_4 and Z_2 x Z_2
        and on seeded tables of order 4, the test on generators refuses a
        table exactly when some triple is not associative, once the
        greedy generators run to the end (greedy_generators).  With the
        doubling rule of _generators the validator accepts exactly the
        groups, and refuses a table as not associative or as not a group
        only when it is not."""
        def table(size, free):
            free = iter(free)
            return tuple(tuple(h if g == 0 else g if h == 0 else next(free)
                               for h in range(size)) for g in range(size))

        rng = random.Random(4)
        tables = [table(3, free) for free in iproduct(range(3), repeat=4)]
        tables += [tuple(tuple((g + h) % 4 for h in range(4))
                         for g in range(4)),
                   tuple(tuple(g ^ h for h in range(4)) for g in range(4))]
        tables += [table(4, (rng.randrange(4) for _ in range(9)))
                   for _ in range(200)]
        def refusal(cayley):
            try:
                GroupDGA(GroupDGAData(cayley=cayley,
                                      action=((0,),) * len(cayley),
                                      theta=(ONE,)))
            except ValueError as exc:
                return str(exc)
            return None

        outcomes = Counter()
        for cayley in tables:
            size = len(cayley)
            scan = all(cayley[cayley[a][b]][c] == cayley[a][cayley[b][c]]
                       for a, b, c in iproduct(range(size), repeat=3))
            group = scan and all(
                any(cayley[g][h] == cayley[h][g] == 0 for h in range(size))
                for g in range(size))
            with monkeypatch.context() as mp:
                mp.setattr(group_dga, "_generators", greedy_generators)
                msg = refusal(cayley)
            assert (msg is not None and "not associative" in msg) \
                == (not scan), cayley
            msg = refusal(cayley)
            assert (msg is None) == group, cayley
            if msg is not None and "not associative" in msg:
                assert not scan, cayley
            outcomes[scan, msg is not None and "not a group" in msg] += 1
        assert outcomes[True, False] >= 2 and outcomes[False, False]
        assert outcomes[True, True] and outcomes[False, True]

    def test_max_is_refused_fast(self):
        """max on 0..299 is associative with identity 0 and no inverses;
        its greedy generators 1, 2, ... add one element each, so the
        second already fails to double and the table is refused before
        Light's test would run over all 299 of them."""
        size = 300
        data = GroupDGAData(
            cayley=tuple(tuple(max(a, b) for b in range(size))
                         for a in range(size)),
            action=((0,),) * size, theta=(ONE,))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(
                "not a group: generator 2 takes the products of the "
                "generators from 2 to 3 elements, less than double")):
            GroupDGA(data)
        assert time.perf_counter() - start < 0.2

    @pytest.mark.parametrize("cayley, entry", [
        (((0, 1), (1, -2)), "-2 at (1, 1)"),
        (((0, 2), (1, 0)), "2 at (0, 1)"),
    ])
    def test_entry_out_of_range_rejected(self, cayley, entry):
        """A negative entry would alias a row through Python indexing."""
        with pytest.raises(ValueError,
                           match=re.escape(f"cayley entry {entry} ")):
            GroupDGA(GroupDGAData(cayley=cayley, action=((0,), (0,)),
                                  theta=(ONE,)))

    def test_cyclic_group_of_order_300_reads_fast(self):
        size = 300
        data = GroupDGAData(
            cayley=tuple(tuple((a + b) % size for b in range(size))
                         for a in range(size)),
            action=((0,),) * size, theta=(ONE,))
        start = time.perf_counter()
        GroupDGA(data)
        assert time.perf_counter() - start < 0.2

    def test_non_homomorphism_rejected(self):
        # Z2 where the non-identity element acts trivially is fine, but
        # an "action" that is not multiplicative must be refused
        with pytest.raises(ValueError, match="homomorphism|identity"):
            GroupDGA(GroupDGAData(
                cayley=((0, 1), (1, 0)),
                action=((1, 0), (0, 1)),
                theta=(ONE, ZERO)))

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            GroupDGA(GroupDGAData(
                cayley=((0,),), action=((1, 1),), theta=(ONE, ZERO)))


class TestTrivialGroup:
    def test_dg_vanishes(self):
        dga = trivial_instance()
        assert dga.is_zero(dga.d(dga.group(0)))

    def test_alpha_form_commutator(self):
        # [alpha_1, d alpha_1] = d alpha_1
        dga = trivial_instance()
        a, y = dga.alpha(0), dga.form(0)
        comm = dga.sub(dga.mul(a, y), dga.mul(y, a))
        assert dga.is_zero(dga.sub(comm, y))

    def test_check_passes(self):
        rep = check_group_dga(trivial_instance(), max_len=3)
        assert rep["passed"]


class TestZ2:
    def test_dg_formula(self):
        # d g = g (x) (x_2 - x_1) for the swap g and theta = x_1
        dga = z2_instance()
        dg = dga.d(dga.group(1))
        n = dga.n
        assert dg == {
            ((0, 0), 1, (n + 0,)): Scalar(-1),
            ((0, 0), 1, (n + 1,)): ONE,
        }

    def test_d_alpha(self):
        dga = z2_instance()
        assert dga.d(dga.alpha(0)) == dga.form(0)

    def test_d_alpha_g(self):
        # d(alpha_i g) = g (x) g^{-1}|>y_i + alpha_i g (x) (g^{-1}|>theta - theta)
        dga = z2_instance()
        ag = dga.mul(dga.alpha(0), dga.group(1))
        d = dga.d(ag)
        assert d == {
            ((0, 0), 1, (1,)): ONE,            # g (x) y_2
            ((1, 0), 1, (2,)): Scalar(-1),     # alpha_1 g (x) -x_1
            ((1, 0), 1, (3,)): ONE,            # alpha_1 g (x) x_2
        }

    def test_form_past_group(self):
        # (psi + v).g = g (x) g^{-1}|>(psi + v)
        dga = z2_instance()
        for f in range(4):
            prod = dga.mul(dga.form(f), dga.group(1))
            moved = dga._act_form(dga.inv[1], f)
            assert prod == {((0, 0), 1, (moved,)): ONE}

    def test_form_past_alpha_g(self):
        # (y_i).(alpha_j g) = alpha_j g (x) g^{-1}|>y_i - delta_ij g (x) g^{-1}|>y_i
        dga = z2_instance()
        g = 1
        for i in range(2):
            for j in range(2):
                ag = dga.mul(dga.alpha(j), dga.group(g))
                prod = dga.mul(dga.form(i), ag)
                moved = dga._act_form(dga.inv[g], i)
                ej = [0, 0]
                ej[j] = 1
                expected = {(tuple(ej), g, (moved,)): ONE}
                if i == j:
                    expected[((0, 0), g, (moved,))] = Scalar(-1)
                assert prod == expected

    def test_check_passes(self):
        rep = check_group_dga(z2_instance(), max_len=3)
        assert rep["passed"]
        assert not rep["warnings"]

    def test_invariant_theta_warns(self):
        bad = GroupDGA(GroupDGAData(
            cayley=((0, 1), (1, 0)),
            action=((0, 1), (1, 0)),
            theta=(ONE, ONE)))
        rep = check_group_dga(bad, max_len=2)
        assert rep["passed"]  # warning only
        assert any("surjective" in w for w in rep["warnings"])


class TestS3:
    def test_omega_per_element(self):
        # omega(sigma - e) = sigma^{-1}|>theta - theta
        dga = s3_instance()
        for g in range(dga.size):
            direct = [ZERO] * 3
            gi = dga.inv[g]
            direct[dga.data.action[gi][0]] = direct[dga.data.action[gi][0]] \
                + ONE
            direct[0] = direct[0] - ONE
            _, vec = omega_tilde(
                dga, dga.sub(dga.group(g), dga.group(dga.identity)))
            assert vec == direct

    def test_omega_tilde_on_alpha_powers(self):
        # omega(alpha_i^m g) = (-1)^(m-1) alpha_{g^{-1}|>i}
        dga = s3_instance()
        g = 1
        elem = {((0, 2, 0), g, ()): ONE}
        psi, vec = omega_tilde(dga, elem)
        j = dga.data.action[dga.inv[g]][1]
        assert psi[j] == Scalar(-1)
        assert all(v.is_zero() for v in vec)
        # mixed support products *-multiply to zero
        psi2, _ = omega_tilde(dga, {((1, 1, 0), g, ()): ONE})
        assert all(v.is_zero() for v in psi2)

    def test_check_passes(self):
        rep = check_group_dga(s3_instance(), max_len=2)
        assert rep["passed"]
        assert not rep["warnings"]


class TestAlgebra:
    def test_associativity_sampled(self):
        dga = z2_instance()
        elems = [
            dga.alpha(0),
            dga.add(dga.group(1), dga.form(0)),
            dga.add(dga.form(2), dga.mul(dga.alpha(1), dga.form(1))),
        ]
        for a in elems:
            for b in elems:
                for c in elems:
                    lhs = dga.mul(dga.mul(a, b), c)
                    rhs = dga.mul(a, dga.mul(b, c))
                    assert dga.is_zero(dga.sub(lhs, rhs))

    def test_grassmann_relations(self):
        dga = z2_instance()
        for f in range(4):
            assert dga.is_zero(dga.mul(dga.form(f), dga.form(f)))
        anti = dga.add(dga.mul(dga.form(0), dga.form(2)),
                       dga.mul(dga.form(2), dga.form(0)))
        assert dga.is_zero(anti)

    def test_d_squared_on_mixed_element(self):
        dga = s3_instance()
        e = dga.mul(dga.mul(dga.alpha(0), dga.alpha(0)), dga.group(2))
        assert dga.is_zero(dga.d(dga.d(e)))


def label_products(dga, max_len):
    """Every product of 1 to max_len alphas and group elements with its
    generator labels, built left to right."""
    gens0 = [(("alpha", i), dga.alpha(i)) for i in range(dga.n)] \
        + [(("group", g), dga.group(g)) for g in range(dga.size)]

    def products(depth):
        if depth == 1:
            for lab, elem in gens0:
                yield (lab,), elem
            return
        for labs, elem in products(depth - 1):
            for lab, gen in gens0:
                yield labs + (lab,), dga.mul(elem, gen)

    for depth in range(1, max_len + 1):
        yield from products(depth)


def reference_d_squared(dga, max_len):
    """The d^2 check by the label sweep: the labels of every product of
    at most max_len degree-0 generators whose d^2 is not zero."""
    return [labs for labs, elem in label_products(dga, max_len)
            if not dga.is_zero(dga.d(dga.d(elem)))]


def mutate(monkeypatch, owner, name, old, new):
    """Replace owner.<name>, a GroupDGA method or an oracle function of
    this module, by its source with old, which must occur once, replaced
    by new."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), function.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


ORACLE = sys.modules[__name__]
# one mutant per witness list, with the s3 witness counts at max-len 3
# of the library's d^2 certificate and of the oracle.  No CLI path calls
# mul, so only the oracle sees a mutant of _mul_pieces; omega_tilde and
# crossed_action are the oracle's own, and their mutants show that its
# omega lists can fail
MUTANTS = {
    "d_sign": ((GroupDGA, "_d_pieces", "c * coeff * sign", "c * coeff"),
               {"d_squared": 53}, {"leibniz": 42}),
    "binomial_sign": ((GroupDGA, "_mul_pieces", "(-1) ** m",
                       "(-1) ** (m + 1)"),
                      {}, {"alpha_form": 3, "leibniz": 3}),
    # g . alpha_j = alpha_j . g
    "untwisted_action": ((GroupDGA, "_mul_pieces",
                          "Bm[self.data.action[g][j]] = e", "Bm[j] = e"),
                         {}, {"leibniz": 12, "omega_module": 12,
                              "omega_welldef": 12}),
    "omega_sign": ((ORACLE, "omega_tilde", "(-1) ** (A[i] - 1)",
                    "(-1) ** A[i]"),
                   {}, {"omega_welldef": 18}),
    "action_sign": ((ORACLE, "crossed_action", "(-1) ** sum(A)",
                     "(-1) ** (sum(A) + 1)"),
                    {}, {"omega_module": 3}),
}
INSTANCES = {"trivial": trivial_instance, "z2": z2_instance,
             "s3": s3_instance}


class TestDSquaredCertificate:
    """d^2 is applied once to each monomial alpha^A g that a product of
    at most max_len alphas and group elements reduces to; the label
    sweep is the oracle."""

    @pytest.mark.parametrize("build, monomials, products", [
        (z2_instance, 16, 84), (s3_instance, 70, 819)])
    def test_products_are_the_monomials(self, build, monomials, products):
        dga = build()
        keys = set(_monomials(dga, 3))
        assert len(keys) == len(list(_monomials(dga, 3))) == monomials
        seen = set()
        for count, (_, elem) in enumerate(label_products(dga, 3), 1):
            (key, c), = elem.items()
            assert c == ONE and key[2] == ()
            seen.add(key[:2])
        assert count == products and seen == keys

    def test_d_runs_once_per_monomial(self, monkeypatch):
        calls = Counter()
        for method in ("d", "mul"):
            def counted(dga, *args, method=method,
                        true=getattr(GroupDGA, method)):
                calls[method] += 1
                return true(dga, *args)

            monkeypatch.setattr(GroupDGA, method, counted)
        check_group_dga(s3_instance(), max_len=3)
        # d twice per monomial, and no product
        assert (calls["d"], calls["mul"]) == (2 * 70, 0)

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_size_bounds_the_certificate(self, monkeypatch, name, max_len):
        """_d_squared_size, which the CLI bounds before a run, counts the
        monomials exactly and bounds the terms d^2 expands on them."""
        pieces = []
        true_pieces = GroupDGA._d_pieces

        def counted(dga, a):
            for piece in true_pieces(dga, a):
                pieces.append(piece)
                yield piece

        monkeypatch.setattr(GroupDGA, "_d_pieces", counted)
        dga = seeded_family(name, 0)
        check_group_dga(dga, max_len=max_len)
        monomials, exponents = _d_squared_size(dga, max_len)
        n, s, L = dga.n, dga.size, max_len
        assert monomials == len(list(_monomials(dga, L))) \
            == comb(n + L, L) + (s - 1) * comb(n + L - 1, L - 1)
        assert (monomials + len(pieces)) * n <= exponents

    @pytest.mark.parametrize("mutant", [None, *MUTANTS])
    @pytest.mark.parametrize("max_len", [1, 2, 3])
    @pytest.mark.parametrize("name", INSTANCES)
    def test_certificate_matches_sweep(self, monkeypatch, name, max_len,
                                       mutant):
        """The failing monomials are those of the failing products, so
        the certificate fails exactly when the sweep does."""
        if mutant:
            mutate(monkeypatch, *MUTANTS[mutant][0])
        dga = INSTANCES[name]()
        rep = check_group_dga(dga, max_len=max_len)
        failing = set(reference_d_squared(dga, max_len))
        assert {w[1:] for w in rep["passed"].witnesses
                if w[0] == "d_squared"} == {
            next(iter(elem))[:2]
            for labs, elem in label_products(dga, max_len)
            if labs in failing}


class TestMutants:
    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutant_fills_its_witness_lists(self, monkeypatch, mutant):
        change, library, oracle = MUTANTS[mutant]
        mutate(monkeypatch, *change)
        dga = s3_instance()
        rep = check_group_dga(dga, max_len=3)
        assert Counter(w[0] for w in rep["passed"].witnesses) == library
        assert Counter(w[0] for w in reference_generator_sweeps(dga)) \
            == oracle

    def test_cli_exits_1_under_a_mutant(self, monkeypatch, capsys):
        mutate(monkeypatch, *MUTANTS["d_sign"][0])
        assert cli.main(["groupdga", "--instance", "groupdga-s3",
                         "--json"]) == 1
        assert '"passed": false' in capsys.readouterr().out
