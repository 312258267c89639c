import ast
import inspect
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prelie_calculus.exact_core import (
    I, L_ONE, LAMBDA, LambdaScalar, ONE, Scalar, Tensor, Verdict,
    ZERO, _sorted_forms, accumulate, linear_kernel,
)
from prelie_calculus.liebialg import LieAlgebra
from prelie_calculus.prelie import (
    PreLieProduct,
    check_compatibility,
    check_left_symmetry,
    prelie_from_table,
)
from prelie_calculus.catalog import (
    b_family,
    b_lie,
    load_catalog,
    su2_bialgebra,
    su2_dual_lie,
    su2_dual_prelie,
)
from prelie_calculus import cli, dga
from prelie_calculus.dga import (
    _Calculus,
    _connected,
    _first_order,
    _pbw_words,
    check_calculus,
)

from form_calculus import (
    FormCalculus,
    rewrite_word,
    rewriting_first_order,
    signed_sum,
)


# -- reference implementations: the defining sums, term by term, with no
# grouping; the library must agree with them exactly.  Elements are plain
# term dicts: PBW word -> coefficient in U_lambda(m), and (PBW word,
# strictly increasing form monomial) -> coefficient for forms

def leibniz_pairs(dim, max_len):
    """Number of pairs (u, v) of nonempty PBW words with len(u) + len(v)
    <= max_len, the pairs of the Leibniz sweep: the coefficient sum of
    (1/(1-x)^dim - 1)^2 up to x^max_len."""
    return comb(2 * dim + max_len, max_len) \
        - 2 * comb(dim + max_len, max_len) + 1


def subset_d(terms, prelie: PreLieProduct):
    """d by its definition: one term per nonempty subset of positions
    taken as the suffix, with the omega of each subset's letters."""
    calc = _Calculus(prelie)
    pairs = []
    for word, c in terms.items():
        n = len(word)
        cl = c
        for s in range(1, n + 1):
            for suffix_pos in combinations(range(n), s):
                prefix = tuple(word[i] for i in range(n)
                               if i not in suffix_pos)
                suffix = tuple(word[i] for i in suffix_pos)
                for k, comp in enumerate(calc.omega(suffix)):
                    if not comp.is_zero():
                        pairs.append(((prefix, (k,)), cl * comp))
            cl = cl * LAMBDA
    return accumulate(pairs)


def forms_past_word(forms, word, prelie):
    """forms . word as word' . forms' terms, letter by letter."""
    if not word:
        return {((), tuple(forms)): L_ONE}
    i, rest = word[0], word[1:]
    pieces = [((i,), tuple(forms), L_ONE)]
    for s, j in enumerate(forms):
        for k in range(prelie.dim):
            cs = prelie.xi.get(i, j, k)
            sf = _sorted_forms(forms[:s] + (k,) + forms[s + 1:])
            if not cs.is_zero() and sf is not None:
                pieces.append(((), sf[1], LAMBDA * (-(cs * sf[0]))))
    return accumulate(
        ((pre + w2, f3), co * co2)
        for pre, f2, co in pieces
        for (w2, f3), co2 in forms_past_word(f2, rest, prelie).items())


def reference_form_mul(a, b, m, prelie):
    pairs = []
    for (u, eta), ca in a.items():
        for (v, xi), cb in b.items():
            for (w, eta2), cc in forms_past_word(eta, v, prelie).items():
                sf = _sorted_forms(eta2 + xi)
                if sf is None:
                    continue
                sign, wedge = sf
                for pw, pc in rewrite_word(u + w, L_ONE, m.bracket):
                    pairs.append(((pw, wedge), pc * ca * cb * cc * sign))
    return accumulate(pairs)


def d_terms(calc, terms):
    """Terms of d of the element of U_lambda(m) with these terms: d_word
    extended linearly."""
    return accumulate((key, q * c) for word, c in terms.items()
                      for key, q in calc.d_word(word).items())


def leibniz_holds(calc, u, v):
    """d(uv) = (du)v + u(dv) for nonempty PBW words u and v, on the
    tables of calc."""
    return d_terms(calc, calc.normal(u + v)) == signed_sum(
        (1, calc.form_mul(calc.d_word(u), {(v, ()): L_ONE})),
        (1, calc.form_mul({(u, ()): L_ONE}, calc.d_word(v))))


def p_failures(calc, max_len):
    """The (P) sweep, the oracle of README's "(P) is a theorem of the
    closed formula": the Leibniz pairs (x, w') with x w' a PBW word of
    length 2 to max_len where d_word(x w') != dx.w' + x.dw'."""
    return [(w[:1], w[1:]) for w in _pbw_words(calc.prelie.dim, max_len)
            if len(w) >= 2 and not leibniz_holds(calc, w[:1], w[1:])]


def reference_bracket_and_bimodule(m, prelie):
    """The (D) and (R) witnesses of _first_order from subset_d and
    reference_form_mul: pairs x < y with dx.y + x.dy - dy.x - y.dx -
    lambda d[x,y] != 0, and pairs x < y with (de_k . x) . y - (de_k . y)
    . x - de_k . lambda[x,y] != 0 for some k."""
    n = m.dim
    bracket, bimodule = [], []

    def moved(k, *factors):
        """de_k times the factors, one product at a time."""
        out = {((), (k,)): L_ONE}
        for f in factors:
            out = reference_form_mul(out, f, m, prelie)
        return out

    for x, y in combinations(range(n), 2):
        ex, ey = {(x,): L_ONE}, {(y,): L_ONE}
        fx, fy = {((x,), ()): L_ONE}, {((y,), ()): L_ONE}
        dx, dy = subset_d(ex, prelie), subset_d(ey, prelie)
        lie = accumulate(((k,), LAMBDA * m.bracket.get(x, y, k))
                         for k in range(n))
        if signed_sum((1, reference_form_mul(dx, fy, m, prelie)),
                      (1, reference_form_mul(fx, dy, m, prelie)),
                      (-1, reference_form_mul(dy, fx, m, prelie)),
                      (-1, reference_form_mul(fy, dx, m, prelie)),
                      (-1, subset_d(lie, prelie))):
            bracket.append((x, y))
        flie = {(w, ()): c for w, c in lie.items()}
        if any(signed_sum((1, moved(k, fx, fy)), (-1, moved(k, fy, fx)),
                          (-1, moved(k, flie))) for k in range(n)):
            bimodule.append((x, y))
    return bracket, bimodule


def reference_first_order(m, prelie, max_len):
    """The first-order verdict from subset_d and reference_form_mul: the
    Leibniz sweep over every pair of PBW words, pair by pair, and (D) and
    (R) from reference_bracket_and_bimodule."""
    n = m.dim
    bracket, bimodule = reference_bracket_and_bimodule(m, prelie)
    witnesses = {"leibniz": [], "bracket": bracket, "bimodule": bimodule}

    def words(hi):
        return [w for ln in range(1, hi + 1)
                for w in combinations_with_replacement(range(n), ln)]

    for u in words(max_len - 1):
        for v in words(max_len - len(u)):
            eu, ev = {u: L_ONE}, {v: L_ONE}
            lhs = subset_d(accumulate(rewrite_word(u + v, L_ONE, m.bracket)),
                           prelie)
            rhs = signed_sum(
                (1, reference_form_mul(subset_d(eu, prelie),
                                       {(v, ()): L_ONE}, m, prelie)),
                (1, reference_form_mul({(u, ()): L_ONE},
                                       subset_d(ev, prelie), m, prelie)))
            if lhs != rhs:
                witnesses["leibniz"].append((u, v))
    return {"first_order": not any(witnesses.values()),
            "witnesses": witnesses}


def tagged_witnesses(found):
    """_first_order's witnesses from the (D) and (R) witness lists of
    reference_first_order, tagged with their list."""
    return [(name, *w) for name in ("bracket", "bimodule")
            for w in found[name]]


def commutator_bracket(prelie):
    """x o y - y o x as a LieAlgebra, left-symmetric product or not."""
    n = prelie.dim
    entries = accumulate(pair for (i, j, k), c in prelie.xi.entries.items()
                         for pair in (((i, j, k), c), ((j, i, k), -c)))
    return LieAlgebra(n, prelie.basis_names, Tensor((n,) * 3, entries))


def reference_kernel(m, prelie, n, lam):
    """The kernel of d by elimination: the matrix of d_word on the PBW
    words up to length n at lambda = lam, one row per (prefix, forms)
    key, reduced by linear_kernel."""
    words = [w for ln in range(n + 1)
             for w in combinations_with_replacement(range(prelie.dim), ln)]
    calc = _Calculus(prelie)
    rows = {}
    for j, w in enumerate(words):
        for key, c in calc.d_word(w).items():
            val = c.evaluate(lam)
            if not val.is_zero():
                rows.setdefault(key, [ZERO] * len(words))[j] = val
    kernel = linear_kernel(list(rows.values()) or [[ZERO] * len(words)])
    return {"dimension": len(kernel), "words": words, "kernel": kernel}


def catalog_products():
    """(id, Lie algebra, product) for every catalog pre-Lie instance."""
    return [(e["id"], e.get("lie", b_lie)(), e["build"]())
            for e in load_catalog() if e["kind"] == "prelie"]


def mutant(prelie, seed):
    """prelie with one seeded structure constant changed."""
    rng = random.Random(seed)
    key = tuple(rng.randrange(prelie.dim) for _ in range(3))
    entries = dict(prelie.xi.entries)
    entries[key] = prelie.xi.get(*key) + Scalar(rng.choice([-2, -1, 1, 2]))
    return PreLieProduct(prelie.dim, prelie.basis_names,
                         Tensor(prelie.xi.shape, entries))


def su2_dual_mutant():
    """su2* with psi+ o psi- = -2 psi-: not left-symmetric."""
    xi = dict(su2_dual_prelie().xi.entries)
    xi[(1, 2, 2)] = Scalar(-2)
    return PreLieProduct(3, ("phi", "psi+", "psi-"), Tensor((3, 3, 3), xi))


def all_families():
    return [
        ("b1", b_family("b1", Fraction(3))),
        ("b2", b_family("b2", Fraction(2))),
        ("b3", b_family("b3")),
        ("b4", b_family("b4")),
        ("b5", b_family("b5")),
    ]


@st.composite
def products(draw):
    """(Lie algebra, product): a dim-2 product over [x,t]=x, or a dim-3
    product over its commutator bracket, su2* or the abelian one.  The
    product is a left-symmetric one (a catalog product, or b4 plus a
    zero third basis vector), one of those with one coefficient
    changed, or a sparse random one."""
    dim = draw(st.sampled_from([2, 3]))
    index = st.integers(0, dim - 1)
    bases = [Xp for _, Xp in all_families()] if dim == 2 else [
        su2_dual_prelie(),
        PreLieProduct(3, ("x", "t", "z"),
                      Tensor((3, 3, 3), b_family("b4").xi.entries))]
    entries = draw(st.sampled_from(bases + [None]))
    entries = dict(entries.xi.entries) if entries is not None else draw(
        st.dictionaries(st.tuples(index, index, index),
                        st.integers(-2, 2).filter(bool).map(Scalar),
                        min_size=1, max_size=2 * dim))
    if draw(st.booleans()):
        key = draw(st.tuples(index, index, index))
        entries[key] = entries.get(key, ZERO) \
            + Scalar(draw(st.sampled_from([-2, -1, 1, 2])))
    Xp = PreLieProduct(dim, tuple(f"e{i}" for i in range(dim)),
                       Tensor((dim,) * 3,
                              {k: v for k, v in entries.items()
                               if not v.is_zero()}))
    if dim == 2:
        return b_lie(), Xp
    abelian = LieAlgebra(3, Xp.basis_names, Tensor((3, 3, 3), {}))
    return draw(st.sampled_from([commutator_bracket(Xp), su2_dual_lie(),
                                 abelian])), Xp


class TestNormalForm:
    def test_ordered_word_unchanged(self):
        m = b_lie()
        assert accumulate(rewrite_word((0, 0, 1), L_ONE, m.bracket)) \
            == {(0, 0, 1): L_ONE}

    def test_b_single_swap(self):
        # t x = x t - lambda x since x t - t x = lambda x
        m = b_lie()
        assert accumulate(rewrite_word((1, 0), L_ONE, m.bracket)) == {
            (0, 1): L_ONE, (0,): -LAMBDA,
        }

    def test_su2_swap(self):
        # e2 e1 = e1 e2 - lambda e3
        m = su2_bialgebra().algebra
        assert accumulate(rewrite_word((1, 0), L_ONE, m.bracket)) == {
            (0, 1): L_ONE, (2,): -LAMBDA,
        }

    @pytest.mark.parametrize("m", [b_lie(), su2_bialgebra().algebra])
    def test_confluence_random_words(self, m):
        rng = random.Random(7)
        for _ in range(40):
            word = tuple(rng.randrange(m.dim)
                         for _ in range(rng.randint(2, 6)))
            left = accumulate(rewrite_word(word, L_ONE, m.bracket))
            right = accumulate(rewrite_word(word, L_ONE, m.bracket,
                                             leftmost=False))
            assert left == right

    def test_mul_associative(self):
        """The product of 0-forms is the product of U_lambda(su2*)."""
        calc = FormCalculus(su2_dual_prelie(), su2_dual_lie())
        a = {((0, 2), ()): L_ONE}
        b = {((1,), ()): L_ONE, ((), ()): LAMBDA}
        c = {((0,), ()): L_ONE}
        assert calc.form_mul(calc.form_mul(a, b), c) \
            == calc.form_mul(a, calc.form_mul(b, c))


class TestOmega:
    def test_length_one(self):
        Xp = b_family("b3")
        assert _Calculus(Xp).omega((1,)) == [ZERO, ONE]

    def test_b1_xt(self):
        # omega(x t) = x <| t = -t o x = x
        Xp = b_family("b1", Fraction(5))
        assert _Calculus(Xp).omega((0, 1)) == [ONE, ZERO]

    def test_b1_tt(self):
        # omega(t t) = -t o t = -alpha t
        Xp = b_family("b1", Fraction(5))
        assert _Calculus(Xp).omega((1, 1)) == [ZERO, Scalar(-5)]


class TestDifferential:
    def test_d_unit(self):
        Xp = b_family("b4")
        assert d_terms(_Calculus(Xp), {(): L_ONE}) == {}

    def test_d_generator(self):
        Xp = b_family("b4")
        assert _Calculus(Xp).d_word((0,)) == {((), (0,)): L_ONE}

    def test_b1_d_xt(self):
        # d(x t) = x dt + t dx + lambda dx (the last from omega(xt) = x)
        Xp = b_family("b1", Fraction(3))
        assert _Calculus(Xp).d_word((0, 1)) == {
            ((0,), (1,)): L_ONE,
            ((1,), (0,)): L_ONE,
            ((), (0,)): LAMBDA,
        }

    @pytest.mark.parametrize("iid, m, Xp", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_subset_sum_on_all_words(self, iid, m, Xp):
        max_len = 6 if Xp.dim == 2 else 5
        calc = _Calculus(Xp)
        for w in _pbw_words(Xp.dim, max_len):
            assert calc.d_word(w) == subset_d({w: L_ONE}, Xp), w

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]))
    def test_matches_subset_sum_on_random_elements(self, data, dim):
        """Random products, left-symmetric or not, and multi-term
        elements with lambda-polynomial coefficients."""
        index = st.integers(0, dim - 1)
        scalar = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2))
        xi = data.draw(st.dictionaries(st.tuples(index, index, index),
                                       scalar, max_size=2 * dim))
        Xp = PreLieProduct(dim, tuple(f"e{i}" for i in range(dim)),
                           Tensor((dim,) * 3, xi))
        words = st.lists(index, max_size=6 if dim == 2 else 4).map(
            lambda w: tuple(sorted(w)))
        coeff = st.lists(scalar, min_size=1, max_size=3).map(LambdaScalar)
        terms = data.draw(st.dictionaries(words, coeff, max_size=4))
        assert d_terms(_Calculus(Xp), terms) == subset_d(terms, Xp)

    def test_no_subset_enumeration_in_src(self):
        tree = ast.parse(Path(dga.__file__).read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "combinations" not in names

    def test_linear(self):
        """d_word extended linearly, with Gaussian coefficients, is d by
        its definition."""
        Xp = b_family("b5")
        terms = {(0, 1): LambdaScalar(Scalar(2)), (1, 1): LambdaScalar(I)}
        assert d_terms(_Calculus(Xp), terms) == subset_d(terms, Xp)


class TestFirstOrder:
    def test_b2_exact(self):
        assert _first_order(b_lie(), b_family("b2", Fraction(1)))

    def test_families_exact(self):
        m = b_lie()
        for _, Xp in all_families():
            assert _first_order(m, Xp)

    def test_classical_calculus(self):
        ab = LieAlgebra(2, ("a", "b"), Tensor((2, 2, 2), {}))
        zp = PreLieProduct(2, ("a", "b"), Tensor((2, 2, 2), {}))
        assert _first_order(ab, zp)

    def test_broken_prelie_witnessed(self):
        bad = prelie_from_table(("x", "t"), {(0, 0): {1: 1}, (1, 1): {1: 1}})
        calc = FormCalculus(bad, b_lie())
        assert _first_order(b_lie(), bad) == rewriting_first_order(calc) \
            == Verdict([("bracket", 0, 1), ("bimodule", 0, 1)])
        # (P) holds: the Leibniz pairs that fail, such as t . x, are not
        # of the form x . w' with x w' a PBW word
        assert p_failures(calc, 3) == []

    def test_su2_dual(self):
        dl = su2_dual_lie()
        assert _first_order(dl, su2_dual_prelie())

    @pytest.mark.parametrize("max_len", [3, 4])
    @pytest.mark.parametrize("m, Xp", [
        (b_lie(), prelie_from_table(("x", "t"),
                                    {(0, 0): {1: 1}, (1, 1): {1: 1}})),
        (b_lie(), mutant(b_family("b4"), 2)),
        (b_lie(), mutant(b_family("b4"), 4)),
        (su2_dual_lie(), mutant(su2_dual_prelie(), 1)),
    ], ids=["broken-dim2", "b4-mutant-2", "b4-mutant-4", "su2-mutant-1"])
    def test_witnesses_match_reference(self, m, Xp, max_len):
        rep = _first_order(m, Xp)
        found = reference_first_order(m, Xp, max_len)["witnesses"]
        # the sweep sees each mutant, but at no (P) pair x . w'
        assert found["leibniz"]
        assert not [(u, v) for u, v in found["leibniz"]
                    if len(u) == 1 and u[0] <= v[0]]
        assert rep.witnesses == tuple(tagged_witnesses(found))
        assert rep == rewriting_first_order(FormCalculus(Xp, m))

    @pytest.mark.parametrize("dim, max_len", [(1, 1), (2, 3), (2, 5),
                                              (3, 4), (4, 2)])
    def test_leibniz_pairs_counts_the_pairs(self, dim, max_len):
        words = [w for ln in range(1, max_len)
                 for w in combinations_with_replacement(range(dim), ln)]
        assert leibniz_pairs(dim, max_len) == sum(
            1 for u in words for v in words if len(u) + len(v) <= max_len)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_certificate_matches_reference(self, data):
        """The witness list of the compatibility and flatness
        certificate is that of the reference (D) and (R), term by term,
        and of the rewriting oracle, and its verdict is the reference
        verdict, which also sweeps Leibniz over every pair of words, on
        dim-2 products over [x,t]=x and dim-3 products over their
        commutator, su2* or the abelian bracket, left-symmetric or not,
        at max-len 3 and 4.  In particular a passing certificate proves
        Leibniz on every pair; the converse fails, see
        test_bimodule_only_mutant."""
        m, Xp = data.draw(products())
        max_len = data.draw(st.sampled_from([3, 4]))
        rep = _first_order(m, Xp)
        found = reference_first_order(m, Xp, max_len)
        assert bool(rep) == found["first_order"]
        assert rep.witnesses == tuple(tagged_witnesses(found["witnesses"]))
        assert rep == rewriting_first_order(FormCalculus(Xp, m))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_certificate_is_left_symmetry_and_compatibility(self, data):
        """(R) and (D) both hold exactly when the product is left-symmetric
        and compatible with the bracket, and (D) alone exactly when it is
        compatible: (D) reduces to lambda d(x o y - y o x - [x,y]) and
        (R) to x o (y o z) - y o (x o z) = [x,y] o z."""
        m, Xp = data.draw(products())
        rep = _first_order(m, Xp)
        compatible = bool(check_compatibility(Xp, m))
        assert bool(rep) == (bool(check_left_symmetry(Xp)) and compatible)
        assert all(w[0] != "bracket" for w in rep.witnesses) == compatible

    @pytest.mark.parametrize("iid, m, Xp", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_p_holds_on_catalog_words(self, iid, m, Xp):
        """(P) on every PBW word up to length 6 (su2*: 5)."""
        assert p_failures(FormCalculus(Xp, m), 6 if Xp.dim == 2 else 5) \
            == []

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3))
    def test_p_holds_for_any_product_and_bracket(self, data, dim):
        """(P) needs neither (R) nor (D): it holds for random structure
        constants with Gaussian-rational entries over a random bracket,
        not even antisymmetric."""
        index = st.integers(0, dim - 1)
        part = st.fractions(-3, 3, max_denominator=4)
        scalar = st.builds(Scalar, part, part).filter(
            lambda c: not c.is_zero())
        names = tuple(f"e{i}" for i in range(dim))

        def tensor():
            return Tensor((dim,) * 3, data.draw(st.dictionaries(
                st.tuples(index, index, index), scalar, max_size=2 * dim)))

        Xp = PreLieProduct(dim, names, tensor())
        m = LieAlgebra(dim, names, tensor())
        assert p_failures(FormCalculus(Xp, m), 7 - dim) == []

    @pytest.mark.parametrize("Xp, max_len", [
        (prelie_from_table(("x", "t"), {(0, 0): {1: 1}, (1, 1): {1: 1}}), 2),
        (su2_dual_mutant(), 5),
    ], ids=["dim2", "su2-dual"])
    def test_bimodule_only_mutant(self, Xp, max_len):
        """Products that are not left-symmetric, over their own
        commutator bracket: de_x . (xy - yx) != lambda de_x . [x,y].  No
        (P) pair up to max-len sees it (x o x = t o t = t at max-len 2;
        su2* with psi+ o psi- = -2 psi- even at max-len 5); only (R)
        does."""
        m = commutator_bracket(Xp)
        calc = FormCalculus(Xp, m)
        assert _first_order(m, Xp) == rewriting_first_order(calc) \
            == Verdict([("bimodule", 0, 1)])
        assert p_failures(calc, max_len) == []

    def test_bracket_only_mutant(self):
        """The zero product over [x,t]=x: the bimodule is the classical
        one and d_word the classical derivative, but d(xt - tx) = 0 !=
        lambda dx."""
        zero = PreLieProduct(2, ("x", "t"), Tensor((2, 2, 2), {}))
        calc = FormCalculus(zero, b_lie())
        assert _first_order(b_lie(), zero) == rewriting_first_order(calc) \
            == Verdict([("bracket", 0, 1)])
        assert p_failures(calc, 3) == []

    def test_closed_formula_only_mutant(self, monkeypatch):
        """d_word of b4 with the coefficient of x x dt in d(x x t)
        changed: the relations still hold, so the generator certificate
        passes, and only the (P) oracle fails, at x . xt.  The changed
        term lies in the diagonal block, so check_calculus refuses the
        d table."""
        add_one_to_d_word(monkeypatch, (0, 0, 1), ((0, 0), (1,)))
        calc = FormCalculus(b_family("b4"), b_lie())
        assert _first_order(b_lie(), b_family("b4")) \
            == rewriting_first_order(calc) == Verdict()
        assert p_failures(calc, 3) == [((0,), (0, 1))]
        with pytest.raises(AssertionError, match="certificate"):
            check_calculus(b_lie(), b_family("b4"), 3,
                           Scalar(Fraction(3, 7)))

    def test_symmetric_bracket_is_refused(self):
        """The zero product over [x,t] = [t,x] = x: the (R)/(D) reduction
        would report only ("bracket", 0, 1), where rewriting the
        relations also finds ("bimodule", 0, 1), so check_calculus
        refuses the bracket instead."""
        zero = PreLieProduct(2, ("x", "t"), Tensor((2, 2, 2), {}))
        symmetric = LieAlgebra(2, ("x", "t"), Tensor((2, 2, 2), {
            (0, 1, 0): ONE, (1, 0, 0): ONE}))
        assert rewriting_first_order(FormCalculus(zero, symmetric)) \
            == Verdict([("bracket", 0, 1), ("bimodule", 0, 1)])
        with pytest.raises(ValueError, match="not antisymmetric"):
            check_calculus(symmetric, zero, 3, ONE)


def d_forms(calc, terms):
    """d on forms, the graded super-derivation with d(de_i) = 0: the
    terms of d_word(word) wedged in front of the forms of each term."""
    return accumulate(((w, sf[1]), q * c * sf[0])
                      for (word, forms), c in terms.items()
                      for (w, (k,)), q in calc.d_word(word).items()
                      if (sf := _sorted_forms((k,) + forms)) is not None)


class TestExteriorD:
    def test_d_of_dx(self):
        calc = _Calculus(b_family("b3"))
        assert d_forms(calc, {((), (0,)): L_ONE}) == {}

    def test_d_x_dt(self):
        calc = _Calculus(b_family("b3"))
        assert d_forms(calc, {((0,), (1,)): L_ONE}) \
            == {((), (0, 1)): L_ONE}

    def test_d_squared_on_words(self):
        """d^2 = 0 exactly in lambda on all PBW words of length <= 4."""
        cases = [(b_lie(), Xp) for _, Xp in all_families()]
        cases.append((su2_dual_lie(), su2_dual_prelie()))
        for m, Xp in cases:
            calc = _Calculus(Xp)
            for w in _pbw_words(m.dim, 4):
                assert d_forms(calc, calc.d_word(w)) == {}

    def test_super_derivation(self):
        """d(xi eta) = (d xi) eta + (-1)^|xi| xi (d eta) on mixed grades."""
        calc = FormCalculus(b_family("b4"), b_lie())
        samples = [
            {((0, 1), ()): L_ONE},                          # grade 0
            {((1,), (0,)): L_ONE},                          # grade 1
            {((0,), (1,)): LAMBDA, ((), (0,)): L_ONE},
            {((), (0, 1)): L_ONE},                          # grade 2
        ]
        grades = [0, 1, 1, 2]
        for a, ga in zip(samples, grades):
            for b in samples:
                lhs = d_forms(calc, calc.form_mul(a, b))
                rhs = signed_sum(
                    (1, calc.form_mul(d_forms(calc, a), b)),
                    ((-1) ** ga, calc.form_mul(a, d_forms(calc, b))))
                assert lhs == rhs

    def test_form_mul_anticommutes_generators(self):
        calc = FormCalculus(b_family("b1", Fraction(1)), b_lie())
        dx, dt = {((), (0,)): L_ONE}, {((), (1,)): L_ONE}
        assert signed_sum((1, calc.form_mul(dx, dt)),
                          (1, calc.form_mul(dt, dx))) == {}
        assert calc.form_mul(dx, dx) == {}


class TestKernel:
    def test_degree_zero(self):
        rep = check_calculus(b_lie(), b_family("b4"), 0, ONE)
        assert rep["kernel_dimension"] == 1

    def test_b_families_connected(self):
        m = b_lie()
        for _, Xp in all_families():
            assert check_calculus(m, Xp, 4, ONE) == {
                "first_order": Verdict(), "kernel_dimension": 1,
                "connected": True}

    def test_b1_alpha3_n3(self):
        m, Xp = b_lie(), b_family("b1", Fraction(3))
        assert check_calculus(m, Xp, 3, ONE)["kernel_dimension"] == 1
        # the kernel is spanned by the unit word
        ref = reference_kernel(m, Xp, 3, ONE)
        (vec,) = ref["kernel"]
        unit_col = ref["words"].index(())
        assert not vec[unit_col].is_zero()
        assert all(v.is_zero() for i, v in enumerate(vec) if i != unit_col)

    def test_su2_dual_connected(self):
        rep = check_calculus(su2_dual_lie(), su2_dual_prelie(), 4, ONE)
        assert rep["connected"] and rep["kernel_dimension"] == 1

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1),
                                     Fraction(3, 7)])
    @pytest.mark.parametrize("iid, m, Xp", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_rank_and_kernel_match_sympy(self, iid, m, Xp, lam):
        n = 4 if Xp.dim == 2 else 3
        rep = check_calculus(m, Xp, n, Scalar(lam))
        self.assert_matches_sympy(rep, list(_pbw_words(Xp.dim, n)), Xp, lam)

    @staticmethod
    def assert_matches_sympy(rep, words, Xp, lam):
        """The matrix of d at lambda, built from subset_d on the words:
        sympy's rank plus the reported kernel dimension is the number of
        words, and the constants, the unit word, are annihilated."""
        sympy = pytest.importorskip("sympy")

        def exact(s):
            return sympy.Rational(s.re.numerator, s.re.denominator) \
                + sympy.I * sympy.Rational(s.im.numerator, s.im.denominator)

        rows = {}
        for j, w in enumerate(words):
            for key, c in subset_d({w: L_ONE}, Xp).items():
                rows.setdefault(key, [0] * len(words))[j] = \
                    exact(c.evaluate(Scalar(lam)))
        matrix = sympy.Matrix(list(rows.values())).to_DM()
        assert matrix.rank() + rep["kernel_dimension"] == len(words)
        unit = sympy.Matrix([int(w == ()) for w in words]).to_DM()
        assert (matrix * unit.convert_to(matrix.domain)).is_zero_matrix

    LAMBDAS = [Scalar(0), Scalar(1), Scalar(Fraction(3, 7)), Scalar(-2)]

    @pytest.mark.parametrize("lam", LAMBDAS, ids=repr)
    @pytest.mark.parametrize("iid, m, Xp", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_certificate_matches_elimination(self, iid, m, Xp, lam):
        """check_calculus reports the kernel that elimination finds: the
        constants."""
        n = 5 if Xp.dim == 2 else 4
        ref = reference_kernel(m, Xp, n, lam)
        assert check_calculus(m, Xp, n, lam)["kernel_dimension"] \
            == ref["dimension"] == 1
        assert ref["kernel"] == [[ONE] + [ZERO] * (len(ref["words"]) - 1)]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_certificate_matches_elimination_on_random_products(self,
                                                                data):
        """Connectedness holds for every product, left-symmetric or not,
        and at every lambda."""
        m, Xp = data.draw(products())
        lam = data.draw(st.sampled_from(self.LAMBDAS))
        n = data.draw(st.integers(0, 4 if Xp.dim == 2 else 3))
        ref = reference_kernel(m, Xp, n, lam)
        assert check_calculus(m, Xp, n, lam)["kernel_dimension"] \
            == ref["dimension"] == 1
        assert ref["kernel"] == [[ONE] + [ZERO] * (len(ref["words"]) - 1)]

    def test_diagonal_mutant_raises(self, monkeypatch):
        """With the coefficient of xt dx in d(x x t) changed from 2 to 3
        the Euler contraction no longer returns 3 x x t: the d table
        fails the certificate, an internal error."""
        add_one_to_d_word(monkeypatch, (0, 0, 1), ((0, 1), (0,)))
        with pytest.raises(AssertionError, match="certificate"):
            check_calculus(b_lie(), b_family("b4"), 4,
                           Scalar(Fraction(3, 7)))


def add_one_to_d_word(monkeypatch, word, key):
    """Make _Calculus.d_word add 1 to the coefficient of key in d(word)."""
    true_d = dga._Calculus.d_word

    def d_word(calc, w):
        terms = true_d(calc, w)
        return {**terms, key: terms[key] + L_ONE} if w == word else terms

    monkeypatch.setattr(dga._Calculus, "d_word", d_word)


def counted(monkeypatch, name):
    """Replace dga.<name> by a wrapper that records the arguments of
    each call; returns the list of records."""
    calls = []
    fn = getattr(dga, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(dga, name, wrapper)
    return calls


def d_word_misses(monkeypatch):
    """Make _Calculus.d_word count, per word, the calls that miss its
    memo table and so compute d of the word; returns the Counter."""
    misses = Counter()
    true_d = dga._Calculus.d_word

    def d_word(calc, word):
        if word not in calc._d:
            misses[word] += 1
        return true_d(calc, word)

    monkeypatch.setattr(dga._Calculus, "d_word", d_word)
    return misses


class TestSharedTable:
    """A calculus job reports what the first-order and the connectedness
    certificate report when called on their own: the first order
    differentiates no word, and the job differentiates each word once."""

    LAMBDAS = [("0", Scalar(0)), ("[-3, 7]", Scalar(Fraction(-3, 7)))]

    @pytest.mark.parametrize("max_len", [3, 4, 5])
    @pytest.mark.parametrize("iid, m, X", [
        pytest.param(*row, id=row[0]) for row in catalog_products()])
    def test_job_matches_public_calls(self, monkeypatch, capsys, iid, m, X,
                                      max_len):
        misses = d_word_misses(monkeypatch)
        for text, lam in self.LAMBDAS:
            misses.clear()
            code = cli.main(["calculus", "--instance", iid, "--max-len",
                             str(max_len), "--lambda", text, "--json"])
            report = json.loads(capsys.readouterr().out)[iid]
            assert set(misses.values()) == {1}
            job_words = set(misses)

            misses.clear()
            first = _first_order(m, X)
            # the generator certificate differentiates no word
            assert not misses
            assert _connected(_Calculus(X), _pbw_words(m.dim, max_len),
                              lam)
            assert report == {"first_order": bool(first),
                              "kernel_dimension": 1, "connected": True}
            assert code == (0 if first else 1)
            assert set(misses) == job_words
            assert set(misses.values()) == {1}

            misses.clear()
            assert check_calculus(m, X, max_len, lam) == {
                "first_order": first, "kernel_dimension": 1,
                "connected": True}
            assert set(misses.values()) == {1}

    @pytest.mark.parametrize("X", [mutant(b_family("b4"), 2),
                                   su2_dual_mutant()],
                             ids=["b4-mutant", "su2*-mutant"])
    def test_failing_product(self, X):
        m = b_lie() if X.dim == 2 else su2_dual_lie()
        lam = Scalar(Fraction(5, 2))
        rep = check_calculus(m, X, 4, lam)
        assert not rep["first_order"]
        assert rep == {"first_order": _first_order(m, X),
                       "kernel_dimension": 1, "connected": True}
        assert _connected(_Calculus(X), _pbw_words(X.dim, 4), lam)


class TestWorkCount:
    """A check costs one compatibility and one flatness contraction for
    the first order and one d per PBW word for connectedness, passing or
    failing: no sweep over words or pairs of words, and dga has no
    elimination to run."""

    def test_passing_run_sweeps_and_eliminates_nothing(self, monkeypatch,
                                                       capsys):
        compatibility = counted(monkeypatch, "check_compatibility")
        flatness = counted(monkeypatch, "check_flat_right_action")
        misses = d_word_misses(monkeypatch)
        code = cli.main(["calculus", "--instance", "b4", "--max-len", "5",
                         "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"b4": {
            "connected": True, "first_order": True, "kernel_dimension": 1}}
        src = Path(dga.__file__).read_text()
        assert "linear_kernel" not in src and "_leibniz_holds" not in src
        # (D) and (R) one contraction each, on b4 over [x,t] = x, and d
        # once on each of the 21 PBW words up to length 5, for
        # connectedness
        assert compatibility == flatness == [(b_family("b4"), b_lie())]
        assert misses == Counter(_pbw_words(2, 5))
        assert sum(misses.values()) == 21 < leibniz_pairs(2, 5)

    def test_failing_run_checks_each_generator_pair_once(self):
        """A failing run costs what a passing one does: one compatibility
        and one flatness contraction, whatever the max-len, and its
        witnesses are generator pairs x < y."""
        pairs = [(0, 1), (0, 2), (1, 2)]
        X = su2_dual_mutant()
        for max_len in (2, 5):
            with pytest.MonkeyPatch.context() as mp:
                compatibility = counted(mp, "check_compatibility")
                flatness = counted(mp, "check_flat_right_action")
                rep = check_calculus(su2_dual_lie(), X, max_len,
                                     ONE)["first_order"]
            assert compatibility == flatness == [(X, su2_dual_lie())]
            assert not rep and {w[1:] for w in rep.witnesses} <= set(pairs)

    @pytest.mark.parametrize("iid, m, X", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_first_order_differentiates_no_word(self, monkeypatch, iid, m,
                                                X):
        misses = d_word_misses(monkeypatch)
        assert _first_order(m, X)
        _first_order(m, mutant(X, 3))
        assert not misses

    def test_no_form_rewriting_in_src(self):
        """The form product and the rewriting of words left dga for the
        tests; _Calculus holds the omega and d tables of one product."""
        tree = ast.parse(Path(dga.__file__).read_text())
        defined = {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & {"_rewrite_word", "_times", "_signed_sum",
                              "_bimodule_holds", "_bracket_holds",
                              "normal", "past", "form_mul"}
        assert list(inspect.signature(_Calculus).parameters) == ["prelie"]
