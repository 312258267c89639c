import ast
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from prelie_calculus.exact_core import (
    I, L_ONE, L_ZERO, LAMBDA, LambdaScalar, ONE, Scalar, Tensor, ZERO,
    _sorted_forms, accumulate,
)
from prelie_calculus.liebialg import LieAlgebra
from prelie_calculus.prelie import PreLieProduct, prelie_from_table
from prelie_calculus.catalog import (
    b_family,
    b_lie,
    load_catalog,
    su2_bialgebra,
    su2_dual_lie,
    su2_dual_prelie,
)
from prelie_calculus.dga import (
    FormElement,
    NCElement,
    check_first_order,
    differential_d,
    exterior_d,
    form_mul,
    kernel_of_d,
    leibniz_pairs,
    nc_mul,
    normal_form,
    omega_word,
)


# -- reference implementations: the defining sums, term by term, with no
# grouping and no memo tables; the library must agree with them exactly

def subset_d(e: NCElement, prelie: PreLieProduct) -> FormElement:
    """d by its definition: one term per nonempty subset of positions
    taken as the suffix, with a fresh omega_word for each subset."""
    pairs = []
    for word, c in e.terms.items():
        n = len(word)
        cl = c
        for s in range(1, n + 1):
            for suffix_pos in combinations(range(n), s):
                prefix = tuple(word[i] for i in range(n)
                               if i not in suffix_pos)
                suffix = tuple(word[i] for i in suffix_pos)
                for k, comp in enumerate(omega_word(suffix, prelie)):
                    if not comp.is_zero():
                        pairs.append(((prefix, (k,)), cl * comp))
            cl = cl * LAMBDA
    return FormElement(e.dim, accumulate(pairs))


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
    for (u, eta), ca in a.terms.items():
        for (v, xi), cb in b.terms.items():
            for (w, eta2), cc in forms_past_word(eta, v, prelie).items():
                sf = _sorted_forms(eta2 + xi)
                if sf is None:
                    continue
                sign, wedge = sf
                for pw, pc in normal_form(u + w, m).terms.items():
                    pairs.append(((pw, wedge), pc * ca * cb * cc * sign))
    return FormElement(a.dim, accumulate(pairs))


def reference_first_order(m, prelie, max_len):
    """check_first_order(..., with_witnesses=True) from subset_d and
    reference_form_mul, pair by pair."""
    n = m.dim
    witnesses = {"leibniz": [], "bracket": [], "bimodule": []}

    def words(hi):
        return [w for ln in range(1, hi + 1)
                for w in combinations_with_replacement(range(n), ln)]

    for u in words(max_len - 1):
        for v in words(max_len - len(u)):
            eu, ev = NCElement(n, {u: L_ONE}), NCElement(n, {v: L_ONE})
            lhs = subset_d(nc_mul(eu, ev, m), prelie)
            rhs = reference_form_mul(subset_d(eu, prelie),
                                     FormElement.from_nc(ev), m, prelie) \
                + reference_form_mul(FormElement.from_nc(eu),
                                     subset_d(ev, prelie), m, prelie)
            if lhs != rhs:
                witnesses["leibniz"].append((u, v))
    for x, y in product(range(n), repeat=2):
        ex, ey = NCElement.generator(n, x), NCElement.generator(n, y)
        comm = nc_mul(ex, ey, m) - nc_mul(ey, ex, m)
        lie = NCElement(n, {(k,): LAMBDA * m.bracket.get(x, y, k)
                            for k in range(n)})
        if not subset_d(comm - lie, prelie).is_zero():
            witnesses["bracket"].append((x, y))
        fx = FormElement.from_nc(ex)
        dy = FormElement.d_generator(n, y)
        commf = reference_form_mul(fx, dy, m, prelie) \
            - reference_form_mul(dy, fx, m, prelie)
        dxy = FormElement(n, {((), (k,)): LAMBDA * prelie.xi.get(x, y, k)
                              for k in range(n)})
        if commf != dxy:
            witnesses["bimodule"].append((x, y))
    return {"first_order": not any(witnesses.values()),
            "witnesses": witnesses}


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


def all_families():
    return [
        ("b1", b_family("b1", Fraction(3))),
        ("b2", b_family("b2", Fraction(2))),
        ("b3", b_family("b3")),
        ("b4", b_family("b4")),
        ("b5", b_family("b5")),
    ]


class TestNormalForm:
    def test_ordered_word_unchanged(self):
        m = b_lie()
        assert normal_form((0, 0, 1), m).terms == {(0, 0, 1): L_ONE}

    def test_b_single_swap(self):
        # t x = x t - lambda x since x t - t x = lambda x
        m = b_lie()
        assert normal_form((1, 0), m).terms == {
            (0, 1): L_ONE, (0,): -LAMBDA,
        }

    def test_su2_swap(self):
        # e2 e1 = e1 e2 - lambda e3
        m = su2_bialgebra().algebra
        assert normal_form((1, 0), m).terms == {
            (0, 1): L_ONE, (2,): -LAMBDA,
        }

    @pytest.mark.parametrize("m", [b_lie(), su2_bialgebra().algebra])
    def test_confluence_random_words(self, m):
        rng = random.Random(7)
        for _ in range(40):
            word = tuple(rng.randrange(m.dim)
                         for _ in range(rng.randint(2, 6)))
            left = normal_form(word, m, leftmost=True)
            right = normal_form(word, m, leftmost=False)
            assert left == right

    def test_mul_associative(self):
        m = su2_bialgebra().algebra
        a = NCElement(3, {(0, 2): L_ONE})
        b = NCElement(3, {(1,): L_ONE, (): LAMBDA})
        c = NCElement(3, {(0,): L_ONE})
        assert nc_mul(nc_mul(a, b, m), c, m) == nc_mul(a, nc_mul(b, c, m), m)

    def test_unordered_input_rejected(self):
        with pytest.raises(ValueError):
            NCElement(2, {(1, 0): L_ONE})


class TestOmega:
    def test_length_one(self):
        Xp = b_family("b3")
        assert omega_word((1,), Xp) == [ZERO, ONE]

    def test_b1_xt(self):
        # omega(x t) = x <| t = -t o x = x
        Xp = b_family("b1", Fraction(5))
        assert omega_word((0, 1), Xp) == [ONE, ZERO]

    def test_b1_tt(self):
        # omega(t t) = -t o t = -alpha t
        Xp = b_family("b1", Fraction(5))
        assert omega_word((1, 1), Xp) == [ZERO, Scalar(-5)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            omega_word((), b_family("b4"))


class TestDifferential:
    def test_d_unit(self):
        Xp = b_family("b4")
        assert differential_d(NCElement.unit(2), Xp).is_zero()

    def test_d_generator(self):
        Xp = b_family("b4")
        d = differential_d(NCElement.generator(2, 0), Xp)
        assert d.terms == {((), (0,)): L_ONE}

    def test_b1_d_xt(self):
        # d(x t) = x dt + t dx + lambda dx (the last from omega(xt) = x)
        Xp = b_family("b1", Fraction(3))
        d = differential_d(NCElement(2, {(0, 1): L_ONE}), Xp)
        assert d.terms == {
            ((0,), (1,)): L_ONE,
            ((1,), (0,)): L_ONE,
            ((), (0,)): LAMBDA,
        }

    @pytest.mark.parametrize("iid, m, Xp", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_subset_sum_on_all_words(self, iid, m, Xp):
        max_len = 6 if Xp.dim == 2 else 5
        for ln in range(max_len + 1):
            for w in combinations_with_replacement(range(Xp.dim), ln):
                e = NCElement(Xp.dim, {w: L_ONE})
                assert differential_d(e, Xp) == subset_d(e, Xp), w

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
        e = NCElement(dim, terms)
        assert differential_d(e, Xp) == subset_d(e, Xp)

    def test_no_subset_enumeration_in_src(self):
        import prelie_calculus.dga as dga
        tree = ast.parse(Path(dga.__file__).read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) for a in n.names}
        assert "combinations" not in names

    def test_linear(self):
        Xp = b_family("b5")
        e = NCElement(2, {(0, 1): Scalar(2), (1, 1): I})
        d = differential_d(e, Xp)
        parts = differential_d(NCElement(2, {(0, 1): L_ONE}), Xp) \
            .scale(Scalar(2)) \
            + differential_d(NCElement(2, {(1, 1): L_ONE}), Xp).scale(I)
        assert d == parts


class TestFirstOrder:
    def test_b2_exact(self):
        assert check_first_order(b_lie(), b_family("b2", Fraction(1)),
                                 max_len=3)

    def test_families_exact(self):
        m = b_lie()
        for _, Xp in all_families():
            assert check_first_order(m, Xp, max_len=3)

    def test_classical_calculus(self):
        ab = LieAlgebra(2, ("a", "b"), Tensor((2, 2, 2), {}))
        zp = PreLieProduct(2, ("a", "b"), Tensor((2, 2, 2), {}))
        assert check_first_order(ab, zp, max_len=3)

    def test_broken_prelie_witnessed(self):
        bad = prelie_from_table(("x", "t"), {(0, 0): {1: 1}, (1, 1): {1: 1}})
        rep = check_first_order(b_lie(), bad, max_len=3,
                                with_witnesses=True)
        assert not rep["first_order"]
        assert rep["witnesses"]["leibniz"]

    def test_su2_dual(self):
        dl = su2_dual_lie()
        assert check_first_order(dl, su2_dual_prelie(), max_len=3)

    @pytest.mark.parametrize("max_len", [3, 4])
    @pytest.mark.parametrize("m, Xp", [
        (b_lie(), prelie_from_table(("x", "t"),
                                    {(0, 0): {1: 1}, (1, 1): {1: 1}})),
        (b_lie(), mutant(b_family("b4"), 2)),
        (b_lie(), mutant(b_family("b4"), 4)),
        (su2_dual_lie(), mutant(su2_dual_prelie(), 1)),
    ], ids=["broken-dim2", "b4-mutant-2", "b4-mutant-4", "su2-mutant-1"])
    def test_witnesses_match_reference(self, m, Xp, max_len):
        rep = check_first_order(m, Xp, max_len=max_len, with_witnesses=True)
        assert rep["witnesses"]["leibniz"]
        assert rep == reference_first_order(m, Xp, max_len)

    @pytest.mark.parametrize("dim, max_len", [(1, 1), (2, 3), (2, 5),
                                              (3, 4), (4, 2)])
    def test_leibniz_pairs_counts_the_pairs(self, dim, max_len):
        words = [w for ln in range(1, max_len)
                 for w in combinations_with_replacement(range(dim), ln)]
        assert leibniz_pairs(dim, max_len) == sum(
            1 for u in words for v in words if len(u) + len(v) <= max_len)


class TestExteriorD:
    def test_d_of_dx(self):
        Xp = b_family("b3")
        assert exterior_d(FormElement.d_generator(2, 0), Xp).is_zero()

    def test_d_x_dt(self):
        Xp = b_family("b3")
        xdt = FormElement(2, {((0,), (1,)): L_ONE})
        assert exterior_d(xdt, Xp).terms == {((), (0, 1)): L_ONE}

    def test_d_squared_on_words(self):
        """d^2 = 0 exactly in lambda on all PBW words of length <= 4."""
        from prelie_calculus.dga import _pbw_words
        cases = [(b_lie(), Xp) for _, Xp in all_families()]
        cases.append((su2_dual_lie(), su2_dual_prelie()))
        for m, Xp in cases:
            for w in _pbw_words(m.dim, 4, min_len=1):
                e = NCElement(m.dim, {w: L_ONE})
                assert exterior_d(differential_d(e, Xp), Xp).is_zero()

    def test_super_derivation(self):
        """d(xi eta) = (d xi) eta + (-1)^|xi| xi (d eta) on mixed grades."""
        m = b_lie()
        Xp = b_family("b4")
        samples = [
            FormElement(2, {((0, 1), ()): L_ONE}),          # grade 0
            FormElement(2, {((1,), (0,)): L_ONE}),          # grade 1
            FormElement(2, {((0,), (1,)): LAMBDA, ((), (0,)): L_ONE}),
            FormElement(2, {((), (0, 1)): L_ONE}),          # grade 2
        ]
        grades = [0, 1, 1, 2]
        for a, ga in zip(samples, grades):
            for b in samples:
                lhs = exterior_d(form_mul(a, b, m, Xp), Xp)
                sign = Scalar(1 if ga % 2 == 0 else -1)
                rhs = form_mul(exterior_d(a, Xp), b, m, Xp) \
                    + form_mul(a, exterior_d(b, Xp), m, Xp).scale(sign)
                assert (lhs - rhs).is_zero()

    def test_form_mul_anticommutes_generators(self):
        m = b_lie()
        Xp = b_family("b1", Fraction(1))
        dx = FormElement.d_generator(2, 0)
        dt = FormElement.d_generator(2, 1)
        assert (form_mul(dx, dt, m, Xp)
                + form_mul(dt, dx, m, Xp)).is_zero()
        assert form_mul(dx, dx, m, Xp).is_zero()


class TestKernel:
    def test_degree_zero(self):
        r = kernel_of_d(b_lie(), b_family("b4"), 0, ONE)
        assert r["dimension"] == 1

    def test_b_families_connected(self):
        m = b_lie()
        for _, Xp in all_families():
            r = kernel_of_d(m, Xp, 4, ONE)
            assert r["dimension"] == 1

    def test_b1_alpha3_n3(self):
        r = kernel_of_d(b_lie(), b_family("b1", Fraction(3)), 3, ONE)
        assert r["dimension"] == 1
        # the kernel is spanned by the unit word
        (vec,) = r["kernel"]
        unit_col = r["words"].index(())
        assert not vec[unit_col].is_zero()
        assert all(v.is_zero() for i, v in enumerate(vec) if i != unit_col)

    def test_su2_dual_connected(self):
        r = kernel_of_d(su2_dual_lie(), su2_dual_prelie(), 4, ONE)
        assert r["dimension"] == 1

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1),
                                     Fraction(3, 7)])
    @pytest.mark.parametrize("iid, m, Xp", catalog_products(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_rank_and_kernel_match_sympy(self, iid, m, Xp, lam):
        """The matrix of d at lambda, built from subset_d on the words
        kernel_of_d returns: sympy's rank plus the kernel dimension is
        the number of words, and each kernel vector is annihilated."""
        sympy = pytest.importorskip("sympy")
        n = 4 if Xp.dim == 2 else 3
        rep = kernel_of_d(m, Xp, n, Scalar(lam))
        words = rep["words"]

        def exact(s):
            return sympy.Rational(s.re.numerator, s.re.denominator) \
                + sympy.I * sympy.Rational(s.im.numerator, s.im.denominator)

        rows = {}
        for j, w in enumerate(words):
            d = subset_d(NCElement(Xp.dim, {w: L_ONE}), Xp)
            for key, c in d.terms.items():
                rows.setdefault(key, [0] * len(words))[j] = \
                    exact(c.evaluate(Scalar(lam)))
        matrix = sympy.Matrix(list(rows.values())).to_DM()
        assert matrix.rank() + rep["dimension"] == len(words)
        for vec in rep["kernel"]:
            column = sympy.Matrix([exact(v) for v in vec]).to_DM()
            assert (matrix * column.convert_to(matrix.domain)).is_zero_matrix
