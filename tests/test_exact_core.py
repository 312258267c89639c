import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prelie_calculus.exact_core import (
    GenPoly,
    I,
    LAMBDA,
    L_ONE,
    LambdaScalar,
    ONE,
    RatFunc,
    Scalar,
    Tensor,
    ZERO,
    genpoly_derivative,
    linear_kernel,
    contract_sum,
    ratfunc_equal,
    tensor_contract,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
scalars = st.builds(Scalar, rationals, rationals)
lambda_scalars = st.builds(
    lambda cs: LambdaScalar(cs), st.lists(scalars, max_size=4)
)


class TestScalar:
    def test_field_basics(self):
        assert I * I == Scalar(-1)
        assert (ONE + I) * (ONE - I) == Scalar(2)
        assert Scalar(Fraction(2, 4)).re == Fraction(1, 2)

    @given(scalars, scalars)
    def test_conj_antimultiplicative(self, a, b):
        assert (a * b).conj() == a.conj() * b.conj()

    @given(scalars)
    def test_division_inverse(self, a):
        if not a.is_zero():
            assert a / a == ONE

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestLambdaScalar:
    def test_lambda_star_is_minus_lambda(self):
        assert LAMBDA.conj() == -LAMBDA
        # (i*lambda)* = (-i)(-lambda) = i*lambda: self-adjoint
        il = LambdaScalar((ZERO, I))
        assert il.conj() == il

    @given(lambda_scalars)
    def test_conj_involution(self, a):
        assert a.conj().conj() == a

    @given(lambda_scalars, lambda_scalars)
    def test_conj_multiplicative(self, a, b):
        # coefficients commute, so the anti-automorphism is an automorphism
        assert (a * b).conj() == a.conj() * b.conj()

    def test_no_trailing_zeros(self):
        assert LambdaScalar((ONE, ZERO, ZERO)).coeffs == (ONE,)

    def test_evaluate(self):
        p = L_ONE + LAMBDA * LAMBDA  # 1 + lambda^2
        assert p.evaluate(Scalar(3)) == Scalar(10)


def dense_einsum(spec, *operands):
    """Brute-force reference: every assignment of every label."""
    lhs, out = spec.split("->")
    ins = lhs.split(",")
    dims = {}
    for labels, t in zip(ins, operands):
        dims.update(zip(labels, t.shape))
    names = sorted(dims)
    entries = {}
    for values in itertools.product(*(range(dims[c]) for c in names)):
        env = dict(zip(names, values))
        term = ONE
        for labels, t in zip(ins, operands):
            term = term * t.get(*(env[c] for c in labels))
        key = tuple(env[c] for c in out)
        entries[key] = entries.get(key, ZERO) + term
    return Tensor(tuple(dims[c] for c in out), entries)


small_scalars = st.builds(Scalar, st.integers(-3, 3), st.integers(-1, 1))
dims = st.integers(1, 3)


@st.composite
def sparse_tensors(draw, shape):
    cells = list(itertools.product(*(range(d) for d in shape)))
    picked = draw(st.lists(st.sampled_from(cells), unique=True))
    return Tensor(shape, {idx: draw(small_scalars) for idx in picked})


class TestTensorContract:
    def test_kronecker_identity(self):
        v = Tensor((3,), {(0,): Scalar(2), (2,): I})
        assert tensor_contract("ij,j->i", Tensor.kronecker(3), v) == v

    def test_su2_epsilon(self):
        eps = Tensor((3, 3, 3), {
            (0, 1, 2): ONE, (1, 2, 0): ONE, (2, 0, 1): ONE,
            (1, 0, 2): -ONE, (2, 1, 0): -ONE, (0, 2, 1): -ONE,
        })
        e1 = Tensor((3,), {(0,): ONE})
        e2 = Tensor((3,), {(1,): ONE})
        out = tensor_contract("jk,j->k", tensor_contract("ijk,i->jk", eps, e1),
                              e2)
        assert out == Tensor((3,), {(2,): ONE})

    def test_against_dense_oracle(self):
        rng = random.Random(7)

        def rand_tensor(shape, density=0.4):
            entries = {}
            for idx in itertools.product(*(range(d) for d in shape)):
                if rng.random() < density:
                    entries[idx] = Scalar(Fraction(rng.randint(-5, 5),
                                                   rng.randint(1, 4)))
            return Tensor(shape, entries)

        for _ in range(10):
            a = rand_tensor((2, 3, 2))
            b = rand_tensor((3, 2, 4))
            got = tensor_contract("ipq,pqj->ij", a, b)
            # dense loop oracle
            for i, j in itertools.product(range(2), range(4)):
                s = ZERO
                for p, q in itertools.product(range(3), range(2)):
                    s = s + a.get(i, p, q) * b.get(p, q, j)
                assert got.get(i, j) == s

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_contract("i,i->", Tensor((2,)), Tensor((3,)))

    def test_bilinear(self):
        a = Tensor((2, 2), {(0, 1): Scalar(3)})
        b = Tensor((2, 2), {(1, 0): I})
        v = Tensor((2,), {(0,): ONE, (1,): Scalar(2)})
        spec = "ij,j->i"
        lhs = tensor_contract(spec, a + b, v)
        rhs = tensor_contract(spec, a, v) + tensor_contract(spec, b, v)
        assert lhs == rhs

    @pytest.mark.parametrize("spec", [
        "ij->ij->", "ij,j->ik", "ii->i", "ijk->ijk", "ij,jk->ijj",
    ])
    def test_malformed_spec(self, spec):
        with pytest.raises(ValueError):
            tensor_contract(spec, *[Tensor((2, 2))] * spec.count(","),
                            Tensor((2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), dims, dims, dims)
    def test_reorder_matches_dense(self, data, a, b, c):
        t = data.draw(sparse_tensors((a, b, c)))
        assert tensor_contract("ijk->kij", t) == dense_einsum("ijk->kij", t)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), dims, dims, dims)
    def test_summed_out_label_matches_dense(self, data, a, b, c):
        t = data.draw(sparse_tensors((a, b, c)))
        u = data.draw(sparse_tensors((c, b)))
        assert tensor_contract("ijk->ik", t) == dense_einsum("ijk->ik", t)
        # k is contracted, j is summed away after the join
        assert tensor_contract("ijk,kj->i", t, u) == \
            dense_einsum("ijk,kj->i", t, u)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), dims)
    def test_cybe_shaped_terms_match_dense(self, data, n):
        r = data.draw(sparse_tensors((n, n)))
        c = data.draw(sparse_tensors((n, n, n)))
        terms = [(1, "ay,apx,pz->xyz", r, c, r),
                 (-1, "xb,bpy,pz->xyz", r, c, r),
                 (1, "xb,bqz,yq->xyz", r, c, r)]
        dense = [dense_einsum(spec, *ops) for _, spec, *ops in terms]
        for (_, spec, *ops), want in zip(terms, dense):
            assert tensor_contract(spec, *ops) == want
        assert contract_sum(terms) == dense[0] - dense[1] + dense[2]


class TestLinearKernel:
    def test_zero_matrix(self):
        basis = linear_kernel([[ZERO, ZERO], [ZERO, ZERO]])
        assert len(basis) == 2

    def test_identity(self):
        m = [[Scalar(1 if i == j else 0) for j in range(3)] for i in range(3)]
        assert linear_kernel(m) == []

    def test_random_matrices_annihilated(self):
        rng = random.Random(3)
        for _ in range(20):
            m = [[Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
                  for _ in range(6)] for _ in range(4)]
            basis = linear_kernel(m)
            # every kernel vector is annihilated
            for k in basis:
                for row in m:
                    s = ZERO
                    for a, b in zip(row, k):
                        s = s + a * b
                    assert s.is_zero()
            # rank + nullity: rank from a second elimination on the transpose
            rank = 6 - len(basis)
            assert 0 <= rank <= 4


class TestGenPoly:
    def test_power_rule(self):
        f = GenPoly.monomial(Fraction(1, 2), 0)
        df = genpoly_derivative(f, "x")
        assert df == GenPoly.monomial(Fraction(-1, 2), 0, Fraction(1, 2))

    def test_t_derivative_constant(self):
        assert genpoly_derivative(GenPoly.const(5), "t").is_zero()

    def test_product_rule_random(self):
        rng = random.Random(11)
        for _ in range(15):
            def rand_poly():
                return GenPoly({
                    (Fraction(rng.randint(-4, 4), rng.choice([1, 2])),
                     rng.randint(0, 3)): LambdaScalar(rng.randint(-3, 3))
                    for _ in range(3)
                })
            f, g = rand_poly(), rand_poly()
            for var in ("x", "t"):
                lhs = genpoly_derivative(f * g, var)
                rhs = genpoly_derivative(f, var) * g + f * genpoly_derivative(g, var)
                assert lhs == rhs


class TestRatFunc:
    def x(self, a=1):
        return GenPoly.monomial(a, 0)

    def test_x_over_x_is_one(self):
        assert ratfunc_equal(RatFunc(self.x(), self.x()), RatFunc.const(1))

    def test_distributivity_cross_check(self):
        x = self.x()
        t = GenPoly.monomial(0, 1)
        lhs = RatFunc((x + t) * (x - t))
        rhs = RatFunc(x * x - t * t)
        assert ratfunc_equal(lhs, rhs)

    def test_distinct_monomials(self):
        assert not ratfunc_equal(RatFunc(self.x(1)), RatFunc(self.x(2)))

    def test_equivalence_relation(self):
        rng = random.Random(5)

        def rand_rf():
            num = GenPoly({(rng.randint(-2, 2), rng.randint(0, 2)):
                           LambdaScalar(rng.randint(-3, 3)) for _ in range(2)})
            den = GenPoly.monomial(rng.randint(-1, 1), 0)
            return RatFunc(num, den)

        for _ in range(20):
            f = rand_rf()
            s = GenPoly.monomial(rng.randint(-2, 2), rng.randint(0, 2),
                                 rng.randint(1, 3))
            g = RatFunc(f.num * s, f.den * s)  # same value, different rep
            h = RatFunc(g.num * s, g.den * s)
            assert ratfunc_equal(f, f)
            assert ratfunc_equal(f, g) and ratfunc_equal(g, f)
            assert ratfunc_equal(f, g) and ratfunc_equal(g, h) \
                and ratfunc_equal(f, h)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(GenPoly.const(1), GenPoly({}))

    def test_quotient_rule(self):
        x = RatFunc(self.x())
        one = RatFunc.const(1)
        inv = one / x
        # d/dx (1/x) = -1/x^2
        assert ratfunc_equal(inv.derivative("x"), -(one / (x * x)))
