import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prelie_calculus import exact_core
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
    accumulate,
    genpoly_derivative,
    linear_kernel,
    contract_sum,
    ratfunc_equal,
    tensor_contract,
)
from prelie_calculus.su2 import SL2Poly

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

    @given(st.integers(-10**20, 10**20), st.integers(-50, 50),
           st.integers(-10**20, 10**20), st.integers(-50, 50))
    def test_from_ratios_is_the_fraction_constructor(self, a, da, b, db):
        if da and db:
            assert Scalar.from_ratios(a, da, b, db).triple \
                == Scalar(Fraction(a, da), Fraction(b, db)).triple
        else:
            with pytest.raises(ZeroDivisionError):
                Scalar.from_ratios(a, da, b, db)


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


@pytest.mark.parametrize("part", [0.1, 1.0, float("nan"), "1/3", "2", True,
                                  False, None, 1j])
def test_only_int_and_fraction_parts(part):
    """No float, str or bool is ever taken as a number: Scalar(0.1) would
    otherwise be the binary fraction nearest 1/10."""
    with pytest.raises(TypeError):
        Scalar(part)
    with pytest.raises(TypeError):
        Scalar(1, part)
    with pytest.raises(TypeError):
        LambdaScalar(part)
    with pytest.raises(TypeError):
        ONE * part
    with pytest.raises(TypeError):
        L_ONE + part


# Oracle for the integer storage: every operation against plain
# (Fraction, Fraction) arithmetic, with numerators and denominators up to
# 10^12, past the heights the geometry benchmark draws, and small parts
# over shared denominators, where cancellation is likely.
big_parts = st.builds(Fraction, st.integers(-10**12, 10**12),
                      st.integers(1, 10**12))
small_parts = st.builds(Fraction, st.integers(-6, 6),
                        st.sampled_from((1, 2, 3, 4, 6, 12)))
ref_scalars = st.tuples(small_parts | big_parts | st.just(Fraction(0)),
                        small_parts | big_parts | st.just(Fraction(0)))
ref_polys = st.lists(ref_scalars, max_size=4)
R_ZERO = (Fraction(0), Fraction(0))


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


def _value(s):
    """A Scalar's value as a reference pair, after checking that it is
    stored in lowest terms."""
    re, im, den = s.triple
    assert den > 0 and math.gcd(re, im, den) == 1, s.triple
    return Fraction(re, den), Fraction(im, den)


def _poly_value(q):
    """A LambdaScalar's coefficients as reference pairs, after checking
    its storage: a positive denominator, content 1, no trailing zero."""
    den, cs = q._den, q._cs
    assert den > 0 and math.gcd(den, *itertools.chain(*cs)) == 1
    assert not cs or cs[-1] != (0, 0)
    assert all(type(n) is int for n in itertools.chain((den,), *cs))
    return [_value(c) for c in q.coeffs]


def _ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == R_ZERO:
        cs.pop()
    return cs


class TestIntegerStorage:
    @settings(max_examples=300)
    @given(ref_scalars, ref_scalars)
    def test_scalar_ops_match_fraction_pairs(self, x, y):
        a, b = Scalar(*x), Scalar(*y)
        assert _value(a) == x and _value(b) == y
        assert _value(a + b) == (x[0] + y[0], x[1] + y[1])
        assert _value(a - b) == (x[0] - y[0], x[1] - y[1])
        assert _value(a * b) == _ref_mul(x, y)
        assert _value(-a) == (-x[0], -x[1])
        assert _value(a.conj()) == (x[0], -x[1])
        if y != R_ZERO:
            assert _value(a / b) == _ref_div(x, y)
        assert (a == b) == (x == y)
        # a value reached by two routes has one triple and one hash
        c = (a * b + a) - a * b
        assert c == a and c.triple == a.triple and hash(c) == hash(a)
        assert Scalar(x[0]) == x[0] and hash(Scalar(*x)) == hash(a)

    def test_zero_is_one_triple(self):
        big = Scalar(Fraction(7, 10**12), Fraction(-3, 10**12))
        for zero in (big - big, big * ZERO, ZERO * big, Scalar(0, 0),
                     Scalar(Fraction(0, 5))):
            assert zero.triple == (0, 0, 1) and zero == ZERO

    def test_public_attributes_are_read_only(self):
        for obj, attr in ((ONE, "re"), (ONE, "im"), (ONE, "triple"),
                          (L_ONE, "coeffs"), (ONE, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 0)

    def test_gaussian_product_cancels(self):
        # (1+i)^2 / 2 = i: no denominator cancels against a numerator
        # before the product, so the gcd comes after
        half = Scalar(Fraction(1, 2), Fraction(1, 2))
        assert (Scalar(1, 1) * half).triple == (0, 1, 1)
        assert (Scalar(2, 1) * Scalar(Fraction(2, 5), Fraction(-1, 5))
                ).triple == (1, 0, 1)
        # the same for lambda-polynomials: (1+i)(1-i)/2 = 1
        conj_half = LambdaScalar(half.conj())
        for p, expect in ((LambdaScalar(I + ONE), L_ONE),
                          (LambdaScalar((ONE + I, ONE + I)), L_ONE + LAMBDA)):
            prod = p * conj_half
            assert prod == expect and _poly_value(prod) == _poly_value(expect)
            assert (prod._den, prod._cs) == (expect._den, expect._cs)

    @settings(max_examples=200)
    @given(ref_polys, ref_polys, ref_scalars)
    def test_lambda_ops_match_fraction_pairs(self, p, q, z):
        a, b = LambdaScalar([Scalar(*c) for c in p]), \
            LambdaScalar([Scalar(*c) for c in q])
        assert _poly_value(a) == _ref_trim(p)
        pairs = list(itertools.zip_longest(p, q, fillvalue=R_ZERO))
        assert _poly_value(a + b) == _ref_trim(
            (x[0] + y[0], x[1] + y[1]) for x, y in pairs)
        assert _poly_value(a - b) == _ref_trim(
            (x[0] - y[0], x[1] - y[1]) for x, y in pairs)
        prod = [R_ZERO] * max(len(p) + len(q) - 1, 0)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                xy = _ref_mul(x, y)
                prod[i + j] = (prod[i + j][0] + xy[0],
                               prod[i + j][1] + xy[1])
        assert _poly_value(a * b) == _ref_trim(prod)
        assert _poly_value(a.conj()) == _ref_trim(
            (x[0], -x[1]) if k % 2 == 0 else (-x[0], x[1])
            for k, x in enumerate(p))
        acc = R_ZERO
        for x in reversed(p):
            acc = _ref_mul(acc, z)
            acc = (acc[0] + x[0], acc[1] + x[1])
        assert _value(a.evaluate(Scalar(*z))) == acc
        c = (a * b + a) - a * b
        assert c == a and hash(c) == hash(a)


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


small_denominators = st.sampled_from((1, 2, 3, 5, 7))
small_scalars = st.builds(
    Scalar,
    st.builds(Fraction, st.integers(-3, 3), small_denominators),
    st.builds(Fraction, st.integers(-1, 1), small_denominators))
dims = st.integers(1, 3)


@st.composite
def sparse_tensors(draw, shape):
    cells = list(itertools.product(*(range(d) for d in shape)))
    picked = draw(st.lists(st.sampled_from(cells), unique=True))
    return Tensor(shape, {idx: draw(small_scalars) for idx in picked})


class TestTensorContract:
    def test_kronecker_identity(self):
        v = Tensor((3,), {(0,): Scalar(2), (2,): I})
        identity = Tensor((3, 3), {(i, i): ONE for i in range(3)})
        assert tensor_contract("ij,j->i", identity, v) == v

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

    @settings(max_examples=40, deadline=None)
    @given(st.data(), dims)
    def test_relabelled_terms_share_one_contraction(self, data, n):
        """Terms that are one contraction up to label names and output
        order, on the same operands, are contracted once per sum and
        re-keyed per term; the sum still matches the dense reference."""
        xi = data.draw(sparse_tensors((n, n, n)))
        other = data.draw(sparse_tensors((n, n, n)))
        terms = [(1, "ijm,mko->ijko", xi, xi),
                 (-1, "jim,mko->ijko", xi, xi),
                 (-1, "jkm,imo->ijko", xi, xi),
                 (1, "ikm,jmo->ijko", xi, xi),
                 (1, "ijm,mko->ijko", xi, other),
                 (1, "ijk->kj", xi), (-1, "jik->ki", xi)]
        dense = [dense_einsum(spec, *ops) for _, spec, *ops in terms]
        calls = []
        true_contract = exact_core._contract_canonical

        def counted(spec, *args):
            calls.append(spec)
            return true_contract(spec, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_core, "_contract_canonical", counted)
            assert contract_sum(terms[:4]) == \
                dense[0] - dense[1] - dense[2] + dense[3]
            assert calls == ["abc,cde->abde", "abc,dce->abde"]
            # the same spec on other operands is another contraction
            assert contract_sum(terms[:1] + terms[4:5]) == dense[0] + dense[4]
            assert len(calls) == 4
            assert contract_sum(terms[5:]) == dense[5] - dense[6]
            assert calls[4:] == ["abc->bc"]

    @settings(max_examples=40, deadline=None)
    @given(st.data(), dims, dims, dims,
           st.sampled_from((2, 3, 5, 7, Fraction(1, 3), Fraction(2, 5))))
    def test_cancelling_terms_over_different_denominators(self, data, a, b,
                                                         c, q):
        """The first two terms cancel exactly although their operands,
        and so their common denominators, differ by the factor q; the
        third survives.  A kernel that adds the terms' integer sums
        without rescaling them to one denominator gets this wrong."""
        t = data.draw(sparse_tensors((a, b)))
        u = data.draw(sparse_tensors((b, c)))
        tq, uq = t.scale(Scalar(q)), u.scale(Scalar(1 / Fraction(q)))
        terms = [(1, "ij,jk->ik", t, u), (-1, "ij,jk->ik", tq, uq),
                 (1, "ij,jk->ik", tq, u)]
        dense = [dense_einsum(spec, *ops) for _, spec, *ops in terms]
        assert dense[0] == dense[1]
        assert contract_sum(terms) == dense[0] - dense[1] + dense[2]
        assert contract_sum(terms[:2]).is_zero()


def dense_tensor(rng, shape, height, den=1):
    """A tensor with every entry nonzero: Gaussian rationals with parts
    of either sign up to height and denominators up to den."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, height),
                        rng.randint(1, den))

    return Tensor(shape, {idx: Scalar(part(), part())
                          for idx in itertools.product(*map(range, shape))})


def branches(terms):
    """contract_sum of terms with every join packed, and with none."""
    out = []
    for packs in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_core, "_packs", lambda right, buckets: packs)
            out.append(contract_sum(terms))
    return out


def joins_taken(monkeypatch):
    """The list that records, from now on, whether each pairwise join
    is packed."""
    taken = []
    width_rule = exact_core._packs

    def recorded(right, buckets):
        taken.append(width_rule(right, buckets))
        return taken[-1]

    monkeypatch.setattr(exact_core, "_packs", recorded)
    return taken


class TestPackedJoin:
    """The packed (Kronecker) join against the entry-by-entry join and
    the dense reference."""

    LEFT_SYMMETRY = "ijm,mko->ijko", "jim,mko->ijko", "jkm,imo->ijko", \
        "ikm,jmo->ijko"

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_dense_operands(self, n):
        rng = random.Random(n)
        xi = dense_tensor(rng, (n, n, n), 700, den=3)
        other = dense_tensor(rng, (n, n, n), 50)
        want = dense_einsum("ijm,mko->ijko", xi, other)
        assert contract_sum([(1, "ijm,mko->ijko", xi, other)]) == want
        assert branches([(1, "ijm,mko->ijko", xi, other)]) == [want, want]
        terms = [(sign, spec, xi, xi)
                 for sign, spec in zip((1, -1, -1, 1), self.LEFT_SYMMETRY)]
        packed, narrow = branches(terms)
        assert packed == narrow == contract_sum(terms)
        assert not packed.is_zero()

    @pytest.mark.parametrize("height", [10**6, 10**18, 10**30])
    def test_large_heights(self, height):
        rng = random.Random(height)
        a = dense_tensor(rng, (4, 4, 4), height, den=7)
        b = dense_tensor(rng, (4, 4, 4), height, den=5)
        want = dense_einsum("ijm,mko->ijko", a, b)
        assert branches([(1, "ijm,mko->ijko", a, b)]) == [want, want]
        # a difference whose big entries cancel to small ones
        c = b + dense_tensor(rng, (4, 4, 4), 3)
        terms = [(1, "ijm,mko->ijko", a, c), (-1, "ijm,mko->ijko", a, b)]
        assert branches(terms) == [dense_einsum("ijm,mko->ijko", a, c - b)] * 2

    @pytest.mark.parametrize("m", [1, 2**50 - 1, 2**50, 3**40, 10**30])
    @pytest.mark.parametrize("spec, left, right, tight_left, tight_right", [
        # right entries summed into one lane inside a bucket
        ("ab,bcd->ad", (3, 3), (3, 5, 1),
         [(0, 0)], [(0, c, 0) for c in range(5)]),
        # left entries summed into one row
        ("abc,cd->ad", (3, 5, 3), (3, 3),
         [(0, b, 0) for b in range(5)], [(0, 0)]),
    ])
    @pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, -1), (-1, -1)])
    def test_lanes_at_the_bound(self, m, spec, left, right, tight_left,
                                tight_right, signs):
        """Every entry is +-m, one sign per operand, so nothing cancels
        and every output entry of the full operands is +-15 m^2.
        On the tight operands the (0, 0) lane is exactly the bound
        S_l M_r N_r of contract_sum's docstring, or its negative."""
        sl, sr = signs

        def tensor(shape, sign, keys):
            return Tensor(shape, {idx: Scalar(sign * m) for idx in keys})

        t = tensor(left, sl, itertools.product(*map(range, left)))
        u = tensor(right, sr, itertools.product(*map(range, right)))
        want = dense_einsum(spec, t, u)
        assert want.get(0, 0) == Scalar(sl * sr * 15 * m * m)
        assert branches([(1, spec, t, u)]) == [want, want]
        t, u = tensor(left, sl, tight_left), tensor(right, sr, tight_right)
        want = dense_einsum(spec, t, u)
        bound = len(tight_left) * m * m * len(tight_right)
        assert want.get(0, 0) == Scalar(sl * sr * bound)
        assert branches([(1, spec, t, u)]) == [want, want]

    @pytest.mark.parametrize("m", [2**60, 10**30])
    def test_complex_lanes_at_the_bound(self, m):
        """Entries m(1 + i) and m(1 - i): every product is +-2 m^2 or
        +-2 m^2 i, so both parts of a lane reach their extremes."""
        rng = random.Random(m)
        units = (Scalar(m, m), Scalar(m, -m), Scalar(-m, m), Scalar(-m, -m))
        t = Tensor((4, 4, 4), {idx: rng.choice(units) for idx in
                               itertools.product(range(4), repeat=3)})
        u = Tensor((4, 4, 4), {idx: units[0] for idx in
                               itertools.product(range(4), repeat=3)})
        for spec in ("ijm,mko->ijko", "ijm,mjo->io"):
            want = dense_einsum(spec, t, u)
            assert branches([(1, spec, t, u)]) == [want, want]

    @pytest.mark.parametrize("spec, shapes", [
        ("abc,cd->ad", ((5, 5, 5), (5, 5))),
        ("ab,bcd->ad", ((5, 5), (5, 5, 5))),
        ("ijk,kj->i", ((5, 5, 5), (5, 5))),
        ("ijm,mjo->io", ((5, 5, 5), (5, 5, 5))),
    ])
    def test_labels_summed_inside_an_operand(self, spec, shapes):
        rng = random.Random(spec)
        ops = [dense_tensor(rng, shape, 99, den=4) for shape in shapes]
        want = dense_einsum(spec, *ops)
        assert branches([(1, spec, *ops)]) == [want, want]

    @pytest.mark.parametrize("spec, shapes", [
        ("ay,apx,pz->xyz", ((5, 5), (5, 5, 5), (5, 5))),
        ("ijk,ia,jb,ck->abc", ((4, 4, 4), (4, 4), (4, 4), (4, 4))),
        ("ab,bc,cd->ad", ((6, 6), (6, 6), (6, 6))),
    ])
    def test_three_or_more_operands(self, spec, shapes):
        rng = random.Random(spec)
        ops = [dense_tensor(rng, shape, 30, den=2) for shape in shapes]
        want = dense_einsum(spec, *ops)
        assert contract_sum([(1, spec, *ops)]) == want
        assert branches([(1, spec, *ops)]) == [want, want]

    def test_width_rule_picks_the_branch(self, monkeypatch):
        """Every join of a catalog check, construct or calculus run goes
        entry by entry; both joins of left symmetry on a dense dim-7
        product are packed, and on a direct sum of ten dense dim-3
        blocks, whose buckets each fill a tenth of the lanes, neither
        is."""
        import contextlib
        import io

        from prelie_calculus import cli
        from prelie_calculus.catalog import load_catalog
        from prelie_calculus.prelie import PreLieProduct, check_left_symmetry

        taken = joins_taken(monkeypatch)
        for entry in load_catalog():
            argvs = [["check", "--instance", entry["id"]],
                     ["construct", "--instance", entry["id"]]]
            if entry["kind"] == "prelie":
                argvs.append(["calculus", "--instance", entry["id"],
                              "--max-len", "3"])
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
        assert len(taken) > 100 and not any(taken)
        xi = dense_tensor(random.Random(7), (7, 7, 7), 700)
        del taken[:]
        check_left_symmetry(PreLieProduct(7, tuple("abcdefg"), xi))
        assert taken == [True, True]
        block = dense_tensor(random.Random(3), (3, 3, 3), 9).entries
        blocks = Tensor((30, 30, 30), {
            tuple(3 * b + i for i in idx): v
            for b in range(10) for idx, v in block.items()})
        del taken[:]
        check_left_symmetry(PreLieProduct(30, tuple(map(str, range(30))),
                                          blocks))
        assert taken == [False, False]


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


# -- the shared term-map base ----------------------------------------------

small_lambda = st.builds(
    lambda cs: LambdaScalar(cs),
    st.lists(st.builds(Scalar, st.integers(-3, 3), st.integers(-1, 1)),
             max_size=2))


def term_maps(keys, build):
    return st.dictionaries(keys, small_lambda, max_size=4).map(build)


TERM_MAPS = {
    "GenPoly": term_maps(
        st.tuples(st.fractions(-3, 3, max_denominator=2),
                  st.integers(0, 3)), GenPoly),
    "SL2Poly": term_maps(st.tuples(*[st.integers(0, 2)] * 4), SL2Poly),
}


def _clean(p):
    return all(not q.is_zero() for q in p.terms.values())


@pytest.mark.parametrize("kind", sorted(TERM_MAPS))
class TestTermMap:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_group_laws(self, kind, data):
        a, b = (data.draw(TERM_MAPS[kind]) for _ in range(2))
        assert a + b == b + a
        assert (a + b) - b == a
        assert (a - a).terms == {}
        assert -(-a) == a and (a + (-a)).is_zero()
        assert a.scale(0).is_zero()
        assert a.scale(2) == a + a
        assert all(_clean(p) for p in (a, a + b, a - b, a.scale(LAMBDA)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equal_values_hash_equal(self, kind, data):
        a, b = (data.draw(TERM_MAPS[kind]) for _ in range(2))
        reordered = a._nonzero(dict(reversed(a.terms.items())))
        assert reordered == a and hash(reordered) == hash(a)
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        if a == b:
            assert hash(a) == hash(b)

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_immutable(self, kind, data):
        p = data.draw(TERM_MAPS[kind])
        with pytest.raises(AttributeError):
            p.terms = {}


@settings(max_examples=40, deadline=None)
@given(TERM_MAPS["SL2Poly"], TERM_MAPS["SL2Poly"])
def test_sl2_products_stay_normalized(p, q):
    assert all(ea == 0 or ed == 0 for ea, _, _, ed in (p * q).terms)
    assert _clean(p * q)


def test_public_constructors_validate_keys():
    with pytest.raises(ValueError, match="natural"):
        GenPoly({(0, -1): 1})
    # a*d is rewritten to 1 + b*c on construction
    assert SL2Poly({(1, 0, 0, 1): 1}) == SL2Poly(
        {(0, 0, 0, 0): 1, (0, 1, 1, 0): 1})


def test_accumulate_merges_and_drops_zeros():
    out = accumulate([("a", ONE), ("b", I), ("a", -ONE), ("c", ZERO),
                      ("b", I)])
    assert out == {"b": Scalar(0, 2)}
    polys = accumulate([(0, GenPoly.const(1)), (0, GenPoly.const(-1))])
    assert polys == {}
    assert list(accumulate([(2, L_ONE), (1, L_ONE), (2, L_ONE)])) == [2, 1]
    # the keys that stay keep the order of their first occurrence
    out = accumulate([("c", ONE), ("a", ONE), ("b", I), ("a", -ONE),
                      ("d", I), ("e", ONE), ("b", ONE), ("e", -ONE)])
    assert list(out) == ["c", "b", "d"]
    polys = accumulate([((Fraction(1, 2), 0), L_ONE), ((0, 1), L_ONE),
                        ((Fraction(1, 2), 0), -L_ONE), ((2, 0), L_ONE)])
    assert list(polys) == [(0, 1), (2, 0)]
