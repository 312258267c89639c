import random
from fractions import Fraction

import pytest

from prelie_calculus.catalog import su2_dual_lie, su2_dual_prelie
from prelie_calculus.exact_core import (
    I, L_ONE, L_ZERO, LambdaScalar, ONE, Scalar, Tensor, ZERO,
)
from prelie_calculus.prelie import PreLieProduct, check_compatibility
from prelie_calculus.su2 import (
    SL2Poly,
    _displayed_cross_relation,
    cross_relation,
    omega_linearize,
    sl2_gen,
    verify_su2_bicrossproduct_omega,
    verify_su2_semiclassical,
)

A, B, C, D = (sl2_gen(g) for g in "abcd")
LAM = LambdaScalar((ZERO, ONE))


class TestSL2Poly:
    def test_determinant_relation(self):
        assert A * D - B * C == SL2Poly.const(1)

    def test_ad_reduces(self):
        # ad -> 1 + bc, so ad has no mixed a,d monomial left
        p = A * D
        assert all(ea == 0 or ed == 0 for (ea, _, _, ed) in p.terms)
        assert p == SL2Poly.const(1) + B * C

    def test_reduction_confluent_on_powers(self):
        # (ad)^2 built two ways
        assert (A * D) * (A * D) == (A * A) * (D * D)

    def test_counit_is_algebra_map(self):
        rng = random.Random(5)
        gens = [A, B, C, D, SL2Poly.const(1)]
        for _ in range(25):
            p = gens[rng.randrange(5)] * gens[rng.randrange(5)] \
                + gens[rng.randrange(5)]
            q = gens[rng.randrange(5)] * gens[rng.randrange(5)]
            assert (p * q).counit() == p.counit() * q.counit()

    def test_counit_values(self):
        assert A.counit() == L_ONE
        assert D.counit() == L_ONE
        assert B.counit() == L_ZERO
        assert (A * D).counit() == L_ONE


class TestOmegaLinearize:
    def test_generators(self):
        one = SL2Poly.const(1)
        assert omega_linearize(A - one) == [L_ONE, L_ZERO, L_ZERO]
        assert omega_linearize(B) == [L_ZERO, L_ONE, L_ZERO]
        assert omega_linearize(C) == [L_ZERO, L_ZERO, L_ONE]
        assert omega_linearize(D - one) == [-L_ONE, L_ZERO, L_ZERO]

    def test_requires_counit_zero(self):
        with pytest.raises(ValueError, match="counit"):
            omega_linearize(A)

    def test_vanishes_on_augmentation_squares(self):
        one = SL2Poly.const(1)
        ideal = [A - one, B, C, D - one, A * A - one, B * D]
        rng = random.Random(9)
        for _ in range(30):
            p = ideal[rng.randrange(len(ideal))]
            q = ideal[rng.randrange(len(ideal))]
            assert omega_linearize(p * q) == [L_ZERO, L_ZERO, L_ZERO]

    def test_powers_linearize_to_multiples(self):
        # a^n - 1 has linear part n(a-1)
        one = SL2Poly.const(1)
        p = A * A * A - one
        assert omega_linearize(p) == [LambdaScalar(3), L_ZERO, L_ZERO]


class TestCrossRelations:
    def test_structured_equals_displayed(self):
        for i in (1, 2, 3):
            assert cross_relation(i) == _displayed_cross_relation(i)

    def test_counit_free(self):
        for i in (1, 2, 3):
            rel = cross_relation(i)
            for r in (0, 1):
                for s in (0, 1):
                    assert rel[r][s].counit().is_zero()

    def test_x3_entries(self):
        # [x^3, t] = -lambda (a^2 d - a, a b d; a c d, a d^2 - d)
        rel = cross_relation(3)
        assert rel[0][0] == (A * A * D - A).scale(-LAM)
        assert rel[0][1] == (A * B * D).scale(-LAM)
        assert rel[1][0] == (A * C * D).scale(-LAM)
        assert rel[1][1] == (A * D * D - D).scale(-LAM)


class TestVerifications:
    def test_bicrossproduct_omega_passes(self):
        assert verify_su2_bicrossproduct_omega()

    def test_semiclassical_passes(self):
        assert verify_su2_semiclassical()

    def test_witness_lists_empty(self):
        assert verify_su2_semiclassical().witnesses == ()
        assert verify_su2_bicrossproduct_omega().witnesses == ()

    def test_mutated_xi_breaks_compatibility(self):
        """The transcription guard of verify_su2_semiclassical: Xi(phi,
        psi+) = -i in place of -i/2 breaks compatibility with the dual
        bracket."""
        X = su2_dual_prelie()
        mutant = PreLieProduct(3, X.basis_names, Tensor(
            (3, 3, 3), {**X.xi.entries, (0, 1, 1): -I}))
        assert X.xi.get(0, 1, 1) == -I * Scalar(Fraction(1, 2))
        assert check_compatibility(X, su2_dual_lie())
        assert not check_compatibility(mutant, su2_dual_lie())
