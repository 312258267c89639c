from dataclasses import replace
from fractions import Fraction

import pytest

from prelie_calculus.exact_core import I, ONE, Scalar, Tensor, ZERO
from prelie_calculus.liebialg import (
    ActionTensor,
    LieAlgebra,
    LieBialgebra,
    LieCoalgebra,
    MatchedPair,
    bicross_sum,
    check_bialgebra_cocycle,
    check_crossed_module,
    check_lie_algebra,
    check_matched_pair,
    coadjoint_action,
    double_cross_sum,
    dualize,
)
from prelie_calculus.catalog import (
    b_lie,
    su2_bialgebra,
    su2_coadjoint_matched_pair,
    su2_dual_lie,
)


def abelian(n, names=None):
    names = names or tuple(f"e{i}" for i in range(n))
    return LieAlgebra(n, names, Tensor((n, n, n), {}))


def zero_cobracket(L):
    return LieBialgebra(
        L, LieCoalgebra(L.dim, L.basis_names, Tensor((L.dim,) * 3, {}))
    )


class TestCheckLieAlgebra:
    def test_su2_passes(self):
        rep = check_lie_algebra(su2_bialgebra().algebra.bracket)
        assert rep["antisymmetry"] and rep["jacobi"]

    def test_zero_bracket(self):
        rep = check_lie_algebra(Tensor((3, 3, 3), {}))
        assert rep["antisymmetry"] and rep["jacobi"]

    def test_jacobi_failure_witnessed(self):
        # [e1,e2]=e1, [e1,e3]=e2, rest 0: Jacobi fails
        c = Tensor((3, 3, 3), {
            (0, 1, 0): ONE, (1, 0, 0): -ONE,
            (0, 2, 1): ONE, (2, 0, 1): -ONE,
        })
        rep = check_lie_algebra(c)
        assert rep["antisymmetry"]
        assert not rep["jacobi"]
        assert (0, 1, 2) in rep["jacobi"].witnesses

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_lie_algebra(Tensor((2, 2), {}))


class TestCocycle:
    def test_zero_cobracket(self):
        assert check_bialgebra_cocycle(zero_cobracket(b_lie()))

    def test_su2(self):
        assert check_bialgebra_cocycle(su2_bialgebra())

    def test_mutated_su2_fails(self):
        B = su2_bialgebra()
        # delta e1 = e2 /\ e3 instead of i e1 /\ e3
        cob = dict(B.coalgebra.cobracket.entries)
        for key in [k for k in cob if k[0] == 0]:
            del cob[key]
        cob[(0, 1, 2)] = ONE
        cob[(0, 2, 1)] = -ONE
        B2 = LieBialgebra(
            B.algebra, LieCoalgebra(3, B.basis_names, Tensor((3, 3, 3), cob))
        )
        assert not check_bialgebra_cocycle(B2)


class TestDualize:
    def test_su2_dual_bracket(self):
        """The dual bracket becomes [x1,x2]=0, [xi,x3]=xi after the
        rescaling x^i = -i f^i."""
        Bd = dualize(su2_bialgebra())
        expected = su2_dual_lie()  # already in the f-basis convention
        # [f1, f3] = i f1, [f2, f3] = i f2, [f1, f2] = 0 up to convention:
        # su2_dual_lie uses dual Chevalley labels; here check directly.
        br = Bd.algebra.bracket
        assert br.get(0, 2, 0) == I
        assert br.get(1, 2, 1) == I
        assert all(br.get(0, 1, k).is_zero() for k in range(3))
        # rescaled: [x1,x3] = (-i)^2 [f1,f3] / (-i) = x1
        # i.e. with x^i = -i f^i the structure constant becomes real 1
        s = Scalar(0, -1)
        assert (s * s * I) / s == ONE
        del expected

    def test_dual_of_abelian(self):
        B = zero_cobracket(abelian(2))
        D = dualize(B)
        assert D.algebra.bracket.is_zero()
        assert D.coalgebra.cobracket.is_zero()

    def test_involution(self):
        B = su2_bialgebra()
        DD = dualize(dualize(B))
        assert DD.algebra.bracket == B.algebra.bracket
        assert DD.coalgebra.cobracket == B.coalgebra.cobracket


class TestCoadjoint:
    def test_abelian_zero(self):
        assert coadjoint_action(zero_cobracket(abelian(3))) \
            .coefficients.is_zero()

    def test_b(self):
        # <ad*_t X, x> = -<X,[t,x]> = <X,x> = 1, so ad*_t X = X
        act = coadjoint_action(zero_cobracket(b_lie()))
        assert act.coefficients.get(1, 0, 0) == ONE   # ad*_t f^x = f^x
        assert act.coefficients.get(0, 0, 0).is_zero()

    def test_su2_pairing_expansion(self):
        B = su2_bialgebra()
        act = coadjoint_action(B)
        c = B.algebra.bracket
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert act.coefficients.get(i, j, k) == -c.get(i, k, j)

    def test_action_axiom(self):
        from prelie_calculus.liebialg import check_action_axiom
        B = su2_bialgebra()
        assert check_action_axiom(coadjoint_action(B), B.algebra)


class TestMatchedPair:
    def test_su2_coadjoint_pair(self):
        assert check_matched_pair(su2_coadjoint_matched_pair())

    def test_tm_star_pair(self):
        # (m, m*-bar, <| = -ad*, |> = 0) with m = b
        P = tm_star_pair()
        assert check_matched_pair(P)

    def test_perturbed_fails(self):
        P = su2_coadjoint_matched_pair()
        coeffs = dict(P.right_action.coefficients.entries)
        key = next(iter(coeffs))
        coeffs[key] = coeffs[key] + ONE
        P2 = MatchedPair(
            P.g, P.m,
            ActionTensor(P.g.dim, P.m.dim,
                         Tensor(P.right_action.coefficients.shape, coeffs)),
            P.left_action,
        )
        assert not check_matched_pair(P2)


def tm_star_pair():
    """(g = m, m-slot = m*-bar abelian, f <| xi = -ad*_xi f, |> = 0)."""
    m = b_lie()
    B = zero_cobracket(m)
    co = coadjoint_action(B)
    n = m.dim
    return MatchedPair(
        g=m,
        m=abelian(n, ("X", "T")),
        right_action=ActionTensor(n, n, co.coefficients.scale(Scalar(-1))),
        left_action=ActionTensor(n, n, Tensor((n, n, n), {})),
    )


class TestDoubleCrossSum:
    def test_zero_actions_direct_sum(self):
        g, m = b_lie(), abelian(2, ("u", "v"))
        P = MatchedPair(
            g, m,
            ActionTensor(2, 2, Tensor((2, 2, 2), {})),
            ActionTensor(2, 2, Tensor((2, 2, 2), {})),
        )
        D = double_cross_sum(P)
        assert D.dim == 4
        # g block intact, no cross terms
        assert D.bracket.get(0, 1, 0) == ONE
        assert D.bracket.get(0, 2, 0).is_zero()

    def test_su2_manin_triple(self):
        D = double_cross_sum(su2_coadjoint_matched_pair())
        assert D.dim == 6
        rep = check_lie_algebra(D.bracket)
        assert rep["antisymmetry"] and rep["jacobi"]

    def test_tm_star_semidirect(self):
        """m |x m*-bar: [f, xi] = f <| xi = <xi, f(1)> f(2) = -ad*_xi f."""
        P = tm_star_pair()
        D = double_cross_sum(P)
        # [f^x, t] = -ad*_t f^x = -f^x: in the sum basis (x,t,X,T):
        # [X, t] component onto X is -1 i.e. [t, X] = X
        assert D.bracket.get(1, 2, 2) == ONE
        assert D.bracket.get(2, 1, 2) == -ONE


class TestBicrossSum:
    def test_su2_tangent_bialgebra(self):
        """The tangent-bundle bialgebra on su2-bar (+) su2-underline.

        Expected: [xi,eta]=[xi,eta]_su2 on the first block, the second
        block abelian, cross terms [x,xi]=[x,xi]_su2; cobracket
        delta xi = (id-tau) delta_su2 xi with the first leg in the
        second block, delta x = delta_su2 x inside the second block.
        """
        P = su2_coadjoint_matched_pair()
        B = su2_bialgebra()
        # m = su2-bar (zero cobracket); the g-slot bialgebra is su2*-bar
        # (bracket from delta_su2, zero cobracket), so its dual has zero
        # bracket and cobracket delta_su2.
        out = bicross_sum(P, zero_cobracket(P.m), zero_cobracket(P.g))
        assert out.dim == 6
        n = 3
        # bracket: m-block = su2
        for (i, j, k), v in B.algebra.bracket.entries.items():
            assert out.algebra.bracket.get(i, j, k) == v
        # second block abelian
        for i in range(n, 6):
            for j in range(n, 6):
                for k in range(6):
                    assert out.algebra.bracket.get(i, j, k).is_zero()
        # cross terms [x_i, e_j] = [e_i, e_j]_su2 landing in the x-block
        for (i, j, k), v in B.algebra.bracket.entries.items():
            assert out.algebra.bracket.get(n + i, j, n + k) == v
        # delta e_1 = i(x_1 @ e_3 - x_3 @ e_1) - tau of it
        cob = out.coalgebra.cobracket
        assert cob.get(0, n + 0, 2) == I
        assert cob.get(0, n + 2, 0) == -I
        assert cob.get(0, 2, n + 0) == -I
        assert cob.get(0, 0, n + 2) == I
        # delta x_1 = i(x_1 @ x_3 - x_3 @ x_1) inside the second block
        assert cob.get(n + 0, n + 0, n + 2) == I
        assert cob.get(n + 0, n + 2, n + 0) == -I
        assert check_bialgebra_cocycle(out)

    def test_abelian_zero_actions(self):
        g, m = abelian(2), abelian(2, ("u", "v"))
        P = MatchedPair(
            g, m,
            ActionTensor(2, 2, Tensor((2, 2, 2), {})),
            ActionTensor(2, 2, Tensor((2, 2, 2), {})),
        )
        out = bicross_sum(P, zero_cobracket(m), zero_cobracket(g))
        assert out.algebra.bracket.is_zero()
        assert out.coalgebra.cobracket.is_zero()

    def test_tm_star_cobracket(self):
        """m*-bar >|< m*: abelian algebra with semidirect cobracket."""
        P = tm_star_pair()
        out = bicross_sum(P, zero_cobracket(P.m), zero_cobracket(P.g))
        # bracket: m-part abelian; g* of b with zero cobracket -> [,]=0;
        # cross terms f <| psi vanish since |> = 0.
        assert out.algebra.bracket.is_zero()
        # cobracket beta-part: beta(f) = sum_i f^i (x) f <| e_i nonzero
        assert not out.coalgebra.cobracket.is_zero()
        assert check_bialgebra_cocycle(out)


class TestBrokenMatchedPair:
    """The su2 coadjoint pair with its left action doubled fails the
    matched-pair identities; both sums refuse it as bad input before
    they build a bracket."""

    @staticmethod
    def doubled_left_action():
        P = su2_coadjoint_matched_pair()
        return replace(P, left_action=ActionTensor(
            3, 3, P.left_action.coefficients.scale(Scalar(2))))

    def test_fails_the_identities(self):
        assert not check_matched_pair(self.doubled_left_action())

    def test_double_cross_sum_refuses(self):
        with pytest.raises(ValueError, match="matched-pair identities"):
            double_cross_sum(self.doubled_left_action())

    def test_bicross_sum_refuses(self):
        P = self.doubled_left_action()
        with pytest.raises(ValueError, match="matched-pair identities"):
            bicross_sum(P, zero_cobracket(P.m), zero_cobracket(P.g))


class TestCrossedModule:
    def test_zero_actions(self):
        B = su2_bialgebra()
        zero = ActionTensor(3, 3, Tensor((3, 3, 3), {}))
        rep = check_crossed_module(B, zero, zero)
        assert rep["almost"] and rep["full"]

    def test_equivalent_to_bicovariance(self):
        """(ad*, -Xi) almost-crossed-module iff Xi is bicovariant.

        The quasitriangular b instance is bicovariant; the su2 3D
        calculus (being only left-covariant) is not.  Both checkers
        must agree either way.
        """
        from prelie_calculus.catalog import (b_quasitriangular_rmatrix,
                                             su2_dual_prelie)
        from prelie_calculus.prelie import check_bicovariance, xi_from_rmatrix

        cases = []
        R = b_quasitriangular_rmatrix()
        cases.append((R.carrier, xi_from_rmatrix(R), True))
        cases.append((su2_bialgebra(), su2_dual_prelie(), False))
        for B, X, expected in cases:
            n = B.dim
            act = coadjoint_action(B)
            act_dual = ActionTensor(n, n, X.xi.scale(Scalar(-1)))
            rep = check_crossed_module(B, act, act_dual)
            assert bool(rep["almost"]) == bool(check_bicovariance(X, B)) \
                == expected
