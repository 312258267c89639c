from fractions import Fraction

import pytest

from prelie_calculus.exact_core import I, ONE, Scalar, Tensor, ZERO
from prelie_calculus.liebialg import (
    ActionTensor,
    LieAlgebra,
    LieBialgebra,
    LieCoalgebra,
    check_bialgebra_cocycle,
    check_lie_algebra,
    coadjoint_action,
)
from prelie_calculus.prelie import (
    PreLieProduct,
    check_compatibility,
    check_left_symmetry,
    induced_bracket,
    prelie_from_table,
    xi_from_rmatrix,
)
from prelie_calculus.constructions import (
    CotangentInput,
    SemidirectInput,
    bisum_bialgebra,
    check_associative,
    check_braided_conditions,
    check_cotangent_bicovariance,
    check_module_condition,
    check_tangent_bicovariance,
    cocycle_D,
    cotangent_prelie,
    infinitesimal_braiding,
    semidirect_prelie,
    tangent_prelie,
    xi_action_on_g,
)
from prelie_calculus.catalog import (
    b_family,
    b_lie,
    b_quasitriangular_rmatrix,
    cotangent_family,
    su2_dual_lie,
    su2_dual_prelie,
)


def zero_prelie(n, names=None):
    names = names or tuple(f"e{i}" for i in range(n))
    return PreLieProduct(n, names, Tensor((n, n, n), {}))


def zero_action(nA, nB):
    return ActionTensor(nA, nB, Tensor((nA, nB, nB), {}))


def kk_bialgebra():
    """Abelian algebra on (X, T) with cobracket dual to [x,t]=x."""
    bl = b_lie()
    return LieBialgebra(
        LieAlgebra(2, ("X", "T"), Tensor((2, 2, 2), {})),
        LieCoalgebra(2, ("X", "T"), Tensor((2, 2, 2), {
            (k, i, j): v for (i, j, k), v in bl.bracket.entries.items()
        })),
    )


def b_star_bialgebra():
    """b with zero cobracket: its dual bracket vanishes."""
    bl = b_lie()
    return LieBialgebra(
        bl, LieCoalgebra(2, bl.basis_names, Tensor((2, 2, 2), {}))
    )


def chevalley_bialgebra():
    """3-dim bialgebra whose dual bracket is the su2* one.

    Bracket [H,E]=2E, [H,F]=-2F, [E,F]=H; cobracket the transpose of
    the su2* structure constants.
    """
    c = Tensor((3, 3, 3), {
        (0, 1, 1): Scalar(2), (1, 0, 1): Scalar(-2),
        (0, 2, 2): Scalar(-2), (2, 0, 2): Scalar(2),
        (1, 2, 0): ONE, (2, 1, 0): -ONE,
    })
    dl = su2_dual_lie()
    cob = Tensor((3, 3, 3), {
        (k, i, j): v for (i, j, k), v in dl.bracket.entries.items()
    })
    B = LieBialgebra(
        LieAlgebra(3, ("H", "E", "F"), c),
        LieCoalgebra(3, ("H", "E", "F"), cob),
    )
    rep = check_lie_algebra(c)
    assert rep["antisymmetry"] and rep["jacobi"]
    assert check_bialgebra_cocycle(B)
    return B


class TestModuleCondition:
    def test_zero_action(self):
        S = SemidirectInput(b_family("b3"), b_family("b4"), zero_action(2, 2))
        assert check_module_condition(S)

    def test_cotangent_family1_action(self):
        C = cotangent_family(1)
        S = SemidirectInput(C.circ, C.star, xi_action_on_g(C.xi))
        assert check_module_condition(S)

    def test_derivation_failure_witnessed(self):
        # acting by a non-derivation of Y*Y = Y: a |> Y = Y only
        star = prelie_from_table(("Xd", "Yd"), {(1, 1): {1: 1}})
        act = ActionTensor(1, 2, Tensor((1, 2, 2), {(0, 1, 1): ONE}))
        S = SemidirectInput(zero_prelie(1, ("a",)), star, act)
        rep = check_module_condition(S)
        assert not rep
        assert (0, 1, 1) in rep.witnesses


class TestSemidirect:
    def test_zero_everything(self):
        S = SemidirectInput(zero_prelie(2), zero_prelie(2, ("u", "v")),
                            zero_action(2, 2))
        out = semidirect_prelie(S)
        assert out.dim == 4
        assert out.xi.is_zero()

    def test_block_structure(self):
        A = b_family("b1", Fraction(1))
        B = zero_prelie(2, ("u", "v"))
        act = ActionTensor(2, 2, Tensor((2, 2, 2), {(1, 0, 0): ONE}))
        S = SemidirectInput(A, B, act)
        assert check_module_condition(S)
        out = semidirect_prelie(S)
        # B-part first: A block shifted by dim B = 2
        for (i, j, k), v in A.xi.entries.items():
            assert out.xi.get(2 + i, 2 + j, 2 + k) == v
        # action: t |> u = u
        assert out.xi.get(2 + 1, 0, 0) == ONE
        assert check_left_symmetry(out)

    def test_non_left_symmetric_A_rejected(self):
        bad = prelie_from_table(("x", "t"), {(0, 0): {1: 1}, (1, 1): {1: 1}})
        assert not check_left_symmetry(bad)
        S = SemidirectInput(bad, zero_prelie(2, ("u", "v")),
                            zero_action(2, 2))
        with pytest.raises(ValueError):
            semidirect_prelie(S)


class TestTangent:
    def test_su2_dual_with_zero_star(self):
        Tt = tangent_prelie(su2_dual_prelie(), zero_prelie(3),
                            su2_dual_lie())
        assert Tt.dim == 6
        # the adjoint-action block reproduces the g* bracket
        dl = su2_dual_lie()
        for a in range(3):
            for j in range(3):
                for k in range(3):
                    assert Tt.xi.get(3 + a, j, k) == dl.bracket.get(a, j, k)
        assert check_left_symmetry(Tt)

    def test_defaults_to_induced_bracket(self):
        Tt = tangent_prelie(b_family("b4"), zero_prelie(2))
        assert Tt.dim == 4
        bl = b_lie()
        for a in range(2):
            for j in range(2):
                for k in range(2):
                    assert Tt.xi.get(2 + a, j, k) == bl.bracket.get(a, j, k)

    def test_noncommutative_star_rejected(self):
        star = prelie_from_table(("a", "b", "c"), {(0, 1): {2: 1}})
        with pytest.raises(ValueError, match="commutative"):
            tangent_prelie(su2_dual_prelie(), star, su2_dual_lie())

    def test_poisson_condition_rejects_diagonal_star(self):
        # f^i * f^i = f^i is commutative and associative but the su2*
        # bracket does not act on it by derivations
        diag = PreLieProduct(3, ("a", "b", "c"), Tensor(
            (3, 3, 3), {(i, i, i): ONE for i in range(3)}))
        assert _check_comm_assoc(diag)
        with pytest.raises(ValueError, match=r"Poisson.*\(0, 1, 1\)"):
            tangent_prelie(su2_dual_prelie(), diag, su2_dual_lie())


def _check_comm_assoc(Xp):
    n = Xp.dim
    comm = all(Xp.xi.get(i, j, k) == Xp.xi.get(j, i, k)
               for i in range(n) for j in range(n) for k in range(n))
    return comm and check_associative(Xp)


class TestTangentBicovariance:
    def test_vacuous_over_abelian_carrier(self):
        # abelian bracket means delta_{g*} = 0 and every identity holds
        Bkk = kk_bialgebra()
        for which, par in [("b1", Fraction(2)), ("b2", Fraction(1)),
                           ("b3", None), ("b4", None), ("b5", None)]:
            circ = b_family(which, par) if par is not None else b_family(which)
            assert check_tangent_bicovariance(circ, zero_prelie(2), Bkk)

    def test_su2_dual_not_tangent_bicovariant(self):
        rep = check_tangent_bicovariance(
            su2_dual_prelie(), zero_prelie(3), chevalley_bialgebra())
        assert not rep
        assert ("delta-circ", 0, 0) in rep.witnesses
        assert ("mixed-bracket", 0, 0) in rep.witnesses


class TestBraidedConditions:
    def test_quasitriangular_instance(self):
        R = b_quasitriangular_rmatrix()
        assert check_braided_conditions(xi_from_rmatrix(R), R.carrier)

    def test_vacuous_over_zero_cobracket_carrier(self):
        assert check_braided_conditions(zero_prelie(2, ("x", "t")),
                                        b_star_bialgebra())

    def test_mutation_fails_with_witness(self):
        R = b_quasitriangular_rmatrix()
        Xq = xi_from_rmatrix(R)
        e = dict(Xq.xi.entries)
        e[(1, 1, 1)] = ONE  # extra f^t o f^t = f^t keeps compatibility
        bad = PreLieProduct(2, Xq.basis_names, Tensor((2, 2, 2), e))
        assert check_compatibility(bad, induced_bracket(Xq))
        rep = check_braided_conditions(bad, R.carrier)
        assert not rep
        assert any(w[0] == "Xi-ass" for w in rep.witnesses)

    def test_incompatible_xi_rejected(self):
        R = b_quasitriangular_rmatrix()
        with pytest.raises(ValueError, match="compatible"):
            check_braided_conditions(zero_prelie(2), R.carrier)


class TestInfinitesimalBraiding:
    def test_quasitriangular_vanishes(self):
        R = b_quasitriangular_rmatrix()
        assert infinitesimal_braiding(xi_from_rmatrix(R), R.carrier).is_zero()

    def test_zero_xi_vanishes(self):
        assert infinitesimal_braiding(zero_prelie(2, ("x", "t")),
                                      b_star_bialgebra()).is_zero()

    def test_antisymmetry(self):
        R = b_quasitriangular_rmatrix()
        # Psi(phi,psi) = -Psi(psi,phi) holds for any Xi
        e = {(0, 0, 1): ONE, (1, 0, 0): Scalar(2)}
        Xp = PreLieProduct(2, ("x", "t"), Tensor((2, 2, 2), e))
        Psi = infinitesimal_braiding(Xp, R.carrier)
        for (p, q, a, b), v in Psi.entries.items():
            assert Psi.get(q, p, a, b) == -v

    def test_braided_implies_psi_zero(self):
        """For a left-symmetric compatible Xi the braided conditions
        force the infinitesimal braiding to vanish."""
        cases = []
        R = b_quasitriangular_rmatrix()
        cases.append((xi_from_rmatrix(R), R.carrier))
        Bkk = kk_bialgebra()
        for which, par in [("b1", Fraction(3)), ("b2", Fraction(2)),
                           ("b3", None), ("b4", None), ("b5", None)]:
            Xp = b_family(which, par) if par is not None else b_family(which)
            cases.append((Xp, Bkk))
        for Xp, B in cases:
            assert check_left_symmetry(Xp)
            if check_braided_conditions(Xp, B):
                assert infinitesimal_braiding(Xp, B).is_zero()


class TestBisum:
    def test_quasitriangular(self):
        R = b_quasitriangular_rmatrix()
        out = bisum_bialgebra(xi_from_rmatrix(R), R.carrier)
        assert out.dim == 4
        # cross bracket [x, f^t] = ad*_x f^t lives in the g* block
        co = coadjoint_action(R.carrier).coefficients
        for (i, j, k), v in co.entries.items():
            assert out.algebra.bracket.get(2 + i, j, k) == v
            assert out.algebra.bracket.get(j, 2 + i, k) == -v

    def test_alpha_block_over_kk(self):
        """Over the abelian carrier the mixed cobracket legs are exactly
        the structure constants of the pre-Lie product."""
        Bkk = kk_bialgebra()
        for which, par in [("b1", Fraction(3)), ("b4", None)]:
            Xp = b_family(which, par) if par is not None else b_family(which)
            out = bisum_bialgebra(Xp, Bkk)
            for q in range(2):
                for i in range(2):
                    for k in range(2):
                        assert out.coalgebra.cobracket.get(q, 2 + i, k) \
                            == -Xp.xi.get(i, q, k)
                        assert out.coalgebra.cobracket.get(q, k, 2 + i) \
                            == Xp.xi.get(i, q, k)

    def test_non_left_symmetric_rejected(self):
        bad = prelie_from_table(("x", "t"), {(0, 0): {1: 1}, (1, 1): {1: 1}})
        with pytest.raises(ValueError, match="left-symmetric"):
            bisum_bialgebra(bad, kk_bialgebra())


class TestCotangent:
    @pytest.mark.parametrize("which", [1, 2])
    def test_families_build(self, which):
        C = cotangent_family(which)
        P = cotangent_prelie(C)
        assert P.dim == 4
        assert check_left_symmetry(P)

    def test_family1_action(self):
        # y |> X = X, y |> Y = (1/2) Y from <phi |> x, psi> = -Xi(phi,psi)(x)
        a = xi_action_on_g(cotangent_family(1).xi).coefficients
        assert a.entries == {
            (1, 0, 0): ONE,
            (1, 1, 1): Scalar(Fraction(1, 2)),
        }

    def test_family1_induced_bracket(self):
        P = cotangent_prelie(cotangent_family(1))
        L = induced_bracket(P)
        # basis (X, Y, x, y): [y, X] = X, [y, Y] = (1/2) Y, [x, y] = x
        assert L.bracket.get(3, 0, 0) == ONE
        assert L.bracket.get(3, 1, 1) == Scalar(Fraction(1, 2))
        assert L.bracket.get(2, 3, 2) == ONE

    def test_quasitriangular_action_formula(self):
        """For Xi from an r-matrix the g*-action is
        phi |> x = -<phi, r(2)> [r(1), x]."""
        R = b_quasitriangular_rmatrix()
        Xq = xi_from_rmatrix(R)
        c = R.carrier.algebra.bracket
        n = 2
        direct = {}
        for p in range(n):
            for j in range(n):
                for k in range(n):
                    s = ZERO
                    for a in range(n):
                        s = s - R.r.get(a, p) * c.get(a, j, k)
                    if not s.is_zero():
                        direct[(p, j, k)] = s
        assert direct == dict(xi_action_on_g(Xq).coefficients.entries)

    def test_incompatible_xi_rejected(self):
        C = cotangent_family(1)
        bad = CotangentInput(C.carrier, zero_prelie(2, ("x", "y")),
                             C.circ, C.star)
        with pytest.raises(ValueError, match="compatible"):
            cotangent_prelie(bad)


class TestCotangentBicovariance:
    @pytest.mark.parametrize("which", [1, 2])
    def test_families(self, which):
        assert check_cotangent_bicovariance(cotangent_family(which))

    def test_all_zero(self):
        n = 2
        carrier = LieBialgebra(
            LieAlgebra(n, ("a", "b"), Tensor((n, n, n), {})),
            LieCoalgebra(n, ("a", "b"), Tensor((n, n, n), {})),
        )
        z = zero_prelie(n)
        C = CotangentInput(carrier, z, z, z)
        assert check_cotangent_bicovariance(C)

    def test_nonassociative_star_witnessed(self):
        C = cotangent_family(1)
        e = dict(C.star.xi.entries)
        e[(0, 0, 1)] = ONE  # adding X * X = Y to Y * Y = X breaks associativity
        bad = CotangentInput(
            C.carrier, C.xi, C.circ,
            PreLieProduct(2, C.star.basis_names, Tensor((2, 2, 2), e)))
        rep = check_cotangent_bicovariance(bad)
        assert not rep
        assert any(w[0] == "star-associative" for w in rep.witnesses)


class TestCocycleD:
    def test_zero_vector(self):
        R = b_quasitriangular_rmatrix()
        D = cocycle_D(xi_from_rmatrix(R), R.carrier, [ZERO, ZERO])
        assert D.is_zero()

    def test_zero_xi_gives_dual_cobracket(self):
        # X = 0 over b with zero cobracket: D(phi) = delta_{g*} phi
        D = cocycle_D(zero_prelie(2, ("x", "t")), b_star_bialgebra(),
                      [ONE, Scalar(3)])
        assert dict(D.entries) == {(0, 1): ONE, (1, 0): -ONE}

    def test_linear_part_matches_bisum_cobracket(self):
        R = b_quasitriangular_rmatrix()
        Xq = xi_from_rmatrix(R)
        out = bisum_bialgebra(Xq, R.carrier)
        phi = [ONE, Scalar(2)]
        n = 2
        lin = {}
        for (i, a, b), v in out.coalgebra.cobracket.entries.items():
            if i < n:
                c = phi[i] * v
                if not c.is_zero():
                    lin[(a, b)] = lin.get((a, b), ZERO) + c
        D1 = cocycle_D(Xq, R.carrier, phi)
        D2 = cocycle_D(Xq, R.carrier, [c * Scalar(2) for c in phi])
        # D(t phi) = t . linear + t^2 . quadratic, so D(2 phi) - 2 D(phi)
        # isolates twice the quadratic piece
        keys = set(D1.entries) | set(D2.entries) | set(lin)
        for idx in keys:
            quad = (D2.get(*idx) - Scalar(2) * D1.get(*idx)) / Scalar(2)
            assert D1.get(*idx) - quad == lin.get(idx, ZERO)

    def test_antisymmetric_output(self):
        R = b_quasitriangular_rmatrix()
        D = cocycle_D(xi_from_rmatrix(R), R.carrier, [ONE, I])
        for (i, j), v in D.entries.items():
            assert D.get(j, i) == -v
