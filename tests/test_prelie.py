import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prelie_calculus import exact_core
from prelie_calculus.exact_core import (
    I,
    ONE,
    Scalar,
    Tensor,
    Verdict,
    ZERO,
    contract_sum,
    tensor_contract,
)
from prelie_calculus.liebialg import LieAlgebra, LieBialgebra, LieCoalgebra, dualize
from prelie_calculus.prelie import (
    PreLieProduct,
    change_basis,
    check_bicovariance,
    check_compatibility,
    check_cybe,
    check_flat_right_action,
    check_left_symmetry,
    check_rmatrix_symmetric_part,
    induced_bracket,
    prelie_from_table,
    xi_from_rmatrix,
)
from prelie_calculus.catalog import (
    B_FAMILY_IDS,
    X,
    T,
    b_family,
    b_lie,
    b_quasitriangular_rmatrix,
    su2_dual_lie,
    su2_dual_prelie,
)

params = st.fractions(min_value=-6, max_value=6, max_denominator=4)
nonzero_params = params.filter(lambda q: q != 0)


def bicovariance_bi(X, B):
    """The "bi" form of infinitesimal bicovariance, the oracle for
    check_bicovariance's (Xi-bi) form: for all basis phi, psi,

      delta_{g*} Xi(phi,psi) - Xi(phi(1),psi) (x) phi(2)
        - Xi(phi,psi(1)) (x) psi(2)
      = psi(1) (x) [phi, psi(2)]_{g*}

    with delta_{g*} the transpose of B's bracket and [ , ]_{g*} the dual
    bracket.  The two forms coincide whenever Xi is compatible with
    [ , ]_{g*}.  A Verdict of the failing (phi, psi)."""
    xi, delta = X.xi, tensor_contract("ijk->kij", B.algebra.bracket)
    defect = contract_sum([
        (1, "pqk,krs->pqrs", xi, delta),
        (-1, "pas,aqr->pqrs", delta, xi),
        (-1, "qas,par->pqrs", delta, xi),
        (-1, "qrb,pbs->pqrs", delta, dualize(B).algebra.bracket)])
    return Verdict(sorted({key[:2] for key in defect.entries}))


def family_instances(alpha=Fraction(3), beta=Fraction(2)):
    return [
        b_family("b1", alpha),
        b_family("b2", beta),
        b_family("b3"),
        b_family("b4"),
        b_family("b5"),
    ]


class TestFiveFamilies:
    @given(params)
    def test_b1_left_symmetric_and_compatible(self, alpha):
        Xp = b_family("b1", alpha)
        assert check_left_symmetry(Xp)
        assert check_compatibility(Xp, b_lie())

    @given(nonzero_params)
    def test_b2_left_symmetric_and_compatible(self, beta):
        Xp = b_family("b2", beta)
        assert check_left_symmetry(Xp)
        assert check_compatibility(Xp, b_lie())

    @pytest.mark.parametrize("which", ["b3", "b4", "b5"])
    def test_rigid_families(self, which):
        Xp = b_family(which)
        assert check_left_symmetry(Xp)
        assert check_compatibility(Xp, b_lie())

    def test_b2_zero_rejected(self):
        with pytest.raises(ValueError):
            b_family("b2", 0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            b_family("b7")

    def test_b4_table(self):
        Xp = b_family("b4")
        x = [ONE, ZERO]
        t = [ZERO, ONE]
        assert Xp.product(x, x) == t          # x o x = t
        assert Xp.product(t, x) == [-ONE, ZERO]
        assert Xp.product(t, t) == [ZERO, Scalar(-2)]

    def test_induced_bracket_is_b(self):
        for Xp in family_instances():
            assert induced_bracket(Xp).bracket == b_lie().bracket

    def test_induced_bracket_raises_when_jacobi_fails(self, monkeypatch):
        # the Jacobi check must survive python -O, so it cannot be an assert
        import prelie_calculus.prelie as prelie_mod
        monkeypatch.setattr(prelie_mod, "check_lie_algebra", lambda c: {
            "antisymmetry": Verdict(), "jacobi": Verdict([(0, 0, 1)])})
        with pytest.raises(AssertionError, match="Jacobi"):
            induced_bracket(b_family("b4"))


class TestLeftSymmetryWitnesses:
    def test_associative_noncommutative_is_left_symmetric(self):
        # 2x2-style: e0 o e0 = e0, e0 o e1 = e1 (left unit on a corner)
        Xp = prelie_from_table(("a", "b"), {(0, 0): {0: 1}, (0, 1): {1: 1}})
        assert check_left_symmetry(Xp)

    def test_broken_product_witnessed(self):
        # x o x = t, t o t = t, rest zero: fails left-symmetry
        Xp = prelie_from_table(("x", "t"), {(0, 0): {1: 1}, (1, 1): {1: 1}})
        rep = check_left_symmetry(Xp)
        assert not rep
        # t o (x o x) = t o t = t, every other term zero
        assert rep.witnesses == ((0, 1, 0), (1, 0, 0))

    def test_scalars_built_only_for_nonzero_outputs(self, monkeypatch):
        """On a dense dim-5 product the check builds at most two Scalars
        per nonzero entry of its two contractions, the associator and
        its antisymmetrization.  Scalar arithmetic per product, about
        4 n^5 = 12500 Scalars here, fails this.  The count is taken in
        exact_core._scalar, where every Scalar is made, and must be
        positive, so that a Scalar made elsewhere cannot pass
        unseen."""
        rng = random.Random(5)
        n = 5
        xi = Tensor((n,) * 3, {
            idx: Scalar(Fraction(rng.randint(1, 9), rng.choice((1, 2, 3))),
                        rng.randint(-1, 1))
            for idx in itertools.product(range(n), repeat=3)})
        assoc = contract_sum([(1, "ijm,mko->ijko", xi, xi),
                              (-1, "jkm,imo->ijko", xi, xi)])
        defect = contract_sum([(1, "ijko->ijko", assoc),
                               (-1, "jiko->ijko", assoc)])
        nnz = len(assoc.entries) + len(defect.entries)
        built = []
        make = exact_core._scalar

        def counting_make(*args):
            built.append(None)
            return make(*args)

        monkeypatch.setattr(exact_core, "_scalar", counting_make)
        rep = check_left_symmetry(PreLieProduct(n, tuple("abcde"), xi))
        monkeypatch.undo()
        assert not rep and defect.entries
        assert 0 < len(built) <= 2 * nnz, (len(built), nnz)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_products_obey_flatness_when_left_symmetric(self, seed):
        """Left-symmetry + compatibility imply flatness: the map
        phi -> Xi(phi, .) sends the induced bracket to a commutator."""
        rng = random.Random(seed)
        entries = {}
        for _ in range(4):
            idx = (rng.randrange(2), rng.randrange(2), rng.randrange(2))
            entries[idx] = Scalar(rng.randint(-2, 2))
        Xp = PreLieProduct(2, ("a", "b"), Tensor(
            (2, 2, 2), {k: v for k, v in entries.items() if not v.is_zero()}))
        if check_left_symmetry(Xp):
            L = induced_bracket(Xp)
            assert check_flat_right_action(Xp, L)


class TestSu2DualPreLie:
    def test_left_symmetric(self):
        assert check_left_symmetry(su2_dual_prelie())

    def test_compatible_with_dual_bracket(self):
        assert check_compatibility(su2_dual_prelie(), su2_dual_lie())

    def test_flat(self):
        assert check_flat_right_action(su2_dual_prelie(), su2_dual_lie())

    def test_real_form_basis_change(self):
        """t = -2i phi, x1 = i(psi+ + psi-), x2 = psi+ - psi- turns the
        product into t o t = -2t, t o x_i = -x_i."""
        P = [
            [Scalar(0, -2), ZERO, ZERO],
            [ZERO, I, ONE],
            [ZERO, I, -ONE],
        ]
        Y = change_basis(su2_dual_prelie(), P, ("t", "x1", "x2"))
        assert Y.xi == Tensor((3, 3, 3), {
            (0, 0, 0): Scalar(-2),
            (0, 1, 1): -ONE,
            (0, 2, 2): -ONE,
        })

    def test_singular_basis_change_rejected(self):
        P = [[ONE, ONE, ZERO], [ONE, ONE, ZERO], [ZERO, ZERO, ONE]]
        with pytest.raises(ValueError):
            change_basis(su2_dual_prelie(), P)

    def test_change_basis_round_trip(self):
        Xp = su2_dual_prelie()
        P = [
            [ONE, ONE, ZERO],
            [ZERO, ONE, I],
            [ZERO, ZERO, Scalar(2)],
        ]
        Y = change_basis(Xp, P)
        # invert: columns of Q express old basis in the new one
        # easier: change_basis is functorial, so conjugating back with
        # the inverse matrix must restore xi; compute inverse by solving
        import itertools
        n = 3
        # Gaussian inversion of P
        aug = [[P[r][c] for c in range(n)] +
               [Scalar(1 if r == c else 0) for c in range(n)] for r in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if not aug[r][col].is_zero())
            aug[col], aug[piv] = aug[piv], aug[col]
            inv = ONE / aug[col][col]
            aug[col] = [v * inv for v in aug[col]]
            for r in range(n):
                if r != col and not aug[r][col].is_zero():
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        Pinv = [row[n:] for row in aug]
        Z = change_basis(Y, Pinv, Xp.basis_names)
        assert Z.xi == Xp.xi


class TestQuasitriangular:
    def test_symmetric_part_trivial(self):
        assert check_rmatrix_symmetric_part(b_quasitriangular_rmatrix())

    def test_symmetric_r_rejected(self):
        from prelie_calculus.liebialg import RMatrix
        R0 = b_quasitriangular_rmatrix()
        bad = RMatrix(R0.carrier, Tensor((2, 2), {(X, X): ONE}))
        assert not check_rmatrix_symmetric_part(bad)
        with pytest.raises(ValueError):
            xi_from_rmatrix(bad)

    def test_cybe(self):
        assert check_cybe(b_quasitriangular_rmatrix())

    def test_cybe_failure(self):
        from prelie_calculus.liebialg import RMatrix
        R0 = b_quasitriangular_rmatrix()
        # r = x (x) t + t (x) x is symmetric and fails CYBE on this carrier
        bad = RMatrix(R0.carrier,
                      Tensor((2, 2), {(X, T): ONE, (T, X): ONE}))
        assert not check_cybe(bad)

    def test_induced_prelie(self):
        """Xi(phi,psi) = -<phi,r(2)> ad*_{r(1)} psi on the b instance gives
        f^x o f^x = f^x and f^t o f^x = f^t."""
        R = b_quasitriangular_rmatrix()
        Xq = xi_from_rmatrix(R)
        assert Xq.xi == Tensor((2, 2, 2), {
            (X, X, X): ONE,
            (T, X, T): ONE,
        })
        assert check_left_symmetry(Xq)
        assert check_compatibility(Xq, dualize(R.carrier).algebra)
        assert check_flat_right_action(Xq, dualize(R.carrier).algebra)

    def test_bicovariance_both_variants(self):
        R = b_quasitriangular_rmatrix()
        Xq = xi_from_rmatrix(R)
        assert check_bicovariance(Xq, R.carrier)
        assert bicovariance_bi(Xq, R.carrier)


class TestBicovariance:
    def test_families_bicovariant_over_kk_bialgebra(self):
        """Viewing U(b) as the quantisation of b*, the relevant bialgebra
        carrier is abelian with cobracket dual to [x,t]=x, and the
        infinitesimal bicovariance condition holds for all families."""
        bl = b_lie()
        Bkk = LieBialgebra(
            LieAlgebra(2, ("X", "T"), Tensor((2, 2, 2), {})),
            LieCoalgebra(2, ("X", "T"), Tensor((2, 2, 2), {
                (k, i, j): v for (i, j, k), v in bl.bracket.entries.items()
            })),
        )
        for Xp in family_instances():
            assert check_bicovariance(Xp, Bkk)

    def test_variants_agree_when_compatible(self):
        from prelie_calculus.catalog import su2_bialgebra
        B = su2_bialgebra()
        Xp = su2_dual_prelie()
        assert bool(check_bicovariance(Xp, B)) == bool(bicovariance_bi(Xp, B))
