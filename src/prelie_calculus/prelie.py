"""Pre-Lie (left-symmetric) products as structure tensors.

A product on the dual basis {f^i} is stored as a tensor xi with
f^i o f^j = sum_k xi[i,j,k] f^k.  Each predicate is a signed sum of
tensor_contract terms whose nonzero entries lead with the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_core import (
    ONE,
    Scalar,
    Tensor,
    ZERO,
    contract_sum,
    linear_kernel,
    tensor_contract,
)
from .liebialg import (
    LieAlgebra,
    LieBialgebra,
    RMatrix,
    _leading,
    check_lie_algebra,
    dualize,
)

__all__ = [
    "PreLieProduct",
    "check_left_symmetry",
    "induced_bracket",
    "check_compatibility",
    "check_flat_right_action",
    "check_bicovariance",
    "check_rmatrix_symmetric_part",
    "xi_from_rmatrix",
    "check_cybe",
    "change_basis",
]


@dataclass(frozen=True)
class PreLieProduct:
    dim: int
    basis_names: tuple
    xi: Tensor  # shape (n,n,n): f^i o f^j = sum_k xi[i,j,k] f^k

    def __post_init__(self):
        if self.xi.shape != (self.dim,) * 3:
            raise ValueError("xi shape mismatch")

    def product(self, u, v):
        """u o v on coefficient vectors."""
        out = [ZERO] * self.dim
        for (i, j, k), c in self.xi.entries.items():
            f = u[i] * v[j]
            if not f.is_zero():
                out[k] = out[k] + f * c
        return out


def prelie_from_table(names, table):
    """Build a PreLieProduct from a dict (i,j) -> {k: coeff}."""
    n = len(names)
    entries = {}
    for (i, j), vals in table.items():
        for k, v in vals.items():
            v = v if isinstance(v, Scalar) else Scalar(v)
            if not v.is_zero():
                entries[(i, j, k)] = v
    return PreLieProduct(n, tuple(names), Tensor((n, n, n), entries))


def check_left_symmetry(X: PreLieProduct, with_witnesses=False):
    """(x o y) o z - (y o x) o z == x o (y o z) - y o (x o z).

    The associator (x o y) o z - x o (y o z) is contracted once and then
    antisymmetrized in (x, y).
    """
    xi = X.xi
    assoc = contract_sum([(1, "ijm,mko->ijko", xi, xi),
                          (-1, "jkm,imo->ijko", xi, xi)])
    defect = contract_sum([(1, "ijko->ijko", assoc),
                           (-1, "jiko->ijko", assoc)])
    witnesses = _leading(defect, 3)
    if with_witnesses:
        return {"left_symmetric": not witnesses, "witnesses": witnesses}
    return not witnesses


def induced_bracket(X: PreLieProduct) -> LieAlgebra:
    """Antisymmetrization [x,y] = x o y - y o x (requires left-symmetry)."""
    if not check_left_symmetry(X):
        raise ValueError("product is not left-symmetric")
    bracket = contract_sum([(1, "ijk->ijk", X.xi), (-1, "jik->ijk", X.xi)])
    L = LieAlgebra(X.dim, X.basis_names, bracket)
    rep = check_lie_algebra(L.bracket)
    if not (rep["antisymmetry"] and rep["jacobi"]):
        raise AssertionError("induced bracket of a left-symmetric product "
                             "must satisfy Jacobi "
                             f"(witnesses {rep['witnesses']})")
    return L


def check_compatibility(X: PreLieProduct, L: LieAlgebra,
                        with_witnesses=False):
    """Xi(phi,psi) - Xi(psi,phi) == [phi,psi] entry-by-entry."""
    if X.dim != L.dim:
        raise ValueError("dimension mismatch")
    defect = contract_sum([(1, "ijk->ijk", X.xi), (-1, "jik->ijk", X.xi),
                           (-1, "ijk->ijk", L.bracket)])
    witnesses = sorted(defect.entries)
    if with_witnesses:
        return {"compatible": not witnesses, "witnesses": witnesses}
    return not witnesses


def check_flat_right_action(X: PreLieProduct, L: LieAlgebra,
                            with_witnesses=False):
    """Flatness: Xi([phi,psi], zeta) = Xi(phi,Xi(psi,zeta)) - Xi(psi,Xi(phi,zeta))."""
    if X.dim != L.dim:
        raise ValueError("dimension mismatch")
    xi = X.xi
    defect = contract_sum([(1, "ijm,mko->ijko", L.bracket, xi),
                           (-1, "jkm,imo->ijko", xi, xi),
                           (1, "ikm,jmo->ijko", xi, xi)])
    witnesses = _leading(defect, 3)
    if with_witnesses:
        return {"flat": not witnesses, "witnesses": witnesses}
    return not witnesses


def _delta_gstar(B: LieBialgebra) -> Tensor:
    """delta_{g*} f^k = sum_{ij} c^k_{ij} f^i (x) f^j, as d*[k,i,j]."""
    return tensor_contract("ijk->kij", B.algebra.bracket)


def _xi_ass_terms(xi: Tensor, delta: Tensor):
    """(Xi-ass) as contraction terms keyed (phi, psi, leg1, leg2):

      delta Xi(phi,psi) - Xi(phi,psi(1)) (x) psi(2)
        - psi(1) (x) Xi(phi,psi(2))
    """
    return [(1, "pqk,krs->pqrs", xi, delta),
            (-1, "qas,par->pqrs", delta, xi),
            (-1, "qrb,pbs->pqrs", delta, xi)]


def _xi_con_terms(xi: Tensor, delta: Tensor):
    """(Xi-con) as contraction terms keyed (phi, psi, leg1, leg2):

      Xi(phi(1),psi) (x) phi(2) - psi(1) (x) Xi(psi(2),phi)
    """
    return [(1, "pas,aqr->pqrs", delta, xi),
            (-1, "qrb,bps->pqrs", delta, xi)]


def check_bicovariance(X: PreLieProduct, B: LieBialgebra,
                       with_witnesses=False, variant="Xi-bi"):
    """Infinitesimal bicovariance of the pre-Lie product Xi.

    variant="Xi-bi" checks, for all basis phi, psi:

      delta_{g*} Xi(phi,psi) - Xi(phi,psi(1)) (x) psi(2)
        - psi(1) (x) Xi(phi,psi(2))
      = Xi(phi(1),psi) (x) phi(2) - psi(1) (x) Xi(psi(2),phi)

    variant="bi" checks the equivalent form

      delta_{g*} Xi(phi,psi) - Xi(phi(1),psi) (x) phi(2)
        - Xi(phi,psi(1)) (x) psi(2)
      = psi(1) (x) [phi, psi(2)]_{g*}

    where delta_{g*} is the transpose of B's bracket and [ , ]_{g*}
    the dual bracket.  Both variants coincide whenever Xi is
    compatible with [ , ]_{g*}.
    """
    if X.dim != B.dim:
        raise ValueError("dimension mismatch")
    xi, delta = X.xi, _delta_gstar(B)
    if variant == "Xi-bi":
        terms = _xi_ass_terms(xi, delta) + [
            (-s, spec, *ops) for s, spec, *ops in _xi_con_terms(xi, delta)]
    elif variant == "bi":
        terms = [(1, "pqk,krs->pqrs", xi, delta),
                 (-1, "pas,aqr->pqrs", delta, xi),
                 (-1, "qas,par->pqrs", delta, xi),
                 (-1, "qrb,pbs->pqrs", delta, dualize(B).algebra.bracket)]
    else:
        raise ValueError("variant must be 'Xi-bi' or 'bi'")
    witnesses = _leading(contract_sum(terms), 2)
    if with_witnesses:
        return {"bicovariant": not witnesses, "witnesses": witnesses}
    return not witnesses


def check_rmatrix_symmetric_part(R: RMatrix, with_witnesses=False):
    """r(1) (x) [r(2), x] + r(2) (x) [r(1), x] == 0 for all basis x.

    This is the statement that the symmetric part r_+ acts trivially,
    the only hypothesis used by the quasitriangular pre-Lie formula.
    """
    c, r = R.carrier.algebra.bracket, R.r
    defect = contract_sum([(1, "aq,qxb->xab", r, c), (1, "pa,pxb->xab", r, c)])
    witnesses = sorted({x for x, _, _ in defect.entries})
    if with_witnesses:
        return {"symmetric_part_trivial": not witnesses, "witnesses": witnesses}
    return not witnesses


def xi_from_rmatrix(R: RMatrix) -> PreLieProduct:
    """Quasitriangular pre-Lie structure Xi(phi,psi) = -<phi,r(2)> ad*_{r(1)} psi.

    Components: Xi^{ij}_k = sum_p r[p,i] c^j_{pk}   (from
    <ad*_{e_p} f^j, e_k> = -<f^j,[e_p,e_k]> = -c^j_{pk}, with the
    leading minus sign of the formula).
    """
    rep = check_rmatrix_symmetric_part(R, with_witnesses=True)
    if not rep["symmetric_part_trivial"]:
        raise ValueError(
            "symmetric part of r does not act trivially; witness basis "
            f"indices {rep['witnesses']}"
        )
    n = R.carrier.dim
    xi = tensor_contract("pi,pkj->ijk", R.r, R.carrier.algebra.bracket)
    return PreLieProduct(n, tuple(f"f^{m}" for m in range(n)), xi)


def check_cybe(R: RMatrix, with_witnesses=False):
    """Classical Yang-Baxter equation [[r,r]] = [r12,r13]+[r12,r23]+[r13,r23] = 0."""
    c, r = R.carrier.algebra.bracket, R.r
    defect = contract_sum([(1, "ay,apx,pz->xyz", r, c, r),    # [r12, r13]
                           (1, "xb,bpy,pz->xyz", r, c, r),    # [r12, r23]
                           (1, "xb,bqz,yq->xyz", r, c, r)])   # [r13, r23]
    nonzero = sorted(defect.entries)
    if with_witnesses:
        return {"cybe": not nonzero, "witnesses": nonzero}
    return not nonzero


def change_basis(X: PreLieProduct, P, new_names=None) -> PreLieProduct:
    """Rewrite the product in the basis u_a = sum_i P[i][a] * (old basis i).

    P is an invertible matrix of Scalars given column-wise (column a
    holds the old-basis coefficients of the new basis vector u_a).
    """
    n = X.dim
    P = [[v if isinstance(v, Scalar) else Scalar(v) for v in row] for row in P]
    if linear_kernel(P):
        raise ValueError("basis-change matrix is singular")
    # the kernel of [P | 1] has one vector (-P^{-1} e_c, e_c) per column c
    kernel = linear_kernel([row + [ONE if r == c else ZERO for c in range(n)]
                            for r, row in enumerate(P)])
    to_new = Tensor((n, n), {(c, k): -kernel[k][c]
                             for c in range(n) for k in range(n)})
    to_old = Tensor((n, n), {(i, a): v for i, row in enumerate(P)
                             for a, v in enumerate(row)})
    # u_a o u_b = sum_{i,j} P[i][a] P[j][b] Xi^{ij}_k e_k and
    # e_k = sum_c (P^{-1})[c][k] u_c
    xi = tensor_contract("ijk,ia,jb,ck->abc", X.xi, to_old, to_old, to_new)
    names = tuple(new_names) if new_names else tuple(f"u{a}" for a in range(n))
    return PreLieProduct(n, names, xi)
