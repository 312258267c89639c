"""Built-in instance catalog.

All the concrete structures exercised by the test-suite and CLI live
here: the five 2D pre-Lie families over [x,t]=x, the su2 bialgebra and
its dual pre-Lie structure, the coadjoint matched pair, a
quasitriangular r-matrix instance, the cotangent 2D families, metric
standard forms and the finite-group DGA instances.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import I, ONE, Scalar, Tensor
from .liebialg import (
    ActionTensor,
    LieAlgebra,
    LieBialgebra,
    LieCoalgebra,
    MatchedPair,
    RMatrix,
)
from .prelie import PreLieProduct

__all__ = [
    "b_lie",
    "b_family",
    "B_FAMILY_IDS",
    "su2_bialgebra",
    "su2_dual_lie",
    "su2_dual_prelie",
    "su2_coadjoint_matched_pair",
    "b_quasitriangular_rmatrix",
    "cotangent_family",
    "load_catalog",
]

# basis order for the 2D families: index 0 = x, index 1 = t
X, T = 0, 1


def b_lie() -> LieAlgebra:
    """The 2D solvable Lie algebra b: [x,t] = x."""
    return LieAlgebra(2, ("x", "t"), Tensor((2, 2, 2), {
        (X, T, X): ONE,
        (T, X, X): -ONE,
    }))


B_FAMILY_IDS = ("b1", "b2", "b3", "b4", "b5")


def b_family(which: str, param=None) -> PreLieProduct:
    """One of the five pre-Lie families on b* = span{x,t}.

    b1 takes a rational parameter alpha, b2 a nonzero rational beta;
    b3, b4, b5 are rigid.  All are compatible with [x,t] = x.
    """
    e = {}
    if which == "b1":
        if param is None:
            raise ValueError("b1 requires parameter alpha")
        alpha = Fraction(param)
        e[(T, X, X)] = -ONE                      # t o x = -x
        e[(T, T, T)] = Scalar(alpha)             # t o t = alpha t
    elif which == "b2":
        if param is None:
            raise ValueError("b2 requires parameter beta")
        beta = Fraction(param)
        if beta == 0:
            raise ValueError("b2 requires beta != 0")
        e[(X, T, X)] = Scalar(beta)              # x o t = beta x
        e[(T, X, X)] = Scalar(beta - 1)          # t o x = (beta-1) x
        e[(T, T, T)] = Scalar(beta)              # t o t = beta t
    elif which == "b3":
        e[(T, X, X)] = -ONE                      # t o x = -x
        e[(T, T, X)] = ONE                       # t o t = x - t
        e[(T, T, T)] = -ONE
    elif which == "b4":
        e[(X, X, T)] = ONE                       # x o x = t
        e[(T, X, X)] = -ONE                      # t o x = -x
        e[(T, T, T)] = Scalar(-2)                # t o t = -2t
    elif which == "b5":
        e[(X, T, X)] = ONE                       # x o t = x
        e[(T, T, X)] = ONE                       # t o t = x + t
        e[(T, T, T)] = ONE
    else:
        raise ValueError(f"unknown family {which!r}")
    e = {k: v for k, v in e.items() if not v.is_zero()}
    return PreLieProduct(2, ("x", "t"), Tensor((2, 2, 2), e))


def su2_bialgebra() -> LieBialgebra:
    """su2 with [e_i,e_j] = eps_ijk e_k and delta e_i = i * e_i /\\ e_3."""
    eps = {}
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[(i, j, k)] = ONE
        eps[(j, i, k)] = -ONE
    cob = {}
    for i in (0, 1):
        # delta e_i = i (e_i @ e_3 - e_3 @ e_i)
        cob[(i, i, 2)] = I
        cob[(i, 2, i)] = -I
    names = ("e1", "e2", "e3")
    return LieBialgebra(
        LieAlgebra(3, names, Tensor((3, 3, 3), eps)),
        LieCoalgebra(3, names, Tensor((3, 3, 3), cob)),
    )


# dual basis of the Chevalley basis {H, X+, X-}: indices 0 = phi, 1 = psi+,
# 2 = psi-.
PHI, PSIP, PSIM = 0, 1, 2


def su2_dual_lie() -> LieAlgebra:
    """su2* in the dual Chevalley basis: [psi+-, phi] = (i/2) psi+-."""
    half_i = I * Scalar(Fraction(1, 2))
    entries = {
        (PSIP, PHI, PSIP): half_i,
        (PHI, PSIP, PSIP): -half_i,
        (PSIM, PHI, PSIM): half_i,
        (PHI, PSIM, PSIM): -half_i,
    }
    return LieAlgebra(3, ("phi", "psi+", "psi-"), Tensor((3, 3, 3), entries))


def su2_dual_prelie() -> PreLieProduct:
    """The semiclassical pre-Lie structure on su2*:

    Xi^{00}_0 = -i, Xi^{0+}_+ = Xi^{0-}_- = -i/2 (dual Chevalley basis).
    """
    half_i = I * Scalar(Fraction(1, 2))
    entries = {
        (PHI, PHI, PHI): -I,
        (PHI, PSIP, PSIP): -half_i,
        (PHI, PSIM, PSIM): -half_i,
    }
    return PreLieProduct(3, ("phi", "psi+", "psi-"), Tensor((3, 3, 3), entries))


def su2_coadjoint_matched_pair() -> MatchedPair:
    """The coadjoint matched pair (g = su2*, m = su2-as-vector-dual).

    In (g, m) position: g is the dual su2* (bracket from the su2
    cobracket), m is su2; the right action of g on m is
    xi <| phi = -ad*_phi xi (coadjoint of su2* on its dual) and the
    left action of m on g is xi |> phi = ad*_xi phi.
    """
    from .liebialg import coadjoint_action, dualize

    B = su2_bialgebra()
    Bdual = dualize(B)
    g = Bdual.algebra          # su2* with bracket from delta_su2
    m = B.algebra              # su2
    # right action: actor = g (su2* elements phi), target = m (xi):
    # xi <| phi = -ad*_phi xi where ad* is the coadjoint action of su2*
    # acting on (su2*)* = su2.
    co_dual = coadjoint_action(Bdual)  # su2* acting on su2
    right = ActionTensor(g.dim, m.dim, co_dual.coefficients.scale(Scalar(-1)))
    # left action: actor = m (xi), target = g (phi): xi |> phi = ad*_xi phi
    co = coadjoint_action(B)           # su2 acting on su2*
    left = ActionTensor(m.dim, g.dim, co.coefficients)
    return MatchedPair(g=g, m=m, right_action=right, left_action=left)


def b_quasitriangular_rmatrix() -> RMatrix:
    """b with the antisymmetric r-matrix r = x (x) t - t (x) x.

    The cobracket is delta z = ad_z r, which gives delta x = 0 and
    delta t = t (x) x - x (x) t; the symmetric part of r is zero so the
    quasitriangular pre-Lie formula applies.
    """
    L = b_lie()
    cob = {
        (T, T, X): ONE,
        (T, X, T): -ONE,
    }
    B = LieBialgebra(L, LieCoalgebra(2, L.basis_names, Tensor((2, 2, 2), cob)))
    r = Tensor((2, 2), {(X, T): ONE, (T, X): -ONE})
    return RMatrix(B, r)


def cotangent_family(which: int):
    """The two cotangent 2D families over m = span{x,y}, [x,y] = x.

    Returns a CotangentInput whose carrier g = m* is the abelian Lie
    bialgebra with cobracket dual to [x,y] = x, xi = circ is the given
    pre-Lie product on g* = m, and star lives on g = m* (dual basis
    {X, Y}).
    """
    from .constructions import CotangentInput

    xm, ym = 0, 1            # basis of m (= g*)
    XD, YD = 0, 1            # dual basis of m* (= g)

    names_m = ("x", "y")
    names_g = ("X", "Y")

    # g = m*: zero bracket, cobracket dual to [x,y] = x on m:
    # delta_g X = X @ Y - Y @ X  (transpose of c with [x,y]=x)
    g_bracket = Tensor((2, 2, 2), {})
    g_cob = Tensor((2, 2, 2), {
        (XD, XD, YD): ONE,
        (XD, YD, XD): -ONE,
    })
    carrier = LieBialgebra(
        LieAlgebra(2, names_g, g_bracket),
        LieCoalgebra(2, names_g, g_cob),
    )

    half = Scalar(Fraction(1, 2))
    if which == 1:
        circ = Tensor((2, 2, 2), {
            (ym, xm, xm): -ONE,           # y o x = -x
            (ym, ym, ym): -half,          # y o y = -(1/2) y
        })
        star = Tensor((2, 2, 2), {
            (YD, YD, XD): ONE,            # Y * Y = X
        })
    elif which == 2:
        circ = Tensor((2, 2, 2), {
            (ym, xm, xm): -ONE,           # y o x = -x
        })
        star = Tensor((2, 2, 2), {
            (XD, YD, XD): ONE,            # X * Y = X
            (YD, XD, XD): ONE,            # Y * X = X
            (YD, YD, YD): ONE,            # Y * Y = Y
        })
    else:
        raise ValueError("cotangent family must be 1 or 2")

    xi = PreLieProduct(2, names_m, circ)
    return CotangentInput(
        carrier=carrier,
        xi=xi,
        circ=xi,
        star=PreLieProduct(2, names_g, star),
    )


def load_catalog():
    """All built-in instances with ids, kinds and payload builders."""
    entries = []

    def add(iid, kind, builder, **params):
        entries.append({"id": iid, "kind": kind, "build": builder,
                        "params": params})
        return entries[-1]

    for alpha in (Fraction(-2), Fraction(0), Fraction(1), Fraction(3)):
        add(f"b1(alpha={alpha})", "prelie",
            lambda alpha=alpha: b_family("b1", alpha), alpha=alpha)
    for beta in (Fraction(1), Fraction(2)):
        add(f"b2(beta={beta})", "prelie",
            lambda beta=beta: b_family("b2", beta), beta=beta)
    add("b3", "prelie", lambda: b_family("b3"))
    add("b4", "prelie", lambda: b_family("b4"))
    add("b5", "prelie", lambda: b_family("b5"))
    add("su2", "bialgebra", su2_bialgebra)
    # checked and quantised over su2*, the Lie algebra it was built for
    add("su2-dual-prelie", "prelie", su2_dual_prelie)["lie"] = su2_dual_lie
    add("su2-coadjoint-pair", "matched_pair", su2_coadjoint_matched_pair)
    add("b-quasitriangular", "rmatrix", b_quasitriangular_rmatrix)
    add("cotangent-1", "cotangent_input", lambda: cotangent_family(1))
    add("cotangent-2", "cotangent_input", lambda: cotangent_family(2))

    from .metric import standard_metric
    for alpha in (Fraction(-2), Fraction(1)):
        add(f"metric-case1(alpha={alpha})", "metric",
            lambda alpha=alpha: standard_metric(1, alpha=alpha), alpha=alpha)
    for beta in (Fraction(1), Fraction(2)):
        add(f"metric-case2(beta={beta})", "metric",
            lambda beta=beta: standard_metric(2, beta=beta), beta=beta)
    add("metric-case4", "metric", lambda: standard_metric(4))
    add("metric-case5", "metric", lambda: standard_metric(5))

    from .group_dga import s3_instance, z2_instance
    add("groupdga-z2", "group_dga", z2_instance)
    add("groupdga-s3", "group_dga", s3_instance)

    return entries
