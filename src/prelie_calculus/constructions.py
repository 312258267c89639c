"""Constructive theorems: semidirect / tangent / cotangent pre-Lie
products, braided-Lie-bialgebra conditions, bisums and the algebraic
cocycle formula.

Direct sums are always ordered B-part first, then A-part, matching the
pair notation (x, a) of the semidirect product.  Every identity is a
signed sum of tensor_contract terms, as in prelie and liebialg.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .exact_core import (
    Scalar,
    Tensor,
    Verdict,
    accumulate,
    contract_sum,
    tensor_contract,
)
from .liebialg import (
    ActionTensor,
    LieAlgebra,
    LieBialgebra,
    LieCoalgebra,
    _leading,
    check_bialgebra_cocycle,
    check_lie_algebra,
    coadjoint_action,
    dualize,
)
from .prelie import (
    PreLieProduct,
    _delta_gstar,
    _xi_ass_terms,
    _xi_con_terms,
    check_bicovariance,
    check_compatibility,
    check_left_symmetry,
    induced_bracket,
)

__all__ = [
    "SemidirectInput",
    "CotangentInput",
    "check_module_condition",
    "semidirect_prelie",
    "tangent_prelie",
    "check_tangent_bicovariance",
    "check_braided_conditions",
    "infinitesimal_braiding",
    "bisum_bialgebra",
    "xi_action_on_g",
    "check_associative",
    "cotangent_prelie",
    "check_cotangent_bicovariance",
    "cocycle_D",
]


@dataclass(frozen=True)
class SemidirectInput:
    """Data for the semidirect pre-Lie product on B (+) A:

    (x, a) o~ (y, b) = (x * y + a |> y, a o b)

    A carries o, B carries *, and the Lie algebra of A acts on B via
    ``action`` (actor index first).
    """

    A: PreLieProduct
    B: PreLieProduct
    action: ActionTensor  # g_A on B

    def __post_init__(self):
        if self.action.actor_dim != self.A.dim \
                or self.action.target_dim != self.B.dim:
            raise ValueError("action dims mismatch")


@dataclass(frozen=True)
class CotangentInput:
    """Data for the cotangent construction on g_bar (+) g*:

    carrier: Lie bialgebra structure on g;
    xi:   pre-Lie product Xi on g* (defines the action g* on g);
    circ: pre-Lie product o on g*;
    star: product * on g (commutativity/associativity are checked, not
          assumed).
    """

    carrier: LieBialgebra
    xi: PreLieProduct
    circ: PreLieProduct
    star: PreLieProduct

    def __post_init__(self):
        n = self.carrier.dim
        for x in (self.xi, self.circ, self.star):
            if x.dim != n:
                raise ValueError("dimension mismatch")


def check_module_condition(S: SemidirectInput) -> Verdict:
    """a |> (x*y) == (a|>x)*y + x*(a|>y) on all basis triples."""
    act, star = S.action.coefficients, S.B.xi
    defect = contract_sum([(1, "xym,amo->axyo", star, act),
                           (-1, "axm,myo->axyo", act, star),
                           (-1, "aym,xmo->axyo", act, star)])
    return Verdict(_leading(defect, 3))


def semidirect_prelie(S: SemidirectInput) -> PreLieProduct:
    """(x,a) o~ (y,b) = (x*y + a|>y, a o b) on B (+) A (B-part first)."""
    if not check_left_symmetry(S.A):
        raise ValueError("A is not left-symmetric")
    if not check_left_symmetry(S.B):
        raise ValueError("B is not left-symmetric")
    rep = check_module_condition(S)
    if not rep:
        raise ValueError(f"module condition fails, witness {rep.witnesses[0]}")
    nA, nB = S.A.dim, S.B.dim
    n = nB + nA
    entries = accumulate(chain(
        S.B.xi.entries.items(),
        # a |> y lands in the B block; actor sits in the A block
        (((nB + a, j, k), v)
         for (a, j, k), v in S.action.coefficients.entries.items()),
        (((nB + i, nB + j, nB + k), v)
         for (i, j, k), v in S.A.xi.entries.items())))
    names = tuple(S.B.basis_names) + tuple(S.A.basis_names)
    out = PreLieProduct(n, names, Tensor((n, n, n), entries))
    rep = check_left_symmetry(out)
    if not rep:
        raise AssertionError(
            f"semidirect product not left-symmetric: {rep.witnesses[:3]}")
    return out


def _check_commutative(X: PreLieProduct):
    return contract_sum([(1, "ijk->ijk", X.xi),
                         (-1, "jik->ijk", X.xi)]).is_zero()


def check_associative(X: PreLieProduct) -> Verdict:
    """(x o y) o z == x o (y o z)."""
    xi = X.xi
    defect = contract_sum([(1, "ijm,mko->ijko", xi, xi),
                           (-1, "jkm,imo->ijko", xi, xi)])
    return Verdict(_leading(defect, 3))


def tangent_prelie(circ: PreLieProduct, star: PreLieProduct,
                   lie: LieAlgebra = None) -> PreLieProduct:
    """Tangent pre-Lie product on g*_bar (+) g*:

    (phi, f) o~ (psi, h) = (phi * psi + [f, psi]_{g*}, f o h)

    Preconditions: * commutative and associative; o left-symmetric and
    compatible with the g* bracket; and the Poisson condition
    [f, phi*psi] = [f,phi]*psi + phi*[f,psi].  The g* bracket defaults
    to the bracket induced by o.
    """
    if circ.dim != star.dim:
        raise ValueError("dimension mismatch")
    if lie is None:
        lie = induced_bracket(circ)
    if not check_left_symmetry(circ):
        raise ValueError("circ is not left-symmetric")
    if not check_compatibility(circ, lie):
        raise ValueError("circ is not compatible with the g* bracket")
    if not _check_commutative(star):
        raise ValueError("star is not commutative")
    rep = check_associative(star)
    if not rep:
        raise ValueError(f"star is not associative: {rep.witnesses[0]}")

    n = circ.dim
    adjoint = ActionTensor(n, n, lie.bracket)  # f |> psi = [f, psi]
    S = SemidirectInput(A=circ, B=star, action=adjoint)
    rep = check_module_condition(S)
    if not rep:
        raise ValueError(
            f"Poisson condition fails, witness {rep.witnesses[0]}")
    return semidirect_prelie(S)


def check_tangent_bicovariance(circ: PreLieProduct, star: PreLieProduct,
                               B: LieBialgebra) -> Verdict:
    """The five identities that make the tangent calculus bicovariant.

    With delta f = f(1) (x) f(2) the g* cobracket (transpose of B's
    bracket) and [ , ] the g* bracket (dual of B's cobracket):

      (1) delta(f o h) = 0
      (2) f(1) (x) [f(2), h] = 0
      (3) f(1) o h (x) f(2) = - f o h(1) (x) h(2)
      (4) delta(phi * psi) = 0
      (5) phi * f(1) (x) f(2) = 0
    """
    n = B.dim
    if circ.dim != n or star.dim != n:
        raise ValueError("dimension mismatch")
    delta = _delta_gstar(B)
    gstar_bracket = dualize(B).algebra.bracket
    circ, star = circ.xi, star.xi
    identities = [
        ("delta-circ", [(1, "fhk,kab->fhab", circ, delta)]),
        ("delta-star", [(1, "fhk,kab->fhab", star, delta)]),
        ("mixed-bracket", [(1, "fab,bho->fhao", delta, gstar_bracket)]),
        # keyed (phi, f): phi * f(1) (x) f(2)
        ("star-delta", [(1, "fab,hao->hfob", delta, star)]),
        ("circ-delta", [(1, "fab,aho->fhob", delta, circ),
                        (1, "hab,fao->fhob", delta, circ)]),
    ]
    return Verdict((name,) + w for name, terms in identities
                   for w in _leading(contract_sum(terms), 2))


def check_braided_conditions(X: PreLieProduct, B: LieBialgebra) -> Verdict:
    """The two braided-Lie-bialgebra conditions for Xi on g*:

      (Xi-ass) delta Xi(phi,psi) = Xi(phi,psi(1)) (x) psi(2)
                                   + psi(1) (x) Xi(phi,psi(2))
      (Xi-con) Xi(phi(1),psi) (x) phi(2) = psi(1) (x) Xi(psi(2),phi)

    with delta = delta_{g*}, the transpose of B's bracket.

    Requires Xi to be compatible with the g* bracket (the hypothesis
    under which these two identities make g a braided Lie bialgebra).
    """
    n = B.dim
    if X.dim != n:
        raise ValueError("dimension mismatch")
    if not check_compatibility(X, dualize(B).algebra):
        raise ValueError("Xi is not compatible with the g* bracket")
    delta = _delta_gstar(B)
    return Verdict(
        (name,) + w
        for name, terms in (("Xi-ass", _xi_ass_terms(X.xi, delta)),
                            ("Xi-con", _xi_con_terms(X.xi, delta)))
        for w in _leading(contract_sum(terms), 2))


def infinitesimal_braiding(X: PreLieProduct, B: LieBialgebra) -> Tensor:
    """The infinitesimal braiding Psi on g* as a 4-index tensor.

    Psi[p,q,a,b] is the (f^a (x) f^b)-component of Psi(f^p, f^q), where

      Psi(phi,psi) = ad*_{psi(1)} phi (x) psi(2)
                     - ad*_{phi(1)} psi (x) phi(2)
                     - psi(2) (x) ad*_{psi(1)} phi
                     + phi(2) (x) ad*_{phi(1)} psi

    with the coaction legs alpha(phi) = phi(1) (x) phi(2) in g (x) g*
    determined by Xi via <alpha(phi), psi (x) x> = -Xi(psi,phi)(x).
    """
    n = B.dim
    if X.dim != n:
        raise ValueError("dimension mismatch")
    co = coadjoint_action(B).coefficients  # ad*_{e_i} f^j = sum a[i,j,k] f^k
    # alpha(f^q) = sum_{i,k} (-Xi[i,q,k]) e_i (x) f^k, so
    # ad*_{psi(1)} phi (x) psi(2) = -sum_i Xi[i,q,k] ad*_{e_i} f^p (x) f^k
    xi = X.xi
    return contract_sum([(-1, "iqk,ipo->pqok", xi, co),
                         (1, "iqk,ipo->pqko", xi, co),
                         (1, "ipk,iqo->pqok", xi, co),
                         (-1, "ipk,iqo->pqko", xi, co)])


def bisum_bialgebra(X: PreLieProduct, B: LieBialgebra) -> LieBialgebra:
    """Bisum Lie bialgebra on g*_bar (+) g:

    bracket  [(phi,x),(psi,y)] = (ad*_x psi - ad*_y phi, [x,y]_g)
    cobracket delta(phi,x) = delta_g x + delta_{g*} phi
                             + (id - tau) alpha(phi)

    with alpha determined by Xi as in infinitesimal_braiding.  Basis
    ordering: g*-part first, then g-part.
    """
    if not check_left_symmetry(X):
        raise ValueError("Xi is not left-symmetric")
    rep = check_braided_conditions(X, B)
    if not rep:
        raise ValueError(f"braided conditions fail: {rep.witnesses[:3]}")
    n = B.dim
    N = 2 * n
    gstar = lambda i: i
    gidx = lambda i: n + i
    co = coadjoint_action(B).coefficients

    def bracket_terms():
        # [x, y]_g
        for (i, j, k), v in B.algebra.bracket.entries.items():
            yield (gidx(i), gidx(j), gidx(k)), v
        # [x, psi] = ad*_x psi; [phi, y] = -ad*_y phi
        for (i, j, k), v in co.entries.items():
            yield (gidx(i), gstar(j), gstar(k)), v
            yield (gstar(j), gidx(i), gstar(k)), -v

    def cobracket_terms():
        # delta_g x
        for (i, a, b), v in B.coalgebra.cobracket.entries.items():
            yield (gidx(i), gidx(a), gidx(b)), v
        # delta_{g*} phi (transpose of bracket)
        for (i, j, k), v in B.algebra.bracket.entries.items():
            yield (gstar(k), gstar(i), gstar(j)), v
        # (id - tau) alpha(phi), alpha(f^q) = sum -Xi[i,q,k] e_i (x) f^k
        for (i, q, k), v in X.xi.entries.items():
            yield (gstar(q), gidx(i), gstar(k)), -v
            yield (gstar(q), gstar(k), gidx(i)), v

    bracket = Tensor((N, N, N), accumulate(bracket_terms()))
    cobracket = Tensor((N, N, N), accumulate(cobracket_terms()))

    names = tuple(f"{nm}^*" for nm in B.basis_names) + tuple(B.basis_names)
    out = LieBialgebra(
        LieAlgebra(N, names, bracket),
        LieCoalgebra(N, names, cobracket),
    )
    if not all(check_lie_algebra(out.algebra.bracket).values()):
        raise AssertionError("bisum bracket fails Lie axioms")
    cc = check_bialgebra_cocycle(out)
    if not cc:
        raise AssertionError(f"bisum fails cocycle check: {cc.witnesses}")
    return out


def xi_action_on_g(X: PreLieProduct) -> ActionTensor:
    """The action of g* on g defined by <phi |> x, psi> = -Xi(phi,psi)(x).

    Coefficients: (phi=f^p) |> e_j = sum_k a[p,j,k] e_k with
    a[p,j,k] = -Xi[p,k,j].
    """
    n = X.dim
    coeffs = {
        (p, j, k): -v for (p, k, j), v in X.xi.entries.items()
    }
    return ActionTensor(n, n, Tensor((n, n, n), coeffs))


def cotangent_prelie(C: CotangentInput) -> PreLieProduct:
    """Cotangent pre-Lie product on g_bar (+) g*:

    (x, phi) o~ (y, psi) = (x * y + phi |> y, phi o psi)

    with phi |> y from Xi.  Preconditions: Xi compatible with the g*
    bracket and braided ((Xi-ass), (Xi-con)); circ left-symmetric; and
    (Xi-ast): phi |> (x*y) = (phi|>x)*y + x*(phi|>y).
    """
    B = C.carrier
    gstar_bracket = dualize(B).algebra
    if not check_compatibility(C.xi, gstar_bracket):
        raise ValueError("Xi is not compatible with the g* bracket")
    rep = check_braided_conditions(C.xi, B)
    if not rep:
        raise ValueError(f"braided conditions fail: {rep.witnesses[:3]}")
    S = SemidirectInput(A=C.circ, B=C.star, action=xi_action_on_g(C.xi))
    rep = check_module_condition(S)
    if not rep:
        raise ValueError(f"(Xi-ast) fails, witness {rep.witnesses[0]}")
    return semidirect_prelie(S)


def check_cotangent_bicovariance(C: CotangentInput) -> Verdict:
    """Extra conditions for bicovariance of the cotangent calculus:

      - circ obeys the infinitesimal bicovariance condition (Xi-bi),
      - star is associative,
      - (ast)    [x,y] * z = [y,z] * x,
      - (circad) ((ad*_x psi) o phi)(y) + Xi(ad*_y phi, psi)(x) = 0,
      - (Xiad)   Xi(phi,psi)([x,y]) = Xi(phi, ad*_y psi)(x)
                                      - (phi o ad*_x psi)(y).
    """
    B = C.carrier
    witnesses = []
    if not check_bicovariance(C.circ, B):
        witnesses.append(("circ-Xi-bi",))
    ass = check_associative(C.star)
    if not ass:
        witnesses.append(("star-associative", ass.witnesses[0]))

    co = coadjoint_action(B).coefficients
    c = B.algebra.bracket
    star, circ, xi = C.star.xi, C.circ.xi, C.xi.xi
    identities = [
        # (ast): [x,y]*z - [y,z]*x, keyed (x, y, z, out)
        ("ast", 3, [(1, "xym,mzo->xyzo", c, star),
                    (-1, "yzm,mxo->xyzo", c, star)]),
        # (circad): ((ad*_x psi) o phi)(y) + Xi(ad*_y phi, psi)(x),
        # keyed (x, y, phi, psi)
        ("circad", 4, [(1, "xqm,mpy->xypq", co, circ),
                       (1, "ypm,mqx->xypq", co, xi)]),
        # (Xiad): Xi(phi,psi)([x,y]) - Xi(phi,ad*_y psi)(x)
        #         + (phi o ad*_x psi)(y)
        ("Xiad", 4, [(1, "pqm,xym->xypq", xi, c),
                     (-1, "yqm,pmx->xypq", co, xi),
                     (1, "xqm,pmy->xypq", co, circ)]),
    ]
    witnesses += [(name,) + w for name, r, terms in identities
                  for w in _leading(contract_sum(terms), r)]
    return Verdict(witnesses)


def cocycle_D(X: PreLieProduct, B: LieBialgebra, phi) -> Tensor:
    """The closed cocycle formula evaluated at a g* vector phi:

      D(phi) = delta_{g*} phi
               + (id - tau)(phi(1) (x) phi(2)
                            - (1/2) ad*_{phi(1)} phi (x) phi(2))

    with alpha(phi) = phi(1) (x) phi(2) in g (x) g* as above.  The
    result lives in (g (+) g*)^{(x)2} with g*-part indices first.
    """
    if not check_left_symmetry(X):
        raise ValueError("Xi is not left-symmetric")
    rep = check_braided_conditions(X, B)
    if not rep:
        raise ValueError(f"braided conditions fail: {rep.witnesses[:3]}")
    n = B.dim
    N = 2 * n
    phi = [v if isinstance(v, Scalar) else Scalar(v) for v in phi]
    if len(phi) != n:
        raise ValueError("phi has wrong length")
    co = coadjoint_action(B).coefficients
    half = Scalar(1) / Scalar(2)
    phi_t = Tensor((n,), {(q,): v for q, v in enumerate(phi)})
    # alpha(phi) = sum_{i,k} alpha[i,k] e_i (x) f^k
    alpha = contract_sum([(-1, "iqk,q->ik", X.xi, phi_t)])
    # ad*_{phi(1)} phi (x) phi(2), keyed (g* leg, g* leg)
    ad = tensor_contract("ik,ipo,p->ok", alpha, co, phi_t)

    def terms():
        # delta_{g*} phi: transpose of bracket, lands in g* (x) g*
        yield from tensor_contract("ijk,k->ij", B.algebra.bracket,
                                   phi_t).entries.items()
        # (id - tau) alpha(phi), with legs in g (x) g*
        for (i, k), v in alpha.entries.items():
            yield (n + i, k), v
            yield (k, n + i), -v
        # -(1/2)(id - tau)(ad*_{phi(1)} phi (x) phi(2)), in g* (x) g*
        for (o, k), v in ad.entries.items():
            yield (o, k), -half * v
            yield (k, o), half * v

    return Tensor((N, N), accumulate(terms()))
