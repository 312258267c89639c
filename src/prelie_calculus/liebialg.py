"""Lie algebras, coalgebras, bialgebras, actions and matched pairs.

Everything is structure-constant data over Q(i):

* bracket tensor c with [e_i, e_j] = sum_k c[i,j,k] e_k
* cobracket tensor d with delta(e_i) = sum_{j,k} d[i,j,k] e_j (x) e_k
* action tensor a with e_i |> v_j = sum_k a[i,j,k] v_k

Each checker writes its identity as a signed sum of tensor_contract
terms over these tensors and returns, as witnesses, the basis tuples
that lead the nonzero entries of the sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_core import ONE, Tensor, ZERO, contract_sum

__all__ = [
    "LieAlgebra",
    "LieCoalgebra",
    "LieBialgebra",
    "ActionTensor",
    "MatchedPair",
    "RMatrix",
    "check_lie_algebra",
    "check_action_axiom",
    "check_right_action_axiom",
    "check_bialgebra_cocycle",
    "dualize",
    "coadjoint_action",
    "check_matched_pair",
    "double_cross_sum",
    "bicross_sum",
    "check_crossed_module",
]


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple
    bracket: Tensor  # shape (n, n, n), [e_i,e_j] = sum_k c[i,j,k] e_k

    def __post_init__(self):
        if self.bracket.shape != (self.dim,) * 3:
            raise ValueError("bracket shape mismatch")


@dataclass(frozen=True)
class LieCoalgebra:
    dim: int
    basis_names: tuple
    cobracket: Tensor  # shape (n, n, n), delta e_i = sum d[i,j,k] e_j@e_k

    def __post_init__(self):
        if self.cobracket.shape != (self.dim,) * 3:
            raise ValueError("cobracket shape mismatch")


@dataclass(frozen=True)
class LieBialgebra:
    algebra: LieAlgebra
    coalgebra: LieCoalgebra

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise ValueError("algebra/coalgebra dimension mismatch")

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def basis_names(self):
        return self.algebra.basis_names


@dataclass(frozen=True)
class ActionTensor:
    actor_dim: int
    target_dim: int
    coefficients: Tensor  # shape (actor, target, target)
    is_action: bool = True  # some uses are only "almost" actions

    def __post_init__(self):
        if self.coefficients.shape != (
            self.actor_dim, self.target_dim, self.target_dim
        ):
            raise ValueError("action tensor shape mismatch")


@dataclass(frozen=True)
class MatchedPair:
    """Right-left matched pair (g, m, <|, |>).

    g acts on m from the right (right_action, phi <| xi for phi in m,
    xi in g) and m acts on g from the left (left_action, phi |> xi).
    Index convention of ActionTensor: first index is the acting
    element, second the element acted upon.
    """

    g: LieAlgebra
    m: LieAlgebra
    right_action: ActionTensor  # g on m: coeff[xi, phi, out in m]
    left_action: ActionTensor   # m on g: coeff[phi, xi, out in g]

    def __post_init__(self):
        ra, la = self.right_action, self.left_action
        if (ra.actor_dim, ra.target_dim) != (self.g.dim, self.m.dim):
            raise ValueError("right_action dims")
        if (la.actor_dim, la.target_dim) != (self.m.dim, self.g.dim):
            raise ValueError("left_action dims")


@dataclass(frozen=True)
class RMatrix:
    carrier: LieBialgebra
    r: Tensor  # shape (n, n), element of g (x) g


def basis_vec(n, i):
    """e_i as a coefficient vector (a list of Scalar)."""
    v = [ZERO] * n
    v[i] = ONE
    return v


# ---------------------------------------------------------------------------
# checkers


def _leading(t: Tensor, r):
    """Sorted distinct first-r index tuples of t's nonzero entries."""
    return sorted({key[:r] for key in t.entries})


def check_lie_algebra(c: Tensor):
    """Antisymmetry and Jacobi for a shape-(n,n,n) bracket tensor.

    Returns a dict with booleans and witness index tuples.
    """
    if len(c.shape) != 3 or len(set(c.shape)) != 1:
        raise ValueError(f"expected shape (n,n,n), got {c.shape}")
    symmetric = contract_sum([(1, "ijk->ijk", c), (1, "jik->ijk", c)])
    anti_witnesses = [key for key in sorted(symmetric.entries)
                      if key[0] <= key[1]]
    jacobi = contract_sum([(1, "ijm,mko->ijko", c, c),
                           (1, "jkm,mio->ijko", c, c),
                           (1, "kim,mjo->ijko", c, c)])
    jac_witnesses = _leading(jacobi, 3)
    return {
        "antisymmetry": not anti_witnesses,
        "jacobi": not jac_witnesses,
        "witnesses": {
            "antisymmetry": anti_witnesses,
            "jacobi": jac_witnesses,
        },
    }


def check_bialgebra_cocycle(B: LieBialgebra, with_witnesses=False):
    """1-cocycle condition delta([x,y]) = ad_x delta y - ad_y delta x."""
    c = B.algebra.bracket
    d = B.coalgebra.cobracket
    defect = contract_sum([(1, "ijm,mpq->ijpq", c, d),
                           (-1, "jaq,iap->ijpq", d, c),
                           (-1, "jpb,ibq->ijpq", d, c),
                           (1, "iaq,jap->ijpq", d, c),
                           (1, "ipb,jbq->ijpq", d, c)])
    witnesses = [(i, j) for i, j in _leading(defect, 2) if i < j]
    if with_witnesses:
        return {"cocycle": not witnesses, "witnesses": witnesses}
    return not witnesses


def dualize(B: LieBialgebra) -> LieBialgebra:
    """Dual bialgebra on the Kronecker-dual basis.

    Bracket of the dual = transpose of B's cobracket
    ([f^j, f^k] = sum_i d[i,j,k] f^i) and cobracket of the dual =
    transpose of B's bracket.  dualize(dualize(B)) == B on the nose.
    """
    if not check_bialgebra_cocycle(B):
        raise ValueError("input fails the bialgebra cocycle check")
    n = B.dim
    names = tuple(f"{nm}^*" for nm in B.basis_names)
    dual_bracket = Tensor(
        (n, n, n),
        {(j, k, i): v for (i, j, k), v in B.coalgebra.cobracket.entries.items()},
    )
    dual_cobracket = Tensor(
        (n, n, n),
        {(k, i, j): v for (i, j, k), v in B.algebra.bracket.entries.items()},
    )
    return LieBialgebra(
        LieAlgebra(n, names, dual_bracket),
        LieCoalgebra(n, names, dual_cobracket),
    )


def coadjoint_action(B: LieBialgebra) -> ActionTensor:
    """ad* of B's algebra on the dual basis: <ad*_x phi, y> = -<phi, [x,y]>.

    Coefficient a[i,j,k]: ad*_{e_i} f^j = sum_k a[i,j,k] f^k, so
    a[i,j,k] = -c[i,k,j].
    """
    n = B.dim
    coeffs = {
        (i, j, k): -v
        for (i, k, j), v in B.algebra.bracket.entries.items()
    }
    return ActionTensor(n, n, Tensor((n, n, n), coeffs))


def _action_defect(a: ActionTensor, L: LieAlgebra, sign):
    """[x,y] |> v - sign (x |> (y |> v) - y |> (x |> v)), keyed (x,y,v,out)."""
    if a.actor_dim != L.dim:
        raise ValueError("actor dimension mismatch")
    t = a.coefficients
    return contract_sum([(1, "ijk,kvo->ijvo", L.bracket, t),
                         (-sign, "jvm,imo->ijvo", t, t),
                         (sign, "ivm,jmo->ijvo", t, t)])


def check_action_axiom(a: ActionTensor, L: LieAlgebra, with_witnesses=False):
    """[x,y] |> v == x |> (y |> v) - y |> (x |> v) on all basis triples."""
    witnesses = _leading(_action_defect(a, L, 1), 3)
    if with_witnesses:
        return {"action": not witnesses, "witnesses": witnesses}
    return not witnesses


def check_right_action_axiom(a: ActionTensor, L: LieAlgebra,
                             with_witnesses=False):
    """v <| [x,y] == (v <| x) <| y - (v <| y) <| x on all basis triples.

    ActionTensor stores the actor index first even for right actions.
    """
    witnesses = _leading(_action_defect(a, L, -1), 3)
    if with_witnesses:
        return {"action": not witnesses, "witnesses": witnesses}
    return not witnesses


def check_matched_pair(P: MatchedPair, with_witnesses=False):
    """The two compatibility identities of a right-left matched pair:

    [phi,psi] <| xi = [phi <| xi, psi] + [phi, psi <| xi]
                      + phi <| (psi |> xi) - psi <| (phi |> xi)
    phi |> [xi,eta] = [phi |> xi, eta] + [xi, phi |> eta]
                      + (phi <| xi) |> eta - (phi <| eta) |> xi

    plus both actions being genuine Lie-algebra actions.
    """
    mc, gc = P.m.bracket, P.g.bracket
    ra = P.right_action.coefficients   # phi_a <| e_i = sum_k ra[i,a,k] phi_k
    la = P.left_action.coefficients    # phi_a |> e_i = sum_k la[a,i,k] e_k
    witnesses = []
    if not check_right_action_axiom(P.right_action, P.g):
        witnesses.append(("right_action_axiom",))
    if not check_action_axiom(P.left_action, P.m):
        witnesses.append(("left_action_axiom",))
    m_identity = contract_sum([(1, "abk,iko->abio", mc, ra),
                               (-1, "iak,kbo->abio", ra, mc),
                               (-1, "ibk,ako->abio", ra, mc),
                               (-1, "bik,kao->abio", la, ra),
                               (1, "aik,kbo->abio", la, ra)])
    witnesses += [("m-identity",) + w for w in _leading(m_identity, 3)]
    g_identity = contract_sum([(1, "ijk,ako->aijo", gc, la),
                               (-1, "aik,kjo->aijo", la, gc),
                               (-1, "ajk,iko->aijo", la, gc),
                               (-1, "iak,kjo->aijo", ra, la),
                               (1, "jak,kio->aijo", ra, la)])
    witnesses += [("g-identity",) + w for w in _leading(g_identity, 3)]
    if with_witnesses:
        return {"matched": not witnesses, "witnesses": witnesses}
    return not witnesses


def double_cross_sum(P: MatchedPair) -> LieAlgebra:
    """Double cross sum Lie algebra on g (+) m:

    [(xi,phi),(eta,psi)] = ([xi,eta] + phi|>eta - psi|>xi,
                            [phi,psi] + phi<|eta - psi<|xi)

    where phi <| eta abbreviates the right action of eta in g on phi.
    Basis ordering: g-part first, then m-part.
    """
    if not check_matched_pair(P):
        raise ValueError("matched-pair identities fail")
    g, m = P.g, P.m
    n = g.dim + m.dim
    names = tuple(g.basis_names) + tuple(m.basis_names)
    mi = lambda a: g.dim + a      # m index in the sum
    entries = {}
    for (i, j, k), v in g.bracket.entries.items():
        entries[(i, j, k)] = v
    for (a, b, c), v in m.bracket.entries.items():
        entries[(mi(a), mi(b), mi(c))] = v
    for (a, j, k), v in P.left_action.coefficients.entries.items():
        # phi |> eta - psi |> xi in the g-part
        entries[(mi(a), j, k)] = v
        entries[(j, mi(a), k)] = -v
    for (j, a, b), v in P.right_action.coefficients.entries.items():
        # phi <| eta - psi <| xi in the m-part
        entries[(mi(a), j, mi(b))] = v
        entries[(j, mi(a), mi(b))] = -v
    out = LieAlgebra(n, names, Tensor((n, n, n), entries))
    rep = check_lie_algebra(out.bracket)
    if not (rep["antisymmetry"] and rep["jacobi"]):
        raise AssertionError("double cross sum failed Lie axioms "
                             f"(witnesses {rep['witnesses']})")
    return out


def bicross_sum(P: MatchedPair, m_bialgebra: LieBialgebra,
                g_bialgebra: LieBialgebra) -> LieBialgebra:
    """Bicross sum Lie bialgebra m |><| g* on m (+) g*.

    Bracket: [(phi,f),(psi,h)] = ([phi,psi]_m,
                                  [f,h]_{g*} + f <| psi - h <| phi)
    with <f <| phi, xi> = <f, phi |> xi>.
    Cobracket: delta phi = delta_m phi + (id - tau) beta(phi),
               beta(phi) = sum_i f^i (x) (phi <| e_i);
               delta f = delta_{g*} f.

    m_bialgebra supplies delta_m on P.m; g_bialgebra lives on P.g and
    supplies [ , ]_{g*} (transpose of its cobracket) and delta_{g*}
    (transpose of its bracket).  Basis ordering: m-part first, then
    g*-part (matching the pair notation (phi, f)).
    """
    g, m = P.g, P.m
    if m_bialgebra.dim != m.dim or g_bialgebra.dim != g.dim:
        raise ValueError("bialgebra data dims mismatch")
    n = m.dim + g.dim
    names = tuple(m.basis_names) + tuple(f"{nm}^*" for nm in g.basis_names)
    mi = lambda a: a              # m index in the sum
    gi = lambda i: m.dim + i      # g* index in the sum

    gstar = dualize(g_bialgebra)  # bracket [,]_{g*}, cobracket delta_{g*}

    entries = {}

    def put(i, j, k, v):
        if not v.is_zero():
            entries[(i, j, k)] = entries.get((i, j, k), ZERO) + v

    # [phi, psi] = [phi, psi]_m
    for (a, b, c), v in m.bracket.entries.items():
        put(mi(a), mi(b), mi(c), v)
    # [f, h] = [f, h]_{g*}
    for (i, j, k), v in gstar.algebra.bracket.entries.items():
        put(gi(i), gi(j), gi(k), v)
    # [f^i, psi] = -(psi <| e_?) paired: f <| phi with <f<|phi,xi>=<f,phi|>xi>
    # f^i <| psi_b  has k-component <f^i, psi_b |> e_k> = la[b,k,i]
    la = P.left_action.coefficients
    for (b, k, i), v in la.entries.items():
        # [f^i, psi_b] = f^i <| psi_b ... enters bracket as +f<|psi for (phi,f),(psi,h)
        put(gi(i), mi(b), gi(k), v)
        put(mi(b), gi(i), gi(k), -v)

    bracket = Tensor((n, n, n), entries)

    co_entries = {}

    def putc(i, j, k, v):
        if not v.is_zero():
            co_entries[(i, j, k)] = co_entries.get((i, j, k), ZERO) + v

    # delta phi = delta_m phi + (id - tau) beta(phi)
    for (a, b, c), v in m_bialgebra.coalgebra.cobracket.entries.items():
        putc(mi(a), mi(b), mi(c), v)
    ra = P.right_action.coefficients  # phi_a <| e_i = sum_b ra[i,a,b] phi_b
    for (i, a, b), v in ra.entries.items():
        # beta(phi_a) = sum_i f^i (x) (phi_a <| e_i)
        putc(mi(a), gi(i), mi(b), v)
        putc(mi(a), mi(b), gi(i), -v)
    # delta f = delta_{g*} f
    for (i, j, k), v in gstar.coalgebra.cobracket.entries.items():
        putc(gi(i), gi(j), gi(k), v)

    out = LieBialgebra(
        LieAlgebra(n, names, bracket),
        LieCoalgebra(n, names, Tensor((n, n, n), co_entries)),
    )
    rep = check_lie_algebra(out.algebra.bracket)
    if not (rep["antisymmetry"] and rep["jacobi"]):
        raise AssertionError("bicross sum bracket fails Lie axioms")
    cc = check_bialgebra_cocycle(out, with_witnesses=True)
    if not cc["cocycle"]:
        raise AssertionError(
            f"bicross sum fails cocycle check, witnesses {cc['witnesses']}"
        )
    return out


def check_crossed_module(B: LieBialgebra, act: ActionTensor,
                         act_dual: ActionTensor):
    """Left almost-crossed-module condition for (act, act_dual).

    act is the action |> of B's algebra g on a space V; act_dual is the
    companion map |>' of g* on V.  The "almost" condition is, for all
    phi in g*, x in g, v in V:

      phi(1) |>' v <phi(2), x> + x(1) |> v <phi, x(2)>
        = x |> (phi |>' v) - phi |>' (x |> v)

    where delta x = x(1) (x) x(2) is B's cobracket and delta phi =
    phi(1) (x) phi(2) is the g* cobracket (transpose of B's bracket).
    ``full`` additionally requires act_dual to be a genuine action of
    the dual Lie algebra.
    """
    n = B.dim
    if act.actor_dim != n or act_dual.actor_dim != n:
        raise ValueError("actor dims must equal bialgebra dim")
    if act.target_dim != act_dual.target_dim:
        raise ValueError("target dims differ")
    dual = dualize(B)
    c, d = B.algebra.bracket, B.coalgebra.cobracket
    a, a_dual = act.coefficients, act_dual.coefficients
    # phi(1) |>' v <phi(2), x> + x(1) |> v <phi, x(2)>
    #   - x |> (phi |>' v) + phi |>' (x |> v), keyed (phi, x, v, out)
    defect = contract_sum([(1, "aip,avo->pivo", c, a_dual),
                           (1, "iap,avo->pivo", d, a),
                           (-1, "pvm,imo->pivo", a_dual, a),
                           (1, "ivm,pmo->pivo", a, a_dual)])
    witnesses = _leading(defect, 3)
    almost = not witnesses
    full = almost and check_action_axiom(act_dual, dual.algebra)
    return {"almost": almost, "full": full, "witnesses": witnesses}
