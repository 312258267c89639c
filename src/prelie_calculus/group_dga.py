"""Differential graded algebra on the extended group algebra of a
finite group.

Given a finite group G acting on a set X = {x_1, ..., x_n} and an inner
element theta in kX, the algebra

    Omega = (k[alpha_1, ..., alpha_n] |x kG) |x Lambda(y_1..y_n, x_1..x_n)

carries a strongly bicovariant differential, with y_i = d(alpha_i).
Monomials are kept in the normal order alpha-exponents, then a group
element, then a Grassmann monomial; the rewrite rules are

    g . alpha_j   = alpha_{g|>j} . g
    y_i . alpha_j = alpha_j . y_i - delta_ij y_i
    x_i . alpha_j = alpha_j . x_i
    form . g      = g . (g^{-1} |> form)

and d(g) = g (g^{-1}|>theta - theta), d(alpha_i) = y_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from math import comb

from .dga import _sorted_forms
from .exact_core import ONE, Scalar, ZERO, linear_kernel

__all__ = [
    "GroupDGAData",
    "GroupDGA",
    "build_group_dga",
    "check_group_dga",
    "trivial_instance",
    "z2_instance",
    "s3_instance",
]


@dataclass(frozen=True)
class GroupDGAData:
    """Finite group with an action on a point set and an inner element.

    cayley[g][h] is the index of the product gh; action[g] is the
    permutation i -> g|>i of the points; theta is a Scalar vector in kX.
    """

    cayley: tuple
    action: tuple
    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "cayley",
                           tuple(tuple(r) for r in self.cayley))
        object.__setattr__(self, "action",
                           tuple(tuple(p) for p in self.action))
        object.__setattr__(self, "theta", tuple(
            v if isinstance(v, Scalar) else Scalar(v) for v in self.theta))


def _validate(data: GroupDGAData):
    size = len(data.cayley)
    if any(len(r) != size for r in data.cayley):
        raise ValueError("cayley table is not square")
    if len(data.action) != size:
        raise ValueError("one permutation per group element required")
    n = len(data.theta)
    for p in data.action:
        if sorted(p) != list(range(n)):
            raise ValueError(f"{p} is not a permutation of the point set")
    # identity
    identity = None
    for e in range(size):
        if all(data.cayley[e][h] == h and data.cayley[h][e] == h
               for h in range(size)):
            identity = e
            break
    if identity is None:
        raise ValueError("no identity element")
    # associativity and inverses
    for a, b, c in iproduct(range(size), repeat=3):
        if data.cayley[data.cayley[a][b]][c] != \
                data.cayley[a][data.cayley[b][c]]:
            raise ValueError(f"cayley table not associative at {(a, b, c)}")
    inv = [None] * size
    for g in range(size):
        for h in range(size):
            if data.cayley[g][h] == identity \
                    and data.cayley[h][g] == identity:
                inv[g] = h
        if inv[g] is None:
            raise ValueError(f"element {g} has no inverse")
    # the action is a homomorphism
    if data.action[identity] != tuple(range(n)):
        raise ValueError("identity must act trivially")
    for g, h in iproduct(range(size), repeat=2):
        composed = tuple(data.action[g][data.action[h][i]]
                         for i in range(n))
        if composed != data.action[data.cayley[g][h]]:
            raise ValueError(f"action is not a homomorphism at {(g, h)}")
    return identity, tuple(inv)


class GroupDGA:
    """Handle for the group DGA; elements are dicts mapping monomial
    keys (alpha exponent tuple, group index, Grassmann monomial) to
    Scalar.  Form generators 0..n-1 are the y_i, n..2n-1 the x_i."""

    def __init__(self, data: GroupDGAData):
        self.data = data
        self.identity, self.inv = _validate(data)
        self.n = len(data.theta)
        self.size = len(data.cayley)

    # -- element helpers -------------------------------------------------
    def unit(self):
        return {((0,) * self.n, self.identity, ()): ONE}

    def alpha(self, i):
        exps = [0] * self.n
        exps[i] = 1
        return {(tuple(exps), self.identity, ()): ONE}

    def group(self, g):
        return {((0,) * self.n, g, ()): ONE}

    def form(self, f):
        return {((0,) * self.n, self.identity, (f,)): ONE}

    def add(self, a, b):
        out = dict(a)
        for k, v in b.items():
            s = out.get(k, ZERO) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def scale(self, a, s):
        return {k: v * s for k, v in a.items() if not (v * s).is_zero()}

    def sub(self, a, b):
        return self.add(a, self.scale(b, Scalar(-1)))

    def is_zero(self, a):
        return all(v.is_zero() for v in a.values())

    def _act_form(self, g, f):
        """g |> form generator (y_i -> y_{g|>i}, x_i -> x_{g|>i})."""
        if f < self.n:
            return self.data.action[g][f]
        return self.n + self.data.action[g][f - self.n]

    def _act_forms(self, g, forms):
        res = tuple(self._act_form(g, f) for f in forms)
        return _sorted_forms(res)

    def mul(self, a, b):
        out = {}
        for (A, g, eta), ca in a.items():
            for (B, h, xi), cb in b.items():
                base = ca * cb
                # eta . alpha^B first: each y_j in eta turns alpha_j
                # into (alpha_j - 1); expand binomially.  The reduced
                # exponents then move left past g via g|>.
                reacting = [j for j in eta if j < self.n and B[j] > 0]
                choices = [range(B[j] + 1) for j in reacting]
                for ms in iproduct(*choices):
                    coeff = base
                    Br = list(B)
                    for j, m in zip(reacting, ms):
                        coeff = coeff * Scalar(
                            (-1) ** m * comb(B[j], m))
                        Br[j] = B[j] - m
                    if coeff.is_zero():
                        continue
                    Bm = [0] * self.n
                    for j, e in enumerate(Br):
                        Bm[self.data.action[g][j]] = e
                    # eta . h = h . (h^{-1} |> eta)
                    moved = self._act_forms(self.inv[h], eta)
                    if moved is None:
                        continue
                    s1, eta_h = moved
                    wedge = _sorted_forms(eta_h + xi)
                    if wedge is None:
                        continue
                    s2, forms = wedge
                    key = (
                        tuple(x + y for x, y in zip(A, Bm)),
                        self.data.cayley[g][h],
                        forms,
                    )
                    v = out.get(key, ZERO) + coeff * s1 * s2
                    if v.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = v
        return out

    # -- differential ----------------------------------------------------
    def _theta_forms(self, g):
        """g^{-1}|>theta - theta as a grade-1 element (x-generators)."""
        comps = [ZERO] * self.n
        gi = self.inv[g]
        for j, t in enumerate(self.data.theta):
            comps[self.data.action[gi][j]] = comps[self.data.action[gi][j]] + t
            comps[j] = comps[j] - t
        return comps

    def d(self, a):
        """The super-derivation: d(alpha^A g . eta) = d(alpha^A g) . eta."""
        out = {}

        def bump(key, v):
            if v.is_zero():
                return
            s = out.get(key, ZERO) + v
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s

        for (A, g, eta), c in a.items():
            pieces = []
            # sum_i sum_{m>=1} (-1)^{m-1} C(A_i,m) alpha^{A-m e_i} g (g^{-1}|>y_i)
            for i, Ai in enumerate(A):
                for m in range(1, Ai + 1):
                    coeff = Scalar((-1) ** (m - 1) * comb(Ai, m))
                    Am = list(A)
                    Am[i] = Ai - m
                    pieces.append((tuple(Am), self._act_form(self.inv[g], i),
                                   coeff))
            # alpha^A g (g^{-1}|>theta - theta)
            for k, t in enumerate(self._theta_forms(g)):
                if not t.is_zero():
                    pieces.append((A, self.n + k, t))
            for A2, f, coeff in pieces:
                wedge = _sorted_forms((f,) + eta)
                if wedge is None:
                    continue
                sign, forms = wedge
                bump((A2, g, forms), c * coeff * sign)
        return out

    # -- the omega-tilde module map --------------------------------------
    def omega_tilde(self, a):
        """omega-tilde on the augmentation ideal, valued in V* (+) V.

        Returns (psi, v): psi the y-components, v the x-components.
        Monomials alpha^A g with A supported on one index i map to
        (-1)^(|A|-1) alpha_{g^{-1}|>i}; pure group terms g map to
        g^{-1}|>theta - theta; mixed-support monomials map to zero.
        """
        psi = [ZERO] * self.n
        vec = [ZERO] * self.n
        for (A, g, eta), c in a.items():
            if eta:
                raise ValueError("omega-tilde is defined on degree-0 terms")
            support = [i for i, e in enumerate(A) if e > 0]
            if not support:
                if g == self.identity:
                    continue  # the unit is projected out
                for k, t in enumerate(self._theta_forms(g)):
                    vec[k] = vec[k] + c * t
            elif len(support) == 1:
                i = support[0]
                sign = Scalar((-1) ** (A[i] - 1))
                j = self.data.action[self.inv[g]][i]
                psi[j] = psi[j] + c * sign
            # products of distinct alphas *-multiply to zero
        return psi, vec

    def crossed_action(self, pair, key):
        """Right action of a monomial alpha^A g on V* (+) V from the
        cotangent crossed module: (psi+v) <| g = g^{-1}|>(psi+v) and
        (psi+v) <| (alpha_i g) = -g^{-1}|>(alpha_i * psi); higher alpha
        degree acts by iterated *, and * is idempotent per point."""
        psi, vec = pair
        A, g, eta = key
        if eta:
            raise ValueError("only degree-0 monomials act")
        gi = self.inv[g]
        support = [i for i, e in enumerate(A) if e > 0]
        if not support:
            npsi = [ZERO] * self.n
            nvec = [ZERO] * self.n
            for j in range(self.n):
                npsi[self.data.action[gi][j]] = psi[j]
                nvec[self.data.action[gi][j]] = vec[j]
            return npsi, nvec
        # alpha_{i1}*...*alpha_{ik}*psi kills v and all but the common point
        npsi = [ZERO] * self.n
        if len(support) == 1:
            i = support[0]
            sign = Scalar((-1) ** sum(A))
            npsi[self.data.action[gi][i]] = sign * psi[i]
        return npsi, [ZERO] * self.n


def build_group_dga(data: GroupDGAData) -> GroupDGA:
    return GroupDGA(data)


def _pair_is_zero(pair):
    return all(v.is_zero() for v in pair[0]) \
        and all(v.is_zero() for v in pair[1])


def check_group_dga(dga: GroupDGA, max_len=3, with_witnesses=False):
    """Consistency report for a built group DGA.

    Verifies d^2 = 0 and graded Leibniz on all products of at most
    max_len generators (alphas, group elements and form generators),
    the commutation rule [alpha_i, d alpha_j] = delta_ij d alpha_i as a
    rewrite consequence, the omega-tilde right-module property on
    generator pairs (including well-definedness of g.alpha_j), and
    surjectivity of omega on the group elements (warning only).
    """
    witnesses = {"d_squared": [], "leibniz": [], "alpha_form": [],
                 "omega_module": [], "omega_welldef": []}
    warnings = []

    gens0 = [("alpha", i) for i in range(dga.n)] \
        + [("group", g) for g in range(dga.size)]

    def build(label):
        kind, idx = label
        if kind == "alpha":
            return dga.alpha(idx)
        if kind == "group":
            return dga.group(idx)
        return dga.form(idx)

    def products(depth):
        if depth == 1:
            for lab in gens0:
                yield (lab,), build(lab)
            return
        for labs, elem in products(depth - 1):
            for lab in gens0:
                yield labs + (lab,), dga.mul(elem, build(lab))

    for depth in range(1, max_len + 1):
        for labs, elem in products(depth):
            if not dga.is_zero(dga.d(dga.d(elem))):
                witnesses["d_squared"].append(labs)

    # graded Leibniz on pairs of generators including forms
    gens = gens0 + [("form", f) for f in range(2 * dga.n)]
    for la in gens:
        for lb in gens:
            a, b = build(la), build(lb)
            grade_a = 1 if la[0] == "form" else 0
            lhs = dga.d(dga.mul(a, b))
            sign = Scalar(-1 if grade_a % 2 else 1)
            rhs = dga.add(dga.mul(dga.d(a), b),
                          dga.scale(dga.mul(a, dga.d(b)), sign))
            if not dga.is_zero(dga.sub(lhs, rhs)):
                witnesses["leibniz"].append((la, lb))

    # [alpha_i, d alpha_j] = delta_ij d alpha_j
    for i in range(dga.n):
        for j in range(dga.n):
            ai, yj = dga.alpha(i), dga.form(j)
            comm = dga.sub(dga.mul(ai, yj), dga.mul(yj, ai))
            expected = dga.form(j) if i == j else {}
            if not dga.is_zero(dga.sub(comm, expected)):
                witnesses["alpha_form"].append((i, j))

    # omega-tilde is a right module map on generator pairs:
    # omega(pi(u) v) = omega(pi(u)) <| v  for monomial generators u, v
    eps = dga.unit()
    for la in gens0:
        for lb in gens0:
            u, v = build(la), build(lb)
            # pi(u) = u - eps(u) 1; eps kills alphas and sends every
            # group element to 1
            eps_u = sum((c for (A, g, eta), c in u.items()
                         if not any(A) and not eta), ZERO)
            pu = dga.sub(u, dga.scale(eps, eps_u))
            lhs = dga.omega_tilde(dga.mul(pu, v))
            (vkey, vc), = v.items()
            base = dga.omega_tilde(pu)
            acted = dga.crossed_action(base, vkey)
            acted = ([c * vc for c in acted[0]], [c * vc for c in acted[1]])
            diff = ([x - y for x, y in zip(lhs[0], acted[0])],
                    [x - y for x, y in zip(lhs[1], acted[1])])
            # pi of the product also picks up omega(pi(v)) eps-terms:
            # pi(pu v) = pu v - eps(pu v); eps(pu) = 0 so eps(pu v) = 0
            if not _pair_is_zero(diff):
                witnesses["omega_module"].append((la, lb))

    # well-definedness: omega(g alpha_j) computed through the rewrite
    # g alpha_j = alpha_{g|>j} g must equal omega(alpha_j) = y_j
    for g in range(dga.size):
        for j in range(dga.n):
            prod = dga.mul(dga.group(g), dga.alpha(j))
            psi, vec = dga.omega_tilde(prod)
            # subtract the eps-part: omega(g alpha_j) includes the
            # group-only term from expanding alpha_{g|>j} g; project
            # first: pi(g alpha_j) = g alpha_j (eps = 0 already)
            expect = [ZERO] * dga.n
            expect[j] = ONE
            if psi != expect or any(not c.is_zero() for c in vec):
                witnesses["omega_welldef"].append((g, j))

    # surjectivity of omega on group elements.  The differences
    # g^{-1}|>theta - theta always lie in the sum-zero hyperplane of
    # kX, so the best possible rank for a point action is n - 1; warn
    # when the orbit of theta spans less than that.
    rows = [dga._theta_forms(g) for g in range(dga.size)]
    rank = dga.n - len(linear_kernel(rows))
    if rank < dga.n - 1:
        warnings.append(
            f"omega is not surjective: rank {rank} < {dga.n - 1}")

    ok = not any(witnesses.values())
    report = {"passed": ok, "warnings": warnings}
    if with_witnesses:
        report["witnesses"] = witnesses
    return report


def trivial_instance() -> GroupDGA:
    """Trivial group on one point with theta = x_1."""
    return build_group_dga(GroupDGAData(
        cayley=((0,),), action=((0,),), theta=(ONE,)))


def z2_instance() -> GroupDGA:
    """Z_2 swapping two points, theta = x_1."""
    return build_group_dga(GroupDGAData(
        cayley=((0, 1), (1, 0)),
        action=((0, 1), (1, 0)),
        theta=(ONE, ZERO),
    ))


def s3_instance() -> GroupDGA:
    """S_3 permuting three points, theta = x_1."""
    perms = [
        (0, 1, 2), (1, 2, 0), (2, 0, 1),
        (0, 2, 1), (2, 1, 0), (1, 0, 2),
    ]
    lookup = {p: i for i, p in enumerate(perms)}
    cayley = tuple(
        tuple(lookup[tuple(p[q[i]] for i in range(3))] for q in perms)
        for p in perms
    )
    return build_group_dga(GroupDGAData(
        cayley=cayley, action=tuple(perms), theta=(ONE, ZERO, ZERO)))
