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

On valid data graded Leibniz, [alpha_i, d alpha_j] = delta_ij d alpha_j
and the omega-tilde module identities follow from these rules (README,
"Group-DGA identities are theorems of the rewrite rules"), so
check_group_dga decides a DGA from d^2 = 0 alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, \
    product as iproduct
from math import comb

from .exact_core import ONE, Scalar, Verdict, ZERO, _sorted_forms, \
    accumulate, linear_kernel

__all__ = [
    "GroupDGAData",
    "GroupDGA",
    "check_group_dga",
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


def _generators(cayley, identity):
    """A generating set of the table, chosen greedily: the least element
    outside the left-normed products of the generators so far.  In a
    group those products form the subgroup they generate, which each new
    generator at least doubles, so there are at most log2(s) of them; a
    generator that does not double them shows the table is no group and
    raises ValueError."""
    reached = [False] * len(cayley)
    reached[identity] = True
    products = [identity]
    gens = []
    for g in range(len(cayley)):
        if reached[g]:
            continue
        gens.append(g)
        before = len(products)
        stack = [cayley[x][g] for x in products]
        while stack:
            y = stack.pop()
            if not reached[y]:
                reached[y] = True
                products.append(y)
                stack.extend(cayley[y][h] for h in gens)
        if len(products) < 2 * before:
            raise ValueError(
                f"cayley table is not a group: generator {g} takes the "
                f"products of the generators from {before} to "
                f"{len(products)} elements, less than double")
    return gens


def _validate(data: GroupDGAData):
    cayley = data.cayley
    size = len(cayley)
    if any(len(r) != size for r in cayley):
        raise ValueError("cayley table is not square")
    for g, row in enumerate(cayley):
        if row and not 0 <= min(row) <= max(row) < size:
            h, gh = next((h, gh) for h, gh in enumerate(row)
                         if not 0 <= gh < size)
            raise ValueError(f"cayley entry {gh} at {(g, h)} is not "
                             f"in 0..{size - 1}")
    if len(data.action) != size:
        raise ValueError("one permutation per group element required")
    n = len(data.theta)
    for p in data.action:
        if sorted(p) != list(range(n)):
            raise ValueError(f"{p} is not a permutation of the point set")
    # identity
    identity = None
    for e in range(size):
        if all(cayley[e][h] == h and cayley[h][e] == h
               for h in range(size)):
            identity = e
            break
    if identity is None:
        raise ValueError("no identity element")
    # associativity by Light's test, (a g) c = a (g c) for generators g
    # only: the elements g for which it holds for all a, c contain the
    # identity and are closed under products, as for two of them
    #   (a (g h)) c = ((a g) h) c = (a g) (h c) = a (g (h c)) = a ((g h) c),
    # so they are every element.  _generators passes at most log2(s)
    # generators, so this is O(s^2 log s)
    for b in _generators(cayley, identity):
        row_b = cayley[b]
        for a, row_a in enumerate(cayley):
            row_ab = cayley[row_a[b]]
            if row_ab != tuple(map(row_a.__getitem__, row_b)):
                c = next(c for c, bc in enumerate(row_b)
                         if row_ab[c] != row_a[bc])
                raise ValueError(
                    f"cayley table not associative at {(a, b, c)}")
    # inverses: in a monoid a right inverse is the two-sided one, if any
    inv = []
    for g, row in enumerate(cayley):
        h = row.index(identity) if identity in row else None
        if h is None or cayley[h][g] != identity:
            raise ValueError(f"element {g} has no inverse")
        inv.append(h)
    # the action is a homomorphism
    if data.action[identity] != tuple(range(n)):
        raise ValueError("identity must act trivially")
    for g, h in iproduct(range(size), repeat=2):
        if tuple(map(data.action[g].__getitem__, data.action[h])) \
                != data.action[cayley[g][h]]:
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
        # g^{-1}|>theta - theta for each g, as a grade-1 element
        # (x-generators): its x_k-coefficient is theta_{g|>k} - theta_k
        theta = data.theta
        self._theta_forms = tuple(
            tuple(theta[p[k]] - theta[k] for k in range(self.n))
            for p in data.action)

    # -- element helpers -------------------------------------------------
    def alpha(self, i):
        exps = [0] * self.n
        exps[i] = 1
        return {(tuple(exps), self.identity, ()): ONE}

    def group(self, g):
        return {((0,) * self.n, g, ()): ONE}

    def form(self, f):
        return {((0,) * self.n, self.identity, (f,)): ONE}

    def add(self, a, b):
        return accumulate(chain(a.items(), b.items()))

    def sub(self, a, b):
        return accumulate(chain(a.items(), ((k, -v) for k, v in b.items())))

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
        return accumulate(self._mul_pieces(a, b))

    def _mul_pieces(self, a, b):
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
                    yield key, coeff * s1 * s2

    # -- differential ----------------------------------------------------
    def d(self, a):
        """The super-derivation: d(alpha^A g . eta) = d(alpha^A g) . eta."""
        return accumulate(self._d_pieces(a))

    def _d_pieces(self, a):
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
            for k, t in enumerate(self._theta_forms[g]):
                if not t.is_zero():
                    pieces.append((A, self.n + k, t))
            for A2, f, coeff in pieces:
                wedge = _sorted_forms((f,) + eta)
                if wedge is None:
                    continue
                sign, forms = wedge
                yield (A2, g, forms), c * coeff * sign


def _monomials(dga, max_len):
    """(A, g) for each monomial alpha^A g with |A| + [g != e] <= max_len:
    exactly the monomials that products of 1 to max_len alphas and
    group elements reduce to, for max_len >= 1."""
    for g in range(dga.size):
        for total in range(max_len - (g != dga.identity) + 1):
            for picks in combinations_with_replacement(range(dga.n), total):
                yield tuple(map(picks.count, range(dga.n))), g


def _d_squared_size(dga, max_len):
    """(monomials, exponents) for the d^2 certificate at max_len,
    without running it: the number of monomials _monomials yields, and
    a bound on the alpha exponents that d^2 writes on them.  d(alpha^A g)
    has |A| alpha terms and one term per x_k in g^{-1}|>theta - theta,
    t_g of them, and neither count grows under a second d, so d^2 of
    the monomial expands at most (1 + |A| + t_g)^2 terms, counting the
    monomial itself, each keyed by n exponents."""
    monomials = terms = 0
    for g, forms in enumerate(dga._theta_forms):
        moved = sum(not t.is_zero() for t in forms)
        count = 1  # of the alpha^A with |A| = total: C(n + total - 1, total)
        for total in range(max_len - (g != dga.identity) + 1):
            monomials += count
            terms += count * (1 + total + moved) ** 2
            count = count * (dga.n + total) // (total + 1)
    return monomials, terms * dga.n


def check_group_dga(dga: GroupDGA, max_len=3):
    """Consistency report for a built group DGA: d^2 = 0 on every
    product of at most max_len alphas and group elements, and
    surjectivity of omega on the group elements (warning only).

    With no forms to move, such a product is always one monomial
    alpha^A g with coefficient 1, and d is linear, so d^2 is applied
    once to each distinct monomial (_monomials).  The identities that
    follow from the rewrite rules on every valid group DGA (module
    docstring) are not checked here; tests/test_group_dga.py keeps
    their generator-pair sweeps as an oracle.

    Returns {"passed": Verdict, "warnings": [str]}; the witnesses are
    ("d_squared", A, g), one per failing monomial.
    """
    witnesses = [("d_squared", A, g) for A, g in _monomials(dga, max_len)
                 if not dga.is_zero(dga.d(dga.d({(A, g, ()): ONE})))]

    # surjectivity of omega on group elements.  The differences
    # g^{-1}|>theta - theta always lie in the sum-zero hyperplane of
    # kX, so the best possible rank for a point action is n - 1; warn
    # when the orbit of theta spans less than that.
    warnings = []
    rank = dga.n - len(linear_kernel(dga._theta_forms))
    if rank < dga.n - 1:
        warnings.append(
            f"omega is not surjective: rank {rank} < {dga.n - 1}")

    return {"passed": Verdict(witnesses), "warnings": warnings}


def z2_instance() -> GroupDGA:
    """Z_2 swapping two points, theta = x_1."""
    return GroupDGA(GroupDGAData(
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
    return GroupDGA(GroupDGAData(
        cayley=cayley, action=tuple(perms), theta=(ONE, ZERO, ZERO)))
