"""Quantum metrics on the 2D calculi over U_lambda(b), [x,t] = x.

Functions are localized elements: finite sums of q x^a t^b with a
rational, b natural and q a polynomial in lambda (GenPoly).  Normal
order keeps all functions to the left of form generators.  Functions
commute by t x^a = x^a (t - lambda a); the form rules are read off the
family's Xi by the rule dga uses, [e_i, de_j] = lambda d(e_i o e_j), i.e.
d(xi) . e_i = e_i . d(xi) - lambda Xi[i, xi, eta] d(eta).

A metric is its u,v presentation: scalars c1, c2, c3 over the family's
central 1-forms u and v.  Its coefficients over the ordered tensor basis
{dx(x)dx, dx(x)dt, dt(x)dx, dt(x)dt} are expanded once, at construction.
Centrality follows from u and v commuting with x and t, four
commutators per family.  The classical-limit scalar curvature is
computed exactly by Brioschi's formula, over the single denominator
(EG - F^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb

from .catalog import b_family
from .exact_core import (
    GenPoly,
    LambdaScalar,
    L_ONE,
    ONE,
    RatFunc,
    Scalar,
    Verdict,
    ZERO,
    _sorted_forms,
    accumulate,
    genpoly_derivative,
)

__all__ = [
    "MetricCandidate",
    "func_mul",
    "func_star",
    "form_past_func",
    "form_star",
    "normal_order_localized",
    "one_form_u_v",
    "standard_metric",
    "check_metric",
    "scalar_curvature_classical",
]

DX, DT = 0, 1

_SUPPORTED = ("b1", "b2", "b4", "b5")


def _require_calculus(calculus):
    if calculus == "b3":
        raise ValueError(
            "the third family needs ln(x) functions and reduces to the "
            "first family with exponent -1 after t -> t + x ln x; "
            "use b1 with alpha = -1 instead"
        )
    if calculus not in _SUPPORTED:
        raise ValueError(f"unsupported calculus {calculus!r}")


def _lam(c: Scalar) -> LambdaScalar:
    """The LambdaScalar c*lambda."""
    return LambdaScalar((ZERO, c))


@lru_cache(maxsize=256)
def _shifted_t_power(b: int, shift: Scalar) -> GenPoly:
    """(t + shift*lambda)^b expanded exactly.  Products and stars ask for
    few distinct (b, shift) many times over; the cache is bounded, as
    shifts take every height of the metrics checked."""
    out = {}
    s = ONE  # shift^k
    for k in range(b + 1):
        out[(Fraction(0), b - k)] = LambdaScalar(
            [ZERO] * k + [Scalar(comb(b, k)) * s])
        s = s * shift
    return GenPoly(out)


def func_mul(f: GenPoly, g: GenPoly) -> GenPoly:
    """Deformed product: x^a t^b x^c t^d = x^(a+c) (t - lambda c)^b t^d."""
    return GenPoly._nonzero(accumulate(
        ((a + c, d + j), q1 * q2 * s)
        for (a, b), q1 in f.terms.items()
        for (c, d), q2 in g.terms.items()
        for (_, j), s in _shifted_t_power(b, -Scalar(c)).terms.items()))


def func_star(f: GenPoly) -> GenPoly:
    """Star on functions: (x^a t^b)* = t^b x^a = x^a (t - lambda a)^b,
    with coefficients conjugated (lambda* = -lambda, i* = -i)."""
    return GenPoly._nonzero(accumulate(
        ((a, j), q.conj() * s)
        for (a, b), q in f.terms.items()
        for (_, j), s in _shifted_t_power(b, -Scalar(a)).terms.items()))


@lru_cache(maxsize=64)
def _commutation(calculus, param):
    """The rows N[xi] and T[xi] of d(xi) . x = x d(xi) + N[xi][eta] d(eta)
    and d(xi) . t = t d(xi) + T[xi][eta] d(eta), as nonzero (eta, entry)
    pairs: N[xi][eta] = -lambda Xi[x, xi, eta] and T[xi][eta] = -lambda
    Xi[t, xi, eta] (generator x has index DX and t index DT)."""
    table = b_family(calculus, param).xi

    def rows(gen):
        return tuple(tuple((eta, _lam(-table.get(gen, form, eta)))
                           for eta in (DX, DT)
                           if not table.get(gen, form, eta).is_zero())
                     for form in (DX, DT))

    return rows(DX), rows(DT)


def _monomial_rule(calculus, param, xi, a, b):
    """d(xi) . x^a t^b in normal order, as {(eta, (a', j)): coefficient}.

    Past x^a in one step, d(xi) . x^a = x^a d(xi) + a x^(a-1) N[xi][eta]
    d(eta), exact because N^2 = 0 in every supported calculus; then past
    t one factor at a time."""
    N, T = _commutation(calculus, param)
    a = Fraction(a)
    state = {(xi, (a, 0)): L_ONE}
    if a:
        state.update(((eta, (a - 1, 0)), c * Scalar(a)) for eta, c in N[xi])
    for _ in range(b):
        state = accumulate(chain(
            (((eta, (e, j + 1)), c) for (eta, (e, j)), c in state.items()),
            (((zeta, (e, j)), c * s)
             for (eta, (e, j)), c in state.items() for zeta, s in T[eta])))
    return state


def form_past_func(calculus, param, xi, f: GenPoly):
    """Normal order d(xi) . f as a map eta -> GenPoly coefficient."""
    _require_calculus(calculus)
    moved = accumulate(
        (piece, q * c) for (a, b), q in f.terms.items()
        for piece, c in _monomial_rule(calculus, param, xi, a, b).items())
    out = {DX: {}, DT: {}}
    for (eta, key), c in moved.items():
        out[eta][key] = c
    return {eta: GenPoly._nonzero(terms) for eta, terms in out.items()}


def _past(calculus, param, legs, f):
    """Normal order d(legs[0]) ... d(legs[-1]) . f as {legs': GenPoly},
    moving f left through the last leg first; legs' are not sorted."""
    state = {(): f}
    for xi in reversed(legs):
        state = accumulate(
            ((eta,) + tail, g)
            for tail, h in state.items()
            for eta, g in form_past_func(calculus, param, xi, h).items())
    return state


def normal_order_localized(factors, calculus, param=None):
    """Multiply a left-to-right sequence of factors into normal order.

    Each factor is either a function (GenPoly) or one of the form
    symbols "dx"/"dt".  The result maps sorted Grassmann words (tuples
    over {DX, DT}) to their function coefficient, with all functions
    moved to the far left.  Idempotent on already-ordered input.
    """
    _require_calculus(calculus)
    state = {(): GenPoly.const(1)}
    for f in factors:
        if isinstance(f, str):
            if f not in ("dx", "dt"):
                raise ValueError(f"unknown form symbol {f!r}")
            xi = DX if f == "dx" else DT
            pieces = ((word + (xi,), coeff) for word, coeff in state.items())
        else:
            pieces = ((legs, func_mul(coeff, g))
                      for word, coeff in state.items()
                      for legs, g in _past(calculus, param, word, f).items())
        state = accumulate(
            (sf[1], coeff if sf[0] == ONE else -coeff)
            for legs, coeff in pieces
            if (sf := _sorted_forms(legs)) is not None)
    return state


def form_star(calculus, param, comps):
    """Star of a 1-form sum f_xi d(xi): result is d(xi) . f_xi*
    re-normal-ordered."""
    out = {DX: GenPoly({}), DT: GenPoly({})}
    for xi in (DX, DT):
        moved = form_past_func(calculus, param, xi, func_star(comps[xi]))
        for eta in (DX, DT):
            out[eta] = out[eta] + moved[eta]
    return out


def one_form_u_v(calculus, param):
    """The central 1-forms (u, v) of the metric analysis, as component
    maps {DX: f, DT: f}."""
    _require_calculus(calculus)
    zero = GenPoly({})
    if calculus == "b1":
        u = {DX: GenPoly.monomial(-1, 0), DT: zero}
        v = {DX: zero, DT: GenPoly.monomial(Fraction(param), 0)}
    elif calculus == "b2":
        beta = Fraction(param)
        u = {DX: GenPoly.monomial(beta - 1, 0), DT: zero}
        v = {DX: GenPoly.monomial(beta - 1, 1).scale(Scalar(-beta)),
             DT: GenPoly.monomial(beta, 0)}
    elif calculus == "b4":
        u = {DX: zero, DT: GenPoly.monomial(-2, 0)}
        v = {DX: GenPoly.monomial(-1, 0),
             DT: GenPoly.monomial(-2, 1).scale(Scalar(-1))}
    else:  # b5
        u = {DX: GenPoly.const(1), DT: zero}
        v = {DX: GenPoly.monomial(1, 0) - GenPoly.monomial(0, 1),
             DT: GenPoly.monomial(1, 0)}
    return u, v


def _tensor(calculus, param, w1, w2, scale=None):
    """Yield ((zeta, eta), function) pieces of w1 (x) w2 in normal order:
    (f1 d(xi)) (x) (f2 d(eta)) = f1 (d(xi) . f2) (x) d(eta)."""
    for xi in (DX, DT):
        if w1[xi].is_zero():
            continue
        for eta in (DX, DT):
            f2 = w2[eta] if scale is None else w2[eta].scale(scale)
            if f2.is_zero():
                continue
            moved = form_past_func(calculus, param, xi, f2)
            for zeta in (DX, DT):
                yield (zeta, eta), func_mul(w1[xi], moved[zeta])


def _scale_form(w, s):
    return {xi: w[xi].scale(s) for xi in (DX, DT)}


@dataclass(frozen=True)
class MetricCandidate:
    """Quantum metric candidate on one of the supported calculi, in its
    u,v presentation:

      first family: c1 u(x)u + c2(u(x)v + v(x)u) + c3 v(x)v
      others:       c1 u(x)u + c2(u(x)v + v*(x)u)
                    + c3(v*(x)v + k lambda (u(x)v - v*(x)u))

    with k = beta for the second family and 1 for the fourth and fifth.
    coefficients[xi][eta], expanded at construction, is the function in
    front of d(xi) (x) d(eta), normal-ordered to the far left.
    """

    calculus: str
    param: object
    c1: Scalar
    c2: Scalar
    c3: Scalar
    coefficients: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_calculus(self.calculus)
        for name in ("c1", "c2", "c3"):
            c = getattr(self, name)
            if not isinstance(c, Scalar):
                object.__setattr__(self, name, Scalar(Fraction(c)))
        calculus, param = self.calculus, self.param
        c1, c2, c3 = self.c1, self.c2, self.c3
        u, v = one_form_u_v(calculus, param)
        if calculus == "b1":
            acc = accumulate(chain(
                _tensor(calculus, param, _scale_form(u, c1), u),
                _tensor(calculus, param, _scale_form(u, c2), v),
                _tensor(calculus, param, _scale_form(v, c2), u),
                _tensor(calculus, param, _scale_form(v, c3), v)))
        else:
            k = Scalar(Fraction(param)) if calculus == "b2" else ONE
            vs = form_star(calculus, param, v)
            lam_k = _lam(k)
            acc = accumulate(chain(
                _tensor(calculus, param, _scale_form(u, c1), u),
                _tensor(calculus, param, _scale_form(u, c2), v),
                _tensor(calculus, param, _scale_form(vs, c2), u),
                _tensor(calculus, param, _scale_form(vs, c3), v),
                _tensor(calculus, param, _scale_form(u, c3), v, scale=lam_k),
                _tensor(calculus, param, _scale_form(vs, c3), u,
                        scale=-lam_k)))
        object.__setattr__(self, "coefficients", tuple(
            tuple(acc.get((xi, eta), GenPoly({})) for eta in (DX, DT))
            for xi in (DX, DT)))


def standard_metric(case: int, alpha=None, beta=None,
                    c1=1, c2=0, c3=1) -> MetricCandidate:
    """Standard-form quantum metric for each case of the classification
    (for cases 2, 4 and 5 the cross coefficient c2 can be absorbed into
    a shift of t, so the defaults take c2 = 0)."""
    if case == 1:
        if alpha is None:
            raise ValueError("case 1 requires alpha")
        return MetricCandidate("b1", Fraction(alpha), c1, c2, c3)
    if case == 2:
        if beta is None:
            raise ValueError("case 2 requires beta")
        if Fraction(beta) == 0:
            raise ValueError("case 2 requires beta != 0")
        return MetricCandidate("b2", Fraction(beta), c1, c2, c3)
    if case == 3:
        _require_calculus("b3")
    if case == 4:
        return MetricCandidate("b4", None, c1, c2, c3)
    if case == 5:
        return MetricCandidate("b5", None, c1, c2, c3)
    raise ValueError(f"unknown metric case {case}")


def _entries(M: MetricCandidate):
    """(xi, eta, f) for each nonzero coefficient f of d(xi) (x) d(eta)."""
    return [(xi, eta, f) for xi, row in zip((DX, DT), M.coefficients)
            for eta, f in zip((DX, DT), row) if not f.is_zero()]


def check_metric(M: MetricCandidate):
    """Report {central, wedge_symmetric, real, nondegenerate}, each a
    Verdict: the failing (generator, form) for central, "dx^dt" for
    wedge_symmetric, the failing (xi, eta) for real and "det" for
    nondegenerate."""
    calculus, param = M.calculus, M.param
    witnesses = {"central": [], "wedge_symmetric": [], "real": [],
                 "nondegenerate": []}

    # centrality: g is a sum of central scalars times w (x) w' with w,
    # w' in {u, v, v*}, and v* is central when v is (x* = x, t* = t), so
    # g is central when u and v commute with x and t (README, "Centrality
    # is a theorem of the u,v presentation")
    u, v = one_form_u_v(calculus, param)
    for name, h in (("x", GenPoly.monomial(1, 0)),
                    ("t", GenPoly.monomial(0, 1))):
        moved = [form_past_func(calculus, param, xi, h) for xi in (DX, DT)]
        for form, w in (("u", u), ("v", v)):
            if any(func_mul(h, w[eta]) != func_mul(w[DX], moved[DX][eta])
                   + func_mul(w[DT], moved[DT][eta]) for eta in (DX, DT)):
                witnesses["central"].append((name, form))

    # wedge: coefficient of dx /\ dt must cancel, diagonals wedge to 0
    wedge = M.coefficients[DX][DT] - M.coefficients[DT][DX]
    if not wedge.is_zero():
        witnesses["wedge_symmetric"].append("dx^dt")

    # reality: flip(*(x)*) g = g, as (f dxi (x) deta)* = deta (x) dxi . f*
    flipped = accumulate(
        pair for xi, eta, f in _entries(M)
        for pair in _past(calculus, param, (eta, xi), func_star(f)).items())
    for xi in (DX, DT):
        for eta in (DX, DT):
            if flipped.get((xi, eta), GenPoly({})) \
                    != M.coefficients[xi][eta]:
                witnesses["real"].append((xi, eta))

    det = func_mul(M.coefficients[DX][DX], M.coefficients[DT][DT]) \
        - func_mul(M.coefficients[DX][DT], M.coefficients[DT][DX])
    if det.is_zero():
        witnesses["nondegenerate"].append("det")
    return {name: Verdict(w) for name, w in witnesses.items()}


def scalar_curvature_classical(M: MetricCandidate) -> RatFunc:
    """Scalar curvature R = 2K of the lambda = 0 limit of the metric,
    E dx^2 + 2F dx dt + G dt^2, with the Gaussian curvature K from
    Brioschi's formula K = (det A - det B) / (EG - F^2)^2.  Everything
    but the final quotient is GenPoly arithmetic, so the result has the
    one denominator (EG - F^2)^2."""
    (E, F), (F2, G) = [[f.eval_lambda(ZERO) for f in row]
                       for row in M.coefficients]
    if F != F2:
        raise ValueError("classical limit is not symmetric")
    det = E * G - F * F
    if det.is_zero():
        raise ValueError("degenerate classical metric")

    def dx(f):
        return genpoly_derivative(f, "x")

    def dt(f):
        return genpoly_derivative(f, "t")

    Ex, Et, Fx, Ft, Gx, Gt = dx(E), dt(E), dx(F), dt(F), dx(G), dt(G)
    u = Ft + Ft - Gx
    w = Fx + Fx - Et
    # Brioschi's determinants with the halves cleared, in terms of
    # u = 2 F_t - G_x, w = 2 F_x - E_t and a = 2 A_11 = 2 F_xt - E_tt - G_xx:
    #   4 det A = 2a det - E_x (u G - F G_t) + w (u F - E G_t),
    #   4 det B = -(E_t^2 G - 2 E_t F G_x + E G_x^2),
    # and R = 2K = (4 det A - 4 det B) / (2 det^2)
    a = dt(Fx + Fx) - dt(Et) - dx(Gx)
    four = (a + a) * det - Ex * (u * G - F * Gt) \
        + w * (u * F - E * Gt) \
        + Et * (Et * G - (F + F) * Gx) + E * Gx * Gx
    return RatFunc(four.scale(Scalar(Fraction(1, 2))), det * det)


def _closed_form_curvature(M: MetricCandidate):
    """The classified closed-form scalar curvature of the candidate's
    family at its c1, c2, c3; None where the c-matrix is degenerate or,
    outside the first family, c3 = 0."""
    c1, c2, c3 = M.c1, M.c2, M.c3
    if M.calculus == "b1":
        alpha = Fraction(M.param)
        det = c1 * c3 - c2 * c2
        if det.is_zero():
            return None
        val = Scalar(-2) * Scalar(alpha) * Scalar(alpha) * c3 / det
        return RatFunc(GenPoly({(Fraction(0), 0): val}))
    if c3.is_zero():
        return None
    # the classical limit is c3 v' (x) v' + c1' u (x) u with v' = v +
    # (c2/c3) u and c1' = (c1 c3 - c2^2) / c3: the c2 = 0 metric with
    # t shifted (by c2/c3 in cases 4 and 5, by c2/(beta c3) in case 2),
    # so the closed forms hold with c1' and, in case 4, the only one
    # whose R depends on t, with t - c2/c3
    c1 = (c1 * c3 - c2 * c2) / c3
    if c1.is_zero():
        return None
    if M.calculus == "b2":
        beta = Fraction(M.param)
        # R = -4 beta^2 / (c1' x^(2 beta))
        return RatFunc(GenPoly({(-2 * beta, 0):
                                Scalar(-4) * Scalar(beta) * Scalar(beta)}),
                       GenPoly({(Fraction(0), 0): c1}))
    if M.calculus == "b4":
        # R = 4 x^2 / c1' - 8 (t - s)^2 / c1' - 8 / c3, s = c2 / c3
        s = c2 / c3
        return RatFunc(GenPoly({
            (Fraction(2), 0): Scalar(4) / c1,
            (Fraction(0), 2): Scalar(-8) / c1,
            (Fraction(0), 1): Scalar(16) * s / c1,
            (Fraction(0), 0): Scalar(-8) * s * s / c1 - Scalar(8) / c3}))
    # R = -4 / (c1' x^2)
    return RatFunc(GenPoly({(Fraction(0), 0): Scalar(-4)}),
                   GenPoly({(Fraction(2), 0): c1}))


def _tidy_ratfunc(R: RatFunc) -> RatFunc:
    """Cancel common monomial factors and rescale so a single-term
    denominator is monic (display only; equality is unaffected)."""
    keys = list(R.num.terms) + list(R.den.terms)
    if not R.num.terms:
        return RatFunc(GenPoly({}), GenPoly.const(1))
    mx = min(a for a, _ in keys)
    mt = min(b for _, b in keys)
    shift = GenPoly.monomial(-mx, 0)
    num = R.num * shift
    den = R.den * shift
    if mt:
        num = GenPoly({(a, b - mt): q for (a, b), q in num.terms.items()})
        den = GenPoly({(a, b - mt): q for (a, b), q in den.terms.items()})
    if len(den.terms) == 1:
        ((_, _), q), = den.terms.items()
        if len(q.coeffs) == 1:
            inv = ONE / q.coeffs[0]
            num = num.scale(inv)
            den = den.scale(inv)
    return RatFunc(num, den)
