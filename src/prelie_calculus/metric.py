"""Quantum metrics on the 2D calculi over U_lambda(b), [x,t] = x.

Functions are localized elements: finite sums of q x^a t^b with a
rational, b natural and q a polynomial in lambda (GenPoly).  Normal
order keeps all functions to the left of form generators; the exact
commutation rules are closed-form exponent shifts derived from the
generator relations, e.g. for the first family t x^a = x^a (t - lambda a).

Metrics are stored by their coefficients over the ordered tensor basis
{dx(x)dx, dx(x)dt, dt(x)dx, dt(x)dt}.  The classical-limit scalar
curvature is computed with exact rational-function arithmetic via
Christoffel symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .exact_core import (
    GenPoly,
    LambdaScalar,
    ONE,
    RatFunc,
    Scalar,
    ZERO,
    ratfunc_equal,
)

__all__ = [
    "MetricCandidate",
    "func_mul",
    "func_star",
    "form_past_func",
    "form_star",
    "normal_order_localized",
    "one_form_u_v",
    "metric_from_uv",
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


def _shifted_t_power(b: int, shift: Scalar) -> GenPoly:
    """(t + shift*lambda)^b expanded exactly."""
    out = {}
    s = ONE  # shift^k
    for k in range(b + 1):
        out[(Fraction(0), b - k)] = LambdaScalar(
            [ZERO] * k + [Scalar(comb(b, k)) * s])
        s = s * shift
    return GenPoly(out)


def func_mul(f: GenPoly, g: GenPoly) -> GenPoly:
    """Deformed product: x^a t^b x^c t^d = x^(a+c) (t - lambda c)^b t^d."""
    out = GenPoly({})
    for (a, b), q1 in f.terms.items():
        for (c, d), q2 in g.terms.items():
            shifted = _shifted_t_power(b, -Scalar(c))
            piece = GenPoly({(a + c, d): q1 * q2}) * shifted
            out = out + piece
    return out


def func_star(f: GenPoly) -> GenPoly:
    """Star on functions: (x^a t^b)* = t^b x^a = x^a (t - lambda a)^b,
    with coefficients conjugated (lambda* = -lambda, i* = -i)."""
    out = GenPoly({})
    for (a, b), q in f.terms.items():
        out = out + GenPoly({(a, 0): q.conj()}) \
            * _shifted_t_power(b, -Scalar(a))
    return out


def _monomial_rule(calculus, param, xi, a, b):
    """Closed form for d(xi) . x^a t^b as [(eta, GenPoly)] pieces."""
    a = Fraction(a)
    af = Scalar(a)
    xa = GenPoly.monomial(a, 0)
    xa1 = GenPoly.monomial(a - 1, 0)

    def tp(shift):
        return _shifted_t_power(b, shift)

    if calculus == "b1":
        alpha = Scalar(param)
        if xi == DX:
            return [(DX, xa * tp(ONE))]
        return [(DT, xa * tp(-alpha))]
    if calculus == "b2":
        beta = Scalar(param)
        if xi == DX:
            return [(DX, xa * tp(-(beta - ONE)))]
        pieces = [(DT, xa * tp(-beta))]
        corr = xa1.scale(_lam(-(beta * af))) * tp(-(beta - ONE))
        if not corr.is_zero():
            pieces.append((DX, corr))
        return pieces
    if calculus == "b4":
        if xi == DX:
            pieces = [(DX, xa * tp(ONE))]
            corr = xa1.scale(_lam(-af)) * tp(Scalar(2))
            if not corr.is_zero():
                pieces.append((DT, corr))
            return pieces
        return [(DT, xa * tp(Scalar(2)))]
    # b5
    if xi == DX:
        return [(DX, xa * GenPoly.monomial(0, b))]
    pieces = [(DT, xa * tp(-ONE))]
    corr = xa * (tp(-ONE) - GenPoly.monomial(0, b)) \
        + xa1.scale(_lam(-af)) * GenPoly.monomial(0, b)
    if not corr.is_zero():
        pieces.append((DX, corr))
    return pieces


def form_past_func(calculus, param, xi, f: GenPoly):
    """Normal order d(xi) . f as a map eta -> GenPoly coefficient."""
    _require_calculus(calculus)
    out = {DX: GenPoly({}), DT: GenPoly({})}
    for (a, b), q in f.terms.items():
        for eta, piece in _monomial_rule(calculus, param, xi, a, b):
            out[eta] = out[eta] + piece.scale(q)
    return out


def _wedge_append(word, xi):
    """Append d(xi) on the right of a sorted Grassmann word; returns
    (sorted word, sign) or (None, 0) on a repeated generator."""
    if xi in word:
        return None, 0
    k = sum(1 for e in word if e > xi)
    return tuple(sorted(word + (xi,))), (-1) ** k


def _push_func_left(calculus, param, word, f):
    """Normal order (forms in word) . f as [(word', GenPoly)]."""
    if not word:
        return [((), f)]
    out = []
    moved = form_past_func(calculus, param, word[-1], f)
    for eta in (DX, DT):
        if moved[eta].is_zero():
            continue
        for w2, f2 in _push_func_left(calculus, param, word[:-1],
                                      moved[eta]):
            w3, sign = _wedge_append(w2, eta)
            if w3 is None:
                continue
            out.append((w3, f2 if sign == 1 else -f2))
    return out


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
        new = {}
        if isinstance(f, str):
            if f not in ("dx", "dt"):
                raise ValueError(f"unknown form symbol {f!r}")
            xi = DX if f == "dx" else DT
            for word, coeff in state.items():
                w2, sign = _wedge_append(word, xi)
                if w2 is None:
                    continue
                new[w2] = new.get(w2, GenPoly({})) \
                    + (coeff if sign == 1 else -coeff)
        else:
            for word, coeff in state.items():
                for w2, f2 in _push_func_left(calculus, param, word, f):
                    new[w2] = new.get(w2, GenPoly({})) \
                        + func_mul(coeff, f2)
        state = new
    return {w: c for w, c in state.items() if not c.is_zero()}


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


@dataclass(frozen=True)
class MetricCandidate:
    """Quantum metric candidate on one of the supported calculi.

    coefficients[xi][eta] is the function in front of d(xi) (x) d(eta),
    normal-ordered to the far left.
    """

    calculus: str
    param: object
    coefficients: tuple

    def __post_init__(self):
        _require_calculus(self.calculus)
        rows = tuple(tuple(row) for row in self.coefficients)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("coefficients must be a 2x2 matrix")
        object.__setattr__(self, "coefficients", rows)


def _tensor_term(calculus, param, f1, xi, f2, eta, acc):
    """Accumulate (f1 d(xi)) (x) (f2 d(eta)) into the coefficient map."""
    moved = form_past_func(calculus, param, xi, f2)
    for zeta in (DX, DT):
        piece = func_mul(f1, moved[zeta])
        if not piece.is_zero():
            acc[(zeta, eta)] = acc.get((zeta, eta), GenPoly({})) + piece


def _tensor(calculus, param, w1, w2, acc, scale=None):
    for xi in (DX, DT):
        if w1[xi].is_zero():
            continue
        for eta in (DX, DT):
            f2 = w2[eta] if scale is None else w2[eta].scale(scale)
            if f2.is_zero():
                continue
            _tensor_term(calculus, param, w1[xi], xi, f2, eta, acc)


def metric_from_uv(calculus, param, c1, c2, c3) -> MetricCandidate:
    """Expand a metric given in its u,v-presentation:

      first family: c1 u(x)u + c2(u(x)v + v(x)u) + c3 v(x)v
      others:       c1 u(x)u + c2(u(x)v + v*(x)u)
                    + c3(v*(x)v + k lambda (u(x)v - v*(x)u))

    with k = beta for the second family and 1 for the fourth and fifth.
    """
    _require_calculus(calculus)
    c1, c2, c3 = (Scalar(Fraction(c)) if not isinstance(c, Scalar) else c
                  for c in (c1, c2, c3))
    u, v = one_form_u_v(calculus, param)
    acc = {}
    if calculus == "b1":
        _tensor(calculus, param, _scale_form(u, c1), u, acc)
        _tensor(calculus, param, _scale_form(u, c2), v, acc)
        _tensor(calculus, param, _scale_form(v, c2), u, acc)
        _tensor(calculus, param, _scale_form(v, c3), v, acc)
    else:
        k = Scalar(Fraction(param)) if calculus == "b2" else ONE
        vs = form_star(calculus, param, v)
        _tensor(calculus, param, _scale_form(u, c1), u, acc)
        _tensor(calculus, param, _scale_form(u, c2), v, acc)
        _tensor(calculus, param, _scale_form(vs, c2), u, acc)
        _tensor(calculus, param, _scale_form(vs, c3), v, acc)
        lam_k = _lam(k)
        _tensor(calculus, param, _scale_form(u, c3), v, acc, scale=lam_k)
        _tensor(calculus, param, _scale_form(vs, c3), u, acc,
                scale=-lam_k)
    rows = [[acc.get((xi, eta), GenPoly({})) for eta in (DX, DT)]
            for xi in (DX, DT)]
    return MetricCandidate(calculus, param, tuple(map(tuple, rows)))


def _scale_form(w, s):
    return {xi: w[xi].scale(s) for xi in (DX, DT)}


def standard_metric(case: int, alpha=None, beta=None,
                    c1=1, c2=0, c3=1) -> MetricCandidate:
    """Standard-form quantum metric for each case of the classification
    (for cases 2, 4 and 5 the cross coefficient c2 can be absorbed into
    a shift of t, so the defaults take c2 = 0)."""
    if case == 1:
        if alpha is None:
            raise ValueError("case 1 requires alpha")
        return metric_from_uv("b1", Fraction(alpha), c1, c2, c3)
    if case == 2:
        if beta is None:
            raise ValueError("case 2 requires beta")
        if Fraction(beta) == 0:
            raise ValueError("case 2 requires beta != 0")
        return metric_from_uv("b2", Fraction(beta), c1, c2, c3)
    if case == 3:
        _require_calculus("b3")
    if case == 4:
        return metric_from_uv("b4", None, c1, c2, c3)
    if case == 5:
        return metric_from_uv("b5", None, c1, c2, c3)
    raise ValueError(f"unknown metric case {case}")


def _metric_times_func(M: MetricCandidate, h: GenPoly):
    """g . h with h moved into normal order through both tensor legs."""
    acc = {}
    for xi in (DX, DT):
        for eta in (DX, DT):
            f = M.coefficients[xi][eta]
            if f.is_zero():
                continue
            step1 = form_past_func(M.calculus, M.param, eta, h)
            for kappa in (DX, DT):
                if step1[kappa].is_zero():
                    continue
                step2 = form_past_func(M.calculus, M.param, xi,
                                       step1[kappa])
                for zeta in (DX, DT):
                    piece = func_mul(f, step2[zeta])
                    if not piece.is_zero():
                        acc[(zeta, kappa)] = acc.get(
                            (zeta, kappa), GenPoly({})) + piece
    return acc


def check_metric(M: MetricCandidate, with_witnesses=False):
    """Report {central, wedge_symmetric, real, nondegenerate}."""
    calculus, param = M.calculus, M.param
    witnesses = {"central": [], "wedge_symmetric": [], "real": []}

    # centrality against the generators x and t
    for name, h in (("x", GenPoly.monomial(1, 0)),
                    ("t", GenPoly.monomial(0, 1))):
        right = _metric_times_func(M, h)
        for xi in (DX, DT):
            for eta in (DX, DT):
                left = func_mul(h, M.coefficients[xi][eta])
                if left != right.get((xi, eta), GenPoly({})):
                    witnesses["central"].append((name, xi, eta))

    # wedge: coefficient of dx /\ dt must cancel, diagonals wedge to 0
    wedge = M.coefficients[DX][DT] - M.coefficients[DT][DX]
    if not wedge.is_zero():
        witnesses["wedge_symmetric"].append("dx^dt")

    # reality: flip(*(x)*) g = g
    flipped = {}
    for xi in (DX, DT):
        for eta in (DX, DT):
            f = M.coefficients[xi][eta]
            if f.is_zero():
                continue
            # (f dxi (x) deta)* -> deta (x) dxi . f*
            starred = form_past_func(calculus, param, xi, func_star(f))
            for zeta in (DX, DT):
                if starred[zeta].is_zero():
                    continue
                moved = form_past_func(calculus, param, eta,
                                       starred[zeta])
                for kappa in (DX, DT):
                    piece = moved[kappa]
                    if not piece.is_zero():
                        flipped[(kappa, zeta)] = flipped.get(
                            (kappa, zeta), GenPoly({})) + piece
    for xi in (DX, DT):
        for eta in (DX, DT):
            if flipped.get((xi, eta), GenPoly({})) \
                    != M.coefficients[xi][eta]:
                witnesses["real"].append((xi, eta))

    det = func_mul(M.coefficients[DX][DX], M.coefficients[DT][DT]) \
        - func_mul(M.coefficients[DX][DT], M.coefficients[DT][DX])
    report = {
        "central": not witnesses["central"],
        "wedge_symmetric": not witnesses["wedge_symmetric"],
        "real": not witnesses["real"],
        "nondegenerate": not det.is_zero(),
    }
    if with_witnesses:
        report["witnesses"] = witnesses
    return report


def _classical(f: GenPoly) -> RatFunc:
    return RatFunc(f.eval_lambda(ZERO))


def scalar_curvature_classical(M: MetricCandidate) -> RatFunc:
    """Scalar curvature of the lambda = 0 limit of the metric, via
    Christoffel symbols in the coordinates (x, t)."""
    E = _classical(M.coefficients[DX][DX])
    F = _classical(M.coefficients[DX][DT])
    F2 = _classical(M.coefficients[DT][DX])
    G = _classical(M.coefficients[DT][DT])
    if not ratfunc_equal(F, F2):
        raise ValueError("classical limit is not symmetric")
    g = [[E, F], [F, G]]
    det = E * G - F * F
    if det.is_zero():
        raise ValueError("degenerate classical metric")
    ginv = [[G / det, -(F / det)], [-(F / det), E / det]]
    coords = ("x", "t")

    def d(f, i):
        return f.derivative(coords[i])

    half = RatFunc.const(Fraction(1, 2))
    n = 2
    gamma = [[[RatFunc.const(0) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                s = RatFunc.const(0)
                for l in range(n):
                    s = s + ginv[k][l] * (
                        d(g[j][l], i) + d(g[i][l], j) - d(g[i][j], l))
                gamma[k][i][j] = half * s

    def ricci(i, j):
        r = RatFunc.const(0)
        for k in range(n):
            r = r + d(gamma[k][i][j], k) - d(gamma[k][i][k], j)
            for l in range(n):
                r = r + gamma[k][k][l] * gamma[l][i][j] \
                    - gamma[k][j][l] * gamma[l][i][k]
        return r

    R = RatFunc.const(0)
    for i in range(n):
        for j in range(n):
            R = R + ginv[i][j] * ricci(i, j)
    return R


def _closed_form_curvature(M: MetricCandidate):
    """The classified closed-form scalar curvature, when the candidate
    is in standard form (c2 folded away for the non-first families)."""
    if M.calculus == "b1":
        alpha = Fraction(M.param)
        # read c1, c2, c3 back off the coefficient matrix
        c1 = M.coefficients[0][0].terms.get((Fraction(-2), 0))
        c2 = M.coefficients[0][1].terms.get((alpha - 1, 0))
        c3 = M.coefficients[1][1].terms.get((2 * alpha, 0))
        c1 = c1.coeff(0) if c1 else Scalar(0)
        c2 = c2.coeff(0) if c2 else Scalar(0)
        c3 = c3.coeff(0) if c3 else Scalar(0)
        det = c1 * c3 - c2 * c2
        if det.is_zero():
            return None
        val = Scalar(-2) * Scalar(alpha) * Scalar(alpha) * c3 / det
        return RatFunc(GenPoly({(Fraction(0), 0): val}))
    if M.calculus == "b2":
        beta = Fraction(M.param)
        c1 = M.coefficients[1][1].terms.get((2 * beta, 0))
        if c1 is None:
            return None
        # G = c3 x^(2 beta); then R = -4 beta^2 / (c1 x^(2 beta)) with
        # c1 the constant part of E x^(2-2beta) minus c3 beta^2 t^2 term
        e0 = M.coefficients[0][0].terms.get((2 * beta - 2, 0))
        c3 = M.coefficients[1][1].terms.get((2 * beta, 0)).coeff(0)
        if e0 is None:
            return None
        c1 = e0.coeff(0)
        num = GenPoly({(-2 * beta, 0):
                       Scalar(-4) * Scalar(beta) * Scalar(beta)})
        return RatFunc(num, GenPoly({(Fraction(0), 0): c1})) \
            if not c1.is_zero() and not c3.is_zero() else None
    if M.calculus == "b4":
        c3 = M.coefficients[0][0].terms.get((Fraction(-2), 0))
        t2 = M.coefficients[1][1].terms.get((Fraction(-4), 2))
        base = M.coefficients[1][1].terms.get((Fraction(-4), 0))
        if c3 is None or t2 is None or base is None:
            return None
        c3 = c3.coeff(0)
        # the lambda-free part of x^4 G is c1 at t-degree 0
        c1 = base.coeff(0)
        if c1.is_zero() or c3.is_zero():
            return None
        num = GenPoly({(Fraction(2), 0): Scalar(4) / c1,
                       (Fraction(0), 2): Scalar(-8) / c1,
                       (Fraction(0), 0): Scalar(-8) / c3})
        return RatFunc(num)
    if M.calculus == "b5":
        c3 = M.coefficients[1][1].terms.get((Fraction(2), 0))
        base = M.coefficients[0][0].terms.get((Fraction(0), 0))
        if c3 is None or base is None:
            return None
        c1 = base.coeff(0)
        if c1.is_zero():
            return None
        return RatFunc(GenPoly({(Fraction(0), 0): Scalar(-4)}),
                       GenPoly({(Fraction(2), 0): c1}))
    return None


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
