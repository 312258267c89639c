"""Noncommutative differential calculus on the deformed enveloping
algebra U_lambda(m).

U_lambda(m) carries the relations x y - y x = lambda [x,y]; elements are
kept in PBW normal form (weakly increasing words in the fixed basis
order).  The first-order calculus is generated by dx_i with the
commutation rule

    de_j . e_i = e_i . de_j - lambda sum_k Xi[i,j,k] de_k

coming from [x, dy] = lambda d(x o y), and extends to a differential
graded algebra with the classical Grassmann wedge on the de_i.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from fractions import Fraction

from .exact_core import (
    LAMBDA,
    L_ONE,
    Scalar,
    TermMap,
    ZERO,
    _sorted_forms,
    accumulate,
    linear_kernel,
)
from .liebialg import LieAlgebra, basis_vec
from .prelie import PreLieProduct

__all__ = [
    "NCElement",
    "FormElement",
    "normal_form",
    "nc_mul",
    "omega_word",
    "differential_d",
    "form_mul",
    "exterior_d",
    "check_first_order",
    "kernel_of_d",
]


def _check_pbw(word):
    word = tuple(word)
    if any(word[i] > word[i + 1] for i in range(len(word) - 1)):
        raise ValueError(f"word {word} is not in PBW order")
    return word


class NCElement(TermMap):
    """Element of U_lambda(m): map from PBW words to LambdaScalar."""

    __slots__ = ("dim",)
    _fields = ("dim",)

    def __init__(self, dim, terms=None):
        object.__setattr__(self, "dim", dim)
        TermMap.__init__(self, terms)

    @staticmethod
    def _checked(pairs):
        return ((_check_pbw(word), c) for word, c in pairs)

    @staticmethod
    def unit(dim):
        return NCElement(dim, {(): L_ONE})

    @staticmethod
    def generator(dim, i):
        return NCElement(dim, {(i,): L_ONE})


def _rewrite_word(word, coeff, bracket, leftmost=True):
    """Yield (PBW word, coefficient) pairs summing to the normal form of
    coeff*word; a word may occur more than once."""
    stack = [(tuple(word), coeff)]
    n = bracket.shape[2]
    while stack:
        w, c = stack.pop()
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            yield w, c
            continue
        i = descents[0] if leftmost else descents[-1]
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        stack.append((swapped, c))
        a, b = w[i], w[i + 1]
        for k in range(n):
            s = bracket.get(a, b, k)
            if not s.is_zero():
                stack.append((w[:i] + (k,) + w[i + 2:], c * LAMBDA * s))


def normal_form(word, m: LieAlgebra, leftmost=True) -> NCElement:
    """PBW normal form of a basis word, using x y - y x = lambda [x,y]."""
    return NCElement._nonzero(accumulate(
        _rewrite_word(word, L_ONE, m.bracket, leftmost=leftmost)), m.dim)


def nc_mul(a: NCElement, b: NCElement, m: LieAlgebra) -> NCElement:
    if a.dim != b.dim or a.dim != m.dim:
        raise ValueError("dimension mismatch")
    return NCElement._nonzero(accumulate(
        pair
        for wa, ca in a.terms.items()
        for wb, cb in b.terms.items()
        for pair in _rewrite_word(wa + wb, ca * cb, m.bracket)), a.dim)


def omega_word(word, prelie: PreLieProduct):
    """omega(x_1 ... x_n) = ((x_1 <| x_2) ... <| x_n) with y <| x = -x o y.

    Returns a Scalar coefficient vector in m.
    """
    word = tuple(word)
    if not word:
        raise ValueError("omega is only defined on nonempty words")
    n = prelie.dim
    v = basis_vec(n, word[0])
    for x in word[1:]:
        v = [-c for c in prelie.product(basis_vec(n, x), v)]
    return v


class FormElement(TermMap):
    """Element of the exterior calculus: map (PBW word, strictly
    increasing Grassmann monomial over the de_i) -> LambdaScalar."""

    __slots__ = ("dim",)
    _fields = ("dim",)

    def __init__(self, dim, terms=None):
        object.__setattr__(self, "dim", dim)
        TermMap.__init__(self, terms)

    @staticmethod
    def _checked(pairs):
        for (word, forms), c in pairs:
            forms = tuple(forms)
            if any(forms[i] >= forms[i + 1] for i in range(len(forms) - 1)):
                raise ValueError(f"monomial {forms} not strictly increasing")
            yield (_check_pbw(word), forms), c

    @staticmethod
    def from_nc(e: NCElement):
        return FormElement._nonzero(
            {(w, ()): c for w, c in e.terms.items()}, e.dim)

    @staticmethod
    def d_generator(dim, i):
        return FormElement(dim, {((), (i,)): L_ONE})

    def grades(self):
        return sorted({len(f) for (_, f) in self.terms})


def differential_d(e: NCElement, prelie: PreLieProduct) -> FormElement:
    """d on U_lambda(m): for a PBW word x_1...x_n,

      d(x_1...x_n) = sum over splittings of the word into an ordered
      prefix subsequence and a nonempty suffix subsequence of
          lambda^(len(suffix)-1) prefix (x) omega(suffix)

    so that d(x) = dx and the lambda powers make d agree with the
    bimodule relation [x, dy] = lambda d(x o y).
    """
    if e.dim != prelie.dim:
        raise ValueError("dimension mismatch")

    def pieces():
        for word, c in e.terms.items():
            n = len(word)
            cl = c
            for s in range(1, n + 1):
                for suffix_pos in combinations(range(n), s):
                    chosen = set(suffix_pos)
                    prefix = tuple(word[i] for i in range(n)
                                   if i not in chosen)
                    suffix = tuple(word[i] for i in suffix_pos)
                    ov = omega_word(suffix, prelie)
                    for k, comp in enumerate(ov):
                        if not comp.is_zero():
                            yield (prefix, (k,)), cl * comp
                cl = cl * LAMBDA

    return FormElement._nonzero(accumulate(pieces()), e.dim)


def _forms_past_word(forms, word, prelie):
    """Rewrite forms . word as sum of word' . forms' terms.

    Uses de_j . e_i = e_i . de_j - lambda Xi[i,j,k] de_k; the output
    words are in original letter order (not normalized).
    """
    if not word:
        return {((), tuple(forms)): L_ONE}
    i, rest = word[0], word[1:]
    pieces = [((i,), tuple(forms), L_ONE)]
    for s, j in enumerate(forms):
        for k in range(prelie.dim):
            cs = prelie.xi.get(i, j, k)
            if cs.is_zero():
                continue
            sf = _sorted_forms(forms[:s] + (k,) + forms[s + 1:])
            if sf is None:
                continue
            sign, nf = sf
            pieces.append(((), nf, LAMBDA * (-(cs * sign))))
    return accumulate(
        ((pre + w2, f3), co * co2)
        for pre, f2, co in pieces
        for (w2, f3), co2 in _forms_past_word(f2, rest, prelie).items())


def form_mul(a: FormElement, b: FormElement, m: LieAlgebra,
             prelie: PreLieProduct) -> FormElement:
    """Product in the differential graded algebra U_lambda(m) |x Lambda."""
    if a.dim != b.dim or a.dim != m.dim or a.dim != prelie.dim:
        raise ValueError("dimension mismatch")

    def pieces():
        for (u, eta), ca in a.terms.items():
            for (v, xi), cb in b.terms.items():
                for (w, eta2), cc in _forms_past_word(eta, v,
                                                      prelie).items():
                    sf = _sorted_forms(eta2 + xi)
                    if sf is None:
                        continue
                    sign, wedge = sf
                    for pw, pc in _rewrite_word(u + w, ca * cb * cc * sign,
                                                m.bracket):
                        yield (pw, wedge), pc

    return FormElement._nonzero(accumulate(pieces()), a.dim)


def exterior_d(e: FormElement, prelie: PreLieProduct) -> FormElement:
    """d extended as a graded super-derivation with d(de_i) = 0."""
    if e.dim != prelie.dim:
        raise ValueError("dimension mismatch")

    def pieces():
        for (word, forms), c in e.terms.items():
            dword = differential_d(NCElement._nonzero({word: c}, e.dim),
                                   prelie)
            for (w, (k,)), cc in dword.terms.items():
                sf = _sorted_forms((k,) + forms)
                if sf is not None:
                    sign, wedge = sf
                    yield (w, wedge), cc * sign

    return FormElement._nonzero(accumulate(pieces()), e.dim)


def _pbw_words(dim, max_len, min_len=0):
    for ln in range(min_len, max_len + 1):
        for word in combinations_with_replacement(range(dim), ln):
            yield word


def check_first_order(m: LieAlgebra, prelie: PreLieProduct, max_len=4,
                      with_witnesses=False):
    """Exact consistency of the first-order calculus on U_lambda(m).

    Checks, with lambda formal:
      (i)   Leibniz d(uv) = (du)v + u(dv) for PBW words with
            len(u) + len(v) <= max_len;
      (ii)  d(xy - yx - lambda[x,y]) = 0 on generator pairs;
      (iii) [x, dy] - lambda d(x o y) = 0 on generator pairs.
    """
    n = m.dim
    if prelie.dim != n:
        raise ValueError("dimension mismatch")
    witnesses = {"leibniz": [], "bracket": [], "bimodule": []}

    for u in _pbw_words(n, max_len - 1, min_len=1):
        for v in _pbw_words(n, max_len - len(u), min_len=1):
            eu = NCElement(n, {u: L_ONE})
            ev = NCElement(n, {v: L_ONE})
            lhs = differential_d(nc_mul(eu, ev, m), prelie)
            rhs = form_mul(differential_d(eu, prelie),
                           FormElement.from_nc(ev), m, prelie) \
                + form_mul(FormElement.from_nc(eu),
                           differential_d(ev, prelie), m, prelie)
            if not (lhs - rhs).is_zero():
                witnesses["leibniz"].append((u, v))

    for x in range(n):
        for y in range(n):
            ex = NCElement.generator(n, x)
            ey = NCElement.generator(n, y)
            comm = nc_mul(ex, ey, m) - nc_mul(ey, ex, m)
            lie = NCElement(n, {
                (k,): LAMBDA * m.bracket.get(x, y, k) for k in range(n)
            })
            if not differential_d(comm - lie, prelie).is_zero():
                witnesses["bracket"].append((x, y))
            # [x, dy] - lambda d(x o y)
            fx = FormElement.from_nc(ex)
            dy = FormElement.d_generator(n, y)
            commf = form_mul(fx, dy, m, prelie) - form_mul(dy, fx, m, prelie)
            dxy = FormElement(n, {
                ((), (k,)): LAMBDA * prelie.xi.get(x, y, k) for k in range(n)
            })
            if not (commf - dxy).is_zero():
                witnesses["bimodule"].append((x, y))

    ok = not any(witnesses.values())
    if with_witnesses:
        return {"first_order": ok, "witnesses": witnesses}
    return ok


def kernel_of_d(m: LieAlgebra, prelie: PreLieProduct, n: int,
                lambda_value: Scalar) -> dict:
    """Kernel of d on the PBW filtration level U_n at a numeric lambda.

    Returns the kernel dimension, the word basis of U_n and kernel
    vectors in that basis; a connected calculus has dimension 1.
    """
    lam = lambda_value if isinstance(lambda_value, Scalar) \
        else Scalar(Fraction(lambda_value))
    dim = m.dim
    words = list(_pbw_words(dim, n))
    col = {w: i for i, w in enumerate(words)}
    rows = {}
    for w in words:
        df = differential_d(NCElement(dim, {w: L_ONE}), prelie)
        for (pw, forms), c in df.terms.items():
            val = c.evaluate(lam)
            if val.is_zero():
                continue
            rkey = (pw, forms)
            row = rows.setdefault(rkey, [ZERO] * len(words))
            row[col[w]] = row[col[w]] + val
    matrix = list(rows.values())
    if not matrix:
        matrix = [[ZERO] * len(words)]
    kernel = linear_kernel(matrix)
    return {"dimension": len(kernel), "words": words, "kernel": kernel}
