"""The product of forms on U_lambda(m) by rewriting, the oracle of the
first-order certificate in dga and of the form rules in metric.

Elements are term dicts: (word, strictly increasing form monomial) ->
LambdaScalar coefficient.  FormCalculus adds to dga's tables the PBW
normal form of each word, forms moved past each word and the product of
forms; rewriting_first_order decides (R) and (D) on every generator pair
x < y with that product, term by term.
"""

from itertools import chain

from prelie_calculus.dga import _Calculus
from prelie_calculus.exact_core import (
    LAMBDA,
    L_ONE,
    ONE,
    Verdict,
    _sorted_forms,
    accumulate,
)


def rewrite_word(word, coeff, bracket, leftmost=True):
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


def times(a, b):
    """a * b, skipping a factor that is the L_ONE object: the unit
    coefficient that rewrite_word and accumulate pass on unchanged, and
    the most common factor in past and form_mul."""
    return b if a is L_ONE else a if b is L_ONE else a * b


def signed_sum(*parts):
    """Terms of the sum of sign * terms over (sign, terms) parts."""
    return accumulate((key, q if sign > 0 else -q)
                      for sign, terms in parts for key, q in terms.items())


class FormCalculus(_Calculus):
    """dga's omega and d tables for a pre-Lie product, with memo tables
    for the normal form of each word in the Lie algebra m and for forms
    moved past each word."""

    def __init__(self, prelie, m):
        super().__init__(prelie)
        self.m = m
        self._normal = {}
        self._past = {}

    def normal(self, word):
        """Terms of the PBW normal form of a word."""
        terms = self._normal.get(word)
        if terms is None:
            terms = self._normal[word] = accumulate(
                rewrite_word(word, L_ONE, self.m.bracket))
        return terms

    def past(self, forms, word):
        """Rewrite forms . word as a sum of word' . forms' terms.

        Uses de_j . e_i = e_i . de_j - lambda Xi[i,j,k] de_k; the output
        words are in original letter order (not normalized).
        """
        key = (forms, word)
        out = self._past.get(key)
        if out is not None:
            return out
        if not word:
            out = {((), forms): L_ONE}
        else:
            prelie = self.prelie
            i, rest = word[0], word[1:]
            pieces = [((i,), forms, L_ONE)]
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
            out = accumulate(
                ((pre + w2, f3), times(co, co2))
                for pre, f2, co in pieces
                for (w2, f3), co2 in self.past(f2, rest).items())
        self._past[key] = out
        return out

    def form_mul(self, a, b):
        """Terms of the product of the forms with terms a and b."""
        def pieces():
            for (u, eta), ca in a.items():
                for (v, xi), cb in b.items():
                    cab = times(ca, cb)
                    for (w, eta2), cc in self.past(eta, v).items():
                        sf = _sorted_forms(eta2 + xi)
                        if sf is None:
                            continue
                        sign, wedge = sf
                        coeff = times(cab, cc)
                        if sign != ONE:
                            coeff = -coeff
                        for pw, pc in self.normal(u + w).items():
                            yield (pw, wedge), times(pc, coeff)

        return accumulate(pieces())


def bimodule_holds(calc, x, y):
    """(R): de_k . (xy - yx - lambda[x,y]) = 0 for every k, moving de_k
    past each letter of the words as they stand."""
    n = calc.prelie.dim
    rel = {((x, y), ()): L_ONE, ((y, x), ()): -L_ONE}
    for k in range(n):
        s = calc.m.bracket.get(x, y, k)
        if not s.is_zero():
            rel[((k,), ())] = -(LAMBDA * s)
    return not any(calc.form_mul({((), (k,)): L_ONE}, rel)
                   for k in range(n))


def bracket_holds(calc, x, y):
    """(D): dx.y + x.dy - dy.x - y.dx - lambda d[x,y] = 0, with every
    product from form_mul."""
    fx, fy = {((x,), ()): L_ONE}, {((y,), ()): L_ONE}
    dx, dy = {((), (x,)): L_ONE}, {((), (y,)): L_ONE}
    lie = {((), (k,)): LAMBDA * calc.m.bracket.get(x, y, k)
           for k in range(calc.prelie.dim)}
    return not signed_sum(
        (1, calc.form_mul(dx, fy)), (1, calc.form_mul(fx, dy)),
        (-1, calc.form_mul(dy, fx)), (-1, calc.form_mul(fy, dx)),
        (-1, lie))


def rewriting_first_order(calc):
    """The first-order Verdict of (D) and (R) on every generator pair
    x < y, each relation rewritten in the calculus of calc: witnesses
    ("bracket", x, y), then ("bimodule", x, y)."""
    n = calc.prelie.dim
    generators = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return Verdict(chain(
        (("bracket", *g) for g in generators if not bracket_holds(calc, *g)),
        (("bimodule", *g) for g in generators
         if not bimodule_holds(calc, *g))))
