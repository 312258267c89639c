"""Noncommutative differential calculus on the deformed enveloping
algebra U_lambda(m).

U_lambda(m) carries the relations x y - y x = lambda [x,y]; elements are
kept in PBW normal form (weakly increasing words in the fixed basis
order).  The first-order calculus is generated by dx_i with the
commutation rule

    de_j . e_i = e_i . de_j - lambda sum_k Xi[i,j,k] de_k

coming from [x, dy] = lambda d(x o y), and extends to a differential
graded algebra with the classical Grassmann wedge on the de_i.

check_calculus decides the first-order calculus from the relations (R)
and (D) on pairs of generators, and certifies connectedness from d of
every PBW word, given by a closed formula.  That the closed formula is
the derivation the relations define, (P), is a theorem (README), kept
in the tests as a sweep over words.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, product
from math import comb, prod

from .exact_core import (
    LAMBDA,
    L_ONE,
    ONE,
    Scalar,
    Verdict,
    _lambda,
    _sorted_forms,
    accumulate,
)
from .liebialg import LieAlgebra, basis_vec
from .prelie import PreLieProduct

__all__ = ["check_calculus"]


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


def _times(a, b):
    """a * b, skipping a factor that is the L_ONE object: the unit
    coefficient that _rewrite_word and accumulate pass on unchanged, and
    the most common factor in past and form_mul."""
    return b if a is L_ONE else a if b is L_ONE else a * b


class _Calculus:
    """Memo tables for the calculus of one pre-Lie product and, for
    products, its Lie algebra m: omega and d of each PBW word, the normal
    form of each word and forms moved past each word.  check_calculus
    builds one instance per call, so no table outlives the call, and
    shares it between the first-order and the connectedness check."""

    def __init__(self, prelie: PreLieProduct, m: LieAlgebra = None):
        self.prelie = prelie
        self.m = m
        self._omega = {}
        self._d = {}
        self._normal = {}
        self._past = {}

    def omega(self, word):
        """omega(x_1 ... x_n) = ((x_1 <| x_2) ... <| x_n) with
        y <| x = -x o y, a Scalar coefficient vector in m, for a nonempty
        word: built by suffix, omega(w x) = -x o omega(w)."""
        v = self._omega.get(word)
        if v is None:
            n, x = self.prelie.dim, word[-1]
            v = basis_vec(n, x) if len(word) == 1 else [
                -c for c in self.prelie.product(basis_vec(n, x),
                                                self.omega(word[:-1]))]
            self._omega[word] = v
        return v

    def d_word(self, word):
        """Terms of d of a PBW word: for x_1...x_n,

          d(x_1...x_n) = sum over splittings of the word into an ordered
          prefix subsequence and a nonempty suffix subsequence of
              lambda^(len(suffix)-1) prefix (x) omega(suffix)

        so that d(x) = dx and the lambda powers make d agree with the
        bimodule relation [x, dy] = lambda d(x o y).

        On a sorted word the prefix and the suffix depend only on how
        many copies c_a of each letter a go to the suffix, so the 2^n
        position subsets fall into prod(m_a + 1) groups of
        prod C(m_a, c_a) equal ones.  The groups run by suffix length,
        then by descending count vector: the order of their first
        subsets among the subsets of positions."""
        terms = self._d.get(word)
        if terms is not None:
            return terms
        letters = sorted(set(word))
        counts = [word.count(a) for a in letters]
        groups = sorted(product(*(range(m, -1, -1) for m in counts)),
                        key=sum)
        terms = self._d[word] = {}
        for chosen in groups[1:]:
            suffix = tuple(a for a, c in zip(letters, chosen)
                           for _ in range(c))
            prefix = tuple(a for a, m, c in zip(letters, counts, chosen)
                           for _ in range(m - c))
            weight = prod(comb(m, c) for m, c in zip(counts, chosen))
            lead = ((0, 0),) * (len(suffix) - 1)
            for k, comp in enumerate(self.omega(suffix)):
                if not comp.is_zero():
                    # the monomial comp * weight * lambda^(s-1), built
                    # from the Scalar's lowest-terms triple
                    re, im, den = (comp * weight).triple
                    terms[(prefix, (k,))] = _lambda(den, lead + ((re, im),))
        return terms

    def normal(self, word):
        """Terms of the PBW normal form of a word."""
        terms = self._normal.get(word)
        if terms is None:
            terms = self._normal[word] = accumulate(
                _rewrite_word(word, L_ONE, self.m.bracket))
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
                ((pre + w2, f3), _times(co, co2))
                for pre, f2, co in pieces
                for (w2, f3), co2 in self.past(f2, rest).items())
        self._past[key] = out
        return out

    def form_mul(self, a, b):
        """Terms of the product of the forms with terms a and b."""
        def pieces():
            for (u, eta), ca in a.items():
                for (v, xi), cb in b.items():
                    cab = _times(ca, cb)
                    for (w, eta2), cc in self.past(eta, v).items():
                        sf = _sorted_forms(eta2 + xi)
                        if sf is None:
                            continue
                        sign, wedge = sf
                        coeff = _times(cab, cc)
                        if sign != ONE:
                            coeff = -coeff
                        for pw, pc in self.normal(u + w).items():
                            yield (pw, wedge), _times(pc, coeff)

        return accumulate(pieces())


def _pbw_words(dim, max_len):
    for ln in range(max_len + 1):
        for word in combinations_with_replacement(range(dim), ln):
            yield word


def _signed_sum(*parts):
    """Terms of the sum of sign * terms over (sign, terms) parts."""
    return accumulate((key, q if sign > 0 else -q)
                      for sign, terms in parts for key, q in terms.items())


def _bimodule_holds(calc, x, y):
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


def _bracket_holds(calc, x, y):
    """(D): dx.y + x.dy - dy.x - y.dx - lambda d[x,y] = 0, with every
    product from form_mul."""
    fx, fy = {((x,), ()): L_ONE}, {((y,), ()): L_ONE}
    dx, dy = {((), (x,)): L_ONE}, {((), (y,)): L_ONE}
    lie = {((), (k,)): LAMBDA * calc.m.bracket.get(x, y, k)
           for k in range(calc.prelie.dim)}
    return not _signed_sum(
        (1, calc.form_mul(dx, fy)), (1, calc.form_mul(fx, dy)),
        (-1, calc.form_mul(dy, fx)), (-1, calc.form_mul(fy, dx)),
        (-1, lie))


def _first_order(calc):
    """Exact consistency of the first-order calculus on U_lambda(m), with
    lambda formal, on the tables of calc.

    The calculus is defined by generators and relations, so d extends
    from d(x) = dx to a derivation of U_lambda(m) exactly when, for all
    generators x < y,
      (R) moving each de_k past xy - yx - lambda[x,y] gives 0, so the
          commutation rule defines a bimodule (witnesses "bimodule");
      (D) dx.y + x.dy - dy.x - y.dx - lambda d[x,y] = 0 in Omega^1, so
          that derivation kills the relations (witnesses "bracket").
    The closed formula of d_word is that derivation on every PBW word,
    whatever the product and the bracket (README, "(P) is a theorem of
    the closed formula"), so Leibniz d(uv) = (du)v + u(dv) then holds on
    every pair of words, at O(n^2) products.  Witnesses are tagged with
    their identity: ("bracket", x, y) and ("bimodule", x, y).
    """
    n = calc.prelie.dim
    generators = [(x, y) for x in range(n) for y in range(x + 1, n)]
    return Verdict(chain(
        (("bracket", *g) for g in generators if not _bracket_holds(calc, *g)),
        (("bimodule", *g) for g in generators
         if not _bimodule_holds(calc, *g))))


def _connected(calc, words, lam):
    """Whether the matrix of d on these words (all PBW words up to some
    length) at lambda = lam has kernel the constants, by a certificate
    read off the d_word table in one pass.

    Order the rows (prefix, forms) by len(prefix) and the columns by word
    length.  d_word(w) puts prefixes of length len(w) - 1 - j at
    lambda^j, so every entry lies on or above the diagonal block
    len(prefix) = len(w) - 1, where d is the classical derivative; the
    Euler contraction sum count * (prefix + k) maps it back to len(w) * w.
    So each diagonal block is injective for len(w) >= 1, and a kernel
    vector must vanish off the empty word, block by block from the
    longest words down.  Returns False as soon as either condition
    fails."""
    for w in words:
        diag = len(w) - 1
        euler = []
        for (prefix, forms), c in calc.d_word(w).items():
            if len(prefix) < diag:
                continue
            val = c.evaluate(lam)
            if val.is_zero():
                continue
            if len(prefix) > diag or len(forms) != 1:
                return False
            euler.append((tuple(sorted(prefix + forms)), val))
        if w and accumulate(euler) != {w: Scalar(len(w))}:
            return False
    return True


def check_calculus(m: LieAlgebra, prelie: PreLieProduct, max_len: int,
                   lambda_value: Scalar) -> dict:
    """The calculus report on U_lambda(m) for words up to max_len,
    {"first_order": Verdict, "kernel_dimension": 1, "connected": True},
    read off one set of tables, so that each PBW word is differentiated
    once.

    The first-order Verdict is that of the (R)/(D) generator certificate
    of _first_order, at O(n^2) products and independent of max_len; the
    connectedness pass is the only one that reads d of every PBW word up
    to max_len.  The kernel of d on the PBW filtration level U_max_len
    at lambda = lambda_value is the constants for every product and
    every lambda (README); the triangular certificate of _connected
    checks that on this d table, and a table that fails it raises
    AssertionError, an internal error.
    """
    if prelie.dim != m.dim:
        raise ValueError("dimension mismatch")
    calc = _Calculus(prelie, m)
    first = _first_order(calc)
    if not _connected(calc, _pbw_words(m.dim, max_len), lambda_value):
        raise AssertionError("d table fails the connectedness certificate "
                             f"at n = {max_len}")
    return {"first_order": first, "kernel_dimension": 1, "connected": True}
