"""Noncommutative differential calculus on the deformed enveloping
algebra U_lambda(m).

U_lambda(m) carries the relations x y - y x = lambda [x,y]; its PBW
basis is the weakly increasing words in the fixed basis order.  The
first-order calculus is generated by dx_i with the commutation rule

    de_j . e_i = e_i . de_j - lambda sum_k Xi[i,j,k] de_k

coming from [x, dy] = lambda d(x o y), and extends to a differential
graded algebra with the classical Grassmann wedge on the de_i.

check_calculus decides the first-order calculus from the relations (R)
and (D) on pairs of generators, which are the compatibility and the
flat-right-action identities of the product, one contraction each, and
certifies connectedness from d of every PBW word, given by a closed
formula.  Both reductions are theorems (README); the tests keep the
rewriting of forms past words as their oracle.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb, prod

from .exact_core import Scalar, Verdict, _lambda, accumulate
from .liebialg import LieAlgebra, basis_vec
from .prelie import (
    PreLieProduct,
    check_compatibility,
    check_flat_right_action,
)

__all__ = ["check_calculus"]


class _Calculus:
    """Memo tables for the calculus of one pre-Lie product: omega and d
    of each PBW word.  check_calculus builds one instance per call, so no
    table outlives the call."""

    def __init__(self, prelie: PreLieProduct):
        self.prelie = prelie
        self._omega = {}
        self._d = {}

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


def _pbw_words(dim, max_len):
    for ln in range(max_len + 1):
        for word in combinations_with_replacement(range(dim), ln):
            yield word


def _first_order(m, prelie):
    """Exact consistency of the first-order calculus on U_lambda(m), with
    lambda formal.

    The calculus is defined by generators and relations, so d extends
    from d(x) = dx to a derivation of U_lambda(m) exactly when, for all
    generators x < y,
      (R) moving each de_k past xy - yx - lambda[x,y] gives 0, so the
          commutation rule defines a bimodule (witnesses "bimodule");
      (D) dx.y + x.dy - dy.x - y.dx - lambda d[x,y] = 0 in Omega^1, so
          that derivation kills the relations (witnesses "bracket").
    For an antisymmetric bracket, (D) at (x, y) is lambda times the
    compatibility defect at (x, y, .) and (R) at (x, y) is lambda^2
    times the flat-right-action defect at (x, y, k, .) (README, "(R) and
    (D) are compatibility and flatness"), so each is one contraction,
    independent of the words.  The closed formula of d_word is that
    derivation on every PBW word (README, "(P) is a theorem of the
    closed formula"), so Leibniz d(uv) = (du)v + u(dv) then holds on
    every pair of words.  Witnesses are the pairs x < y that fail, tagged
    with their identity: ("bracket", x, y), then ("bimodule", x, y).
    """
    return Verdict(
        (tag, x, y)
        for tag, verdict in (("bracket", check_compatibility(prelie, m)),
                             ("bimodule", check_flat_right_action(prelie, m)))
        for x, y in sorted({w[:2] for w in verdict.witnesses if w[0] < w[1]}))


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
    each PBW word differentiated once.

    The first-order Verdict is that of the (R)/(D) generator certificate
    of _first_order, two contractions independent of max_len; the
    connectedness pass is the only one that reads d of every PBW word up
    to max_len.  The kernel of d on the PBW filtration level U_max_len
    at lambda = lambda_value is the constants for every product and
    every lambda (README); the triangular certificate of _connected
    checks that on this d table, and a table that fails it raises
    AssertionError, an internal error.  The (R)/(D) reduction needs m
    antisymmetric; a bracket that is not raises ValueError.
    """
    if prelie.dim != m.dim:
        raise ValueError("dimension mismatch")
    bracket = m.bracket.entries
    if any(bracket.get((j, i, k)) != -v for (i, j, k), v in bracket.items()):
        raise ValueError("bracket is not antisymmetric")
    first = _first_order(m, prelie)
    if not _connected(_Calculus(prelie), _pbw_words(m.dim, max_len),
                      lambda_value):
        raise AssertionError("d table fails the connectedness certificate "
                             f"at n = {max_len}")
    return {"first_order": first, "kernel_dimension": 1, "connected": True}
