"""Exact scalar, polynomial, tensor and linear-algebra kernel.

Everything downstream works over the Gaussian rationals Q(i) (class
``Scalar``), optionally extended by a formal deformation parameter
lambda (class ``LambdaScalar``, a polynomial in lambda whose conjugation
sends lambda to -lambda).  Both store Gaussian integers over one
positive denominator in lowest terms, so the arithmetic is exact
integer arithmetic.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, zip_longest
from math import gcd, lcm
from operator import itemgetter

__all__ = [
    "Scalar",
    "LambdaScalar",
    "Tensor",
    "TermMap",
    "GenPoly",
    "RatFunc",
    "Verdict",
    "ZERO",
    "ONE",
    "I",
    "LAMBDA",
    "L_ZERO",
    "L_ONE",
    "tensor_contract",
    "contract_sum",
    "accumulate",
    "linear_kernel",
    "ratfunc_equal",
    "genpoly_derivative",
]


_new = object.__new__


def _scalar(re, im, den):
    """The Scalar (re + im*i) / den of a triple already in lowest terms.
    Every Scalar is made here."""
    s = _new(Scalar)
    s._re = re
    s._im = im
    s._den = den
    return s


def _reduced(re, im, den):
    """The Scalar (re + im*i) / den of ints with den > 0."""
    if den != 1:
        g = gcd(den, re, im)
        if g != 1:
            return _scalar(re // g, im // g, den // g)
    return _scalar(re, im, den)


def _sum(a, b, d1, c, e, d2):
    """(a + b*i) / d1 + (c + e*i) / d2 over the lcm of the denominators,
    reduced as Fraction does: only a divisor of gcd(d1, d2) can cancel."""
    if d1 == d2:
        if d1 == 1:
            return _scalar(a + c, b + e, 1)
        return _reduced(a + c, b + e, d1)
    g = gcd(d1, d2)
    if g == 1:
        return _scalar(a * d2 + c * d1, b * d2 + e * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    re, im = a * t + c * s, b * t + e * s
    h = gcd(g, re, im)
    if h == 1:
        return _scalar(re, im, s * d2)
    return _scalar(re // h, im // h, s * (d2 // h))


def _ratio(x):
    """An int or Fraction part as (numerator, denominator); a bool, float
    or str part is refused, so no value is ever rounded or parsed."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"Scalar parts must be int or Fraction, "
                        f"not {type(x).__name__}")
    return x.numerator, x.denominator


def _to_scalar(x):
    """x as a Scalar when it is a Scalar, an int or a Fraction, else None."""
    if isinstance(x, Scalar):
        return x
    if type(x) is int:
        return _scalar(x, 0, 1)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Scalar(x)
    return None


class Scalar:
    """An element (re + im*i) / den of Q(i), stored as three ints in
    lowest terms: den > 0 and gcd(re, im, den) == 1, with zero as
    (0, 0, 1).  Equal values have equal triples."""

    __slots__ = ("_re", "_im", "_den")

    def __new__(cls, re=0, im=0):
        return Scalar.from_ratios(*_ratio(re), *_ratio(im))

    @staticmethod
    def from_ratios(re_num, re_den, im_num, im_den):
        """The Scalar re_num/re_den + (im_num/im_den)*i of four ints,
        built without a Fraction."""
        if not (re_den and im_den):
            raise ZeroDivisionError("Scalar part with zero denominator")
        if re_den < 0:
            re_num, re_den = -re_num, -re_den
        if im_den < 0:
            im_num, im_den = -im_num, -im_den
        if re_den == im_den:
            return _reduced(re_num, im_num, re_den)
        return _reduced(re_num * im_den, im_num * re_den, re_den * im_den)

    @property
    def re(self):
        return Fraction(self._re, self._den)

    @property
    def im(self):
        return Fraction(self._im, self._den)

    @property
    def triple(self):
        """(re_num, im_num, den) with self = (re_num + im_num*i) / den in
        lowest terms."""
        return self._re, self._im, self._den

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is Scalar else _to_scalar(other)
        if o is None:
            return NotImplemented
        return _sum(self._re, self._im, self._den, o._re, o._im, o._den)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is Scalar else _to_scalar(other)
        if o is None:
            return NotImplemented
        return _sum(self._re, self._im, self._den, -o._re, -o._im, o._den)

    def __rsub__(self, other):
        o = _to_scalar(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _scalar(-self._re, -self._im, self._den)

    def __mul__(self, other):
        """Each denominator first cancels against the other factor's
        numerator, as Fraction's product does.  That leaves the result in
        lowest terms when a factor is real; a product of two complex
        factors can gain a rational factor, (1+i)(1-i) = 2, so it takes
        one more gcd."""
        o = other if type(other) is Scalar else _to_scalar(other)
        if o is None:
            return NotImplemented
        a, b, d1 = self._re, self._im, self._den
        c, e, d2 = o._re, o._im, o._den
        if d1 != 1:
            g = gcd(d1, c, e)
            if g != 1:
                c, e, d1 = c // g, e // g, d1 // g
        if d2 != 1:
            g = gcd(d2, a, b)
            if g != 1:
                a, b, d2 = a // g, b // g, d2 // g
        if b and e:
            return _reduced(a * c - b * e, a * e + b * c, d1 * d2)
        return _scalar(a * c - b * e, a * e + b * c, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is Scalar else _to_scalar(other)
        if o is None:
            return NotImplemented
        a, b = self._re, self._im
        c, e, d2 = o._re, o._im, o._den
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced((a * c + b * e) * d2, (b * c - a * e) * d2,
                        self._den * n)

    def __rtruediv__(self, other):
        o = _to_scalar(other)
        if o is None:
            return NotImplemented
        return o / self

    def conj(self):
        return _scalar(self._re, -self._im, self._den)

    def is_zero(self):
        return not (self._re or self._im)

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        o = other if type(other) is Scalar else _to_scalar(other)
        if o is None:
            return NotImplemented
        return (self._re == o._re and self._im == o._im
                and self._den == o._den)

    def __hash__(self):
        return hash((self._re, self._im, self._den))

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        return f"({re}{'+' if im > 0 else ''}{im}*i)"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _as_scalar(v):
    if isinstance(v, Scalar):
        return v
    return Scalar(v)


def _lambda(den, cs):
    """The LambdaScalar sum_k cs[k] lambda^k / den of a tuple of Gaussian
    integer pairs already in canonical form.  Every LambdaScalar is made
    here."""
    q = _new(LambdaScalar)
    q._den = den
    q._cs = cs
    return q


def _lambda_reduced(den, pairs, bound):
    """The LambdaScalar of a list of int pairs over den > 0, with its
    trailing zero pairs stripped and its content cancelled; only a
    divisor of bound can cancel."""
    n = len(pairs)
    while n and not any(pairs[n - 1]):
        n -= 1
    if not n:
        return L_ZERO
    if n != len(pairs):
        pairs = pairs[:n]
    if bound != 1:
        g = gcd(bound, *chain.from_iterable(pairs))
        if g != 1:
            return _lambda(den // g,
                           tuple((re // g, im // g) for re, im in pairs))
    return _lambda(den, tuple(pairs))


def _lambda_sum(d1, p, d2, q):
    """p / d1 + q / d2 for tuples of Gaussian integer pairs, over the lcm
    of the denominators; only a divisor of gcd(d1, d2) can cancel."""
    if not p:
        return _lambda(d2, q) if q else L_ZERO
    if not q:
        return _lambda(d1, p)
    if d1 == d2:
        g = d1
        pairs = [(a + c, b + e) for (a, b), (c, e)
                 in zip_longest(p, q, fillvalue=(0, 0))]
    else:
        g = gcd(d1, d2)
        s, t = d1 // g, d2 // g
        pairs = [(a * t + c * s, b * t + e * s) for (a, b), (c, e)
                 in zip_longest(p, q, fillvalue=(0, 0))]
        d1 *= t
    return _lambda_reduced(d1, pairs, g)


def _to_lambda(x):
    """x as a LambdaScalar when it is one or a Scalar, an int or a
    Fraction, else None."""
    if isinstance(x, LambdaScalar):
        return x
    s = _to_scalar(x)
    if s is None:
        return None
    if s.is_zero():
        return L_ZERO
    return _lambda(s._den, ((s._re, s._im),))


class LambdaScalar:
    """Polynomial in the formal deformation parameter lambda.

    The coefficient of lambda^k is (re_k + im_k*i) / den: one positive
    int denominator over a tuple of Gaussian integer pairs, as FLINT's
    fmpq_poly stores a rational polynomial.  The tuple has no trailing
    zero pair and gcd(den, all re_k, im_k) == 1, so equal polynomials
    have equal storage; zero is the empty tuple over 1.  The star
    operation conjugates coefficients and flips the sign of odd
    degrees, implementing lambda* = -lambda together with i* = -i.
    """

    __slots__ = ("_den", "_cs")

    def __new__(cls, coeffs=()):
        if isinstance(coeffs, (int, Fraction, Scalar)):
            coeffs = (coeffs,)
        cs = [_as_scalar(c) for c in coeffs]
        den = lcm(*(c._den for c in cs))
        return _lambda_reduced(
            den, [(c._re * (den // c._den), c._im * (den // c._den))
                  for c in cs], den)

    @property
    def coeffs(self):
        """The coefficients as Scalars, by lambda-degree."""
        den = self._den
        return tuple(_reduced(re, im, den) for re, im in self._cs)

    def __add__(self, other):
        o = other if type(other) is LambdaScalar else _to_lambda(other)
        if o is None:
            return NotImplemented
        return _lambda_sum(self._den, self._cs, o._den, o._cs)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is LambdaScalar else _to_lambda(other)
        if o is None:
            return NotImplemented
        return _lambda_sum(self._den, self._cs, o._den,
                           tuple((-re, -im) for re, im in o._cs))

    def __rsub__(self, other):
        o = _to_lambda(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _lambda(self._den, tuple((-re, -im) for re, im in self._cs))

    def __mul__(self, other):
        """Convolution of the int pairs over the product of the two
        denominators.  As in Scalar's product, each denominator first
        cancels against the other factor's content; by Gauss's lemma
        that leaves the result in lowest terms unless both factors have
        complex coefficients, which takes one more gcd.  A product of
        nonzero polynomials over Z[i] has no trailing zero."""
        o = other if type(other) is LambdaScalar else _to_lambda(other)
        if o is None:
            return NotImplemented
        p, q = self._cs, o._cs
        if not p or not q:
            return L_ZERO
        d1, d2 = self._den, o._den
        if d1 != 1:
            g = gcd(d1, *chain.from_iterable(q))
            if g != 1:
                q = [(re // g, im // g) for re, im in q]
                d1 //= g
        if d2 != 1:
            g = gcd(d2, *chain.from_iterable(p))
            if g != 1:
                p = [(re // g, im // g) for re, im in p]
                d2 //= g
        if len(p) == 1 and len(q) == 1:
            (a, b), = p
            (c, e), = q
            if b and e:
                return _lambda_reduced(d1 * d2, [(a * c - b * e,
                                                  a * e + b * c)], d1 * d2)
            return _lambda(d1 * d2, ((a * c - b * e, a * e + b * c),))
        re = [0] * (len(p) + len(q) - 1)
        im = re[:]
        for i, (a, b) in enumerate(p):
            if not (a or b):
                continue
            for k, (c, e) in enumerate(q, i):
                re[k] += a * c - b * e
                im[k] += a * e + b * c
        pairs = list(zip(re, im))
        if any(b for _, b in p) and any(e for _, e in q):
            return _lambda_reduced(d1 * d2, pairs, d1 * d2)
        return _lambda(d1 * d2, tuple(pairs))

    __rmul__ = __mul__

    def coeff(self, k):
        if k < len(self._cs):
            return _reduced(*self._cs[k], self._den)
        return ZERO

    def conj(self):
        """Star: coefficient of lambda^k maps to (-1)^k * conj."""
        return _lambda(self._den, tuple(
            (re, -im) if k % 2 == 0 else (-re, im)
            for k, (re, im) in enumerate(self._cs)))

    def evaluate(self, lam: Scalar) -> Scalar:
        """Horner's rule over the Gaussian integers: with lam = z / d,
        the sum of c_k z^k d^(n-1-k) over den * d^(n-1)."""
        cs = self._cs
        if not cs:
            return ZERO
        lam = _as_scalar(lam)
        z_re, z_im, d = lam._re, lam._im, lam._den
        re, im = cs[-1]
        power = 1
        for c_re, c_im in reversed(cs[:-1]):
            power *= d
            re, im = (re * z_re - im * z_im + c_re * power,
                      re * z_im + im * z_re + c_im * power)
        return _reduced(re, im, self._den * power)

    def is_zero(self):
        return not self._cs

    def __eq__(self, other):
        o = other if type(other) is LambdaScalar else _to_lambda(other)
        if o is None:
            return NotImplemented
        return self._den == o._den and self._cs == o._cs

    def __hash__(self):
        return hash((self._den, self._cs))

    def __repr__(self):
        if not self._cs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(repr(c))
            elif k == 1:
                parts.append(f"{c!r}*L")
            else:
                parts.append(f"{c!r}*L^{k}")
        return " + ".join(parts)


L_ZERO = _lambda(1, ())
L_ONE = LambdaScalar(1)
LAMBDA = LambdaScalar((ZERO, ONE))


class Tensor:
    """Sparse multi-index array over Scalar.

    Entries are kept in a dict keyed by index tuples; zero values are
    never stored, so structural equality is semantic equality.
    """

    __slots__ = ("shape", "entries")

    def __init__(self, shape, entries=None):
        shape = tuple(int(d) for d in shape)
        clean = {}
        if entries:
            for idx, val in entries.items():
                idx = tuple(idx)
                if len(idx) != len(shape):
                    raise ValueError(f"index {idx} has wrong arity")
                for p, d in zip(idx, shape):
                    if not 0 <= p < d:
                        raise ValueError(f"index {idx} outside shape {shape}")
                val = _as_scalar(val)
                if not val.is_zero():
                    clean[idx] = val
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def get(self, *idx):
        return self.entries.get(tuple(idx), ZERO)

    def items(self):
        """Deterministic iteration: sorted multi-indices."""
        return sorted(self.entries.items())

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[idx] = out.get(idx, ZERO) + val
        return Tensor(self.shape, out)

    def __sub__(self, other):
        return self + other.scale(Scalar(-1))

    def scale(self, s):
        s = _as_scalar(s)
        return Tensor(self.shape, {i: v * s for i, v in self.entries.items()})

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.entries.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, nnz={len(self.entries)})"

    @classmethod
    def _gaussian_over(cls, shape, den, entries):
        """Tensor of the nonzero entries (re + im*i) / den of a dict of
        Gaussian integer pairs already keyed inside shape, without
        revalidating the keys."""
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "entries",
                           {k: _reduced(re, im, den)
                            for k, (re, im) in entries.items() if re or im})
        return t


def _tuple_getter(positions):
    """Key projection that always returns a tuple."""
    if len(positions) == 1:
        p, = positions
        return lambda key: (key[p],)
    if not positions:
        return lambda key: ()
    return itemgetter(*positions)


def _bucket_getter(positions):
    """Key projection for bucketing; only equality of results matters."""
    return itemgetter(*positions) if positions else (lambda key: ())


@lru_cache(maxsize=1024)
def _plan(spec, shapes):
    """Validated plan for an einsum-style spec such as "ijm,mko->ijko"
    over operands of the given shapes: the output shape, one set of key
    projections per pairwise join, and the final projection (or None)."""
    lhs, arrow, out = spec.partition("->")
    ins = lhs.split(",")
    if not arrow or len(ins) != len(shapes):
        raise ValueError(f"spec {spec!r} does not fit {len(shapes)} operands")
    dims = {}
    for labels, shape in zip(ins, shapes):
        if len(labels) != len(shape) or len(set(labels)) != len(labels):
            raise ValueError(f"labels {labels!r} do not fit shape {shape}")
        for label, d in zip(labels, shape):
            if dims.setdefault(label, d) != d:
                raise ValueError(f"dimension mismatch on label {label!r}: "
                                 f"{dims[label]} vs {d}")
    if len(set(out)) != len(out) or not set(out) <= set(dims):
        raise ValueError(f"bad output labels {out!r}")
    # join left to right; a label is summed away as soon as neither the
    # output nor a later operand carries it
    joins = []
    labels = ins[0]
    for pos in range(1, len(ins)):
        right = ins[pos]
        later = set(out).union(*ins[pos + 1:])
        shared = [c for c in labels if c in right]
        keep_l = [c for c in labels if c in later]
        keep_r = [c for c in right if c in later and c not in labels]
        joins.append((_bucket_getter([right.index(c) for c in shared]),
                      _tuple_getter([right.index(c) for c in keep_r]),
                      _bucket_getter([labels.index(c) for c in shared]),
                      _tuple_getter([labels.index(c) for c in keep_l])))
        labels = "".join(keep_l + keep_r)
    final = None
    if labels != out:
        final = _tuple_getter([labels.index(c) for c in out])
    return tuple(dims[c] for c in out), joins, final


def _gaussian(t, memo):
    """t as (den, {key: (re, im)}) with integer re, im and den the lcm
    of every denominator in t, so that t = entries / den.  memo maps
    id(t) to (t, den, entries) for the length of one call; it holds t,
    so the id cannot be reused meanwhile."""
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1], hit[2]
    den = lcm(*{v._den for v in t.entries.values()})
    if den == 1:
        entries = {k: (v._re, v._im) for k, v in t.entries.items()}
    else:
        entries = {k: (v._re * (den // v._den), v._im * (den // v._den))
                   for k, v in t.entries.items()}
    memo[id(t)] = (t, den, entries)
    return den, entries


@lru_cache(maxsize=1024)
def _canonical(spec):
    """A valid spec with its labels renamed in order of first occurrence
    and its output labels in that order, and the key projection from the
    canonical output to spec's own (None when they agree).  Specs that
    differ only in label names and output order, such as
    "ijm,mko->ijko" and "jim,mko->ijko", share one canonical spec."""
    lhs, _, out = spec.partition("->")
    names = {}
    for label in lhs.replace(",", ""):
        names.setdefault(label, chr(ord("a") + len(names)))
    renamed = [names[label] for label in out]
    canon_out = sorted(renamed)
    canon = "".join(names.get(c, c) for c in lhs) + "->" + "".join(canon_out)
    if renamed == canon_out:
        return canon, None
    return canon, _tuple_getter([canon_out.index(c) for c in renamed])


def _packs(right, buckets):
    """The width rule of a pairwise join: pack the right operand into
    big integers when its mean bucket holds at least 4 entries, so that
    one big-integer multiply replaces at least 4 Python-level
    multiply-adds, and at least half the lanes (the kept right keys),
    since every output row is unpacked lane by lane: sparse buckets, as
    in a direct sum of many small blocks, would pay for lanes they never
    fill."""
    if len(right) < 4 * len(buckets):
        return False
    lanes = {rest for hits in buckets.values() for rest, _, _ in hits}
    return 2 * len(right) >= len(buckets) * len(lanes)


def _join(cur, buckets, key_l, left_l):
    """The entry-by-entry join: every left entry is multiplied into each
    right entry of its bucket, one Python-level multiply-add each."""
    acc = {}
    get = acc.get
    for key, (a, b) in cur.items():
        hits = buckets.get(key_l(key))
        if hits is None:
            continue
        left = left_l(key)
        for rest, c, d in hits:
            k = left + rest
            old = get(k)
            if old is None:
                acc[k] = (a * c - b * d, a * d + b * c)
            else:
                acc[k] = (old[0] + a * c - b * d, old[1] + a * d + b * c)
    return acc


def _packed_join(cur, right, buckets, key_l, left_l):
    """The join of _join by Kronecker substitution: each right-kept key
    gets a lane of w bits, each bucket becomes two ints (real and
    imaginary lanes), and each left entry adds itself into its output row
    with four big-integer multiplies.  No lane of a finished row reaches
    2^(w-1) in absolute value, so adding 2^(w-1) to every lane makes each
    one a w-bit digit and the rows unpack exactly."""
    lanes = {}
    for hits in buckets.values():
        for rest, _, _ in hits:
            if rest not in lanes:
                lanes[rest] = len(lanes)
    # a lane sums products a*c - b*d over left and right entries, each
    # at most (|a| + |b|) (|c| + |d|) in absolute value
    w = (sum(abs(a) + abs(b) for a, b in cur.values())
         * max(abs(c) + abs(d) for c, d in right.values())
         * len(right)).bit_length() + 1
    packed = {}
    for key, hits in buckets.items():
        re = im = 0
        for rest, c, d in hits:
            shift = w * lanes[rest]
            re += c << shift
            im += d << shift
        packed[key] = (re, im)
    rows = {}
    get = rows.get
    for key, (a, b) in cur.items():
        hit = packed.get(key_l(key))
        if hit is None:
            continue
        c, d = hit
        left = left_l(key)
        old = get(left)
        if old is None:
            rows[left] = (a * c - b * d, a * d + b * c)
        else:
            rows[left] = (old[0] + a * c - b * d, old[1] + a * d + b * c)
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    offset = half * ((1 << w * len(lanes)) - 1) // mask
    acc = {}
    for left, (re, im) in rows.items():
        if not (re or im):
            continue
        re += offset
        im += offset
        for rest in lanes:
            a = (re & mask) - half
            b = (im & mask) - half
            re >>= w
            im >>= w
            if a or b:
                acc[left + rest] = (a, b)
    return acc


def _contract_canonical(spec, shapes, operands, memo):
    """Denominator and dict from output keys to Gaussian integer pairs
    (re, im) of the contraction of a canonical spec: the contraction is
    the dict divided by the denominator.  The operands are joined left
    to right as the plan of spec says, each join packed or entry by
    entry as _packs says."""
    _, joins, final = _plan(spec, shapes)
    den, cur = _gaussian(operands[0], memo)
    for (key_r, rest_r, key_l, left_l), t in zip(joins, operands[1:]):
        den_r, right = _gaussian(t, memo)
        den *= den_r
        buckets = {}
        for key, (c, d) in right.items():
            buckets.setdefault(key_r(key), []).append((rest_r(key), c, d))
        if buckets and _packs(right, buckets):
            cur = _packed_join(cur, right, buckets, key_l, left_l)
        else:
            cur = _join(cur, buckets, key_l, left_l)
    if final is None:
        return den, cur
    # a canonical spec ends in its output order, so the final projection
    # only sums (a one-operand spec such as "abc->ac")
    acc = {}
    get = acc.get
    for key, (a, b) in cur.items():
        k = final(key)
        old = get(k)
        acc[k] = (a, b) if old is None else (old[0] + a, old[1] + b)
    return den, acc


def tensor_contract(spec, *operands) -> Tensor:
    """Sparse einsum over Tensors, e.g. tensor_contract("ijm,mko->ijko",
    c, c) = sum_m c[i,j,m] c[m,k,o]: the one-term contract_sum.

    Each operand gets one label per axis; labels absent from the output
    are summed over, and a single operand with a permuted output is a
    pure axis reorder.
    """
    return contract_sum([(1, spec, *operands)])


def contract_sum(terms) -> Tensor:
    """Signed sum of contractions: terms are (sign, spec, *operands)
    with sign +1 or -1, all with the same output shape.  The result
    holds exactly the nonzero entries, so a checker reads its witnesses
    off the leading indices of its keys.

    Only nonzero entries are ever visited, and the arithmetic is exact
    over the Gaussian integers.  Each operand's denominators are cleared
    once per call, however many terms it appears in.  Each spec is
    renamed canonically (labels in order of first occurrence, output in
    that order), so terms that are one contraction up to label names and
    output order on the same operands are contracted once and re-keyed
    as they are summed.  Every term is rescaled to one common
    denominator, the lcm of the terms' denominators, and Scalars are
    built only for the nonzero sums.

    A pairwise join whose right operand has, per bucket of its shared
    key and on average, at least 4 entries and at least half of its kept
    keys (_packs) is made by Kronecker substitution: the right entries of each bucket are packed into two
    ints, real and imaginary parts, one lane of w bits per kept key, with
    w = bit_length(S_l * M_r * N_r) + 1 for S_l the sum of |re| + |im|
    over the left entries, M_r the largest |re| + |im| of a right entry
    and N_r the number of right entries.  Each left entry then adds a
    whole output row with four big-integer multiplies.  A lane of a
    finished row is a sum of products of one left and one right entry,
    so its absolute value is at most S_l * M_r * N_r < 2^(w-1); adding
    2^(w-1) to every lane makes each one a w-bit digit of a nonnegative
    int, and the rows unpack exactly.  Narrower joins, such as those of
    the catalog's small tensors, go entry by entry.
    """
    memo = {}
    parts = []
    for sign, spec, *operands in terms:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        shapes = tuple(t.shape for t in operands)
        term_shape = _plan(spec, shapes)[0]
        if parts and term_shape != shape:
            raise ValueError(f"term {spec!r} has shape {term_shape}, "
                             f"expected {shape}")
        shape = term_shape
        canon, reorder = _canonical(spec)
        key = (canon, *map(id, operands))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _contract_canonical(canon, shapes, operands,
                                                  memo)
        parts.append((sign, reorder, *hit))
    if not parts:
        raise ValueError("contract_sum needs at least one term")
    common = lcm(*(den for _, _, den, _ in parts))
    acc = {}
    get = acc.get
    for sign, reorder, den, part in parts:
        s = sign * (common // den)
        items = part.items() if reorder is None else \
            zip(map(reorder, part), part.values())
        for k, (a, b) in items:
            old = get(k)
            if old is None:
                acc[k] = (s * a, s * b)
            else:
                acc[k] = (old[0] + s * a, old[1] + s * b)
    return Tensor._gaussian_over(shape, common, acc)


def linear_kernel(m):
    """Exact basis of the null space of a matrix over Scalar.

    m is a list of rows (lists of Scalar).  Returns a list of kernel
    basis vectors; len(result) + rank == number of columns.
    """
    if not m:
        return []
    rows = [list(row) for row in m]
    ncols = len(rows[0])
    for row in rows:
        if len(row) != ncols:
            raise ValueError("ragged matrix")

    pivots = []  # (row, col)
    r = 0
    for c in range(ncols):
        pivot = None
        for rr in range(r, len(rows)):
            if not rows[rr][c].is_zero():
                pivot = rr
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for rr in range(len(rows)):
            if rr != r and not rows[rr][c].is_zero():
                f = rows[rr][c]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break

    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, c in pivots:
            vec[c] = -rows[r][fc]
        basis.append(vec)
    return basis


def accumulate(pairs):
    """Sum an iterable of (key, value) pairs into a dict, dropping the
    keys whose sum is zero.  Values need only + and is_zero(), so this
    serves Scalar, LambdaScalar and GenPoly coefficients alike; each
    key keeps the position of its first occurrence."""
    out = {}
    get = out.get
    for key, value in pairs:
        old = get(key)
        out[key] = value if old is None else old + value
    # deleting in place hashes only the keys that go; a GenPoly key
    # holds a Fraction, whose hash is costly
    for key in [k for k, v in out.items() if v.is_zero()]:
        del out[key]
    return out


def _sorted_forms(forms):
    """Sort a Grassmann monomial; returns (sign, tuple) or None if it
    has a repeated generator."""
    forms = list(forms)
    sign = ONE
    for i in range(1, len(forms)):
        j = i
        while j > 0 and forms[j - 1] > forms[j]:
            forms[j - 1], forms[j] = forms[j], forms[j - 1]
            sign = -sign
            j -= 1
    for i in range(len(forms) - 1):
        if forms[i] == forms[i + 1]:
            return None
    return sign, tuple(forms)


class TermMap:
    """Immutable finite linear combination: ``terms`` maps hashable keys
    to nonzero LambdaScalar coefficients.

    Subclasses validate (and may normalize) keys in ``_checked``, which
    only the public constructor runs; results built from terms that are
    already valid go through ``_nonzero``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", accumulate(self._checked(
            (key, q if isinstance(q, LambdaScalar) else LambdaScalar(q))
            for key, q in (terms or {}).items())))

    @staticmethod
    def _checked(pairs):
        return pairs

    @classmethod
    def _nonzero(cls, terms):
        """Instance over a dict of nonzero coefficients whose keys are
        already valid."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def items(self):
        """Deterministic iteration: sorted keys."""
        return sorted(self.terms.items())

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._nonzero(accumulate(chain(self.terms.items(),
                                              other.terms.items())))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._nonzero(accumulate(chain(
            self.terms.items(), ((k, -q) for k, q in other.terms.items()))))

    def __neg__(self):
        return self._nonzero({k: -q for k, q in self.terms.items()})

    def scale(self, s):
        s = s if isinstance(s, LambdaScalar) else LambdaScalar(s)
        return self._nonzero(accumulate((k, q * s)
                                        for k, q in self.terms.items()))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class GenPoly(TermMap):
    """Finite sum of terms q * x^a * t^b with a rational, b natural.

    Coefficients q are LambdaScalars.  The product implemented here is
    the *commutative* one (classical functions); the metric module
    layers the lambda-deformed normal ordering on top of this carrier.
    """

    __slots__ = ()

    @staticmethod
    def _checked(pairs):
        for (a, b), q in pairs:
            b = int(b)
            if b < 0:
                raise ValueError("t-exponent must be natural")
            yield (Fraction(a), b), q

    @staticmethod
    def monomial(a=0, b=0, q=1):
        return GenPoly({(a, b): q})

    @staticmethod
    def const(q):
        return GenPoly.monomial(0, 0, q)

    def __mul__(self, other):
        """Commutative product (classical limit bookkeeping)."""
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self._nonzero(accumulate(
            ((a1 + a2, b1 + b2), q1 * q2)
            for (a1, b1), q1 in self.terms.items()
            for (a2, b2), q2 in other.terms.items()))

    def eval_lambda(self, lam: Scalar) -> "GenPoly":
        return GenPoly(
            {k: LambdaScalar(v.evaluate(lam)) for k, v in self.terms.items()}
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), q in self.items():
            piece = f"({q!r})"
            if a:
                piece += f"*x^{a}"
            if b:
                piece += f"*t^{b}"
            parts.append(piece)
        return " + ".join(parts)


def genpoly_derivative(f: GenPoly, var: str) -> GenPoly:
    """Term-wise derivative: d/dx x^a = a x^(a-1), d/dt t^b = b t^(b-1)."""
    if var not in ("x", "t"):
        raise ValueError("var must be 'x' or 't'")
    if var == "x":
        pairs = (((a - 1, b), q * LambdaScalar(Scalar(a)))
                 for (a, b), q in f.terms.items() if a != 0)
    else:
        pairs = (((a, b - 1), q * LambdaScalar(Scalar(b)))
                 for (a, b), q in f.terms.items() if b != 0)
    return f._nonzero(accumulate(pairs))


class RatFunc:
    """Fraction of two GenPolys; equality by cross-multiplication.

    No gcd normalization is attempted (rational x-exponents make a
    canonical gcd awkward), so two equal fractions may have different
    representatives; use ratfunc_equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: GenPoly, den: GenPoly = None):
        if den is None:
            den = GenPoly.const(1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in RatFunc")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def const(q):
        return RatFunc(GenPoly.const(q))

    def is_zero(self):
        return self.num.is_zero()

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """True iff f.num*g.den == g.num*f.den as GenPoly."""
    return f.num * g.den == g.num * f.den



class Verdict:
    """The outcome of an identity check: the witnesses on which it
    fails, a tuple, and true exactly when there are none.  A check that
    covers several identities tags each witness with the identity's
    name, (name, *witness).  Not a tuple itself, so a report holding a
    Verdict cannot be printed as if it were a list."""

    __slots__ = ("witnesses",)

    def __init__(self, witnesses=()):
        object.__setattr__(self, "witnesses", tuple(witnesses))

    def __setattr__(self, name, value):
        raise AttributeError("Verdict is immutable")

    def __bool__(self):
        return not self.witnesses

    def __eq__(self, other):
        if not isinstance(other, Verdict):
            return NotImplemented
        return self.witnesses == other.witnesses

    def __hash__(self):
        return hash(self.witnesses)

    def __repr__(self):
        return f"Verdict({list(self.witnesses)!r})"
