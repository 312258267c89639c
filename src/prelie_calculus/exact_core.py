"""Exact scalar, polynomial, tensor and linear-algebra kernel.

Everything downstream works over the Gaussian rationals Q(i) (class
``Scalar``), optionally extended by a formal deformation parameter
lambda (class ``LambdaScalar``, a polynomial in lambda whose conjugation
sends lambda to -lambda).  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

__all__ = [
    "Scalar",
    "LambdaScalar",
    "Tensor",
    "GenPoly",
    "RatFunc",
    "ZERO",
    "ONE",
    "I",
    "LAMBDA",
    "L_ZERO",
    "L_ONE",
    "tensor_contract",
    "contract_sum",
    "linear_kernel",
    "ratfunc_equal",
    "genpoly_derivative",
]


class Scalar:
    """An element a + b*i of Q(i), with a, b stored as Fractions."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if type(re) is not Fraction:
            re = Fraction(re)
        if type(im) is not Fraction:
            im = Fraction(im)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.im or o.im):
            return Scalar(self.re + o.re, self.im)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.im or o.im):
            return Scalar(self.re - o.re, self.im)
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Scalar(-self.re, -self.im if self.im else self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self.im or o.im):
            return Scalar(self.re * o.re, self.im)
        return Scalar(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def conj(self):
        return Scalar(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"({self.re}{'+' if self.im > 0 else ''}{self.im}*i)"

    def sort_key(self):
        return (self.re, self.im)


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _as_scalar(v):
    if isinstance(v, Scalar):
        return v
    return Scalar(v)


class LambdaScalar:
    """Polynomial in the formal deformation parameter lambda.

    Coefficients are Scalars indexed by lambda-degree.  The star
    operation conjugates coefficients and flips the sign of odd
    degrees, implementing lambda* = -lambda together with i* = -i.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, Fraction, Scalar)):
            coeffs = (_as_scalar(coeffs),)
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("LambdaScalar is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, LambdaScalar):
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return LambdaScalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return LambdaScalar(
            [self.coeff(k) + o.coeff(k) for k in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return LambdaScalar([-c for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return L_ZERO
        out = [ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            if ca.is_zero():
                continue
            for b, cb in enumerate(o.coeffs):
                out[a + b] = out[a + b] + ca * cb
        return LambdaScalar(out)

    __rmul__ = __mul__

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else ZERO

    def conj(self):
        """Star: coefficient of lambda^k maps to (-1)^k * conj."""
        return LambdaScalar(
            [c.conj() if k % 2 == 0 else -c.conj()
             for k, c in enumerate(self.coeffs)]
        )

    def evaluate(self, lam: Scalar) -> Scalar:
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
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


L_ZERO = LambdaScalar(())
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

    def __neg__(self):
        return self.scale(Scalar(-1))

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
    def _nonzero(cls, shape, entries):
        """Tensor over entries already keyed inside shape, dropping the
        zero values without revalidating the keys."""
        t = object.__new__(cls)
        object.__setattr__(t, "shape", shape)
        object.__setattr__(t, "entries",
                           {k: v for k, v in entries.items()
                            if not v.is_zero()})
        return t

    @staticmethod
    def kronecker(n):
        return Tensor((n, n), {(i, i): ONE for i in range(n)})


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
    projections per pairwise join, and the final reorder (or None)."""
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
        final = (_tuple_getter([labels.index(c) for c in out]),
                 len(out) == len(labels))
    return tuple(dims[c] for c in out), joins, final


def _contract(spec, operands):
    """Output shape and a fresh dict from output keys to Scalars, zeros
    included."""
    shape, joins, final = _plan(spec, tuple(t.shape for t in operands))
    cur = operands[0].entries
    for (key_r, rest_r, key_l, left_l), t in zip(joins, operands[1:]):
        buckets = {}
        for key, v in t.entries.items():
            buckets.setdefault(key_r(key), []).append((rest_r(key), v))
        acc = {}
        get = acc.get
        for key, v in cur.items():
            hits = buckets.get(key_l(key))
            if hits is None:
                continue
            left = left_l(key)
            for rest, w in hits:
                k = left + rest
                p = v * w
                old = get(k)
                acc[k] = p if old is None else old + p
        cur = acc
    if final is None:
        return shape, (cur if joins else dict(cur))
    proj, is_reorder = final
    if is_reorder:
        return shape, {proj(key): v for key, v in cur.items()}
    acc = {}
    get = acc.get
    for key, v in cur.items():
        k = proj(key)
        old = get(k)
        acc[k] = v if old is None else old + v
    return shape, acc


def tensor_contract(spec, *operands) -> Tensor:
    """Sparse einsum over Tensors, e.g. tensor_contract("ijm,mko->ijko",
    c, c) = sum_m c[i,j,m] c[m,k,o].

    Each operand gets one label per axis; labels absent from the output
    are summed over, and a single operand with a permuted output is a
    pure axis reorder.  Only nonzero entries are ever visited.
    """
    return Tensor._nonzero(*_contract(spec, operands))


def contract_sum(terms) -> Tensor:
    """Signed sum of contractions: terms are (sign, spec, *operands)
    with sign +1 or -1, all with the same output shape.  The result
    holds exactly the nonzero entries, so a checker reads its witnesses
    off the leading indices of its keys."""
    acc = shape = None
    for sign, spec, *operands in terms:
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        term_shape, part = _contract(spec, operands)
        if acc is None:
            acc, shape = part, term_shape
            if sign < 0:
                acc = {k: -v for k, v in acc.items()}
            continue
        if term_shape != shape:
            raise ValueError(f"term {spec!r} has shape {term_shape}, "
                             f"expected {shape}")
        get = acc.get
        for k, v in part.items():
            old = get(k)
            if old is None:
                acc[k] = v if sign > 0 else -v
            else:
                acc[k] = old + v if sign > 0 else old - v
    if acc is None:
        raise ValueError("contract_sum needs at least one term")
    return Tensor._nonzero(shape, acc)


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


class GenPoly:
    """Finite sum of terms q * x^a * t^b with a rational, b natural.

    Coefficients q are LambdaScalars.  The product implemented here is
    the *commutative* one (classical functions); the metric module
    layers the lambda-deformed normal ordering on top of this carrier.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (a, b), q in terms.items():
                a = Fraction(a)
                b = int(b)
                if b < 0:
                    raise ValueError("t-exponent must be natural")
                q = q if isinstance(q, LambdaScalar) else LambdaScalar(q)
                if not q.is_zero():
                    key = (a, b)
                    if key in clean:
                        q = clean[key] + q
                        if q.is_zero():
                            del clean[key]
                            continue
                    clean[key] = q
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GenPoly is immutable")

    @staticmethod
    def monomial(a=0, b=0, q=1):
        return GenPoly({(Fraction(a), int(b)): LambdaScalar(q)
                        if not isinstance(q, LambdaScalar) else q})

    @staticmethod
    def const(q):
        return GenPoly.monomial(0, 0, q)

    def items(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, q in other.terms.items():
            out[key] = out.get(key, L_ZERO) + q
        return GenPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GenPoly({k: -q for k, q in self.terms.items()})

    def __mul__(self, other):
        """Commutative product (classical limit bookkeeping)."""
        if not isinstance(other, GenPoly):
            return NotImplemented
        out = {}
        for (a1, b1), q1 in self.terms.items():
            for (a2, b2), q2 in other.terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, L_ZERO) + q1 * q2
        return GenPoly(out)

    def scale(self, q):
        q = q if isinstance(q, LambdaScalar) else LambdaScalar(q)
        return GenPoly({k: v * q for k, v in self.terms.items()})

    def eval_lambda(self, lam: Scalar) -> "GenPoly":
        return GenPoly(
            {k: LambdaScalar(v.evaluate(lam)) for k, v in self.terms.items()}
        )

    def is_zero(self):
        return not self.terms

    def max_lambda_degree(self):
        return max((len(q.coeffs) - 1 for q in self.terms.values()), default=-1)

    def __eq__(self, other):
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

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
    out = {}
    for (a, b), q in f.terms.items():
        if var == "x":
            if a == 0:
                continue
            key = (a - 1, b)
            factor = LambdaScalar(Scalar(a))
        else:
            if b == 0:
                continue
            key = (a, b - 1)
            factor = LambdaScalar(Scalar(b))
        out[key] = out.get(key, L_ZERO) + q * factor
    return GenPoly(out)


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

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def derivative(self, var: str) -> "RatFunc":
        """Quotient rule with exact GenPoly arithmetic."""
        return RatFunc(
            genpoly_derivative(self.num, var) * self.den
            - self.num * genpoly_derivative(self.den, var),
            self.den * self.den,
        )

    def is_zero(self):
        return self.num.is_zero()

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


def ratfunc_equal(f: RatFunc, g: RatFunc) -> bool:
    """True iff f.num*g.den == g.num*f.den as GenPoly."""
    return f.num * g.den == g.num * f.den

