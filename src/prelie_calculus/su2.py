"""The two SU(2) verifications.

First, the semiclassical extraction: the hardcoded preconnection
coefficients on the dual of su2 form a pre-Lie product compatible with
the su2* bracket, and a basis change exhibits the real form
t o t = -2t, t o x_i = -x_i (a 3D analogue of the first 2D family at
alpha = -2).

Second, the bicrossproduct well-definedness: inside the coordinate
algebra of SL2 (commutative a,b,c,d modulo ad - bc = 1) the three
cross-relation matrices [x^i, t] have counit zero and their image under
the linearization map omega agrees with minus the right action of x^i
on the invariant-form matrix, reproducing the three closed-form
matrices in omega^0, omega^+, omega^-.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_core import (
    I,
    LAMBDA,
    L_ONE,
    L_ZERO,
    LambdaScalar,
    ONE,
    Scalar,
    Tensor,
    ZERO,
)
from .catalog import b_family, su2_dual_lie
from .prelie import (
    PreLieProduct,
    change_basis,
    check_compatibility,
    check_left_symmetry,
)

__all__ = [
    "SL2Poly",
    "sl2_gen",
    "omega_linearize",
    "cross_relation",
    "verify_su2_semiclassical",
    "verify_su2_bicrossproduct_omega",
]

HALF = Scalar(Fraction(1, 2))


class SL2Poly:
    """Commutative polynomial in a, b, c, d modulo ad - bc - 1.

    Terms map exponent 4-tuples (ea, eb, ec, ed) to LambdaScalar
    coefficients.  Normal form eliminates mixed a,d powers by the
    confluent rewrite ad -> 1 + bc (monomial order a > b > c > d), so
    normalized monomials have ea * ed = 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        work = list((terms or {}).items())
        while work:
            (ea, eb, ec, ed), q = work.pop()
            q = q if isinstance(q, LambdaScalar) else LambdaScalar(q)
            if q.is_zero():
                continue
            if ea > 0 and ed > 0:
                # a^ea d^ed = a^(ea-1) d^(ed-1) (1 + bc)
                work.append(((ea - 1, eb, ec, ed - 1), q))
                work.append(((ea - 1, eb + 1, ec + 1, ed - 1), q))
                continue
            key = (ea, eb, ec, ed)
            acc = clean.get(key, L_ZERO) + q
            if acc.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = acc
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SL2Poly is immutable")

    @staticmethod
    def const(q):
        return SL2Poly({(0, 0, 0, 0): q})

    def __add__(self, other):
        out = dict(self.terms)
        for k, q in other.terms.items():
            out[k] = out.get(k, L_ZERO) + q
        return SL2Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SL2Poly({k: -q for k, q in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in other.terms.items():
                key = tuple(e1 + e2 for e1, e2 in zip(k1, k2))
                out[key] = out.get(key, L_ZERO) + q1 * q2
        return SL2Poly(out)

    def scale(self, q):
        q = q if isinstance(q, LambdaScalar) else LambdaScalar(q)
        return SL2Poly({k: v * q for k, v in self.terms.items()})

    def counit(self) -> LambdaScalar:
        """Evaluate a, d -> 1 and b, c -> 0."""
        acc = L_ZERO
        for (ea, eb, ec, ed), q in self.terms.items():
            if eb == 0 and ec == 0:
                acc = acc + q
        return acc

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SL2Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, q in sorted(self.terms.items()):
            mono = "".join(f"{g}^{e}" for g, e in zip("abcd", key) if e)
            parts.append(f"({q!r}){mono}")
        return " + ".join(parts)


def sl2_gen(name: str) -> SL2Poly:
    idx = "abcd".index(name)
    key = [0, 0, 0, 0]
    key[idx] = 1
    return SL2Poly({tuple(key): L_ONE})


# invariant 1-form indices
W0, WP, WM = 0, 1, 2


def omega_linearize(p: SL2Poly):
    """The linearization map on the augmentation ideal:

    a - 1 -> omega^0, b -> omega^+, c -> omega^-, d - 1 -> -omega^0,
    vanishing on products of two augmentation-ideal elements.  Returns
    LambdaScalar coefficients over (omega^0, omega^+, omega^-).
    """
    if not p.counit().is_zero():
        raise ValueError("omega is only defined on counit-zero elements")
    out = [L_ZERO, L_ZERO, L_ZERO]
    for (ea, eb, ec, ed), q in p.terms.items():
        if eb == 0 and ec == 0:
            # a^ea (or d^ed): linear part ea (a-1) - ed (d-1)
            out[W0] = out[W0] + q * LambdaScalar(Scalar(ea - ed))
        elif eb == 1 and ec == 0:
            out[WP] = out[WP] + q
        elif ec == 1 and eb == 0:
            out[WM] = out[WM] + q
        # monomials with eb + ec >= 2 lie in (A+)^2
    return out


def _mat_mul(m1, m2):
    return [[m1[r][0] * m2[0][s] + m1[r][1] * m2[1][s] for s in (0, 1)]
            for r in (0, 1)]


def _mat_sub(m1, m2):
    return [[m1[r][s] - m2[r][s] for s in (0, 1)] for r in (0, 1)]


def _pauli_half(i):
    """e_i = -(i/2) sigma_i as a constant SL2Poly matrix."""
    mih = -I * HALF
    if i == 1:
        return [[SL2Poly(), SL2Poly.const(mih)],
                [SL2Poly.const(mih), SL2Poly()]]
    if i == 2:
        return [[SL2Poly(), SL2Poly.const(-I * mih)],
                [SL2Poly.const(I * mih), SL2Poly()]]
    return [[SL2Poly.const(mih), SL2Poly()],
            [SL2Poly(), SL2Poly.const(-mih)]]


def _t_matrix():
    return [[sl2_gen("a"), sl2_gen("b")], [sl2_gen("c"), sl2_gen("d")]]


def _t_inverse():
    # inverse of the defining matrix under ad - bc = 1
    return [[sl2_gen("d"), -sl2_gen("b")], [-sl2_gen("c"), sl2_gen("a")]]


def cross_relation(i: int):
    """[x^i, t] = lambda t [e_i, t^{-1} e_3 t - e_3] as a 2x2 matrix."""
    t, tinv, e3 = _t_matrix(), _t_inverse(), _pauli_half(3)
    m = _mat_sub(_mat_mul(_mat_mul(tinv, e3), t), e3)
    ei = _pauli_half(i)
    comm = _mat_sub(_mat_mul(ei, m), _mat_mul(m, ei))
    prod = _mat_mul(t, comm)
    return [[prod[r][s].scale(LAMBDA) for s in (0, 1)] for r in (0, 1)]


def _displayed_cross_relation(i: int):
    """The same matrices written out as explicit cubic polynomials."""
    a, b, c, d = (sl2_gen(g) for g in "abcd")
    if i == 1:
        m = [[a * b * d - a * a * c - b.scale(2),
              b * b * d - a * a * d + a],
             [a * d * d - a * c * c - d,
              b * d * d - a * c * d + c.scale(2)]]
        factor = LAMBDA * (-HALF)
    elif i == 2:
        m = [[a * a * c + a * b * d - b.scale(2),
              a * a * d + b * b * d - a],
             [a * c * c + a * d * d - d,
              b * d * d + a * c * d - c.scale(2)]]
        factor = LAMBDA * (-I * HALF)
    else:
        m = [[a * a * d - a, a * b * d], [a * c * d, a * d * d - d]]
        factor = -LAMBDA
    return [[m[r][s].scale(factor) for s in (0, 1)] for r in (0, 1)]


def _act_on_form(vec, i):
    """Right action of x^i on a (omega^0, omega^+, omega^-) vector:

    omega^0 <| x^1 = -(lambda/2)(omega^+ + omega^-),
    omega^0 <| x^2 = -(i lambda/2)(omega^+ - omega^-),
    omega^+- <| x^3 = lambda omega^+-, all other generators killed.
    """
    out = [L_ZERO, L_ZERO, L_ZERO]
    if i == 1:
        s = vec[W0] * LAMBDA * (-HALF)
        out[WP], out[WM] = s, s
    elif i == 2:
        s = vec[W0] * LAMBDA * (-I * HALF)
        out[WP], out[WM] = s, -s
    else:
        out[WP] = vec[WP] * LAMBDA
        out[WM] = vec[WM] * LAMBDA
    return out


def _form_vec(w0=L_ZERO, wp=L_ZERO, wm=L_ZERO):
    return [w0, wp, wm]


def verify_su2_bicrossproduct_omega(with_witnesses=False):
    """Check the three omega well-definedness identities exactly."""
    failures = []

    # the structured commutator formula matches the cubic displays
    for i in (1, 2, 3):
        if cross_relation(i) != _displayed_cross_relation(i):
            failures.append(("cross-relation-display", i))

    # counit of every entry vanishes (commutators live in the
    # augmentation ideal)
    for i in (1, 2, 3):
        for r in (0, 1):
            for s in (0, 1):
                if not cross_relation(i)[r][s].counit().is_zero():
                    failures.append(("counit", i, r, s))

    # omega([x^i, t]) entrywise vs -omega_A(t - I) <| x^i
    half_l = LAMBDA * HALF
    targets = {
        1: [[_form_vec(wp=half_l, wm=half_l), _form_vec()],
            [_form_vec(), _form_vec(wp=-half_l, wm=-half_l)]],
        2: [[_form_vec(wp=I * half_l, wm=-I * half_l), _form_vec()],
            [_form_vec(), _form_vec(wp=-I * half_l, wm=I * half_l)]],
        3: [[_form_vec(), _form_vec(wp=-LAMBDA)],
            [_form_vec(wm=-LAMBDA), _form_vec()]],
    }
    omega_mat = [[_form_vec(w0=L_ONE), _form_vec(wp=L_ONE)],
                 [_form_vec(wm=L_ONE), _form_vec(w0=-L_ONE)]]
    for i in (1, 2, 3):
        rel = cross_relation(i)
        for r in (0, 1):
            for s in (0, 1):
                rhs = omega_linearize(rel[r][s])
                lhs = [-v for v in _act_on_form(omega_mat[r][s], i)]
                if rhs != lhs:
                    failures.append(("omega-action", i, r, s))
                if rhs != targets[i][r][s]:
                    failures.append(("omega-display", i, r, s))

    report = {"passed": not failures}
    if with_witnesses:
        report["witnesses"] = failures
    return report


# dual Chevalley basis order: 0 = phi, 1 = psi+, 2 = psi-
def _semiclassical_xi(mutated=False) -> PreLieProduct:
    """Xi(phi,phi) = -i phi, Xi(phi,psi+-) = -(i/2) psi+-."""
    plus = -I if mutated else -I * HALF
    entries = {
        (0, 0, 0): -I,
        (0, 1, 1): plus,
        (0, 2, 2): -I * HALF,
    }
    return PreLieProduct(3, ("phi", "psi+", "psi-"),
                         Tensor((3, 3, 3), entries))


def verify_su2_semiclassical(with_witnesses=False):
    """Check the semiclassical pre-Lie structure on the dual of su2."""
    failures = []
    X = _semiclassical_xi()
    dual = su2_dual_lie()

    if not check_left_symmetry(X):
        failures.append("left-symmetry")
    if not check_compatibility(X, dual):
        failures.append("compatibility")

    # basis change t = -2i phi, x1 = i(psi+ + psi-), x2 = psi+ - psi-
    P = [[Scalar(0, -2), ZERO, ZERO],
         [ZERO, I, ONE],
         [ZERO, I, -ONE]]
    try:
        real = change_basis(X, P, new_names=("t", "x1", "x2"))
    except ValueError:
        failures.append("basis-change-singular")
        real = None

    if real is not None:
        expected = {
            (0, 0, 0): Scalar(-2),   # t o t = -2t
            (0, 1, 1): -ONE,         # t o x1 = -x1
            (0, 2, 2): -ONE,         # t o x2 = -x2
        }
        if real.xi.entries != expected:
            failures.append("real-form-products")

        # the {x1, t} subalgebra is the 2D family b1 at alpha = -2
        sub = {}
        for (i, j, k), v in real.xi.entries.items():
            if i < 2 and j < 2 and k < 2:
                # reorder to (x, t) = (x1, t): swap indices 0 <-> 1
                sub[(1 - i, 1 - j, 1 - k)] = v
        if sub != dict(b_family("b1", Fraction(-2)).xi.entries):
            failures.append("b1-subalgebra")

    # transcription guard: flipping Xi(phi,psi+) to -i must break
    # compatibility with the dual bracket
    if check_compatibility(_semiclassical_xi(mutated=True), dual):
        failures.append("mutation-not-detected")

    report = {"passed": not failures}
    if with_witnesses:
        report["witnesses"] = failures
    return report
