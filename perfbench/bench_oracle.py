"""Independent reference checks on exact rational pairs.

Structure constants are dicts ``{(i, j, k): (re, im)}`` of Fractions,
so that ``e_i o e_j = sum_k c[i, j, k] e_k``.  Nothing here imports
``prelie_calculus``: these checks fix the expected verdicts the
benchmark compares the program's answers against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm


def _gaussian_integers(table):
    """Scale a table by the lcm of its denominators.

    Both identities checked here are homogeneous of degree 2 in the
    structure constants, so clearing denominators keeps the verdict and
    lets the dense sums run on Python ints.
    """
    den = 1
    for re, im in table.values():
        den = lcm(den, Fraction(re).denominator, Fraction(im).denominator)
    return {key: (int(Fraction(re) * den), int(Fraction(im) * den))
            for key, (re, im) in table.items()
            if re != 0 or im != 0}


def _dense(table, dim):
    ints = _gaussian_integers(table)
    return [[[ints.get((i, j, k), (0, 0)) for k in range(dim)]
             for j in range(dim)] for i in range(dim)]


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def is_left_symmetric(table, dim):
    """(x o y) o z - x o (y o z) is symmetric in x, y for all basis
    vectors x, y, z, by dense summation over every index."""
    c = _dense(table, dim)
    rng = range(dim)

    def assoc(x, y, z, out):
        re = im = 0
        for m in rng:
            p = _cmul(c[x][y][m], c[m][z][out])
            q = _cmul(c[y][z][m], c[x][m][out])
            re += p[0] - q[0]
            im += p[1] - q[1]
        return re, im

    for x, y, z, out in product(rng, rng, rng, rng):
        if x < y and assoc(x, y, z, out) != assoc(y, x, z, out):
            return False
    return True


def is_lie_bracket(table, dim):
    """Antisymmetry and the Jacobi identity of a bracket table."""
    c = _dense(table, dim)
    rng = range(dim)
    for x, y, k in product(rng, rng, rng):
        a, b = c[x][y][k], c[y][x][k]
        if (a[0] + b[0], a[1] + b[1]) != (0, 0):
            return False
    for x, y, z, out in product(rng, rng, rng, rng):
        re = im = 0
        for m in rng:
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                t = _cmul(c[p][q][m], c[m][r][out])
                re += t[0]
                im += t[1]
        if (re, im) != (0, 0):
            return False
    return True


def antisymmetrize(table):
    """The bracket [x, y] = x o y - y o x of a product table."""
    out = {}
    for (i, j, k) in set(table) | {(j, i, k) for (i, j, k) in table}:
        a = table.get((i, j, k), (0, 0))
        b = table.get((j, i, k), (0, 0))
        v = (Fraction(a[0]) - b[0], Fraction(a[1]) - b[1])
        if v != (0, 0):
            out[(i, j, k)] = v
    return out
