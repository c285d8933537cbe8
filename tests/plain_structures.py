"""Generalized structures of classical data under the zero twist, shared
by the test modules that build them from a form or a matrix."""

from fractions import Fraction

from gkbench.calculus import DiffForm
from gkbench.ring import Scalar
from gkbench.structures import GenStructure, complex_matrix, symplectic_matrix


def symplectic_structure(omega):
    """The generalized structure of a symplectic form, under the zero twist."""
    return GenStructure(omega.chart, symplectic_matrix(omega), DiffForm.zero(omega.chart, 3))


def complex_structure(jmat, chart):
    """The generalized structure of an almost complex structure on the
    tangent bundle, under the zero twist."""
    return GenStructure(chart, complex_matrix(jmat, chart), DiffForm.zero(chart, 3))


def pairing_failure(matrix):
    """The algebraic verdict's detail for a dense J that does not preserve
    the pairing, from the dense residual: with S the swap of J's row halves,
    G J + J^T G is (S + S^T)/2, and the detail names its first nonzero entry
    in row-major order."""
    n = len(matrix) // 2
    s = matrix[n:] + matrix[:n]
    r, c, x = next(
        (i, j, s[i][j] + s[j][i])
        for i in range(2 * n)
        for j in range(2 * n)
        if not (s[i][j] + s[j][i]).is_zero
    )
    half = x.scale(Scalar.of(Fraction(1, 2)))
    return f"matrix does not preserve the pairing: entry ({r}, {c}) of G J + J^T G is {half}"
