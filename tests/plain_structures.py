"""Generalized structures of classical data under the zero twist, shared
by the test modules that build them from a form or a matrix."""

from gkbench.calculus import DiffForm
from gkbench.structures import GenStructure, complex_matrix, symplectic_matrix


def symplectic_structure(omega):
    """The generalized structure of a symplectic form, under the zero twist."""
    return GenStructure(omega.chart, symplectic_matrix(omega), DiffForm.zero(omega.chart, 3))


def complex_structure(jmat, chart):
    """The generalized structure of an almost complex structure on the
    tangent bundle, under the zero twist."""
    return GenStructure(chart, complex_matrix(jmat, chart), DiffForm.zero(chart, 3))
