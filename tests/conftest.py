"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest

from quandlecolor import catalog, catalog_names


def exact_det(matrix) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    n = len(m)
    if n == 0:
        return 1
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] * inv
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    assert det.denominator == 1
    return int(det)


def matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def smith_columns(matrix, snf) -> list[list[int]]:
    """W with A*V = W*D: column j of A*V is d_j * w_j, and zero from the rank on.

    With V unimodular, W extending to a unimodular matrix M = [W | W'] gives
    A*V = M*D, so D = U*A*V for the unimodular U = M^-1.  Returns W as
    rows x rank.
    """
    av = matmul(matrix, snf.col_transform)
    assert all(v == 0 for row in av for v in row[snf.rank:])
    for row in av:
        assert all(v % d == 0 for v, d in zip(row, snf.diagonal))
    return [[v // d for v, d in zip(row, snf.diagonal)] for row in av]


def minors_gcd(matrix, k: int) -> int:
    """gcd of all k x k minors of a matrix with k columns (1 when k = 0).

    It is 1 exactly when the columns extend to a unimodular matrix.
    """
    g = 0
    for rows in itertools.combinations(matrix, k):
        g = gcd(g, exact_det(rows))
    return g


def modular_solutions(matrix, cols: int, n: int) -> set[tuple[int, ...]]:
    """All x in (Z_n)^cols with A*x = 0 (mod n), by exhaustive enumeration."""
    solutions = set()
    for x in itertools.product(range(n), repeat=cols):
        if all(sum(c * v for c, v in zip(row, x)) % n == 0 for row in matrix):
            solutions.add(x)
    return solutions


def all_quandle_tables(m: int) -> list[list[list[int]]]:
    """Every operation table on {0..m-1} satisfying all three quandle axioms.

    Columns are built from permutations fixing their own index (axioms 1+2),
    then filtered by self-distributivity.  Exhaustive; only sane for m <= 4.
    """
    others = [[x for x in range(m) if x != y] for y in range(m)]
    column_choices = []
    for y in range(m):
        cols = []
        for perm in itertools.permutations(others[y]):
            col = [0] * m
            col[y] = y
            for x, img in zip(others[y], perm):
                col[x] = img
            cols.append(col)
        column_choices.append(cols)
    tables = []
    for combo in itertools.product(*column_choices):
        op = [[combo[y][x] for y in range(m)] for x in range(m)]
        if all(
            op[op[x][y]][z] == op[op[x][z]][op[y][z]]
            for x in range(m)
            for y in range(m)
            for z in range(m)
        ):
            tables.append(op)
    return tables


@pytest.fixture(scope="session")
def small_catalog():
    """Catalog diagrams with at most 6 crossings."""
    return {
        name: catalog(name)
        for name in catalog_names()
        if catalog(name).crossing_count <= 6
    }
