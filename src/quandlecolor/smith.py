"""Integer Smith normal form with exact (arbitrary-precision) arithmetic.

Diagonalizes an integer matrix A by unimodular row and column operations
into D = U * A * V with d1 | d2 | ... | dk > 0 on the diagonal, in two
stages.  First, one pass per pivot: the minimal nonzero absolute value of
the trailing block is swapped into place, and Euclidean reduction clears
its row and column.  Second, the divisibility chain is made on the
diagonal alone: each pair d_i, d_j with d_i not dividing d_j becomes
gcd, lcm by a 2x2 unimodular step that changes only columns i and j of
V.  Entries stay Python ints throughout, so growth never overflows.

Only the column transform V is kept.  The diagonal gives exact solution
counts of homogeneous systems over Z_n: A*x = 0 (mod n) has
n**(cols - k) * prod(gcd(d_i, n)) solutions, and x = V*y parameterizes
them from the solutions y of D*y = 0.  Neither needs the row transform U,
and no pivot choice reads it, so it is never built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SmithForm:
    """Result of :func:`smith_normal_form`: U * A * V = diag(diagonal).

    ``diagonal`` is the Smith chain d1 | d2 | ... | dk > 0; U is some
    unimodular matrix, and only V is kept (see the module docstring).
    """

    rows: int
    cols: int
    diagonal: tuple[int, ...]
    col_transform: Matrix  # V, cols x cols, |det| = 1

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def diagonal_matrix(self) -> Matrix:
        """The full rows x cols diagonal matrix D."""
        d = [[0] * self.cols for _ in range(self.rows)]
        for i, v in enumerate(self.diagonal):
            d[i][i] = v
        return tuple(tuple(row) for row in d)


def smith_normal_form(matrix: Sequence[Sequence[int]], cols: int | None = None) -> SmithForm:
    """Compute the Smith normal form of an integer matrix.

    ``cols`` is only needed when ``matrix`` has no rows.
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    if m:
        widths = {len(row) for row in a}
        if len(widths) != 1:
            raise ValueError("matrix rows have differing lengths")
        n = widths.pop()
        if cols is not None and cols != n:
            raise ValueError(f"cols={cols} disagrees with row length {n}")
    else:
        if cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        n = cols
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, factor: int) -> None:
        a[dst] = [x + factor * y for x, y in zip(a[dst], a[src])]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in a:
            row[dst] += factor * row[src]
        for row in v:
            row[dst] += factor * row[src]

    d: list[int] = []  # the pivots, in order
    for s in range(min(m, n)):
        # minimal |entry| != 0 in the trailing block becomes the pivot; ties
        # go to the first in row-major order
        pivot = min(
            ((abs(a[i][j]), i, j) for i in range(s, m) for j in range(s, n) if a[i][j]),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != s:
            swap_rows(s, pi)
        if pj != s:
            swap_cols(s, pj)
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
        # Euclidean clearing of column s and row s; floor division keeps
        # residues in [0, pivot), so each swap shrinks the pivot
        while True:
            for i in range(s + 1, m):
                if a[i][s]:
                    add_row(i, s, -(a[i][s] // a[s][s]))
            left = next((i for i in range(s + 1, m) if a[i][s]), None)
            if left is not None:
                swap_rows(s, left)
                continue
            for j in range(s + 1, n):
                if a[s][j]:
                    add_col(j, s, -(a[s][j] // a[s][s]))
            left = next((j for j in range(s + 1, n) if a[s][j]), None)
            if left is not None:
                swap_cols(s, left)
                continue
            break
        d.append(a[s][s])

    # divisibility chain on the diagonal alone: diag(p, q) becomes
    # diag(g, p*q/g), g = gcd(p, q), by a determinant-1 change of columns i
    # and j of V; the matching row operations would only touch U
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            p, q = d[i], d[j]
            if q % p:
                g = gcd(p, q)
                x = pow(p // g, -1, q // g)
                f, h = (x * p - g) // g, x * p // g
                for row in v:
                    row[i], row[j] = row[i] + row[j], f * row[i] + h * row[j]
                d[i], d[j] = g, p * q // g
    return SmithForm(
        rows=m,
        cols=n,
        diagonal=tuple(d),
        col_transform=tuple(tuple(row) for row in v),
    )


def solution_count_mod(snf: SmithForm, n: int) -> int:
    """Number of x in (Z_n)^cols with A*x = 0 (mod n), from A's Smith form."""
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    count = n ** (snf.cols - snf.rank)
    for d in snf.diagonal:
        count *= gcd(d, n)
    return count
