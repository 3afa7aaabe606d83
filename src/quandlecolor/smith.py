"""Smith normal form by one sparse elimination, over Z or over Z_n.

Diagonalizes an integer matrix A by row and column operations into
D = U * A * V.  The ``modulus`` argument picks the ring:

* ``modulus=0`` works over Z, with unimodular operations on exact Python
  ints, and returns the diagonal alone: its one caller reads nothing else,
  so V is not kept.  The diagonal is made the Smith chain
  d1 | d2 | ... | dk > 0 on the diagonal itself: each pair d_i, d_j with
  d_i not dividing d_j becomes gcd, lcm (Cohen, GTM 138, §2.4).
* ``modulus=n`` works over Z_n and also keeps V.  Every entry of A and of
  V is kept as its symmetric residue in (-n/2, n/2], so no coefficient
  grows past n/2.  This is sound: integer row and column operations that
  are unimodular stay invertible mod n, so does scaling a row by a unit of
  Z_n, and reducing an entry mod n changes nothing in Z_n, so
  U*A*V = D (mod n) with U and V invertible mod n.  A pivot that is a unit
  (gcd(p, n) = 1, such as 2 mod 7) has its row scaled by p^-1 mod n, so it
  reads 1 on the diagonal and clears its column and row with no remainder.
  No chain step runs; the count and the parameterization below hold for
  any diagonal.

Storage is sparse, because a coloring system has at most 3 nonzeros per
row: each live row is a nonzero {col: value} dict, and each column keeps the
set of live rows that hold it; a row that a row operation empties leaves.
:func:`_eliminate` works on rows given as (column, value) pairs, which is
how the solver holds them; :func:`smith_normal_form` reads a dense matrix
into such pairs.  V is not stored: each column operation is logged, and
:meth:`SmithForm.column` replays the log for the one column asked for (the
product form of Dantzig and Orchard-Hays, MTAC 1954).

The pivot row is the live row with the fewest nonzeros (Markowitz,
Management Science 1957) whose best entry ranks least, ties to the lowest
row: each pivot takes one scan of the live rows, kept in index order, over
those of the fewest nonzeros.  An entry ranks by its absolute value, and
over Z_n every unit ranks as 1, so the scan stops at the first such row
with a unit.  Within the row the pivot is the entry of least rank, ties to
the column held by the fewest live rows (the fill a pivot can make grows
with that count), then the lowest column.  The pivot's column is cleared by
row operations and its row by column operations, Euclidean as ever: floor
division leaves remainders in [0, pivot), and a nonzero remainder becomes
the next pivot.  Once its row and column are clear, the pivot leaves the
live matrix.

The diagonal gives exact solution counts of homogeneous systems over Z_n:
A*x = 0 (mod n) has n**(cols - k) * prod(gcd(d_i, n)) solutions, and
x = V*y parameterizes them from the solutions y of D*y = 0.  Neither needs
the row transform U, and no pivot choice reads U or V, so U is never built
and a count builds no column of V.
"""

from __future__ import annotations

from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from .record import Record, set_field

Matrix = tuple[tuple[int, ...], ...]


class SmithForm(Record):
    """Result of :func:`smith_normal_form`: U * A * V = diag(diagonal).

    With ``modulus`` 0, ``diagonal`` is the Smith chain d1 | d2 | ... | dk > 0
    for some unimodular U and V, and neither is kept.  With ``modulus`` n,
    the equation holds mod n for some U and V invertible mod n, and
    ``diagonal`` holds positive residues in [1, n/2] (not a chain): 1 for
    each pivot that was a unit mod n.  V, with symmetric residues as
    entries, is the product of the elementary matrices of ``column_ops`` in
    order, its columns taken in ``column_order``: the pivot columns, then
    the rest.  U is never kept.
    """

    __slots__ = ("rows", "cols", "diagonal", "modulus", "column_ops", "column_order")

    def __init__(self, rows: int, cols: int, diagonal: tuple[int, ...], modulus: int = 0,
                 column_ops: tuple[tuple[int, int, int], ...] = (),  # (j, pj, q): column j -= q * column pj
                 column_order: tuple[int, ...] = ()) -> None:
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "diagonal", diagonal)
        set_field(self, "modulus", modulus)
        set_field(self, "column_ops", column_ops)
        set_field(self, "column_order", column_order)

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def column(self, c: int) -> tuple[int, ...]:
        """Column c of V over Z_n: the log replayed, last operation first, on a unit vector.

        ValueError over Z, where V is not kept, and for c outside 0..cols-1.
        """
        if not self.modulus:
            raise ValueError("V is kept only over Z_n, not over Z")
        if not 0 <= c < self.cols:
            raise ValueError(f"column {c} out of range 0..{self.cols - 1}")
        n, w = self.modulus, [0] * self.cols
        w[self.column_order[c]] = 1 % n
        for j, pj, q in reversed(self.column_ops):
            if x := w[j]:
                y = (w[pj] - q * x) % n
                w[pj] = y - n if y > n // 2 else y
        return tuple(w)

    @property
    def col_transform(self) -> Matrix:
        """V (cols x cols) over Z_n, built from :meth:`column`; () over Z."""
        return tuple(zip(*map(self.column, range(self.cols)))) if self.modulus else ()

    def diagonal_matrix(self) -> Matrix:
        """The full rows x cols diagonal matrix D."""
        d = [[0] * self.cols for _ in range(self.rows)]
        for i, v in enumerate(self.diagonal):
            d[i][i] = v
        return tuple(tuple(row) for row in d)


def smith_normal_form(
    matrix: Sequence[Sequence[int]], cols: int | None = None, modulus: int = 0
) -> SmithForm:
    """Diagonalize an integer matrix over Z (``modulus=0``) or over Z_modulus.

    ``cols`` is only needed when ``matrix`` has no rows.  The dense rows are
    read into (column, value) pairs for :func:`_eliminate`.
    """
    m = len(matrix)
    if m:
        widths = {len(row) for row in matrix}
        if len(widths) != 1:
            raise ValueError("matrix rows have differing lengths")
        n = widths.pop()
        if cols is not None and cols != n:
            raise ValueError(f"cols={cols} disagrees with row length {n}")
    else:
        if cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        n = cols
    return _eliminate([[(j, int(row[j])) for j in compress(range(n), row)] for row in matrix],
                      n, modulus)


def _eliminate(
    entries: Sequence[Iterable[tuple[int, int]]], cols: int, modulus: int
) -> SmithForm:
    """The Smith form of the len(entries) x cols matrix whose row i holds entries[i].

    A row is given as (column, value) pairs, columns distinct and in
    range(cols), so a caller that holds its rows sparse hands them over as
    they are.
    """
    if modulus < 0:
        raise ValueError(f"modulus must be >= 0, got {modulus}")
    half = modulus // 2
    rows: dict[int, dict[int, int]] = {}  # the nonzero live rows, in index order; no stored zeros
    holders: dict[int, set[int]] = {}  # column -> live rows that hold it
    for i, pairs in enumerate(entries):
        row = {}
        for j, x in pairs:
            if modulus:
                x %= modulus
                if x > half:
                    x -= modulus
            if x:
                row[j] = x
                holders.setdefault(j, set()).add(i)
        if row:
            rows[i] = row

    d: list[int] = []  # the pivots, in order
    pivot_cols: list[int] = []
    ops: list[tuple[int, int, int]] = []  # V's column operations, over Z_n only
    while rows:
        # the next pivot (row, col): in index order, the first row of the
        # fewest nonzeros whose best entry ranks least; an entry ranks by
        # |x|, a unit mod n as 1, and nothing ranks below 1
        k = min(map(len, rows.values()))
        best = None  # (rank, row, col)
        for i, row in rows.items():
            if len(row) == k:
                a, _, j = min((1 if modulus and gcd(x, modulus) == 1 else abs(x), len(holders[j]), j)
                              for j, x in row.items())
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        break
        _, pi, pj = best
        while True:
            prow = rows[pi]
            p = prow[pj]
            unit = modulus and p != 1 and gcd(p, modulus) == 1
            if unit or p < 0:  # a unit: the row times its inverse, and p is 1; else negated
                u = pow(p, -1, modulus) if unit else -1
                for j, x in prow.items():
                    x *= u
                    if modulus:
                        x %= modulus
                        if x > half:
                            x -= modulus
                    prow[j] = x
                p = prow[pj]
            # clear column pj by row operations; the least remainder left
            # becomes the pivot
            left = None
            if len(holders[pj]) > 1:
                for i in sorted(holders[pj] - {pi}):
                    row = rows[i]
                    q = row[pj] // p
                    for j, x in prow.items():
                        y = row.get(j, 0) - q * x
                        if modulus:
                            y %= modulus
                            if y > half:
                                y -= modulus
                        if y:
                            if j not in row:
                                holders[j].add(i)
                            row[j] = y
                        elif j in row:
                            del row[j]
                            holders[j].discard(i)
                    if not row:
                        del rows[i]
                    r = row.get(pj)
                    if r and (left is None or r < left[0]):
                        left = (r, i)
                if left is not None:
                    pi = left[1]
                    continue
            # clear row pi by column operations; column pj is zero outside
            # row pi, so in A they change row pi alone
            if len(prow) > 1:
                for j in sorted(prow.keys() - {pj}):
                    q = prow[j] // p
                    if modulus and q:
                        ops.append((j, pj, q))
                    r = prow[j] - q * p
                    if r:
                        prow[j] = r
                        if left is None or r < left[0]:
                            left = (r, j)
                    else:
                        del prow[j]
                        holders[j].discard(pi)
            if left is None:
                break
            pj = left[1]
        del rows[pi]  # its column pj is now zero in every live row
        d.append(p)
        pivot_cols.append(pj)

    m = len(entries)
    if not modulus:
        # divisibility chain: diag(p, q) becomes diag(g, p*q/g), g = gcd(p, q)
        for i in range(len(d)):
            for j in range(i + 1, len(d)) if d[i] != 1 else ():  # 1 divides them all
                p, q = d[i], d[j]
                if q % p:
                    g = gcd(p, q)
                    d[i], d[j] = g, p * q // g
        return SmithForm(rows=m, cols=cols, diagonal=tuple(d))
    order = pivot_cols + sorted(set(range(cols)).difference(pivot_cols))
    return SmithForm(m, cols, tuple(d), modulus, column_ops=tuple(ops), column_order=tuple(order))


def solution_count_mod(snf: SmithForm, n: int) -> int:
    """Number of x in (Z_n)^cols with A*x = 0 (mod n), from A's Smith form.

    A form computed over Z_m answers only for n = m.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if snf.modulus and n != snf.modulus:
        raise ValueError(f"this Smith form was computed mod {snf.modulus}, not mod {n}")
    count = n ** (snf.cols - snf.rank)
    for d in snf.diagonal:
        count *= gcd(d, n)
    return count
