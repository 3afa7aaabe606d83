"""Counting and enumerating quandle colorings.

Two independent routes:

* an exact linear-algebra path for Alexander quandles, which turns the
  presentation into an integer coefficient matrix and counts/enumerates
  solutions of the homogeneous system over Z_n, one elimination per call.
  The matrix is diagonalized over Z_n itself (``smith_normal_form`` with
  ``modulus=n``), so no coefficient exceeds n/2.  This is sound for
  composite n, where naive row reduction is not: the row and column
  operations are integer unimodular ones reduced mod n, hence invertible
  mod n, so U*A*V = D (mod n) and the count n**(cols - rank) *
  prod(gcd(d_i, n)) and the parameterization x = V*y still hold.  A count
  builds no column of V, and an enumeration only the columns it reads;
* a brute-force backtracking search over arc assignments that works for
  any finite quandle and serves as the oracle for the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import CapExceededError
from .presentation import QuandlePresentation
from .quandle import AlexanderParams, FiniteQuandle
from .smith import SmithForm, smith_normal_form, solution_count_mod

DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class ColoringSystem:
    """Integer coefficient matrix of the homogeneous system over Z_n.

    Column j holds the coefficient of arc j+1.  A positive relation
    ``out = in > over`` contributes +t at in, +(1-t) at over, -1 at out
    (entries combined when arcs coincide); negative relations use 1/t mod n
    in place of t.  Every row sums to zero, so the all-equal coloring is
    always a solution.
    """

    rows: int
    cols: int
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Coloring:
    """An arc assignment satisfying every relation of its source presentation."""

    colors: tuple[int, ...]  # colors[i] is the color of arc i+1

    @property
    def image_size(self) -> int:
        """Number of distinct colors used."""
        return len(set(self.colors))


def build_system(p: QuandlePresentation, params: AlexanderParams) -> ColoringSystem:
    """Coefficient matrix of the coloring equations, one row per relation."""
    t, n = params.t, params.n
    t_inv = params.t_inverse
    rows = []
    for r in p.relations:
        row = [0] * p.arc_count
        coeff = t if r.positive else t_inv
        row[r.in_ - 1] += coeff
        row[r.over - 1] += 1 - coeff
        row[r.out - 1] -= 1
        rows.append(tuple(row))
    return ColoringSystem(rows=len(rows), cols=p.arc_count, matrix=tuple(rows))


def count_solutions(system: ColoringSystem, n: int) -> int:
    """Exact number of solutions of A*x = 0 (mod n); exact for any n >= 1."""
    return solution_count_mod(smith_normal_form(system.matrix, cols=system.cols, modulus=n), n)


def _solution_value_lists(snf: SmithForm, n: int) -> list[tuple[int, range]]:
    """(k, range) for each coordinate k of y that varies over the solutions of D*y = 0 (mod n).

    Torsion coordinates step by n/gcd(d_i, n), free ones by 1; a range of {0} adds nothing.
    """
    steps = [n // gcd(d, n) for d in snf.diagonal] + [1] * (snf.cols - snf.rank)
    return [(k, range(0, n, step)) for k, step in enumerate(steps) if step < n]


def enumerate_solutions(
    system: ColoringSystem, n: int, cap: int = DEFAULT_CAP
) -> list[Coloring]:
    """All solutions of the system over Z_n, sorted; CapExceededError if too many.

    Each solution is x = V*y (mod n) for y over the ranges of the varying
    coordinates, so only their columns of V are built.  V is invertible mod
    n, so no two y give the same coloring.  The error carries the exact
    count, so a caller never needs a second elimination to learn it.
    """
    snf = smith_normal_form(system.matrix, cols=system.cols, modulus=n)
    count = solution_count_mod(snf, n)
    if count > cap:
        raise CapExceededError(cap, count)
    varying = _solution_value_lists(snf, n)
    # each entry of x is a sum of len(varying) products below n**2; n itself must fit too
    dtype = np.int64 if max(len(varying), 1) * (n - 1) ** 2 < 2**63 else object
    basis = np.array([[x % n for x in snf.column(k)] for k, _ in varying], dtype=dtype)
    basis = basis.reshape(len(varying), system.cols)
    found: list[tuple[int, ...]] = []
    chunk: list[tuple[int, ...]] = []

    def flush() -> None:
        if not chunk:
            return
        ys = np.array(chunk, dtype=dtype)
        xs = ys.dot(basis) % n  # np.dot, not matmul: works for object dtype too
        found.extend(tuple(row.tolist()) for row in xs)
        chunk.clear()

    for y in itertools.product(*(values for _, values in varying)):
        chunk.append(y)
        if len(chunk) >= 4096:
            flush()
    flush()
    return [Coloring(colors) for colors in sorted(found)]


def brute_force_colorings(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> list[Coloring]:
    """Backtracking enumeration of colorings for an arbitrary finite quandle.

    Arcs are assigned in order of first appearance in the relations (so each
    relation prunes as soon as its three arcs are colored), unconstrained
    arcs last; the result is sorted by assignment.
    """
    order: list[int] = []
    seen: set[int] = set()
    for r in p.relations:
        for arc in (r.in_, r.over, r.out):
            if arc not in seen:
                seen.add(arc)
                order.append(arc)
    for arc in range(1, p.arc_count + 1):
        if arc not in seen:
            order.append(arc)
    position = {arc: i for i, arc in enumerate(order)}
    # each relation as (out, in, over, table of its sign), checked at its last-colored arc
    op, dual = q.op, q.dual
    triggered: list[list] = [[] for _ in order]
    for r in p.relations:
        check = (r.out, r.in_, r.over, op if r.positive else dual)
        triggered[max(position[a] for a in r.arcs())].append(check)

    colors = [0] * (p.arc_count + 1)
    found: list[tuple[int, ...]] = []

    def satisfied(idx: int) -> bool:
        for out, in_, over, table in triggered[idx]:
            if colors[out] != table[colors[in_]][colors[over]]:
                return False
        return True

    def search(idx: int) -> None:
        if idx == len(order):
            if len(found) >= cap:
                raise CapExceededError(cap)
            found.append(tuple(colors[1:]))
            return
        arc = order[idx]
        for c in range(q.order):
            colors[arc] = c
            if satisfied(idx):
                search(idx + 1)
        colors[arc] = 0

    search(0)
    return [Coloring(colors) for colors in sorted(found)]
