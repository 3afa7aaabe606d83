"""Finite quandles: operation tables, or the (n, t) of an Alexander quandle.

A quandle is a set with a binary operation ``x > y`` that is idempotent,
right-invertible, and self-distributive; its dual table is the inverse
``x >^-1 y``.  Tables from outside the program (quandle files, library
callers) go through :func:`validate`, which checks all three axioms.  An
Alexander quandle over Z_n (``x > y = t*x + (1-t)*y``, t a unit) is held as
its (n, t) and builds its tables only when they are read; the trivial
quandles are the same closed form at t = 1.  Closed-form axioms hold by
algebra, so those tables are not checked again.

numpy is imported inside :func:`validate`, the one function here that
builds arrays, and not when the module loads: an Alexander quandle is never
validated, so a query on one does not pay the import (most of a fresh
process's start-up time).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import (
    IdempotenceError,
    NotAUnitError,
    QuandleTableError,
    RightInvertibilityError,
    SelfDistributivityError,
)
from .record import Record, set_field

Table = tuple[tuple[int, ...], ...]


class AlexanderParams(Record):
    """Modulus n and unit multiplier t of an Alexander quandle over Z_n.

    t is stored as its canonical residue; gcd(n, t) must be 1 so that the
    dual operation (which needs 1/t mod n) exists.
    """

    __slots__ = ("n", "t")

    def __init__(self, n: int, t: int) -> None:
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        set_field(self, "n", n)
        set_field(self, "t", t % n)
        if gcd(self.n, self.t) != 1:
            raise NotAUnitError(self.t, self.n)

    @property
    def t_inverse(self) -> int:
        return pow(self.t, -1, self.n)


class FiniteQuandle(Record):
    """Quandle on {0, ..., order-1}.

    ``op[x][y]`` is x > y and ``dual[x][y]`` is x >^-1 y, so
    ``dual[op[x][y]][y] == x`` and ``op[dual[x][y]][y] == x`` always hold.
    ``tables`` is the (op, dual) pair of a quandle built from tables.  An
    Alexander quandle has None there: ``alexander`` holds its (n, t), which
    lets solvers pick the exact linear-algebra route, and each table is built
    from the closed form on first read and kept in ``__dict__``, outside
    ``==``, hash and repr.  Build instances through :func:`validate` (tables
    from outside, checked against the axioms) or :func:`alexander` (the
    closed form).
    """

    __slots__ = ("order", "tables", "alexander", "__dict__")

    def __init__(self, order: int, tables: tuple[Table, Table] | None,
                 alexander: AlexanderParams | None = None) -> None:
        set_field(self, "order", order)
        set_field(self, "tables", tables)
        set_field(self, "alexander", alexander)

    @cached_property
    def op(self) -> Table:
        a = self.alexander
        return self.tables[0] if self.tables else _affine_table(a.n, a.t)

    @cached_property
    def dual(self) -> Table:
        a = self.alexander
        return self.tables[1] if self.tables else _affine_table(a.n, a.t_inverse)

    def is_involutory(self) -> bool:
        """True iff the operation is its own inverse: (x > y) > y == x for all x, y.

        Decided from the table, not from any closed form; for Alexander
        quandles this is equivalent to t^2 = 1 (mod n), including the
        extra units that appear at composite n (e.g. t=3 mod 8).
        """
        op, r = self.op, range(self.order)
        return all(op[op[x][y]][y] == x for x in r for y in r)


def validate(table) -> FiniteQuandle:
    """Check all three quandle axioms and return the validated quandle.

    ``table`` is any m x m nested sequence of ints in [0, m-1].  Raises
    IdempotenceError, RightInvertibilityError, or SelfDistributivityError
    with a witness for the first violated axiom, in that order.
    """
    import numpy as np

    m = len(table)
    # checked on the Python ints, before an entry past int64 can overflow numpy
    if any(min(row, default=0) < 0 or max(row, default=0) >= m for row in table):
        raise QuandleTableError(f"table entries must lie in [0, {m - 1}]")
    if len({len(row) for row in table}) > 1:
        raise QuandleTableError("expected a nonempty square table, got rows of unequal length")
    op = np.asarray(table, dtype=np.int64)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or op.shape[0] == 0:
        raise QuandleTableError(f"expected a nonempty square table, got shape {op.shape}")

    bad = np.nonzero(np.diagonal(op) != np.arange(m))[0]
    if bad.size:
        raise IdempotenceError(int(bad[0]))

    dual = np.empty_like(op)
    for y in range(m):
        col = op[:, y]
        if len(np.unique(col)) != m:
            raise RightInvertibilityError(y)
        dual[col, y] = np.arange(m)

    # (x > y) > z versus (x > z) > (y > z), one m x m slice [y, z] per x:
    # m^2 memory, and the first witness in (x, y, z) order.  With
    # p = op[op[x]], the left side is p[y, z] and the right p[z, op[y, z]].
    right = op + m * np.arange(m)  # flat index of [z, op[y, z]] at [y, z]
    for x in range(m):
        p = op[op[x]]
        bad = p != p.ravel().take(right)
        if bad.any():
            y, z = (int(v) for v in np.argwhere(bad)[0])
            raise SelfDistributivityError(x, y, z)

    return FiniteQuandle(m, (tuple(map(tuple, op.tolist())), tuple(map(tuple, dual.tolist()))))


def _affine_table(n: int, a: int) -> Table:
    """The table of x > y = a*x + (1-a)*y mod n."""
    return tuple(tuple((a * x + (1 - a) * y) % n for y in range(n)) for x in range(n))


def alexander(n: int, t: int) -> FiniteQuandle:
    """Alexander quandle on Z_n: x > y = t*x + (1-t)*y mod n.

    Requires gcd(n, t) = 1 (NotAUnitError otherwise).  At t=1 this is the
    trivial quandle x > y = x.  No table is built here (see
    :class:`FiniteQuandle`), and the axioms hold by algebra, so none is ever
    passed through :func:`validate`:

    - idempotence: x > x = t*x + (1-t)*x = x;
    - right-invertibility: t is a unit, so x >^-1 y = t^-1*x + (1-t^-1)*y
      undoes x > y, and the dual table is the same closed form at t^-1;
    - self-distributivity: (x > y) > z and (x > z) > (y > z) both expand
      to t^2*x + t*(1-t)*y + (1-t)*z.
    """
    return FiniteQuandle(n, None, AlexanderParams(n, t))


def _integer(token: str) -> int:
    """int(token) for an optional '-' and ASCII digits only, as in relations and PD files."""
    if not (token.isascii() and token.removeprefix("-").isdecimal()):
        raise ValueError(token)
    return int(token)


def parse_quandle_file(text: str) -> FiniteQuandle:
    """Parse the table file format: a line ``order: m`` then m rows of m ints."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("order:"):
        raise QuandleTableError("first line must be 'order: <m>'")
    try:
        m = _integer(lines[0].split(":", 1)[1].strip())
    except ValueError:
        raise QuandleTableError("first line must be 'order: <m>'") from None
    if m < 1:
        raise QuandleTableError(f"order must be >= 1, got {m}")
    if len(lines) - 1 != m:
        raise QuandleTableError(f"expected {m} table rows, found {len(lines) - 1}")
    table = []
    for i, ln in enumerate(lines[1:]):
        try:
            row = [_integer(tok) for tok in ln.split()]
        except ValueError:
            raise QuandleTableError(f"row {i + 1}: entries must be integers") from None
        if len(row) != m:
            raise QuandleTableError(f"row {i + 1}: expected {m} entries, found {len(row)}")
        table.append(row)
    return validate(table)
