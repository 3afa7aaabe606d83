"""Counting and enumerating quandle colorings.

Two independent routes:

* an exact linear-algebra path for Alexander quandles.  Every query takes
  one reduction: the search plan of the second route, one column per arc,
  runs over linear forms in the branch values (:class:`Forcing`), and
  only the relations it does not meet by construction, a few check
  rows over the branches, go to the Smith-form kernel over Z_n itself
  (``smith._eliminate`` with modulus n; no dense matrix is built), so no
  coefficient exceeds n/2.  This is sound for composite n, where naive
  row reduction is not: the row and column operations are integer
  unimodular ones reduced mod n, or a row scaled by a unit of Z_n, hence
  invertible mod n, so U*A*V = D (mod n) and the count
  n**(cols - rank) * prod(gcd(d_i, n)) and the parameterization x = V*y
  still hold.  A count builds no column of V; :func:`_solutions` builds
  the columns it reads, each times its step a generator of the
  solutions, and :meth:`Forcing.lift` lifts each generator to every arc
  by running the plan once on plain ints.  ``build_system``, one sparse
  row of at most 3 coefficients per relation, serves the ``matrix``
  command and, as their oracle, the tests;
* a brute-force search over arc assignments that works for any finite
  quandle and serves as the oracle for the first.  A plan is compiled once
  from the relations (:func:`_compile`, which reads only whether the
  quandle is trivial and which operations solve for the over-arc): it
  colors one column per class of arcs that R1/R2 moves make equal
  (:func:`_plan`), branches on an arc by a fixed rule, and after each
  branch lists the arcs the relations force (``out`` from ``in`` and
  ``over``, ``in`` from ``out`` and ``over``, and ``over`` from ``in`` and
  ``out`` when the table's rows are permutations) and the checks.  An
  executor (:func:`_frontier`) runs the plan over numpy arrays of partial
  colorings, one row each: a branch repeats the rows, a forced arc is one
  fancy index, a check one boolean filter.  A branch that would pass a cell
  budget splits its block first and leaves the rest on an explicit stack,
  so memory stays bounded and there is no depth limit.  Elements fixed by
  all are used only when every element is (a trivial table, where each
  relation reads ``out = in``): otherwise they force a value for some rows
  and not others, which no plan, the same for every row, can say.

A plan reads of (n, t) only its class (t = 1, 1 - t a unit, or neither),
so :class:`Forcing` compiles it once per class and presentation, keeps it
on the presentation, and runs it at each point, over ints for the lift and
over linear forms for the checks.  A class's first run holds each form as
a {branch: coefficient} dict (:func:`_run_forms`).  Once the class runs
again, its plan is compiled once more, into slot code with one
instruction per (arc, branch) pair a form can hold (:func:`_program`),
kept on the presentation too, and every later point runs that code over
a flat list of residues (:func:`_run_program`); both runs give equal
systems.
Both routes share one lexicographic sort (``enumerate_solutions``,
``brute_force_colorings``), which lists each coloring as a tuple of arc
colors, arc 1 first, and one histogram of image sizes
(``image_size_counts``, and ``brute_force_image_sizes`` by a table),
with no coloring listed for the histogram; a small one is counted in
Python, others in numpy.  At t = 1 the quandle is trivial:
:class:`Forcing` gives the count and the histogram in closed form in the
number of components, with no plan compiled.

numpy is imported inside the functions that build arrays, and not when
the module loads: a count by (n, t) and the Smith form never use it, nor
does an image-size histogram at t = 1 (a closed form), one whose
colorings are all constant, or one of at most SMALL_HISTOGRAM entries
once arcs with equal lifted generator columns are merged, so such a query
(``phi hopf_sum --n 23 --t 1``, and every cell of the paper's ``compare``
grid) does not pay its import (most of a fresh process's start-up time).
The brute-force search builds arrays too; a quandle read from a table file
has loaded numpy for its validation by then.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property
from typing import Callable, NamedTuple, Sequence
from math import gcd

from .diagram import _components, _find
from .errors import CapExceededError
from .presentation import QuandlePresentation
from .quandle import AlexanderParams, FiniteQuandle
from .record import Record, set_field
from .smith import _eliminate, solution_count_mod

DEFAULT_CAP = 1_000_000
# entries (searched rows x kept lifted columns) up to which image_size_counts
# counts in Python, so that a query whose histograms are all this small never
# imports numpy (the paper's grid peaks at 300); a loaded numpy is faster at
# any size, 24 against 62 us at 900 entries
SMALL_HISTOGRAM = 1024

Lift = Callable[[list[int]], list[int]]  # a solution of a system -> every arc's color


class ColoringSystem(Record):
    """Integer coefficient matrix of the homogeneous system over Z_n, held sparse.

    ``entries[i]`` lists row i's nonzero coefficients as (column, value)
    pairs.  Every query solves the checks of :meth:`Forcing.system`, whose
    column j is the j-th branch.  From build_system, for ``matrix`` and
    the tests, column j is arc j+1 and a positive crossing
    ``under_out = under_in > over`` contributes +t at under_in, +(1-t) at
    over, -1 at under_out (entries combined when arcs coincide); negative
    crossings use 1/t mod n in place of t.  Every row sums to zero, so the
    all-equal coloring is always a solution.  The elimination reads
    ``entries`` as they are; the dense ``matrix`` is built only when read and
    kept in ``__dict__``, outside ``==``, hash and repr.
    """

    __slots__ = ("rows", "cols", "entries", "__dict__")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[tuple[int, int], ...], ...]) -> None:
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "entries", entries)

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The rows x cols coefficient matrix, zeros written out."""
        dense = []
        for pairs in self.entries:
            row = [0] * self.cols
            for j, x in pairs:
                row[j] = x
            dense.append(tuple(row))
        return tuple(dense)


def build_system(p: QuandlePresentation, params: AlexanderParams) -> ColoringSystem:
    """Coefficients of the coloring equations, one sparse row per relation.

    No query solves these rows: they serve the ``matrix`` command and, as
    the full system the forcing route must agree with, the tests.
    """
    t, t_inv = params.t, params.t_inverse
    rows = []
    for r in p.relations:
        coeff = t if r.positive else t_inv
        row = {r.under_in - 1: coeff}
        row[r.over - 1] = row.get(r.over - 1, 0) + 1 - coeff
        row[r.under_out - 1] = row.get(r.under_out - 1, 0) - 1
        rows.append(tuple(sorted((j, x) for j, x in row.items() if x)))
    return ColoringSystem(rows=len(rows), cols=p.arc_count, entries=tuple(rows))


def count_solutions(system: ColoringSystem, n: int) -> int:
    """Exact number of solutions of A*x = 0 (mod n); exact for any n >= 1."""
    return solution_count_mod(_eliminate(system.entries, system.cols, n), n)


def _solutions(entries, cols: int, n: int):
    """The number of solutions of A*x = 0 (mod n), A's rows sparse, and how to list them.

    One elimination gives x = V*y (mod n) with V invertible mod n, so no
    two y give the same x; y ranges over the solutions of D*y = 0, torsion
    coordinates by steps of n/gcd(d_i, n) and free ones by 1.  The count is
    exact and returned whatever its size: a caller compares it with its
    cap.  The second value, called with a lift (``list`` to take x
    itself), lifts the lattice's generators: for each coordinate k that
    varies, the vector of its step times column k of V, reduced mod n, of
    order gcd(d_k, n) (n when free), so that every solution is one sum of
    multiples m_k < order_k of them.  It returns the orders and, per
    lifted arc, its column: the arc's entry in each lifted generator.
    Nothing is built until it is called, and nothing is added to x: a
    column a caller held out of A is the lift's to put back.
    """
    snf = _eliminate(entries, cols, n)

    def lattice(lift: Lift) -> tuple[list[int], list[tuple[int, ...]]]:
        steps = [n // gcd(d, n) for d in snf.diagonal] + [1] * (cols - snf.rank)
        varying = [k for k, step in enumerate(steps) if step < n]
        vectors = [[steps[k] * x % n for x in snf.column(k)] for k in varying]
        # with no generator, the one solution x = 0 still has its width
        columns = list(zip(*map(lift, vectors))) or [()] * len(lift([0] * cols))
        return [n // steps[k] for k in varying], columns

    return solution_count_mod(snf, n), lattice


def _chunks(count: int, orders: list[int], columns: list[tuple[int, ...]], n: int):
    """Every sum of m_k times lifted generator k mod n, m_k < orders[k], as 4096-row arrays.

    A column holds one lifted arc's entry in each generator, and a row one
    entry per column; a chunk's multipliers are its row indices in mixed
    radix.
    """
    import numpy as np

    # each entry of a row is a sum of len(orders) products below n**2; n itself must fit too
    dtype = np.int64 if max(len(orders), 1) * (n - 1) ** 2 < 2**63 else object
    basis = np.array(columns, dtype=dtype).reshape(len(columns), len(orders)).T
    for start in range(0, count, 4096):
        index = np.arange(start, min(start + 4096, count)).astype(dtype)
        ms = np.empty((len(index), len(orders)), dtype=dtype)
        for k, order in enumerate(orders):
            ms[:, k] = index % order
            index //= order
        yield ms.dot(basis) % n  # np.dot, not matmul: works for object dtype too


def _sorted_colorings(blocks: list) -> list[tuple[int, ...]]:
    """The rows of the blocks, integer arrays of one width, as tuples in lexicographic order."""
    import numpy as np

    rows = np.concatenate(blocks)
    if rows.shape[1]:
        rows = rows[np.lexsort(rows.T[::-1])]
    return list(map(tuple, rows.tolist()))


def _image_sizes(blocks, width: int) -> dict[int, int]:
    """Number of rows per count of distinct entries, over blocks of rows ``width`` wide.

    Each block is sorted along its rows in place, and a row's distinct
    entries are its steps plus one.
    """
    import numpy as np

    sizes = np.zeros(width + 1, dtype=np.int64)
    for xs in blocks:
        xs.sort(axis=1)
        distinct = (xs[:, 1:] != xs[:, :-1]).sum(axis=1) + (width > 0)
        sizes += np.bincount(distinct, minlength=width + 1)
    return {size: int(c) for size, c in enumerate(sizes.tolist()) if c}


def _small_image_sizes(orders: list[int], columns: list[tuple[int, ...]], n: int) -> dict:
    """Rows of :func:`_chunks` per count of distinct entries, counted in Python.

    Each lifted column becomes the list of its entries over the rows, one
    generator's multipliers at a time.
    """
    entries = []
    for xs in columns:
        col = [0]
        for order, x in zip(orders, xs):
            col = [(a + m * x) % n for m in range(order) for a in col]
        entries.append(col)
    return dict(Counter(map(len, map(set, zip(*entries)))))


def enumerate_solutions(
    system: ColoringSystem, n: int, cap: int = DEFAULT_CAP, lift: Lift = list
) -> list[tuple[int, ...]]:
    """All solutions of the system over Z_n, each lifted (see image_size_counts), sorted.

    The default lift, ``list``, lists each solution x as itself.
    CapExceededError, with the exact count, when there are more than ``cap``.
    """
    count, lattice = _solutions(system.entries, system.cols, n)
    if count > cap:
        raise CapExceededError(cap, count)
    return _sorted_colorings(list(_chunks(count, *lattice(lift), n)))


def image_size_counts(
    system: ColoringSystem, lift: Lift, n: int, cap: int
) -> tuple[int, dict[int, int] | None]:
    """The exact number of solutions over Z_n and, unless it passes the cap, their image sizes.

    Returns ``(count, sizes)``, sizes mapping image size to number of
    solutions, or None when count > cap.  A solution is lifted to every
    arc by ``lift`` (``list`` for x itself; :meth:`Forcing.lift` runs the
    plan), which is linear mod n and maps the all-ones vector to itself.
    Each row sums to zero, so x -> x + c*1 maps solutions to solutions with
    the same image size and fixes none: the search drops column 0 (when
    there is one), holding it at 0, so it finds n times fewer solutions y,
    lifts each as ``lift([0] + y)`` and multiplies by n; the cap is
    compared with the full count.  When the search has one solution, y = 0, every coloring
    is constant, and the answer follows from the count with nothing
    lifted.  Otherwise each generator of the search's solutions is
    lifted once, and arcs whose lifted generator columns agree color alike
    in every solution, so one of each is kept; a histogram of at most
    SMALL_HISTOGRAM entries, searched solutions times kept columns, is
    counted in Python, a larger one in numpy.
    """
    fixed = min(system.cols, 1)
    entries = [[(j - fixed, x) for j, x in row if j >= fixed] for row in system.entries]
    count, lattice = _solutions(entries, system.cols - fixed, n)
    scale = n**fixed
    if count * scale > cap:
        return count * scale, None
    if count == 1:
        sizes = {fixed: 1}
    else:
        orders, columns = lattice(lambda y: lift([0] * fixed + y))
        columns = list(dict.fromkeys(columns))
        if count * len(columns) <= SMALL_HISTOGRAM:
            sizes = _small_image_sizes(orders, columns, n)
        else:
            sizes = _image_sizes(_chunks(count, orders, columns, n), len(columns))
    return count * scale, {size: c * scale for size, c in sizes.items()}


def trivial_image_sizes(components: int, n: int) -> dict[int, int]:
    """The colorings of ``components`` components by the trivial quandle of order n, per image size.

    Each component takes any color, so k colors are used by
    S(components, k) * n(n-1)...(n-k+1) colorings, S the Stirling numbers
    of the second kind; the sizes sum to n**components.
    """
    top = min(components, n)
    stirling = [1] + [0] * top  # S(i, k) for k = 0..top, from i = 0
    for i in range(components):
        for k in range(min(i + 1, top), 0, -1):
            stirling[k] = k * stirling[k] + stirling[k - 1]
        stirling[0] = 0
    sizes, falling = {}, 1
    for k, s in enumerate(stirling):
        if s:
            sizes[k] = s * falling
        falling *= n - k
    return sizes


def _alike_arcs(p: QuandlePresentation) -> list[int]:
    """A representative per arc (index 0 unused) of the arcs every coloring colors alike.

    A crossing ``under_out = under_in >^e over``, ``out = in >^e over`` for
    short, also reads ``in = out >^-e over``, so it gives two facts
    ``target = source >^sign over``.  Facts with one source, over and sign
    have one target, and a source equal to its over is its own target
    (idempotence).  Classes merge until no fact merges two: this
    undoes R1 kinks and R2 bigons (``b = a > o`` and ``c = b >^-1 o`` give
    ``c = a``), whatever the quandle.
    """
    parent = list(range(p.arc_count + 1))
    merged = True
    while merged:
        merged, targets = False, {}
        for r in p.relations:
            out, in_, over = (_find(parent, r.under_out), _find(parent, r.under_in),
                              _find(parent, r.over))
            for source, target, sign in ((in_, out, r.positive), (out, in_, not r.positive)):
                other = source if source == over else targets.setdefault((source, over, sign), target)
                a, b = _find(parent, target), _find(parent, other)
                if a != b:
                    parent[a] = b
                    merged = True
    return [_find(parent, a) for a in range(p.arc_count + 1)]


_CELL_BUDGET = 1 << 21  # cells of partial colorings, made by a branch or waiting on the stack


class _Plan(NamedTuple):
    """A search compiled from a presentation and a quandle table (see :func:`_plan`)."""

    columns: list[int]  # column of arc i+1: the class of arcs colored alike it lies in
    width: int  # number of classes
    order: int
    # (kind, target, a, b, table): a branch on target, or target set to (or
    # checked against) table[a, b], or a itself when there is no table
    steps: list[tuple]


_Step = tuple[str, int, int, int, int]  # (kind, target, a, b, e): see _compile


def _compile(
    p: QuandlePresentation, column: Sequence[int], width: int, trivial: bool,
    solvable: tuple[bool, bool],
) -> list[_Step]:
    """The search over ``width`` columns as steps, from the relations alone.

    ``column[a]`` is the column of arc a (index 0 unused): the class of
    arcs colored alike that a lies in.  A step ``(kind, target, a, b, e)``
    names the operation ``x >^e y`` by e: 1 for op, -1 for dual, 0 for
    none.  It simulates the forcing rules on a set of known classes.  A
    crossing ``under_out = under_in >^e over``, ``out = in >^e over`` for
    short (e = ±1 its sign), gives a ``set`` step ``out = in >^e over``
    once in and over are known, ``in = out >^-e over`` once out and over
    are, and a ``check`` of ``out = in >^e over`` once all three are known
    some other way.  When ``x >^e y`` can be solved for y (``solvable[0]``
    for e = 1, ``solvable[1]`` for e = -1), ``over`` is the one y with
    ``in >^e y == out``: a ``solve`` step sets it from in and out.  When
    the quandle is ``trivial``, every element fixed by all, each relation
    reads ``out = in``: the steps copy (``set`` with e = 0) and compare
    classes and never need the over-arc.

    With nothing left to force, the plan branches on the over-arc of the
    first relation whose over is unknown and whose in or out is known
    (never for trivial quandles), failing that on the first unknown class in
    order of first appearance in the relations, then the classes of no
    relation.  Such relations wait in a heap by index from the time their
    in or out is learned, so no branch scans the relations.
    """
    relations = list(dict.fromkeys(
        (column[r.under_out], column[r.under_in], column[r.over], r.sign) for r in p.relations
    ))
    touching: list[list[int]] = [[] for _ in range(width)]
    for k, (out, in_, over, _) in enumerate(relations):
        for c in {out, in_, over}:
            touching[c].append(k)
    unknown = iter(dict.fromkeys([c for out, in_, over, _ in relations for c in (in_, over, out)]
                                 + list(range(width))))
    known, done = [False] * width, [False] * len(relations)
    steps: list[_Step] = []
    learned: list[int] = []
    waiting: list[int] = []  # relations whose in or out is known; stale once over is

    def learn(step: _Step) -> None:
        steps.append(step)
        known[step[1]] = True
        learned.append(step[1])

    while True:
        while learned:
            for k in touching[learned.pop()]:
                if done[k]:
                    continue
                out, in_, over, e = relations[k]
                if trivial:
                    if known[in_] and known[out]:
                        steps.append(("check", out, in_, 0, 0))
                    elif known[in_]:
                        learn(("set", out, in_, 0, 0))
                    elif known[out]:
                        learn(("set", in_, out, 0, 0))
                    else:
                        continue
                elif known[in_] and known[over] and known[out]:
                    steps.append(("check", out, in_, over, e))
                elif known[in_] and known[over]:
                    learn(("set", out, in_, over, e))
                elif known[out] and known[over]:
                    learn(("set", in_, out, over, -e))
                elif known[in_] and known[out] and solvable[e < 0]:
                    learn(("solve", over, in_, out, e))
                else:
                    if not known[over]:
                        heapq.heappush(waiting, k)
                    continue
                done[k] = True
        arc = None
        while waiting and arc is None:
            over = relations[heapq.heappop(waiting)][2]
            arc = None if known[over] else over
        if arc is None:
            arc = next((c for c in unknown if not known[c]), None)
        if arc is None:
            return steps
        learn(("branch", arc, 0, 0, 0))


def _plan(p: QuandlePresentation, q: FiniteQuandle) -> _Plan:
    """Compile the search over p's classes of alike arcs for q's tables (see :func:`_compile`).

    The classes are :func:`_alike_arcs`'s.  q is trivial when each row of
    op is constant, and ``x >^e y`` can be solved for y when each row of
    its table is a permutation (a row that is no permutation repeats a
    value, so some (in, out) has several solutions and cannot force).  An
    element fixed by all in a table where others are not forces a value
    only for some colorings, so a plan, the same for every row, cannot use
    it.  Each step's e becomes its table: op or dual for ``set`` and
    ``check``, the inverse of op's or dual's rows for ``solve``, none for 0.
    """
    import numpy as np

    m = q.order
    dtype = np.min_scalar_type(m - 1)
    op, dual = np.array(q.op, dtype), np.array(q.dual, dtype)
    trivial = bool((op == np.arange(m)[:, None]).all())
    solve = [np.argsort(t, axis=1).astype(dtype) if (np.sort(t, axis=1) == np.arange(m)).all()
             else None for t in (op, dual)]
    rep = _alike_arcs(p)
    index = {a: c for c, a in enumerate(sorted(set(rep[1:])))}
    column = [-1] + [index[rep[a]] for a in range(1, p.arc_count + 1)]
    steps = _compile(p, column, len(index), trivial, (solve[0] is not None, solve[1] is not None))
    tables, inverses = {1: op, -1: dual, 0: None}, {1: solve[0], -1: solve[1]}
    return _Plan(column[1:], len(index), m, [
        (kind, target, a, b, inverses[e] if kind == "solve" else tables[e])
        for kind, target, a, b, e in steps
    ])


def _run(steps: list[_Step], arc_count: int, params: AlexanderParams, branch, mix):
    """The steps run at (n, t) over one kind of value: each arc's, the checks' pairs, the branches.

    The k-th ``branch`` step sets its arc to ``branch(k)``, and every other
    value is ``mix(u, cu, v, cv)``, cu*u + cv*v mod n with cu a unit, in
    the caller's kind of value: with s = t^e, a ``set`` is ``s*a +
    (1-s)*b`` and a ``solve`` is ``(1-s)^-1 * (b - s*a)`` (there when 1 -
    t is a unit).  A ``check`` is recorded as the pair of ``s*a +
    (1-s)*b`` and the target's value, equal in every coloring; a caller
    that reads the checks makes its rows from the pairs.
    """
    n, power = params.n, {1: params.t, -1: params.t_inverse, 0: 1}
    values, checks, branches = [None] * arc_count, [], 0  # each value is set by a step
    for kind, target, a, b, e in steps:
        s = power[e]
        if kind == "branch":
            values[target] = branch(branches)
            branches += 1
        elif kind == "solve":
            u = pow(1 - s, -1, n)
            values[target] = mix(values[b], u, values[a], -u * s)
        else:
            value = values[a] if e == 0 else mix(values[a], s, values[b], 1 - s)
            if kind == "set":
                values[target] = value
            else:
                checks.append((value, values[target]))
    return values, checks, branches


def _run_forms(steps: list[_Step], arc_count: int, params: AlexanderParams) -> ColoringSystem:
    """The colorings by (Z_n, t) as the checks over the search's branches.

    The steps (:class:`Forcing`'s plan for params' class) run once
    (:func:`_run`) with each arc's color held as a linear form over the
    branch values, a {branch: coefficient mod n} dict, a branch being a
    new unit vector.  Every arc is a fixed affine function of the branch
    values, and every relation holds by construction or is a check, so the
    colorings are exactly the solutions of the checks over the branches,
    each lifted to every arc by running the plan on ints
    (:meth:`Forcing.lift`).  Each check's pair (value, target) becomes
    the row value - target through the dict ``mix``; the nonzero rows are
    returned, each listing its entries by ascending branch as
    :func:`_run_program` does, with coefficients summing to 0, and the
    arcs' forms are dropped.
    """
    n = params.n

    def mix(u: dict[int, int], cu: int, v: dict[int, int], cv: int) -> dict[int, int]:
        """cu*u + cv*v, for a unit cu: no coefficient of cu*u is 0 mod n."""
        w = {k: cu * x % n for k, x in u.items()}
        for k, x in v.items():
            if y := (w.get(k, 0) + cv * x) % n:
                w[k] = y
            else:
                w.pop(k, None)
        return w

    _, checks, branches = _run(steps, arc_count, params, lambda k: {k: 1}, mix)
    rows = tuple(tuple(sorted(row.items())) for u, v in checks if (row := mix(u, 1, v, -1)))
    return ColoringSystem(len(rows), branches, rows)


_Program = tuple  # (code, slots, checks, branches): see _program


def _program(steps: list[_Step], arc_count: int) -> _Program:
    """The form run of :func:`_run_forms` compiled to slot code, for a plan that runs again.

    Which branches a form can hold does not depend on (n, t): an arc's
    form can hold a branch only when a form it is mixed from can.  So each (arc, branch)
    pair that can be nonzero gets a slot, slot 0 holding 0 and slot 1
    holding 1 (every branch's own coefficient), and each mixed slot one
    instruction ``(dst, i, a, j, b)``: v[dst] = c[i]*v[a] + c[j]*v[b]
    mod n, a or b slot 0 where that form cannot hold the branch.  c holds
    eight residues at (n, t), as :func:`_run` mixes them: with s = t, a
    ``set`` or ``check`` reads s and 1 - s at 0 and 1, a ``solve`` u =
    (1 - s)^-1 and -u*s at 2 and 3 (0 there when 1 - t is no unit and no
    step solves), and 4 to 7 the same with s = 1/t.  A copy (e = 0) shares
    its source's slots.  A check lists, per branch in ascending order, the
    slots of its value and of its target, whose difference is its row's
    entry.  The support is the union of the mixed forms' supports, so a
    slot may read 0 at some (n, t) where the dict run drops the key; the
    rows are equal all the same.
    """
    forms: list = [None] * arc_count  # arc -> {branch: slot}; each set by a step
    code: list[tuple[int, int, int, int, int]] = []
    checks, branches = [], 0
    for kind, target, a, b, e in steps:
        if kind == "branch":
            forms[target] = {branches: 1}
            branches += 1
            continue
        if e == 0:
            value = forms[a]
        else:
            u, v = (forms[b], forms[a]) if kind == "solve" else (forms[a], forms[b])
            i = (2 if kind == "solve" else 0) + (4 if e < 0 else 0)
            value = {}
            for k in sorted(u.keys() | v.keys()):
                value[k] = dst = len(code) + 2
                code.append((dst, i, u.get(k, 0), i + 1, v.get(k, 0)))
        if kind == "check":
            held = forms[target]
            checks.append(tuple((k, value.get(k, 0), held.get(k, 0))
                                for k in sorted(value.keys() | held.keys())))
        else:
            forms[target] = value
    return tuple(code), len(code) + 2, tuple(checks), branches


def _run_program(program: _Program, params: AlexanderParams, solvable: bool) -> ColoringSystem:
    """The system of :func:`_run_forms` at (n, t), from the plan's program (see :func:`_program`)."""
    code, slots, checks, branches = program
    n, c = params.n, []
    for s in (params.t, params.t_inverse):  # a set's s and 1 - s; a solve's u and -u*s
        u = pow(1 - s, -1, n) if solvable else 0
        c += (s, (1 - s) % n, u, -u * s % n)
    v = [0] * slots
    v[1] = 1
    for d, i, a, j, b in code:
        v[d] = (c[i] * v[a] + c[j] * v[b]) % n
    rows = tuple(row for check in checks
                 if (row := tuple((k, x) for k, a, b in check if (x := (v[a] - v[b]) % n))))
    return ColoringSystem(len(rows), branches, rows)


def _class_of(params: AlexanderParams) -> tuple[bool, bool]:
    """The class of (n, t) a plan reads: (t = 1, 1 - t a unit mod n)."""
    return params.t == 1, gcd(1 - params.t, params.n) == 1


class Forcing:
    """p's colorings by the Alexander quandles (Z_n, t), answered one (n, t) at a time.

    At t = 1 the quandle is trivial: each of p's ``components`` (classes of
    arcs joined through an under-strand, from the package's one union-find)
    takes any color, so the count is n**components and the image sizes are
    :func:`trivial_image_sizes`, with no plan compiled.  Otherwise the
    search of :func:`_compile`, one column per arc (merging alike arcs costs
    a count more than it saves), runs over linear forms at (n, t) for its
    checks alone (:meth:`system`), which are eliminated, and on ints to
    lift each solution to every arc (:meth:`lift`).  A plan reads of
    (n, t) only its class, t = 1 (trivial) and 1 - t a unit (over-arcs
    solve), so it is compiled once per class.  A class's checks run first
    over dict forms; a class asked for again gets its plan compiled to slot
    code (:meth:`system`), which runs each later (n, t) with no dict.  The
    plans, the programs and the component count are kept on p itself (see
    :class:`QuandlePresentation`), so a Forcing is a cheap view: every
    Forcing of one p, in one call or in the next, compiles only what no
    earlier one compiled.  Counts, eliminations, lifts and histograms are
    made afresh on every call.
    """

    def __init__(self, p: QuandlePresentation):
        self.p = p
        kept = p.__dict__
        self._steps: dict[tuple[bool, bool], list[_Step]] = kept.setdefault("_plans", {})
        self._programs: dict[tuple[bool, bool], _Program] = kept.setdefault("_programs", {})

    @property
    def components(self) -> int:
        """The number of p's components, the branches of the trivial plan."""
        kept = self.p.__dict__
        if "_component_count" not in kept:
            kept["_component_count"] = len(_components(self.p.arc_count, self.p.relations))
        return kept["_component_count"]

    def _steps_at(self, kind: tuple[bool, bool]) -> list[_Step]:
        """The plan of a class (t = 1, 1 - t a unit), compiled on first use."""
        if kind not in self._steps:
            trivial, solvable = kind
            arcs = self.p.arc_count
            self._steps[kind] = _compile(self.p, range(-1, arcs), arcs, trivial, (solvable, solvable))
        return self._steps[kind]

    def system(self, params: AlexanderParams) -> ColoringSystem:
        """The checks alone over the branches at (n, t), no forms kept.

        A class's first run is the dict one (:func:`_run_forms`): building a
        program costs two or three such runs, and a presentation queried
        once never repays it.  Once the plan runs again, it is
        compiled to slot code (:func:`_program`), kept on p, and run from
        then on (:func:`_run_program`).
        """
        kind = _class_of(params)
        program = self._programs.get(kind)
        if program is None:
            if kind not in self._steps:
                return _run_forms(self._steps_at(kind), self.p.arc_count, params)
            program = self._programs[kind] = _program(self._steps[kind], self.p.arc_count)
        return _run_program(program, params, kind[1])

    def lift(self, params: AlexanderParams) -> Lift:
        """Branch values at (n, t) -> every arc's color: the plan run once on ints (:func:`_run`).

        Its ``mix`` is the int one, cu*u + cv*v mod n; the checks' pairs are not read.
        """
        steps, n = self._steps_at(_class_of(params)), params.n
        mix = lambda u, cu, v, cv: (cu * u + cv * v) % n
        return lambda x: _run(steps, self.p.arc_count, params, x.__getitem__, mix)[0]

    def count(self, params: AlexanderParams) -> int:
        """The exact number of colorings, with no cap."""
        if params.t == 1:
            return params.n**self.components
        return count_solutions(self.system(params), params.n)

    def image_sizes(self, params: AlexanderParams, cap: int) -> tuple[int, dict[int, int] | None]:
        """The exact count and, unless it passes the cap, the colorings per image size.

        The pair of :func:`image_size_counts`, in closed form at t = 1.
        """
        if params.t == 1:
            count = params.n**self.components
            return count, None if count > cap else trivial_image_sizes(self.components, params.n)
        return image_size_counts(self.system(params), self.lift(params), params.n, cap)

    def colorings(self, params: AlexanderParams, cap: int) -> list[tuple[int, ...]]:
        """Every coloring, sorted; CapExceededError past the cap (see enumerate_solutions)."""
        return enumerate_solutions(self.system(params), params.n, cap, self.lift(params))


def _frontier(plan: _Plan, cap: int):
    """Run the plan over arrays of partial colorings; yield each finished block of rows.

    A row is a partial coloring, a column a class.  A branch repeats each
    row once per element and writes the element into its column; a ``set``
    or ``solve`` step is one fancy index, ``x[:, target] = table[x[:, a],
    x[:, b]]``; a ``check`` keeps the rows where that value equals the
    target's.  A branch whose rows would pass its room first splits its
    block: the rows or, for a single row, the elements left go on an
    explicit stack, finished depth-first.  The room is _CELL_BUDGET cells
    less those waiting on the stack, but never below the budget's share per
    branch of the plan, or one row of one element.  A branch leaves at most
    two blocks waiting, each within the room it was made in, so the stack
    stays within about twice the budget however many branches the plan has,
    and blocks stay large enough that the per-step cost of Python does not
    dominate.  CapExceededError as soon as the finished rows pass the cap.
    """
    import numpy as np

    x = np.zeros((1, plan.width), np.min_scalar_type(plan.order - 1))
    floor = max(_CELL_BUDGET // max(1, sum(step[0] == "branch" for step in plan.steps)), plan.width)
    stack, held, found = [(0, x, 0)], x.size, 0  # (step, rows, first element not yet branched)
    while stack:
        s, x, first = stack.pop()
        held -= x.size
        for kind, target, a, b, table in plan.steps[s:]:
            if not len(x):
                break
            if kind == "branch":
                room = max(_CELL_BUDGET - held, floor)
                values = plan.order - first
                rows = max(1, room // (values * plan.width))
                if rows < len(x):  # the rows left wait on the stack
                    stack.append((s, x[rows:], first))
                    held += (len(x) - rows) * plan.width
                    x = x[:rows]
                if len(x) * values * plan.width > room:  # one row: the elements left wait
                    values = max(1, room // plan.width)
                    stack.append((s, x, first + values))
                    held += x.size
                x = np.repeat(x, values, axis=0)
                x.reshape(-1, values, plan.width)[:, :, target] = np.arange(first, first + values)
                first = 0
            else:
                value = x[:, a] if table is None else table[x[:, a], x[:, b]]
                if kind == "check":
                    passed = value == x[:, target]
                    if not passed.all():
                        x = x[passed]
                else:
                    x[:, target] = value
            s += 1
        if len(x):
            found += len(x)
            if found > cap:
                raise CapExceededError(cap)
            yield x


def brute_force_count(p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP) -> int:
    """``len(brute_force_colorings(p, q, cap))``, summed over the search's blocks with no list built."""
    return sum(len(block) for block in _frontier(_plan(p, q), cap))


def brute_force_image_sizes(p: QuandlePresentation, q: FiniteQuandle, cap: int) -> dict[int, int]:
    """The colorings by an arbitrary finite quandle per image size, from the search's blocks.

    A block's columns, classes of alike arcs, take as many distinct colors
    as the arcs.  CapExceededError as soon as the colorings pass the cap.
    """
    plan = _plan(p, q)
    return _image_sizes(_frontier(plan, cap), plan.width)


def brute_force_colorings(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """Every coloring of p by an arbitrary finite quandle, sorted.

    The plan (:func:`_plan`) is compiled once from the relations and run
    over blocks of partial colorings (:func:`_frontier`), within a budget
    of cells and with no depth limit; CapExceededError as soon as the
    finished colorings pass the cap.  Their rows are then spread from
    classes of alike arcs to arcs and sorted.
    """
    plan = _plan(p, q)
    return _sorted_colorings([block[:, plan.columns] for block in _frontier(plan, cap)])
