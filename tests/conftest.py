"""Shared test helpers: independent oracles kept deliberately naive."""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

import quandlecolor
from quandlecolor import (
    ColoringSystem,
    FiniteQuandle,
    alexander,
    catalog,
    catalog_names,
    connected_sum,
    enumerate_solutions,
    parse_pd_code,
    parse_quandle_file,
    parse_relations_file,
    reidemeister_r1,
    reidemeister_r2,
    smith_normal_form,
    solution_count_mod,
    units,
    validate,
)


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


def smith_columns(matrix, diagonal, v) -> list[list[int]]:
    """W with A*V = W*D: column j of A*V is d_j * w_j, and zero from the rank on.

    With V unimodular, W extending to a unimodular matrix M = [W | W'] gives
    A*V = M*D, so D = U*A*V for the unimodular U = M^-1.  Returns W as
    rows x rank.
    """
    av = matmul(matrix, v)
    assert all(x == 0 for row in av for x in row[len(diagonal):])
    for row in av:
        assert all(x % d == 0 for x, d in zip(row, diagonal))
    return [[x // d for x, d in zip(row, diagonal)] for row in av]


def dense_smith(matrix, cols: int | None = None) -> tuple[tuple[int, ...], list[list[int]]]:
    """Oracle: dense integer Smith form, returning (diagonal, V).

    The kernel the program used before its sparse elimination: dense rows,
    each pivot the least |entry| of the whole trailing block, Euclidean
    clearing, then the divisibility chain made on the diagonal alone.
    """
    a = [[int(v) for v in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else cols
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i: int, j: int) -> None:
        for row in a + v:
            row[i], row[j] = row[j], row[i]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in a + v:
            row[dst] += factor * row[src]

    d: list[int] = []
    for s in range(min(m, n)):
        pivot = min(
            ((abs(a[i][j]), i, j) for i in range(s, m) for j in range(s, n) if a[i][j]),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        a[s], a[pi] = a[pi], a[s]
        if pj != s:
            swap_cols(s, pj)
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
        while True:
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    a[i] = [x - q * y for x, y in zip(a[i], a[s])]
            left = next((i for i in range(s + 1, m) if a[i][s]), None)
            if left is not None:
                a[s], a[left] = a[left], a[s]
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
    return tuple(d), v


def invertible_mod(matrix, n: int) -> bool:
    """gcd(det M, n) == 1: M has full rank mod every prime dividing n."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    for p in primes:
        m = [[v % p for v in row] for row in matrix]
        for col in range(len(m)):
            pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
            if pivot is None:
                return False
            m[col], m[pivot] = m[pivot], m[col]
            inv = pow(m[col][col], -1, p)
            for i in range(col + 1, len(m)):
                f = m[i][col] * inv % p
                if f:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[col])]
    return True


def check_against_oracle(matrix, cols: int, moduli, max_enumerated: int = 5000) -> None:
    """The sparse kernel agrees with :func:`dense_smith` over Z and over each Z_n.

    Over Z the diagonals are equal.  Over Z_n the count is the oracle's,
    gcd(det V, n) == 1, the columns of A*V vanish mod n from the rank on,
    and, up to ``max_enumerated`` solutions, the sorted enumeration equals
    the oracle's x = V*y (mod n).
    """
    diagonal, v = dense_smith(matrix, cols)
    assert smith_normal_form(matrix, cols=cols).diagonal == diagonal
    system = system_of(matrix, cols)
    for n in moduli:
        snf = smith_normal_form(matrix, cols=cols, modulus=n)
        count = solution_count_mod(snf, n)
        expected = n ** (cols - len(diagonal))
        for d in diagonal:
            expected *= gcd(d, n)
        assert count == expected, n
        assert all(-n < 2 * x <= n for row in snf.col_transform for x in row)
        assert invertible_mod(snf.col_transform, n), n
        av = matmul(matrix, snf.col_transform)
        assert all(x % n == 0 for row in av for x in row[snf.rank:]), n
        if count <= max_enumerated:
            # y ranges over the solutions of D*y = 0; coordinates fixed at 0 add nothing
            steps = [n // gcd(d, n) for d in diagonal] + [1] * (cols - len(diagonal))
            active = [(k, range(0, n, step)) for k, step in enumerate(steps) if step < n]
            columns = [[row[k] % n for row in v] for k, _ in active]
            oracle = sorted(
                tuple(sum(y * c[r] for y, c in zip(ys, columns)) % n for r in range(cols))
                for ys in itertools.product(*(values for _, values in active))
            )
            assert enumerate_solutions(system, n) == oracle, n


def system_of(matrix, cols: int) -> ColoringSystem:
    """The ColoringSystem of a dense integer matrix: each row's nonzeros as (column, value)."""
    return ColoringSystem(len(matrix), cols, tuple(
        tuple((j, int(x)) for j, x in enumerate(row) if x) for row in matrix
    ))


def braid_pd(strands: int, word) -> str:
    """PD code of the closure of a braid word: +i crosses strand i over i+1, -i under.

    Strands run upward, and each crossing takes the edges at its bottom-left,
    bottom-right, top-right and top-left.  +i is X(BR, TR, TL, BL): the
    under-strand runs BR -> TL and the over-strand d -> b, a positive
    crossing.  -i is X(BL, BR, TR, TL), under BL -> TR, over b -> d.  The
    closure joins each top edge to the bottom edge of its position, and
    labels are renumbered 1, 2, ... in order of first use.
    """
    edge = list(range(strands))  # the edge now at each position
    quads, top = [], strands
    for g in word:
        i = abs(g) - 1
        bl, br, tl, tr = edge[i], edge[i + 1], top, top + 1
        top += 2
        quads.append((br, tr, tl, bl) if g > 0 else (bl, br, tr, tl))
        edge[i], edge[i + 1] = tl, tr
    closing = dict(zip(edge, range(strands)))
    label: dict[int, int] = {}
    for quad in quads:
        for e in quad:
            label.setdefault(closing.get(e, e), len(label) + 1)
    return " ".join("X({},{},{},{})".format(*(label[closing.get(e, e)] for e in q)) for q in quads)


def equivalent_braid(strands: int, word, moves: int, seed: int) -> tuple[int, list[int]]:
    """A braid whose closure is the closure of ``word``, by ``moves`` seeded moves.

    Each move, drawn at random, is one of: the braid relation s_i s_j s_i =
    s_j s_i s_j (|i - j| = 1, equal signs) at a random site; far
    commutation of two neighbours s_i^+-1 s_j^+-1, |i - j| >= 2; inserting
    g g^-1; conjugation, by rotating the word; stabilization, appending
    s_n^+-1 on a new strand, up to 6 strands.  Equivalent words close to
    the same link (Markov's theorem); a move with no site does nothing.
    """
    rng = random.Random(seed)
    word = list(word)
    for _ in range(moves):
        move, k = rng.randrange(5), rng.randrange(len(word))
        if move == 0:
            sites = [i for i in range(len(word) - 2) if word[i] == word[i + 2]
                     and abs(abs(word[i]) - abs(word[i + 1])) == 1 and word[i] * word[i + 1] > 0]
            if sites:
                i = rng.choice(sites)
                word[i:i + 3] = [word[i + 1], word[i], word[i + 1]]
        elif move == 1:
            sites = [i for i in range(len(word) - 1) if abs(abs(word[i]) - abs(word[i + 1])) >= 2]
            if sites:
                i = rng.choice(sites)
                word[i], word[i + 1] = word[i + 1], word[i]
        elif move == 2:
            g = rng.choice((1, -1)) * rng.randint(1, strands - 1)
            word[k:k] = [g, -g]
        elif move == 3:
            word = word[k:] + word[:k]
        elif strands < 6:
            word.append(rng.choice((1, -1)) * strands)
            strands += 1
    return strands, word


# (n, t) for the forcing route: at (8, 3) 1 - t is no unit, so no step
# solves for an over-arc; t = 1, and n = 2, are trivial quandles, whose
# steps only copy and compare
FORCING_QUANDLES = ((8, 3), (9, 2), (15, 2), (9, 1), (2, 1))


def forcing_diagrams():
    """Catalog, chain, braid-closure and free-circle diagrams small enough for the dense oracle."""
    chain = connected_sum(
        connected_sum(catalog("hopf_sum"), catalog("trefoil"), 1, 1), catalog("allen_swenberg"), 1, 1
    )
    braids = [parse_pd_code(braid_pd(3, [1, -2] * 4)), parse_pd_code(braid_pd(4, [1, -2, 3] * 5))]
    circles = parse_relations_file("circles: 1\n" + catalog("trefoil").render_relations())
    return [*map(catalog, catalog_names()), chain, *braids, circles]


def image_size(colors: tuple[int, ...]) -> int:
    """Number of distinct colors a coloring uses: its exponent in phi."""
    return len(set(colors))


def involutory_units_among_units(n: int) -> tuple[int, ...]:
    """The units of Z_n, listed in full, filtered by t*t = 1 (mod n)."""
    return tuple(t for t in units(n) if t * t % n == 1)


@functools.cache
def grown(name: str, arcs: int, seed: int):
    """Catalog diagram ``name`` grown by seeded R1/R2 moves to at least ``arcs`` arcs.

    Cached: a diagram is immutable, and several tests grow the same one.
    """
    rng = random.Random(seed)
    d = catalog(name)
    while d.arc_count < arcs:
        arc, other = rng.randint(1, d.arc_count), rng.randint(1, d.arc_count)
        if rng.random() < 0.5:
            d = reidemeister_r1(d, arc, rng.choice((1, -1)))
        else:
            d = reidemeister_r2(d, arc, other)
    return d


def transpositions(k: int) -> FiniteQuandle:
    """Conjugation quandle on the transpositions of S_k: x > y = y x y^-1."""
    pairs = list(itertools.combinations(range(k), 2))

    def conjugate(x, y):
        swap = {y[0]: y[1], y[1]: y[0]}
        return pairs.index(tuple(sorted(swap.get(a, a) for a in x)))

    return validate([[conjugate(x, y) for y in pairs] for x in pairs])


def takasaki(n: int) -> FiniteQuandle:
    """Takasaki quandle on Z_n, x > y = 2y - x mod n: the Alexander quandle at t = -1."""
    return alexander(n, n - 1)


def trivial(m: int) -> FiniteQuandle:
    """Trivial quandle of order m, x > y = x, its own dual: tables and no (n, t)."""
    table = tuple((x,) * m for x in range(m))
    return FiniteQuandle(m, (table, table))


def apply(q: FiniteQuandle, x: int, y: int, positive: bool = True) -> int:
    """x > y in q when positive, x >^-1 y otherwise."""
    return q.op[x][y] if positive else q.dual[x][y]


def trivial_t_classes(p) -> tuple[frozenset[int], ...]:
    """Arc classes forced equal by a trivial quandle, where each relation reads out = in.

    The finest partition putting each relation's in and out arcs together,
    ordered by smallest member, merged one set at a time.
    """
    classes = [{a} for a in range(1, p.arc_count + 1)]
    for r in p.relations:
        a = next(c for c in classes if r.under_in in c)
        b = next(c for c in classes if r.under_out in c)
        if a is not b:
            a |= b
            classes.remove(b)
    return tuple(sorted(map(frozenset, classes), key=min))


def table_text(q: FiniteQuandle) -> str:
    """q's operation table in the quandle file format."""
    rows = "\n".join(" ".join(map(str, row)) for row in q.op)
    return f"order: {q.order}\n{rows}\n"


def as_table_file(q: FiniteQuandle) -> FiniteQuandle:
    """q read back from its table file: no (n, t), so only brute force can color by it."""
    return parse_quandle_file(table_text(q))


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


def run_cli_limited(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m quandlecolor.cli`` in a child process under a 1 GB address-space limit."""
    return run_python_limited("-m", "quandlecolor.cli", *argv)


def run_python_limited(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh child process under a 1 GB address-space limit.

    The child imports quandlecolor from the same tree as the tests.  The
    limit is set in the child alone, so an input that needs more memory
    ends that child (with a MemoryError and exit 1) instead of using up the
    memory of the test run.
    """
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, **_limited_child())


def start_cli_limited(*argv: str) -> subprocess.Popen:
    """Start ``python -m quandlecolor.cli`` as :func:`run_python_limited` runs it, stdout and stderr piped."""
    return subprocess.Popen([sys.executable, "-m", "quandlecolor.cli", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, **_limited_child())


def _limited_child() -> dict:
    """The environment and address-space limit of a child process that runs the CLI."""
    src = str(Path(quandlecolor.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def limit() -> None:
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    return {"env": dict(os.environ, PYTHONPATH=path), "preexec_fn": limit}


def report_dict(report) -> dict:
    """A DistinguishabilityReport as the ``results`` of a compare document, as a plain dict."""
    return {
        "link_a": report.link_a,
        "link_b": report.link_b,
        "t_policy": report.t_policy,
        "grid": [
            {
                "n": cell.n,
                "t": cell.t,
                "count_a": cell.count_a,
                "count_b": cell.count_b,
                "phi_a": None if cell.phi_a is None else list(cell.phi_a.terms),
                "phi_b": None if cell.phi_b is None else list(cell.phi_b.terms),
            }
            for cell in report.grid
        ],
        "verdict": report.verdict,
    }


def compare_document(report, n_values, cap: int) -> str:
    """``compare --format json``'s output, encoded whole by json.dumps."""
    inputs = {"link_a": report.link_a, "link_b": report.link_b, "n": list(n_values),
              "t_policy": report.t_policy, "cap": cap}
    doc = {"command": "compare", "inputs": inputs, "results": report_dict(report),
           "exit_status": 0}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def compare_lines(report) -> list[str]:
    """``compare``'s text output as lines, built from the whole report."""
    lines = [f"compare {report.link_a} vs {report.link_b}"]
    for cell in report.grid:
        phi_a = "-" if cell.phi_a is None else str(cell.phi_a)
        phi_b = "-" if cell.phi_b is None else str(cell.phi_b)
        lines.append(f"n={cell.n} t={cell.t} count_a={cell.count_a} count_b={cell.count_b} "
                     f"phi_a=({phi_a}) phi_b=({phi_b})")
    return lines + [f"verdict: {report.verdict}"]
