"""Smith normal form: exactness, unimodularity, and modular solution counts."""

import hashlib
import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlecolor import (
    AlexanderParams,
    build_system,
    catalog,
    catalog_names,
    extract,
    smith_normal_form,
    solution_count_mod,
    units,
)
from quandlecolor.smith import _eliminate
from quandlecolor.solver import Forcing

from conftest import (
    check_against_oracle,
    dense_smith,
    exact_det,
    grown,
    minors_gcd,
    modular_solutions,
    smith_columns,
)


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


# mostly zeros, with non-unit entries so that Euclidean steps and the chain
# step both fire
sparse_matrices = st.integers(min_value=1, max_value=7).flatmap(
    lambda r: st.integers(min_value=1, max_value=7).flatmap(
        lambda c: st.lists(
            st.lists(
                st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 9, -12, 16)),
                min_size=c,
                max_size=c,
            ),
            min_size=r,
            max_size=r,
        )
    )
)


def test_known_diagonals():
    snf = smith_normal_form([[2, 0], [0, 2]])
    assert snf.diagonal == (2, 2)
    snf = smith_normal_form([[1, 0], [0, 1]])
    assert snf.diagonal == (1, 1)
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == ()
    assert snf.rank == 0


def test_divisibility_forcing():
    # diag(2, 3) is not in Smith form; invariant factors are 1, 6
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == (1, 6)


def test_empty_and_degenerate_shapes():
    snf = smith_normal_form([], cols=3)
    assert snf.rank == 0 and snf.cols == 3 and snf.rows == 0
    snf = smith_normal_form([[0, 0, 0]])
    assert snf.rank == 0
    snf = smith_normal_form([[4], [6]])
    assert snf.diagonal == (2,)


@settings(max_examples=150, deadline=None)
@given(matrices)
# fixed inputs for the chain step: a diagonal that is not a chain, a first
# entry fixed against both later ones, and a 10**30 pivot whose step makes
# V's entries that large
@example([[2, 0], [0, 3]])
@example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
@example([[10**30, 0, 0], [0, 6, 0], [0, 0, 10]])
def test_reconstruction_and_unimodularity(matrix):
    # the oracle's D = U * A * V for some unimodular U, checked without U;
    # the kernel over Z returns the same diagonal and no V
    diagonal, v = dense_smith(matrix)
    assert abs(exact_det(v)) == 1
    assert minors_gcd(smith_columns(matrix, diagonal, v), len(diagonal)) == 1
    assert all(d > 0 for d in diagonal)
    for a, b in zip(diagonal, diagonal[1:]):
        assert b % a == 0
    snf = smith_normal_form(matrix)
    assert (snf.diagonal, snf.col_transform) == (diagonal, ())


@settings(max_examples=100, deadline=None)
@given(matrices, st.integers(min_value=1, max_value=6))
def test_count_matches_exhaustive_enumeration(matrix, n):
    snf = smith_normal_form(matrix)
    expected = len(modular_solutions(matrix, snf.cols, n))
    assert solution_count_mod(snf, n) == expected


@settings(max_examples=60, deadline=None)
@given(matrices, st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_count_invariant_under_row_operations(matrix, n, rng):
    base = solution_count_mod(smith_normal_form(matrix), n)
    # row permutation
    shuffled = list(matrix)
    rng.shuffle(shuffled)
    assert solution_count_mod(smith_normal_form(shuffled), n) == base
    # unimodular row operation: add a multiple of one row to another
    if len(matrix) >= 2:
        i, j = rng.sample(range(len(matrix)), 2)
        k = rng.randint(-3, 3)
        bumped = [list(r) for r in matrix]
        bumped[i] = [a + k * b for a, b in zip(bumped[i], bumped[j])]
        assert solution_count_mod(smith_normal_form(bumped), n) == base


def test_big_integer_entries_stay_exact():
    big = 10**30
    matrix = [[big, big + 2], [0, 2]]
    diagonal, v = dense_smith(matrix)
    assert abs(exact_det(v)) == 1
    assert minors_gcd(smith_columns(matrix, diagonal, v), len(diagonal)) == 1
    assert diagonal[0] == 2  # gcd(big, big + 2, 2)
    assert smith_normal_form(matrix).diagonal == diagonal


def test_gcd_based_count_formula_directly():
    # diag (1, 2) over Z_4: 4**(cols-rank) * gcd(1,4) * gcd(2,4)
    snf = smith_normal_form([[1, 0, 0], [0, 2, 0]])
    assert solution_count_mod(snf, 4) == 4 * 1 * 2
    brute = modular_solutions([[1, 0, 0], [0, 2, 0]], 3, 4)
    assert len(brute) == 8
    assert all(x == 0 and y in (0, 2) for x, y, _ in brute)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices)
@example([[2, 0], [0, 3]])
@example([[4, 6, 0], [6, 9, 0], [0, 0, 12]])
@example([[0, 0, 0]])
def test_sparse_kernel_matches_dense_oracle(matrix):
    check_against_oracle(matrix, len(matrix[0]), (2, 4, 8, 9, 12, 15, 16))


def test_unit_pivots_read_one_on_the_modular_diagonal():
    # a unit mod n is scaled to 1; a non-unit keeps its least absolute residue
    assert smith_normal_form([[2, 3], [4, 1]], modulus=7).diagonal == (1, 1)
    assert smith_normal_form([[2]], modulus=9).diagonal == (1,)
    assert smith_normal_form([[6]], modulus=9).diagonal == (3,)
    assert smith_normal_form([[4, 10], [0, 5]], modulus=15).diagonal == (5, 1)
    # over Z the diagonal stays the Smith chain
    assert smith_normal_form([[2, 3], [4, 1]]).diagonal == (1, 10)


def test_modular_form_answers_only_its_modulus():
    snf = smith_normal_form([[2, 0], [0, 3]], modulus=4)
    assert snf.modulus == 4
    assert solution_count_mod(snf, 4) == 2  # 2x = 0 has x in {0, 2}; 3y = 0 has y = 0
    with pytest.raises(ValueError, match="mod 4"):
        solution_count_mod(snf, 8)
    with pytest.raises(ValueError):
        smith_normal_form([[1]], modulus=-3)
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
        solution_count_mod(smith_normal_form([[1]]), 0)
    # the dense reader's checks of its input's shape
    for matrix, cols, message in (
        ([[1, 2], [3]], None, "matrix rows have differing lengths"),
        ([[1, 2]], 3, "cols=3 disagrees with row length 2"),
        ([], None, "cols is required for a matrix with no rows"),
    ):
        with pytest.raises(ValueError, match=message):
            smith_normal_form(matrix, cols=cols)


def test_column_of_v_only_over_z_n_and_in_range():
    # V is kept only mod n: over Z, and at an index outside 0..cols-1, column
    # raises ValueError (a negative index does not read from the end)
    snf = smith_normal_form([[2, 3], [4, 1]], modulus=7)
    assert [snf.column(c) for c in range(2)] == [tuple(col) for col in zip(*snf.col_transform)]
    for c in (-1, 2):
        with pytest.raises(ValueError, match=f"column {c} out of range"):
            snf.column(c)
    over_z = smith_normal_form([[2, 3], [4, 1]])
    with pytest.raises(ValueError, match="not over Z"):
        over_z.column(0)
    assert over_z.col_transform == ()


def _kernel_digests() -> dict[str, str]:
    """sha256 of repr((diagonal, column_ops, column_order)) for every system of a fixed set.

    The forced checks of every catalog link for n = 2..23 and every unit t,
    mod n; the same links' build_system rows, mod n and over Z; 300 seeded
    random matrices of at most 7 x 7 with many zeros, over Z and mod each n
    in 2..30; and the forced checks and build_system rows of three diagrams
    grown to 150-250 arcs, mod n at four cells and over Z at one, where fill
    spreads the row lengths as no smaller system does.
    """
    digests = {}

    def digest(name, systems):
        h = hashlib.sha256()
        for entries, cols, modulus in systems:
            snf = _eliminate(entries, cols, modulus)
            h.update(repr((snf.diagonal, snf.column_ops, snf.column_order)).encode())
        digests[name] = h.hexdigest()

    def catalog_systems(route, moduli):
        for name in catalog_names():
            p = extract(catalog(name))
            for n in range(2, 24):
                for t in units(n):
                    system = route(p, AlexanderParams(n, t))
                    for modulus in moduli(n):
                        yield system.entries, system.cols, modulus

    digest("forced", catalog_systems(lambda p, params: Forcing(p).system(params), lambda n: (n,)))
    digest("build_system", catalog_systems(build_system, lambda n: (n, 0)))
    rng = random.Random(24)
    values = (0, 0, 0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 5, 6, 9, -12, 16, 30, -45)

    def random_systems():
        for _ in range(300):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            entries = [[(j, x) for j in range(cols) if (x := rng.choice(values))]
                       for _ in range(rows)]
            for modulus in (0, *range(2, 31)):
                yield entries, cols, modulus

    digest("random", random_systems())

    def grown_systems():
        for p in (extract(grown("trefoil", 200, 7)), extract(grown("hopf_sum", 150, 8)),
                  extract(grown("allen_swenberg", 250, 9))):
            forcing = Forcing(p)
            for params in (AlexanderParams(9, 2), AlexanderParams(8, 3),
                           AlexanderParams(16, 5), AlexanderParams(15, 2)):
                checks, full = forcing.system(params), build_system(p, params)
                yield checks.entries, checks.cols, params.n
                yield full.entries, full.cols, params.n
            full = build_system(p, AlexanderParams(9, 2))
            yield full.entries, full.cols, 0

    digest("grown", grown_systems())
    return digests


def test_kernel_pivots_and_operation_log_are_pinned():
    # the pivots, the diagonal and the column operations of the kernel, on
    # every system the paper's grid and the catalog make, on random ones and
    # on grown diagrams: a change to how _eliminate runs must leave all four
    # digests as they are
    assert _kernel_digests() == {
        "forced": "1bf01250a12e08b11e206f372f90c0d7c253e8e5399a0d1d5ecd6a7b91d6e1fb",
        "build_system": "2ebf0b46ba10344bc20c2987de147b5f12bd247cfd61c9f9175e55bfa151bdd5",
        "random": "40175ac4c1f7692c52ac31b0d360819d6375b5fa0fa165adf4fc8dd267df9f64",
        "grown": "6b657f978b480f2fcb490bcf43e16581983a3272c16bb30c40a673b6a0509092",
    }
