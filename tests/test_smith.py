"""Smith normal form: exactness, unimodularity, and modular solution counts."""

from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quandlecolor import smith_normal_form, solution_count_mod

from conftest import exact_det, minors_gcd, modular_solutions, smith_columns


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
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
    # D = U * A * V for some unimodular U, checked without U
    snf = smith_normal_form(matrix)
    assert abs(exact_det(snf.col_transform)) == 1
    assert minors_gcd(smith_columns(matrix, snf), snf.rank) == 1
    assert all(d > 0 for d in snf.diagonal)
    for a, b in zip(snf.diagonal, snf.diagonal[1:]):
        assert b % a == 0


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
    snf = smith_normal_form(matrix)
    assert abs(exact_det(snf.col_transform)) == 1
    assert minors_gcd(smith_columns(matrix, snf), snf.rank) == 1
    assert snf.diagonal[0] == 2  # gcd(big, big + 2, 2)


def test_gcd_based_count_formula_directly():
    # diag (1, 2) over Z_4: 4**(cols-rank) * gcd(1,4) * gcd(2,4)
    snf = smith_normal_form([[1, 0, 0], [0, 2, 0]])
    assert solution_count_mod(snf, 4) == 4 * 1 * 2
    brute = modular_solutions([[1, 0, 0], [0, 2, 0]], 3, 4)
    assert len(brute) == 8
    assert all(x == 0 and y in (0, 2) for x, y, _ in brute)
