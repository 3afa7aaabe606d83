"""Coloring systems, exact counting/enumeration, and the brute-force oracle."""

import hashlib
import itertools
import random
import tracemalloc
from collections import Counter
from math import gcd, prod

import pytest

from quandlecolor import solver
from quandlecolor import (
    AlexanderParams,
    CapExceededError,
    ColoringSystem,
    SmithForm,
    alexander,
    all_colorings,
    brute_force_colorings,
    build_system,
    catalog,
    catalog_names,
    count_solutions,
    enumerate_solutions,
    extract,
    connected_sum,
    counting_invariant,
    parse_relations_file,
    reidemeister_r1,
    reidemeister_r2,
    smith_normal_form,
    validate,
)

from conftest import (
    FORCING_QUANDLES,
    apply,
    as_table_file,
    check_against_oracle,
    dense_smith,
    exact_det,
    forcing_diagrams,
    grown,
    image_size,
    matmul,
    modular_solutions,
    smith_columns,
    system_of,
    takasaki,
    transpositions,
    trivial,
    trivial_t_classes,
)


def test_build_system_hopf_sum_coefficient_pattern():
    p = extract(catalog("hopf_sum"))
    t = 2
    sys = build_system(p, AlexanderParams(3, t))
    assert sys.rows == 4 and sys.cols == 4
    assert sys.matrix == (
        (1 - t, -1, t, 0),
        (0, t, -1, 1 - t),
        (t - 1, 0, 1 - t, 0),
        (0, 0, 1 - t, t - 1),
    )


def test_build_system_trefoil_rows_collapse_to_sum_zero():
    # at (n,t) = (3,2) every relation rearranges to x1 + x2 + x3 = 0 (mod 3)
    p = extract(catalog("trefoil"))
    sys = build_system(p, AlexanderParams(3, 2))
    for row in sys.matrix:
        assert sorted(v % 3 for v in row) == [2, 2, 2]
        assert sum(row) == 0


def test_build_system_negative_relation_uses_t_inverse():
    p = extract(parse_relations_file("x1 = x1 / x2\nx2 = x2 / x1\n"))
    params = AlexanderParams(5, 2)
    tinv = pow(2, -1, 5)
    sys = build_system(p, params)
    assert sys.matrix[0] == (tinv - 1, 1 - tinv)


def test_build_system_empty_presentation():
    p = extract(catalog("unlink2"))
    sys = build_system(p, AlexanderParams(3, 2))
    assert sys.rows == 0 and sys.cols == 2
    assert count_solutions(sys, 3) == 9


def test_row_sums_vanish_for_all_catalog_systems():
    for name in ("hopf", "trefoil", "hopf_sum", "allen_swenberg"):
        p = extract(catalog(name))
        for n, t in ((3, 2), (4, 3), (12, 7)):
            sys = build_system(p, AlexanderParams(n, t))
            for row in sys.matrix:
                assert sum(row) == 0
            # hence the all-equal assignment is always a solution
            for c in range(n):
                assert all(sum(v * c for v in row) % n == 0 for row in sys.matrix)


def test_count_trefoil_9():
    p = extract(catalog("trefoil"))
    assert count_solutions(build_system(p, AlexanderParams(3, 2)), 3) == 9


@pytest.mark.parametrize("n", (2, 3, 5, 7))
def test_count_hopf_sum_and_allen_swenberg_prime_grid(n):
    for name in ("hopf_sum", "allen_swenberg"):
        p = extract(catalog(name))
        for t in range(2, n):
            if gcd(n, t) == 1:
                assert count_solutions(build_system(p, AlexanderParams(n, t)), n) == n


def test_count_diagonal_system_mod_4():
    sys = ColoringSystem(2, 2, (((0, 2),), ((1, 2),)))
    # oracle: all 16 pairs by hand; solutions are x, y in {0, 2}
    brute = modular_solutions(sys.matrix, 2, 4)
    assert brute == {(0, 0), (0, 2), (2, 0), (2, 2)}
    assert count_solutions(sys, 4) == 4


def test_enumerate_trefoil_exact_set():
    p = extract(catalog("trefoil"))
    sols = enumerate_solutions(build_system(p, AlexanderParams(3, 2)), 3)
    expected = {
        (0, 0, 0), (1, 1, 1), (2, 2, 2),
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    }
    assert set(sols) == expected
    assert sols == sorted(sols)


def test_enumerate_hopf_sum_trivial_solutions_only():
    p = extract(catalog("hopf_sum"))
    sols = enumerate_solutions(build_system(p, AlexanderParams(3, 2)), 3)
    assert set(sols) == {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)}


def test_enumerate_cap_exceeded():
    p = extract(catalog("trefoil"))
    with pytest.raises(CapExceededError) as exc:
        enumerate_solutions(build_system(p, AlexanderParams(3, 2)), 3, cap=1)
    assert exc.value.count == 9
    assert exc.value.cap == 1


def test_enumerate_matches_exhaustive_modular_solutions():
    p = extract(catalog("hopf_sum"))
    for n, t in ((4, 3), (6, 5), (5, 2)):
        sys = build_system(p, AlexanderParams(n, t))
        assert set(enumerate_solutions(sys, n)) == modular_solutions(
            sys.matrix, sys.cols, n
        )


def _unimodular(k: int, bound: int, rng: random.Random) -> list[list[int]]:
    """A k x k unimodular integer matrix with entries far past ``bound``."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        f = rng.randrange(-bound, bound)
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


def _torsion_matrix(n: int, diagonal) -> list[list[int]]:
    """A = P * diag * Q with P, Q unimodular and seeded by n and the diagonal.

    Torsion only: prod(gcd(d, n)) solutions mod n, and columns of V with
    entries of the size of n.
    """
    rng = random.Random(n + sum(diagonal))
    k = len(diagonal)
    d = [[diagonal[i] if i == j else 0 for j in range(k)] for i in range(k)]
    return matmul(matmul(_unimodular(k, n, rng), d), _unimodular(k, n, rng))


@pytest.mark.parametrize(
    "n, diagonal",
    [
        (2**31, (2, 1, 1)),  # 1 varying coordinate: int64
        (2**31, (2, 2, 1)),  # 2 * (n-1)**2 < 2**63: still int64
        (2**31 - 2, (2, 2, 1)),  # int64, and not a power of two
        (2**31, (2, 2, 2)),  # 3 varying coordinates: past the bound, object
        (2**40, (2, 4, 1)),  # object
        (10**12 + 2, (2, 6, 1)),  # object; an int64 product would wrap mod 2**64
        (2**70, (1, 1, 1)),  # nothing varies, x = 0 is the one solution: object
        (1, (2, 3, 1)),  # over Z_1 nothing varies either: int64
    ],
)
def test_enumeration_on_both_sides_of_the_int64_bound(n, diagonal):
    k = len(diagonal)
    matrix = _torsion_matrix(n, diagonal)
    snf = smith_normal_form(matrix, modulus=n)
    v = snf.col_transform
    steps = [n // gcd(x, n) for x in snf.diagonal] + [1] * (k - snf.rank)
    expected = sorted(
        tuple(sum(row[c] * y for c, y in enumerate(ys)) % n for row in v)
        for ys in itertools.product(*(range(0, n, step) for step in steps))
    )
    assert len(expected) == prod(gcd(x, n) for x in diagonal)
    system = system_of(matrix, k)
    assert enumerate_solutions(system, n) == expected


def test_colorings_are_sorted_lists_of_int_tuples():
    # every route lists its colorings as tuples of Python ints, sorted:
    # by a table, by (n, t), and past the int64 bound, where numpy holds objects
    def assert_listing(colorings, width):
        assert type(colorings) is list and colorings == sorted(colorings)
        assert all(type(c) is tuple and len(c) == width for c in colorings)
        assert all(type(x) is int for c in colorings for x in c)

    p = extract(catalog("allen_swenberg"))
    for q in (transpositions(4), as_table_file(alexander(9, 2)), alexander(9, 2)):
        assert_listing(brute_force_colorings(p, q), p.arc_count)
        assert_listing(all_colorings(p, q), p.arc_count)
    assert_listing(enumerate_solutions(build_system(p, AlexanderParams(8, 3)), 8), p.arc_count)
    for n, diagonal in ((2**31, (2, 2, 2)), (2**40, (2, 4, 1)), (10**12 + 2, (2, 6, 1)),
                        (2**70, (1, 1, 1))):
        colorings = enumerate_solutions(system_of(_torsion_matrix(n, diagonal), 3), n)
        assert len(colorings) == prod(gcd(x, n) for x in diagonal)
        assert_listing(colorings, 3)
    assert enumerate_solutions(ColoringSystem(0, 0, ()), 5) == [()]


def test_count_builds_no_column_transform():
    # 4096 free columns: a dense 4096 x 4096 V would peak past 250 MB
    tracemalloc.start()
    try:
        assert count_solutions(ColoringSystem(0, 4096, entries=()), 13) == 13**4096
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_enumeration_builds_only_the_varying_columns(monkeypatch):
    # over Z_8 at t = 3: two torsion coordinates and one free one vary, 42 are fixed at 0
    system = build_system(extract(catalog("allen_swenberg")), AlexanderParams(8, 3))
    snf = smith_normal_form(system.matrix, cols=system.cols, modulus=8)
    built = []
    original = SmithForm.column
    monkeypatch.setattr(SmithForm, "column", lambda self, c: built.append(c) or original(self, c))
    count = count_solutions(system, 8)
    assert built == []
    assert len(enumerate_solutions(system, 8)) == count
    varying = [k for k, d in enumerate(snf.diagonal) if gcd(d, 8) > 1]
    assert built == varying + list(range(snf.rank, system.cols))
    assert len(built) == 3


def test_brute_force_trefoil_matches_enumeration():
    p = extract(catalog("trefoil"))
    q = alexander(3, 2)
    brute = brute_force_colorings(p, q)
    linear = enumerate_solutions(build_system(p, q.alexander), 3)
    assert brute == linear


def test_brute_force_trivial_quandle_counts_classes():
    for name in ("unknot", "unlink2", "hopf", "trefoil", "hopf_sum"):
        p = extract(catalog(name))
        k = len(trivial_t_classes(p))
        for m in (2, 3, 5):
            assert len(brute_force_colorings(p, trivial(m))) == m**k


def test_brute_force_unknot_any_quandle():
    p = extract(catalog("unknot"))
    for q in (trivial(4), takasaki(6), alexander(5, 3)):
        sols = brute_force_colorings(p, q)
        assert len(sols) == q.order
        assert set(sols) == {(c,) for c in range(q.order)}


def test_brute_force_cap():
    p = extract(catalog("unlink2"))
    with pytest.raises(CapExceededError):
        brute_force_colorings(p, trivial(5), cap=10)


@pytest.mark.parametrize(
    "name, q, k",
    [("unlink2", trivial(5), 25), ("allen_swenberg", transpositions(4), 24)],
    ids=["unlink2-trivial5", "allen_swenberg-S4"],
)
def test_brute_force_cap_boundary(name, q, k):
    # the (cap+1)-th coloring found raises; cap = count returns them all, sorted
    p = extract(catalog(name))
    colorings = brute_force_colorings(p, q, cap=k)
    assert len(colorings) == k
    assert colorings == sorted(colorings)
    with pytest.raises(CapExceededError):
        brute_force_colorings(p, q, cap=k - 1)


def test_brute_force_quandle_with_a_fixed_element(small_catalog):
    # element 2 is fixed by all (a constant row, so it forces out = in) and
    # swaps 0 and 1, which act trivially: not a trivial quandle
    q = validate([[0, 0, 1], [1, 1, 0], [2, 2, 2]])
    diagrams = [*small_catalog.values(), reidemeister_r2(catalog("unlink2"), 1, 2),
                reidemeister_r1(catalog("hopf_sum"), 2, -1)]
    for d in diagrams:
        p = extract(d)
        naive = [
            x for x in itertools.product(range(3), repeat=p.arc_count)
            if all(x[r.under_out - 1] == apply(q, x[r.under_in - 1], x[r.over - 1], r.positive)
                   for r in p.relations)
        ]
        assert brute_force_colorings(p, q) == naive
    assert len(brute_force_colorings(extract(catalog("allen_swenberg")), q)) == 11


@pytest.mark.parametrize(
    "q, solves",
    [(as_table_file(alexander(5, 2)), True), (transpositions(4), False), (trivial(2), False),
     (trivial(3), False)],
    ids=["alexander5-table", "S4", "trivial2", "trivial3"],
)
def test_brute_force_plan_steps_match_a_naive_product(small_catalog, q, solves):
    # an Alexander table's rows are permutations, so in and out solve for the
    # over-arc; S4's are not, and a trivial table only copies and compares
    diagrams = [*small_catalog.values(), reidemeister_r1(catalog("trefoil"), 2, 1),
                reidemeister_r2(catalog("trefoil"), 1, 3)]
    kinds = set()
    for d in diagrams:
        p = extract(d)
        steps = solver._plan(p, q).steps
        kinds |= {kind for kind, *_ in steps}
        if q.op == trivial(q.order).op:
            assert all(table is None for *_, table in steps), d
        naive = [
            x for x in itertools.product(range(q.order), repeat=p.arc_count)
            if all(x[r.under_out - 1] == apply(q, x[r.under_in - 1], x[r.over - 1], r.positive)
                   for r in p.relations)
        ]
        assert brute_force_colorings(p, q) == naive, d
    assert ("solve" in kinds) == solves


def test_brute_force_rows_stay_within_the_cell_budget():
    # unsplit, the S5 search holds 418000 partial colorings of 45 classes at
    # once (21 MB); split, it peaks at a few MB, mostly the answer itself
    cases = [(grown("allen_swenberg", 1100, 1), transpositions(4), 24, 16),
             (catalog("allen_swenberg"), transpositions(5), 3040, 10)]
    for d, q, count, megabytes in cases:
        p = extract(d)
        tracemalloc.start()
        try:
            found = len(brute_force_colorings(p, q))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (found, peak < megabytes * 2**20) == (count, True), d.arc_count


def test_brute_force_with_every_branch_split(monkeypatch):
    # a budget of one cell splits every branch down to one row and one
    # element: the blocks waiting on the stack must give back every coloring
    monkeypatch.setattr(solver, "_CELL_BUDGET", 1)
    chain = catalog("trefoil")
    for _ in range(3):
        chain = connected_sum(chain, catalog("trefoil"), 1, 1)
    for n, t in ((5, 2), (7, 3), (9, 2)):
        q = as_table_file(alexander(n, t))
        for d in [*map(catalog, catalog_names()), chain]:
            p = extract(d)
            brute = brute_force_colorings(p, q)
            system = build_system(p, AlexanderParams(n, t))
            assert brute == enumerate_solutions(system, n), (n, t, d.arc_count)
    test_brute_force_cap_boundary("unlink2", trivial(5), 25)
    test_brute_force_cap_boundary("allen_swenberg", transpositions(4), 24)


def test_alike_arcs_classes_are_colored_alike():
    # every coloring of the linear route, independent of brute force, gives
    # the arcs of one class one color
    for name, arcs in (("trefoil", 120), ("hopf_sum", 135), ("allen_swenberg", 150)):
        p = extract(grown(name, arcs, 3))
        rep = solver._alike_arcs(p)
        assert len(set(rep[1:])) < p.arc_count, name
        for n, t in ((5, 2), (8, 3), (9, 2)):
            for c in enumerate_solutions(build_system(p, AlexanderParams(n, t)), n):
                assert all(c[a - 1] == c[rep[a] - 1] for a in range(1, p.arc_count + 1))


# sha256 of repr(_alike_arcs(p)): the representatives fix the brute-force
# plan's columns and their order
ALIKE_ARCS_DIGESTS = {
    ("trefoil", 400): "8edbec18b4fa81c7b97744a4381b5a88fb498fbfaa41f55aa6dd68ebe28755ca",
    ("hopf_sum", 300): "bee23d084c3889ab3691510810d37e5151e6e40e8f5cd8f9991fff54085a05fa",
    ("allen_swenberg", 500): "66f645e52a54f39855e466a1a1c88efb6bb8c872349fc307f54eb5c07094e222",
}


def test_alike_arcs_representatives_are_pinned():
    for (name, arcs), digest in ALIKE_ARCS_DIGESTS.items():
        rep = solver._alike_arcs(extract(grown(name, arcs, 7)))
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == digest, name


# sha256 of repr((columns, width, steps)) of _plan, each step's table as its
# uint8 bytes, recorded before the table-free compiler was split out of it
PLAN_DIGESTS = {
    ("allen_swenberg", 1100, 1, "alexander(9, 2)"):
        "c69e121a44c9622f786b6844ab9ba816988bb68e416027db3f6fd30fc8444815",
    ("allen_swenberg", 1100, 1, "S4"):
        "2e41a8bb67c7543cf780088f6617aba82838ab54cb9429d84a1fd3958ca887ed",
    ("trefoil", 1500, 7, "alexander(8, 3)"):
        "d2482ce0f94684210cd4d52bb53d4f72869ef1e723af910ced86cbc9fd451804",
    ("trefoil", 1500, 7, "trivial(3)"):
        "0438800ed479b79845374353dd1e39bfbe17df7f74665970b42b55c6c0175342",
}


def test_brute_force_plans_are_pinned():
    quandles = {"alexander(9, 2)": as_table_file(alexander(9, 2)), "S4": transpositions(4),
                "alexander(8, 3)": as_table_file(alexander(8, 3)), "trivial(3)": trivial(3)}
    for (name, arcs, seed, quandle), digest in PLAN_DIGESTS.items():
        plan = solver._plan(extract(grown(name, arcs, seed)), quandles[quandle])
        steps = [(kind, target, a, b, None if table is None else table.tobytes())
                 for kind, target, a, b, table in plan.steps]
        text = repr((plan.columns, plan.width, steps))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, quandle)


@pytest.mark.parametrize("n, t", [(5, 2), (7, 3), (9, 2)])
def test_brute_force_matches_linear_route_on_grown_diagrams(n, t):
    chain = connected_sum(
        connected_sum(catalog("hopf_sum"), catalog("trefoil"), 1, 1), catalog("allen_swenberg"), 1, 1
    )
    diagrams = [grown("trefoil", 60, 1), grown("hopf_sum", 90, 1), grown("allen_swenberg", 120, 1),
                chain]
    q = as_table_file(alexander(n, t))
    for d in diagrams:
        p = extract(d)
        brute = brute_force_colorings(p, q)
        linear = enumerate_solutions(build_system(p, AlexanderParams(n, t)), n)
        assert brute == linear, d.arc_count


def test_brute_force_handles_negative_relations():
    d = reidemeister_r2(catalog("unlink2"), 1, 2)
    p = extract(d)
    for n, t in ((3, 2), (4, 3), (5, 3)):
        q = alexander(n, t)
        brute = set(brute_force_colorings(p, q))
        linear = set(enumerate_solutions(build_system(p, q.alexander), n))
        assert brute == linear


def test_oracle_equivalence_small_grid(small_catalog):
    # full grid lives in the acceptance suite; spot-check the machinery here
    for name, d in small_catalog.items():
        p = extract(d)
        for n, t in ((2, 1), (3, 2), (4, 3), (5, 2)):
            q = alexander(n, t)
            brute = set(brute_force_colorings(p, q))
            linear = set(enumerate_solutions(build_system(p, q.alexander), n))
            assert brute == linear, (name, n, t)


def test_smith_reconstruction_for_catalog_systems():
    # the oracle's D = U * A * V for some unimodular U: V unimodular,
    # A*V = W*D, and W extends to a unimodular matrix (its own Smith diagonal
    # is all ones); the kernel over Z gives the same diagonal.  At n=4, t=3
    # the 81-arc grown trefoil and the 52-arc connected-sum chain leave
    # pivots that are not a chain, so the chain step fires.
    chain = connected_sum(
        connected_sum(catalog("hopf_sum"), catalog("trefoil"), 1, 1),
        catalog("allen_swenberg"), 1, 1,
    )
    diagrams = [catalog(name) for name in ("hopf", "trefoil", "hopf_sum", "allen_swenberg")]
    for d in diagrams + [grown("trefoil", 80, seed=1), chain]:
        p = extract(d)
        for n, t in ((3, 2), (4, 3)):
            sys = build_system(p, AlexanderParams(n, t))
            diagonal, v = dense_smith(sys.matrix, sys.cols)
            assert abs(exact_det(v)) == 1
            w = smith_columns(sys.matrix, diagonal, v)
            rank = len(diagonal)
            assert smith_normal_form(w, cols=rank).diagonal == (1,) * rank
            for da, db in zip(diagonal, diagonal[1:]):
                assert db % da == 0
            assert smith_normal_form(sys.matrix, cols=sys.cols).diagonal == diagonal


def test_sparse_kernel_matches_dense_oracle_on_diagrams():
    # R1/R2-grown diagrams and connected-sum chains against the dense
    # integer kernel, at composite moduli and units t whose 1 - t is not a unit
    chain = connected_sum(
        connected_sum(catalog("hopf_sum"), catalog("trefoil"), 1, 1),
        catalog("allen_swenberg"), 1, 1,
    )
    trefoils = connected_sum(catalog("trefoil"), catalog("trefoil"), 1, 1)
    for d in (grown("trefoil", 40, seed=2), grown("hopf_sum", 40, seed=3), chain, trefoils):
        p = extract(d)
        for n, ts in ((2, (1,)), (4, (3,)), (8, (3, 5)), (9, (2, 8)), (12, (5, 7)), (16, (3, 15))):
            for t in ts:
                sys = build_system(p, AlexanderParams(n, t))
                check_against_oracle(sys.matrix, sys.cols, (n,))


def test_reading_the_dense_matrix_leaves_the_system_as_it_was():
    # matrix is built on first read and is no field: ==, hash and repr do not see it
    p = extract(catalog("allen_swenberg"))
    a, b = build_system(p, AlexanderParams(9, 2)), build_system(p, AlexanderParams(9, 2))
    before = (repr(a), hash(a))
    assert len(a.matrix) == a.rows and all(len(row) == a.cols for row in a.matrix)
    assert (repr(a), hash(a)) == before
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "matrix" not in repr(a)
    # entries: at most 3 per relation, columns ascending, exactly the matrix's nonzeros
    for pairs, row in zip(a.entries, a.matrix):
        assert len(pairs) <= 3
        assert pairs == tuple((j, x) for j, x in enumerate(row) if x)


def test_unit_pivots_keep_fill_down_on_a_grown_trefoil():
    # over Z_9 at t = 2 the coefficients 2, -1 and -1 are units; each unit
    # pivot is scaled to 1, and ties go to the column with the fewest rows,
    # so the 1500-column system logs fewer than 2.5 column operations per
    # column (6844 when pivots were ranked by |value| and ties by column
    # index alone)
    system = build_system(extract(grown("trefoil", 1500, 7)), AlexanderParams(9, 2))
    assert count_solutions(system, 9) == 27
    snf = smith_normal_form(system.matrix, modulus=9)
    assert len(snf.column_ops) <= 2.5 * system.cols


def test_count_is_invariant_under_row_shuffles_of_catalog_system():
    p = extract(catalog("hopf_sum"))
    sys = build_system(p, AlexanderParams(4, 3))
    base = count_solutions(sys, 4)
    assert base == 16
    for perm in itertools.permutations(range(4)):
        shuffled = ColoringSystem(4, 4, tuple(sys.entries[i] for i in perm))
        assert count_solutions(shuffled, 4) == base


def test_count_equals_enumeration_length():
    for name in ("hopf", "trefoil", "hopf_sum", "unlink2", "allen_swenberg"):
        p = extract(catalog(name))
        for n, t in ((2, 1), (3, 2), (4, 3), (6, 5)):
            sys = build_system(p, AlexanderParams(n, t))
            assert count_solutions(sys, n) == len(enumerate_solutions(sys, n))


def test_counts_can_exceed_machine_words():
    # 60 unconstrained arcs over Z_10: count is 10**60
    p = extract(parse_relations_file("circles: 60\n"))
    sys = build_system(p, AlexanderParams(10, 3))
    assert count_solutions(sys, 10) == 10**60


def test_forcing_counts_match_the_kernel_and_the_dense_oracle():
    # counting_invariant counts by forcing; build_system's rows through the
    # sparse kernel, and the dense integer Smith form, count independently
    for d in forcing_diagrams():
        p = extract(d)
        for n, t in FORCING_QUANDLES:
            system = build_system(p, AlexanderParams(n, t))
            diagonal, _ = dense_smith(system.matrix, system.cols)
            dense = n ** (system.cols - len(diagonal)) * prod(gcd(x, n) for x in diagonal)
            assert counting_invariant(p, alexander(n, t)) == count_solutions(system, n) == dense, (
                d.arc_count, n, t)
    for d in (grown("trefoil", 1500, 7), grown("allen_swenberg", 1100, 1)):
        p = extract(d)
        for n, t in FORCING_QUANDLES:
            expected = count_solutions(build_system(p, AlexanderParams(n, t)), n)
            assert counting_invariant(p, alexander(n, t)) == expected, (d.arc_count, n, t)


def test_forcing_counts_match_brute_force_by_the_table(small_catalog):
    for name, d in small_catalog.items():
        p = extract(d)
        for n, t in FORCING_QUANDLES:
            brute = solver.brute_force_count(p, as_table_file(alexander(n, t)))
            assert counting_invariant(p, alexander(n, t)) == brute, (name, n, t)


def test_forcing_lifts_the_solutions_of_its_checks_to_every_coloring():
    # each check's coefficients over the branches sum to 0, and the lift
    # takes all branches at 1 to all arcs at 1; the solutions of the checks,
    # each lifted to every arc by the plan run on ints, are exactly the
    # colorings (enumerated up to 2000 of them)
    for d in forcing_diagrams():
        p = extract(d)
        for n, t in FORCING_QUANDLES:
            params = AlexanderParams(n, t)
            forcing = solver.Forcing(p)
            system, lift = forcing.system(params), forcing.lift(params)
            assert lift([1] * system.cols) == [1] * p.arc_count
            assert all(sum(x for _, x in row) % n == 0 for row in system.entries)
            if count_solutions(system, n) > 2000:
                continue
            lifted = sorted(tuple(lift(y)) for y in enumerate_solutions(system, n))
            expected = enumerate_solutions(build_system(p, params), n)
            assert lifted == expected, (d.arc_count, n, t)



def test_the_generator_lift_equals_the_full_system(monkeypatch):
    # Forcing lifts each generator of its checks' solutions by running the
    # plan on ints; the full system's solutions need no lift.  Histograms,
    # cap decisions and listings agree at every unit of n = 2..29, on the
    # Python histogram and, past SMALL_HISTOGRAM entries, on numpy's
    by_numpy = []
    histogram = solver._image_sizes
    monkeypatch.setattr(solver, "_image_sizes",
                        lambda blocks, width: by_numpy.append(width) or histogram(blocks, width))
    diagrams = forcing_diagrams() + [grown("trefoil", 40, 1), grown("hopf_sum", 30, 2),
                                     grown("allen_swenberg", 70, 3)]
    cap = 20_000
    for d in diagrams:
        p = extract(d)
        forcing = solver.Forcing(p)
        for n in range(2, 30):
            for t in (t for t in range(1, n) if gcd(t, n) == 1):
                params = AlexanderParams(n, t)
                full = build_system(p, params)
                count, sizes = forcing.image_sizes(params, cap)
                assert (count, sizes) == solver.image_size_counts(full, list, n, cap), (
                    d.arc_count, n, t)
                if count <= 2000:
                    assert forcing.colorings(params, 2000) == enumerate_solutions(full, n, 2000), (
                        d.arc_count, n, t)
    assert by_numpy


def test_one_forcing_answers_every_class_of_t_in_turn():
    # a Forcing keeps one plan per class of t: t = 1 (trivial), 1 - t a unit
    # (t = 2 mod 9), or neither (t = 4 and 7 mod 9).  Walked in turn on one
    # object, every answer must be the full system's: a plan kept by whether
    # 1 - t is a unit alone, where t = 1 and t = 4 agree, would color (9, 4)
    # as the trivial quandle does, 729 ways instead of 81 on allen_swenberg
    for name in ("allen_swenberg", "hopf_sum"):
        p = extract(catalog(name))
        forcing = solver.Forcing(p)
        for t in (1, 4, 2, 7, 1):
            params = AlexanderParams(9, t)
            expected = enumerate_solutions(build_system(p, params), 9)
            assert forcing.colorings(params, 10**6) == expected, (name, t)
            assert forcing.count(params) == len(expected), (name, t)
            sizes = dict(Counter(map(image_size, expected)))
            assert forcing.image_sizes(params, 10**6) == (len(expected), sizes), (name, t)

def test_forcing_steps_follow_the_two_facts():
    # solve steps exist only when 1 - t is a unit, and a trivial quandle's
    # steps copy and compare (e = 0) and never read an over-arc
    presentations = [extract(d) for d in forcing_diagrams()]
    for n, t in FORCING_QUANDLES:
        steps = [step for p in presentations
                 for step in solver._compile(p, range(-1, p.arc_count), p.arc_count, t == 1,
                                             (gcd(1 - t, n) == 1,) * 2)]
        assert ("solve" in {kind for kind, *_ in steps}) == (gcd(1 - t, n) == 1), (n, t)
        assert all(e == 0 and b == 0 for *_, b, e in steps) == (t == 1), (n, t)
