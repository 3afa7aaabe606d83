"""Tables, axiom validation, and the Alexander constructor."""

import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quandlecolor.quandle
from quandlecolor import (
    AlexanderParams,
    IdempotenceError,
    NotAUnitError,
    QuandleTableError,
    RightInvertibilityError,
    SelfDistributivityError,
    alexander,
    parse_quandle_file,
    validate,
)

from conftest import all_quandle_tables, apply, takasaki, trivial

# takasaki(4): x > y = 2y - x mod 4
TAKASAKI_4 = "order: 4\n0 2 0 2\n3 1 3 1\n2 0 2 0\n1 3 1 3\n"


def test_takasaki_closed_form():
    q = takasaki(5)
    for x in range(5):
        for y in range(5):
            assert q.op[x][y] == (2 * y - x) % 5


def test_takasaki_axioms_by_hand():
    # independent exhaustive re-check of all 125 triples at n=5
    op = [[(2 * y - x) % 5 for y in range(5)] for x in range(5)]
    for x in range(5):
        assert op[x][x] == x
        for y in range(5):
            assert sorted(op[r][y] for r in range(5)) == list(range(5))
            for z in range(5):
                assert op[op[x][y]][z] == op[op[x][z]][op[y][z]]
    validate(op)  # and the library agrees


def test_alexander_3_2_matches_takasaki():
    q = alexander(3, 2)
    for x in range(3):
        for y in range(3):
            assert q.op[x][y] == (2 * x + 2 * y) % 3
    assert q.op == takasaki(3).op


def test_alexander_t1_is_trivial():
    q = alexander(5, 1)
    assert q.op == trivial(5).op
    assert q.op[3][4] == 3


def test_takasaki_2_is_trivial():
    assert takasaki(2).op == trivial(2).op


def test_alexander_rejects_non_unit():
    with pytest.raises(NotAUnitError):
        alexander(4, 2)
    with pytest.raises(NotAUnitError):
        AlexanderParams(6, 3)
    with pytest.raises(NotAUnitError):
        AlexanderParams(5, 0)
    with pytest.raises(ValueError, match=r"^modulus must be >= 2, got 1$"):
        AlexanderParams(1, 0)


def test_params_normalize_t():
    p = AlexanderParams(5, -1)
    assert p.t == 4
    assert (p.t * p.t_inverse) % 5 == 1


def test_validate_idempotence_witness():
    op = [[1, 0], [1, 1]]  # op[0][0] != 0
    with pytest.raises(IdempotenceError) as exc:
        validate(op)
    assert exc.value.witness == (0,)


def test_validate_column_bijection_witness():
    op = [[int(c) for c in row] for row in (takasaki(3).op)]
    op[0][1] = op[1][1]  # duplicate in column 1
    with pytest.raises(RightInvertibilityError) as exc:
        validate(op)
    assert exc.value.witness == (1,)


def test_validate_distributivity_witness():
    # keep axioms 1 and 2 intact (swap two values inside one column)
    op = [list(row) for row in takasaki(4).op]
    col = [op[x][1] for x in range(4)]
    op[0][1], op[3][1] = col[3], col[0]
    with pytest.raises(SelfDistributivityError) as exc:
        validate(op)
    # the first failing (x, y, z) in lexicographic order
    r = range(4)
    bad = [(x, y, z) for x in r for y in r for z in r if op[op[x][y]][z] != op[op[x][z]][op[y][z]]]
    assert exc.value.witness == bad[0]


def test_validate_shape_and_range_errors():
    with pytest.raises(QuandleTableError):
        validate([[0, 1]])
    with pytest.raises(QuandleTableError):
        validate([[0, 5], [0, 1]])
    with pytest.raises(QuandleTableError):
        validate([[0, -(2**70)], [1, 1]])
    for ragged in ([[0], [0, 1]], [[0, 0], [1]], [[0, 1, 1], [1, 1], [2, 2, 2]]):
        with pytest.raises(QuandleTableError, match="unequal length"):
            validate(ragged)
    # past the range and ragged-row checks, a table that is not square
    with pytest.raises(QuandleTableError,
                       match=r"^expected a nonempty square table, got shape \(2, 1\)$"):
        validate([[0], [0]])
    with pytest.raises(QuandleTableError,
                       match=r"^expected a nonempty square table, got shape \(0,\)$"):
        validate([])


def test_dual_consistency():
    quandles = [takasaki(6), alexander(5, 3), alexander(8, 3)]
    quandles += [trivial(m) for m in range(1, 7)]
    for q in quandles:
        # built the same way, tables never read: equal and hash-equal to q before and after
        twin = alexander(q.alexander.n, q.alexander.t) if q.alexander else trivial(q.order)
        assert q == twin and hash(q) == hash(twin)
        m = q.order
        for x in range(m):
            for y in range(m):
                assert q.dual[q.op[x][y]][y] == x
                assert q.op[q.dual[x][y]][y] == x
        # the closed-form constructors skip validate; it must agree with them
        checked = validate(q.op)
        assert checked.op == q.op and checked.dual == q.dual
        assert q == twin and hash(q) == hash(twin)
        assert (q == checked) is (q.alexander is None)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=64).flatmap(
        lambda n: st.tuples(
            st.just(n), st.sampled_from([t for t in range(1, n) if gcd(n, t) == 1])
        )
    )
)
def test_alexander_closed_form_passes_validate(nt):
    n, t = nt
    q = alexander(n, t)
    checked = validate(q.op)
    assert checked.op == q.op
    assert checked.dual == q.dual


def test_only_tables_from_outside_are_validated(monkeypatch):
    calls = []
    original = quandlecolor.quandle.validate

    def counting(table):
        calls.append(len(table))
        return original(table)

    monkeypatch.setattr(quandlecolor.quandle, "validate", counting)
    alexander(7, 3)
    takasaki(5)
    assert calls == []
    parse_quandle_file(TAKASAKI_4)
    assert calls == [4]


def test_alexander_tables_are_built_once_when_read(monkeypatch):
    built = []
    original = quandlecolor.quandle._affine_table

    def counting(n, a):
        built.append((n, a))
        return original(n, a)

    monkeypatch.setattr(quandlecolor.quandle, "_affine_table", counting)
    q, tak = alexander(7, 3), takasaki(5)
    assert built == []
    for _ in range(2):
        assert apply(q, 1, 3) == q.op[1][3] == (3 * 1 - 2 * 3) % 7
        assert apply(q, 1, 3, positive=False) == q.dual[1][3] == (5 * 1 - 4 * 3) % 7
        assert q.is_involutory() is False
    assert built == [(7, 3), (7, 5)]
    assert tak.is_involutory() and built[2:] == [(5, 4)]

    # an Alexander quandle is its (n, t): no n x n table at construction
    tracemalloc.start()
    try:
        alexander(20011, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_alexander_dual_closed_form():
    q = alexander(7, 3)
    tinv = pow(3, -1, 7)
    for x in range(7):
        for y in range(7):
            assert q.dual[x][y] == (tinv * x + (1 - tinv) * y) % 7


def test_involutory_examples():
    assert alexander(5, 2).is_involutory() is False
    # witness from the closed form: ((0 > 1) > 1) = 2*(2*0 - 1) - 1 = ...
    q = alexander(5, 2)
    assert q.op[q.op[0][1]][1] != 0
    for n in range(2, 31):
        assert takasaki(n).is_involutory()


def test_involutory_iff_t_squared_is_one_small():
    from math import gcd

    for n in range(2, 13):
        for t in range(1, n):
            if gcd(n, t) != 1:
                continue
            assert alexander(n, t).is_involutory() == ((t * t) % n == 1), (n, t)


def test_composite_modulus_extra_involutory_units():
    # beyond t = +/- 1: composite moduli have more square roots of 1
    assert alexander(8, 3).is_involutory()
    assert alexander(8, 5).is_involutory()
    assert alexander(12, 5).is_involutory()


def test_exhaustive_small_tables_match_validate():
    # every axiom-complying table of small order validates; the labeled
    # counts (1, 1, 5: trivial, trivial, and 3 iso classes) pin the search
    for m, expected in ((1, 1), (2, 1), (3, 5)):
        tables = all_quandle_tables(m)
        assert len(tables) == expected
        for op in tables:
            validate(op)


def test_quandle_file_round_trip():
    q = takasaki(4)
    q2 = parse_quandle_file(TAKASAKI_4)
    assert q2.op == q.op
    assert q2.dual == q.dual


def test_quandle_file_errors():
    with pytest.raises(QuandleTableError):
        parse_quandle_file("3\n0 1 2\n")
    with pytest.raises(QuandleTableError):
        parse_quandle_file("order: 2\n0 0\n")
    with pytest.raises(QuandleTableError):
        parse_quandle_file("order: 2\n0 0 0\n1 1\n")
    with pytest.raises(QuandleTableError):
        parse_quandle_file("order: 2\n0 x\n1 1\n")
    with pytest.raises(QuandleTableError, match="must lie in"):
        parse_quandle_file("order: 2\n0 99999999999999999999\n1 1\n")  # past int64
    # numbers are an optional '-' and ASCII digits, as in relations and PD files:
    # int() alone would take each of these as 3, 3 and 2
    for text, message in (
        ("order: \u0663\n0 2 1\n2 1 0\n1 0 2\n", "first line"),  # Arabic-Indic three
        ("order: +3\n0 2 1\n2 1 0\n1 0 2\n", "first line"),
        ("order: 3\n0 0_2 1\n2 1 0\n1 0 2\n", "row 1: entries must be integers"),
    ):
        with pytest.raises(QuandleTableError, match=message):
            parse_quandle_file(text)
    # a negative order or entry keeps its own message
    with pytest.raises(QuandleTableError, match="order must be >= 1, got -1"):
        parse_quandle_file("order: -1\n")
    with pytest.raises(QuandleTableError, match="must lie in"):
        parse_quandle_file("order: 2\n0 -1\n1 1\n")
