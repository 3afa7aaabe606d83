"""The value classes' record contract: frozen, equal and hashed by class and fields, with a fixed repr."""

import copy
import pickle

import pytest

from quandlecolor import (
    AlexanderParams,
    CatalogEntry,
    ColoringSystem,
    ComparisonCell,
    Crossing,
    DiagramError,
    DistinguishabilityReport,
    LinkDiagram,
    NotAUnitError,
    PhiPolynomial,
    QuandlePresentation,
    SmithForm,
    alexander,
    build_system,
    catalog,
    compare,
    extract,
    smith_normal_form,
    validate,
)
from quandlecolor.diagram import _replace_slot


def _one_of_each():
    """One instance of each of the 11 value classes, by class name."""
    trefoil = catalog("trefoil")
    p = extract(trefoil)
    params = AlexanderParams(3, 2)
    system = build_system(p, params)
    report = compare(p, p, (3,), link_a="trefoil", link_b="trefoil")
    return {
        "Crossing": trefoil.crossings[0],
        "LinkDiagram": trefoil,
        "CatalogEntry": CatalogEntry("trefoil", trefoil, 1),
        "QuandlePresentation": p,
        "AlexanderParams": params,
        "FiniteQuandle": alexander(3, 2),
        "SmithForm": smith_normal_form(system.matrix, modulus=3),
        "ColoringSystem": system,
        "PhiPolynomial": report.grid[0].phi_a,
        "ComparisonCell": report.grid[0],
        "DistinguishabilityReport": report,
    }


FIELDS = {
    "Crossing": ("sign", "under_in", "under_out", "over"),
    "LinkDiagram": ("arc_count", "crossings", "free_circles"),
    "CatalogEntry": ("name", "diagram", "expected_components"),
    "QuandlePresentation": ("arc_count", "relations"),
    "AlexanderParams": ("n", "t"),
    "FiniteQuandle": ("order", "tables", "alexander"),
    "SmithForm": ("rows", "cols", "diagonal", "modulus", "column_ops", "column_order"),
    "ColoringSystem": ("rows", "cols", "entries"),
    "PhiPolynomial": ("terms",),
    "ComparisonCell": ("n", "t", "count_a", "count_b", "phi_a", "phi_b"),
    "DistinguishabilityReport": ("link_a", "link_b", "t_policy", "grid"),
}


def test_every_field_is_frozen():
    records = _one_of_each()
    assert sorted(records) == sorted(FIELDS) and len(records) == 11
    for name, record in records.items():
        assert type(record).__name__ == name
        for field in FIELDS[name]:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value
        with pytest.raises(AttributeError):
            record.not_a_field = 1


def test_equal_by_class_and_fields():
    c = Crossing(1, 1, 2, 3)
    assert c != (1, 1, 2, 3) and (1, 1, 2, 3) != c
    assert c == Crossing(sign=1, under_in=1, under_out=2, over=3)
    assert hash(c) == hash(Crossing(1, 1, 2, 3))
    assert c != Crossing(-1, 1, 2, 3)
    assert AlexanderParams(5, 7) == AlexanderParams(5, 2)
    assert hash(AlexanderParams(5, 7)) == hash(AlexanderParams(5, 2))
    assert PhiPolynomial(((1, 3),)) != ((1, 3),)
    for name, record in _one_of_each().items():
        twin = _one_of_each()[name]
        assert record == twin and hash(record) == hash(twin) and repr(record) == repr(twin)
        assert record == pickle.loads(pickle.dumps(record)) == copy.copy(record), name
        assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


def test_reprs():
    assert repr(Crossing(1, 2, 3, 1)) == "Crossing(sign=1, under_in=2, under_out=3, over=1)"
    assert repr(catalog("hopf")) == (
        "LinkDiagram(arc_count=2, crossings=(Crossing(sign=1, under_in=1, under_out=1, over=2), "
        "Crossing(sign=1, under_in=2, under_out=2, over=1)), free_circles=0)"
    )
    assert repr(LinkDiagram(2, (), 2)) == "LinkDiagram(arc_count=2, crossings=(), free_circles=2)"
    assert repr(AlexanderParams(7, 10)) == "AlexanderParams(n=7, t=3)"
    assert repr(PhiPolynomial(((1, 3), (3, 6)))) == "PhiPolynomial(terms=((1, 3), (3, 6)))"


def test_tables_read_stay_outside_eq_hash_and_repr():
    read, fresh = alexander(5, 2), alexander(5, 2)
    before = repr(read), hash(read)
    assert read.op[1][0] == 2 and read.dual[2][0] == 1
    assert (repr(read), hash(read)) == before
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert repr(fresh) == "FiniteQuandle(order=5, tables=None, alexander=AlexanderParams(n=5, t=2))"
    table = validate(read.op)
    assert table != read and table.alexander is None
    assert table == validate(fresh.op) and hash(table) == hash(validate(fresh.op))


def test_construction_checks_and_normalizations():
    with pytest.raises(DiagramError, match=r"^crossing sign must be \+1 or -1, got 0$"):
        Crossing(0, 1, 1, 2)
    crossings = list(catalog("trefoil").crossings)
    with pytest.raises(DiagramError, match=r"^crossing sign must be \+1 or -1, got 2$"):
        _replace_slot(crossings, (0, "sign"), 2)
    _replace_slot(crossings, (0, "under_in"), 2)
    assert crossings[0] == Crossing(1, 2, 3, 2)
    with pytest.raises(DiagramError, match=r"^a diagram needs at least one arc$"):
        LinkDiagram(0, ())
    with pytest.raises(DiagramError, match=r"^free_circles must be >= 0$"):
        LinkDiagram(1, (), free_circles=-1)
    with pytest.raises(DiagramError, match=r"^arc x4 out of range 1\.\.3$"):
        LinkDiagram(3, [Crossing(1, 1, 2, 4)])
    with pytest.raises(DiagramError, match=r"^referenced arcs must be exactly x1\.\.x3 "
                                           r"with 0 free circles above$"):
        LinkDiagram(3, [Crossing(1, 1, 1, 2)])
    with pytest.raises(DiagramError, match=r"^arc x1 has 1 under-strand endpoints, expected 2 "
                                           r"\(dangling under-strand\)$"):
        LinkDiagram(2, [Crossing(1, 1, 2, 1)])
    with pytest.raises(DiagramError, match=r"^arc x1 is the under-out of 2 crossings "
                                           r"\(3 under-strand endpoints in total, expected 2\)$"):
        LinkDiagram(2, [Crossing(1, 2, 1, 2), Crossing(1, 1, 1, 2)])
    with pytest.raises(DiagramError, match=r"^catalog entry x: derived component count 1 != 2$"):
        CatalogEntry("x", catalog("trefoil"), 2)
    with pytest.raises(ValueError, match=r"^arc x4 out of range 1\.\.3$"):
        QuandlePresentation(3, [Crossing(1, 1, 2, 4)])
    with pytest.raises(ValueError, match=r"^modulus must be >= 2, got 1$"):
        AlexanderParams(1, 0)
    with pytest.raises(NotAUnitError, match=r"^t=2 is not a unit modulo n=4$"):
        AlexanderParams(4, 6)
    assert AlexanderParams(5, -3).t == 2
    d = LinkDiagram(2, [Crossing(1, 1, 1, 2), Crossing(1, 2, 2, 1)])
    assert type(d.crossings) is tuple and d == catalog("hopf")
    assert type(QuandlePresentation(2, list(d.crossings)).relations) is tuple
    # a presentation holds its diagram's own crossings
    assert extract(d).relations is d.crossings
    assert SmithForm(1, 1, (1,)) == SmithForm(rows=1, cols=1, diagonal=(1,), modulus=0,
                                              column_ops=(), column_order=())
    assert ColoringSystem(1, 2, (((0, 1), (1, -1)),)).matrix == ((1, -1),)
    cell = ComparisonCell(3, 2, 9, 9, None, None)
    assert not cell.differs
    assert DistinguishabilityReport("a", "b", "all-units", (cell,)).verdict == "not distinguished"
