"""Extraction of fundamental-quandle presentations and trivial-quandle classes."""

import pytest

from quandlecolor import (
    CrossingRelation,
    QuandlePresentation,
    alexander,
    brute_force_colorings,
    build_system,
    catalog,
    catalog_names,
    count_solutions,
    extract,
    parse_relations_file,
)

from conftest import trivial_t_classes


def test_extract_trefoil():
    p = extract(catalog("trefoil"))
    assert p.arc_count == 3
    assert p.relations == (
        CrossingRelation(3, 1, 2, True),
        CrossingRelation(2, 3, 1, True),
        CrossingRelation(1, 2, 3, True),
    )


def test_extract_hopf_sum_in_crossing_order():
    p = extract(catalog("hopf_sum"))
    assert [(r.out, r.in_, r.over, r.positive) for r in p.relations] == [
        (2, 3, 1, True),
        (3, 2, 4, True),
        (1, 1, 3, True),
        (4, 4, 3, True),
    ]


def test_extract_unknot_empty():
    p = extract(catalog("unknot"))
    assert p.arc_count == 1
    assert p.relations == ()


def test_extract_preserves_negative_crossings():
    d = parse_relations_file("x1 = x1 / x2\nx2 = x2 / x1\n")
    p = extract(d)
    assert [r.positive for r in p.relations] == [False, False]


def test_presentation_rejects_out_of_range():
    with pytest.raises(ValueError):
        QuandlePresentation(2, (CrossingRelation(1, 2, 3, True),))


def test_render_bit_exact_round_trip():
    # one relation per crossing, in crossing order, field by field
    for name in catalog_names():
        d = catalog(name)
        p = extract(d)
        assert p.arc_count == d.arc_count
        assert [(r.out, r.in_, r.over, r.positive) for r in p.relations] == [
            (c.under_out, c.under_in, c.over, c.sign == 1) for c in d.crossings
        ]


def test_trivial_t_classes_hopf_sum():
    p = extract(catalog("hopf_sum"))
    assert trivial_t_classes(p) == (
        frozenset({1}),
        frozenset({2, 3}),
        frozenset({4}),
    )


def test_trivial_t_classes_allen_swenberg():
    p = extract(catalog("allen_swenberg"))
    classes = trivial_t_classes(p)
    assert classes == (
        frozenset({1, 2}),
        frozenset({3, 4, 5, 6}),
        frozenset(range(7, 46)),
    )


def test_trivial_t_classes_trefoil_single_class():
    p = extract(catalog("trefoil"))
    assert trivial_t_classes(p) == (frozenset({1, 2, 3}),)
    # brute force with the trivial quandle alexander(3, 1): one class -> 3
    assert len(brute_force_colorings(p, alexander(3, 1))) == 3


def test_classes_match_components_everywhere():
    for name in catalog_names():
        d = catalog(name)
        assert trivial_t_classes(extract(d)) == d.components()


@pytest.mark.parametrize("n", range(2, 8))
def test_count_at_t1_is_n_to_the_classes(n):
    for name in catalog_names():
        p = extract(catalog(name))
        k = len(trivial_t_classes(p))
        expected = n**k
        assert count_solutions(build_system(p, alexander(n, 1).alexander), n) == expected
        if expected <= 3000:
            assert len(brute_force_colorings(p, alexander(n, 1))) == expected
