"""Extraction of fundamental-quandle presentations and trivial-quandle classes."""

import pytest

from quandlecolor import (
    Crossing,
    DiagramError,
    QuandlePresentation,
    alexander,
    brute_force_colorings,
    build_system,
    catalog,
    catalog_names,
    count_solutions,
    extract,
    parse_pd_code,
    parse_relations_file,
)

from conftest import grown, trivial_t_classes


def test_extract_trefoil():
    p = extract(catalog("trefoil"))
    assert p.arc_count == 3
    assert p.relations == (
        Crossing(sign=1, under_in=1, under_out=3, over=2),
        Crossing(sign=1, under_in=3, under_out=2, over=1),
        Crossing(sign=1, under_in=2, under_out=1, over=3),
    )


def test_extract_hopf_sum_in_crossing_order():
    p = extract(catalog("hopf_sum"))
    assert [(r.under_out, r.under_in, r.over, r.positive) for r in p.relations] == [
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
    with pytest.raises(ValueError, match=r"^arc x3 out of range 1\.\.2$"):
        QuandlePresentation(2, (Crossing(sign=1, under_in=2, under_out=1, over=3),))
    # the first arc out of range is named: out, then in, then over
    with pytest.raises(ValueError, match=r"^arc x5 out of range 1\.\.2$"):
        QuandlePresentation(2, (Crossing(sign=1, under_in=4, under_out=5, over=3),))
    with pytest.raises(ValueError, match=r"^arc x4 out of range 1\.\.2$"):
        QuandlePresentation(2, (Crossing(sign=1, under_in=4, under_out=1, over=3),))


def test_presentation_relation_sign_is_checked_at_construction():
    # a relation is a Crossing, so a sign other than +1/-1 never reaches a presentation
    with pytest.raises(DiagramError, match=r"crossing sign must be \+1 or -1, got 2"):
        QuandlePresentation(2, (Crossing(sign=2, under_in=1, under_out=1, over=2),))


def test_render_bit_exact_round_trip():
    # one relation per crossing, in crossing order: the diagram's own
    # Crossing tuple, so extract copies nothing
    diagrams = [catalog(name) for name in catalog_names()]
    diagrams += [grown("allen_swenberg", 200, 5),
                 parse_pd_code("X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)  # trefoil")]
    for d in diagrams:
        p = extract(d)
        assert p.arc_count == d.arc_count
        assert p.relations is d.crossings
        assert extract(d) is p


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
