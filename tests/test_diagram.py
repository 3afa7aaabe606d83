"""Diagram model, parsers, catalog, and diagram surgery."""

import hashlib
import itertools
import random
import re
import sys
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlecolor import (
    CatalogEntry,
    Crossing,
    DiagramError,
    LinkDiagram,
    PDCodeError,
    RelationSyntaxError,
    UnknownLinkError,
    alexander,
    brute_force_colorings,
    catalog,
    catalog_entry,
    catalog_names,
    connected_sum,
    counting_invariant,
    extract,
    parse_pd_code,
    parse_relations_file,
    reidemeister_r1,
    reidemeister_r2,
)

from conftest import all_quandle_tables, apply, grown, trivial
from quandlecolor import validate


HOPF_SUM_TEXT = """\
x2 = x3 * x1
x3 = x2 * x4
x1 = x1 * x3
x4 = x4 * x3
"""


# ---------------------------------------------------------------------------
# relations parser


def test_parse_hopf_sum():
    d = parse_relations_file(HOPF_SUM_TEXT)
    assert d.arc_count == 4
    assert d.crossing_count == 4
    assert all(c.sign == 1 for c in d.crossings)
    assert d.crossings[0] == Crossing(1, under_in=3, under_out=2, over=1)
    assert d.components() == (frozenset({1}), frozenset({2, 3}), frozenset({4}))


def test_parse_unknot_via_circles():
    d = parse_relations_file("circles: 1\n")
    assert d.arc_count == 1
    assert d.crossing_count == 0
    assert d.free_circles == 1
    assert d.component_count() == 1


def test_parse_kink():
    d = parse_relations_file("x1 = x1 * x1\n")
    assert d.arc_count == 1
    assert d.crossing_count == 1
    assert d.crossings[0] == Crossing(1, 1, 1, 1)


def test_parse_negative_relation():
    d = parse_relations_file("x1 = x1 / x2\nx2 = x2 / x1\n")
    assert [c.sign for c in d.crossings] == [-1, -1]


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nx1 = x1 * x1  # trailing\n\n"
    d = parse_relations_file(text)
    assert d.crossing_count == 1


def test_parse_syntax_error_positions():
    with pytest.raises(RelationSyntaxError) as exc:
        parse_relations_file("x1 = x1 + x1\n")
    assert exc.value.line == 1
    assert exc.value.column == 9
    with pytest.raises(RelationSyntaxError) as exc:
        parse_relations_file("x1 = x1 * x1\ny2 = x1 * x1\n")
    assert exc.value.line == 2
    assert exc.value.column == 1
    with pytest.raises(RelationSyntaxError):
        parse_relations_file("x0 = x1 * x1\n")
    with pytest.raises(RelationSyntaxError):
        parse_relations_file("x1 = x2 * x3 x4\n")
    # arc indices take ASCII digits only: a superscript two and an
    # Arabic-Indic three are syntax errors right after the 'x'
    for text in ("x\u00b2 = x1 * x1\n", "x\u0663 = x1 * x1\n"):
        with pytest.raises(RelationSyntaxError) as exc:
            parse_relations_file(text)
        assert (exc.value.line, exc.value.column) == (1, 2)
    # and so does the circles header
    with pytest.raises(RelationSyntaxError, match="malformed circles header") as exc:
        parse_relations_file("circles: \u0663\n")
    assert (exc.value.line, exc.value.column) == (1, 1)


def test_parse_circles_header_rules():
    with pytest.raises(RelationSyntaxError):
        parse_relations_file("circles: 1\ncircles: 2\n")
    with pytest.raises(RelationSyntaxError):
        parse_relations_file("x1 = x1 * x1\ncircles: 1\n")
    with pytest.raises(RelationSyntaxError):
        parse_relations_file("circles: many\n")
    assert parse_relations_file("circles: 4096\n").free_circles == 4096
    for text, column in (("circles: 4097\n", 10), ("  circles:00099999999999\n", 14)):
        with pytest.raises(RelationSyntaxError, match="at most 4096 circles") as exc:
            parse_relations_file(text)
        assert (exc.value.line, exc.value.column) == (1, column)


# ---------------------------------------------------------------------------
# relation-line outcomes, pinned: a line gives its crossing, or the line,
# column and message of its first bad token


def _outcome(text):
    """("ok", free circles, *(sign, in, out, over)), (line, column, message), or a DiagramError."""
    try:
        d = parse_relations_file(text)
    except RelationSyntaxError as exc:
        return exc.line, exc.column, str(exc).split(": ", 1)[1]
    except DiagramError as exc:
        return "DiagramError", str(exc)
    crossings = ((c.sign, c.under_in, c.under_out, c.over) for c in d.crossings)
    return ("ok", d.free_circles, *crossings)


_ARC = "expected arc reference 'x<index>'"
_DIGITS = "expected digits after 'x'"
_ZERO = "arc index must be >= 1"
_EQUALS = "expected '='"
_OPERATOR = "expected '*' or '/'"
_TRAILING = "unexpected trailing text"

# (id number, text, outcome): a row's test id is its text and its own number,
# never its position, so a row inserted anywhere renames no other test; a new
# row takes the next unused number
RELATION_LINE_OUTCOMES = [
    # a crossing: spaces and tabs anywhere between tokens, none needed
    (0, "x1 = x1 * x1", ("ok", 0, (1, 1, 1, 1))),
    (1, "\tx1\t=\tx1\t/\tx1\t", ("ok", 0, (-1, 1, 1, 1))),
    (2, "x1=x1*x1   ", ("ok", 0, (1, 1, 1, 1))),
    (3, "  x001 = x01 / x1  # note", ("ok", 0, (-1, 1, 1, 1))),
    (4, "x1 = x1 * x1  ", ("ok", 0, (1, 1, 1, 1))),
    # an arc reference missing, at each of the three places
    (5, "= x1 * x1", (1, 1, _ARC)),
    (6, " \t y1 = x1 * x1", (1, 4, _ARC)),
    (7, "\u00a0x1 = x1 * x1", ("ok", 0, (1, 1, 1, 1))),  # a line may open with any whitespace
    (8, "X1 = x1 * x1", (1, 1, _ARC)),
    (9, "x1 =", (1, 5, _ARC)),
    (10, "x1 = \t1 * x1", (1, 7, _ARC)),
    (11, "x1 = x1 *", (1, 10, _ARC)),
    (12, "x1 = x1 * *", (1, 11, _ARC)),
    # digits missing right after an 'x', never past spaces
    (13, "x = x1 * x1", (1, 2, _DIGITS)),
    (14, "x 1 = x1 * x1", (1, 2, _DIGITS)),
    (15, "x\u00b2 = x1 * x1", (1, 2, _DIGITS)),
    (16, "x1 = x * x1", (1, 7, _DIGITS)),
    (17, "x1 = x\t1 * x1", (1, 7, _DIGITS)),
    (18, "x1 = x1 * x", (1, 12, _DIGITS)),
    (19, "x1 = x1 * x\u0663", (1, 12, _DIGITS)),
    (20, "x1 = x1 /  \tx\u00b2 # x1", (1, 14, _DIGITS)),
    # an index of 0, at its 'x', before any later syntax error
    (21, "x0 = x1 * x1", (1, 1, _ZERO)),
    (22, "  x00", (1, 3, _ZERO)),
    (23, "x0 = x1 + x1", (1, 1, _ZERO)),
    (24, "x0 x1", (1, 1, _ZERO)),
    (25, "x1 = x0 * x1", (1, 6, _ZERO)),
    (26, "x1 = \tx000", (1, 7, _ZERO)),
    (27, "x1 = x0 x1 x1", (1, 6, _ZERO)),
    (28, "x1 = x1 * x0", (1, 11, _ZERO)),
    (29, "x1 = x1 * x0 x4", (1, 11, _ZERO)),
    (30, "x1=x1/x0x", (1, 7, _ZERO)),
    # '=' missing
    (31, "x1", (1, 3, _EQUALS)),
    (32, "x1\t\t", (1, 3, _EQUALS)),
    (33, "x1 x1 * x1", (1, 4, _EQUALS)),
    (34, "x1 : x1 * x1", (1, 4, _EQUALS)),
    (35, "x1== x1 * x1", (1, 4, _ARC)),
    # '*' or '/' missing
    (36, "x1 = x1", (1, 8, _OPERATOR)),
    (37, "x1 = x1 + x1", (1, 9, _OPERATOR)),
    (38, "x1 = x1x1", (1, 8, _OPERATOR)),
    (39, "x1 = x1 \t> x1", (1, 10, _OPERATOR)),
    # text after a complete relation
    (40, "x1 = x2 * x3 x4", (1, 14, _TRAILING)),
    (41, "x1 = x1 * x1x", (1, 13, _TRAILING)),
    (42, "x1 = x1 * x1   y", (1, 14, _TRAILING)),
    (43, "x1 = x1 * x1 = x1", (1, 14, _TRAILING)),
    (44, "x1 = x1 * x1\u00b2", (1, 13, _TRAILING)),
    # the line number counts blank and comment lines
    (45, "x1 = x1 * x1\n\n# x0\n  x1 = x1 *\n", (4, 12, _ARC)),
    (46, "x1 = x1 * x1\nx1 = x1 + x1\n", (2, 9, _OPERATOR)),
    # a line opens or ends with any Unicode whitespace, but none other parts tokens
    (47, "x1 = x1 * x1\u00a0", ("ok", 0, (1, 1, 1, 1))),
    (48, "x1 =\u00a0x1 * x1", (1, 5, _ARC)),
    (49, "\u00a0x1\u00a0= x1 * x1", (1, 4, _EQUALS)),
]


@pytest.mark.parametrize("text, expected", [
    pytest.param(text, expected, id=f"{text}-expected{k}")
    for k, text, expected in RELATION_LINE_OUTCOMES
])
def test_relation_line_outcomes(text, expected):
    assert _outcome(text) == expected


def test_relation_line_outcome_numbers_are_distinct():
    # pytest would tell two equal ids apart by position again
    numbers = [k for k, *_ in RELATION_LINE_OUTCOMES]
    assert len(set(numbers)) == len(numbers)


# sha256 of the outcomes of 5000 seeded edits of valid files, first recorded
# with the token-by-token scanner that the single-pattern parser replaced, and
# recorded again when leading Unicode whitespace became legal: 17 outcomes
# changed, each of a line that opens with a no-break space
RELATION_MUTATIONS_SHA256 = "7419f97ac57a2e16cd44673fe0a106417d9dcb297b2b9cef3712949d8edc15a9"


def test_relation_line_mutations_are_pinned():
    # one to three characters inserted, deleted or replaced in one line of a
    # valid file; the alphabet weights the grammar's own characters
    files = [
        HOPF_SUM_TEXT,
        catalog_entry("allen_swenberg").diagram.render_relations(),
        "circles: 1\nx1 = x1 * x1\n",
        "x1 = x1 / x2\nx2 = x2 / x1\n",
    ]
    alphabet = "  \t\txxx000123456789==**//+#yX\u00b2\u0663\u00a0"
    rng = random.Random(16)
    outcomes = []
    for _ in range(5000):
        lines = rng.choice(files).splitlines()
        k = rng.randrange(len(lines))
        line = lines[k]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(line) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                line = line[:i] + rng.choice(alphabet) + line[i:]
            elif edit == 1:
                line = line[:i] + line[i + 1 :]
            else:
                line = line[:i] + rng.choice(alphabet) + line[i + 1 :]
        lines[k] = line
        outcomes.append(_outcome("\n".join(lines) + "\n"))
    kinds = {o[0] if isinstance(o[0], str) else o[2] for o in outcomes}
    assert kinds == {
        "ok", _ARC, _DIGITS, _ZERO, _EQUALS, _OPERATOR, _TRAILING,
        "malformed circles header", "DiagramError",
    }
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == RELATION_MUTATIONS_SHA256


def test_parse_arc_index_gap():
    with pytest.raises(DiagramError, match="gap"):
        parse_relations_file("x1 = x1 * x3\nx3 = x3 * x1\n")
    # a huge index finds the gap without listing every index below it
    with pytest.raises(DiagramError) as exc:
        parse_relations_file("x2 = x1 * x999999999\nx1 = x2 * x3\n")
    assert str(exc.value) == (
        "arc index gap: x4 is never referenced (indices must be contiguous from 1 to 999999999)"
    )


def test_parse_empty_input():
    with pytest.raises(DiagramError):
        parse_relations_file("# nothing\n")
    with pytest.raises(DiagramError):
        parse_relations_file("circles: 0\n")


def test_parse_rejects_overused_under_out():
    text = "x2 = x1 * x1\nx2 = x3 * x3\nx2 = x4 * x4\nx1 = x2 * x2\nx3 = x2 * x2\nx4 = x2 * x2\n"
    with pytest.raises(DiagramError, match="under-out"):
        parse_relations_file(text)
    # with several arcs at fault the lowest-numbered is named: x3 (first in
    # crossing order) has one endpoint, x2 three and is the out of two
    with pytest.raises(DiagramError) as exc:
        parse_relations_file("x1 = x3 * x1\nx2 = x1 * x1\nx2 = x2 * x3\n")
    assert str(exc.value) == (
        "arc x2 is the under-out of 2 crossings (3 under-strand endpoints in total, expected 2)"
    )
    # x1 keeps its two endpoints; x2 is the out of all three crossings
    with pytest.raises(DiagramError) as exc:
        parse_relations_file("x2 = x1 * x1\nx2 = x1 * x1\nx2 = x2 * x1\n")
    assert str(exc.value) == (
        "arc x2 is the under-out of 3 crossings (4 under-strand endpoints in total, expected 2)"
    )


def test_parse_rejects_dangling_under_strand():
    with pytest.raises(DiagramError, match="dangling"):
        parse_relations_file("x2 = x1 * x1\n")
    for text, message in (
        ("x2 = x1 * x1\n", "arc x1 has 1 under-strand endpoints"),
        # three endpoints with one of them an out is dangling, not overused,
        # and x2 is named before x3
        ("x3 = x2 * x1\nx2 = x1 * x1\nx1 = x2 * x3\n", "arc x2 has 3 under-strand endpoints"),
    ):
        with pytest.raises(DiagramError) as exc:
            parse_relations_file(text)
        assert str(exc.value) == message + ", expected 2 (dangling under-strand)"


def test_written_form_may_reverse_orientation():
    # the same arc may be written as the producing side of two relations as
    # long as every arc keeps exactly two under-strand endpoints
    d = parse_relations_file("x2 = x1 * x3\nx2 = x1 * x3\nx3 = x3 * x1\n")
    assert d.arc_count == 3


def test_render_round_trip_catalog():
    for name in catalog_names():
        d = catalog(name)
        again = parse_relations_file(d.render_relations())
        assert again == d
        assert again.render_relations() == d.render_relations()


# ---------------------------------------------------------------------------
# LinkDiagram validation


def _rejection(arc_count, crossings, free_circles=0):
    with pytest.raises(DiagramError) as exc:
        LinkDiagram(arc_count, tuple(Crossing(*c) for c in crossings), free_circles)
    return str(exc.value)


def test_diagram_rejects_out_of_range_arc():
    with pytest.raises(DiagramError, match="out of range"):
        LinkDiagram(arc_count=1, crossings=(Crossing(1, 1, 1, 2),))
    with pytest.raises(DiagramError, match=r"^a diagram needs at least one arc$"):
        LinkDiagram(0, ())
    with pytest.raises(DiagramError, match=r"^free_circles must be >= 0$"):
        LinkDiagram(1, (), free_circles=-1)
    # with several faults the first out-of-range arc in crossing order is
    # named (under-in, under-out, over within a crossing), not the extreme one,
    # and before any contiguity or endpoint fault
    assert _rejection(2, [(1, 1, 1, 1), (1, 2, 5, 0), (1, 7, 2, 2)]) == "arc x5 out of range 1..2"
    assert _rejection(3, [(1, 1, 1, 9), (1, 0, 2, 1)]) == "arc x9 out of range 1..3"
    assert _rejection(4, [(1, 1, 2, 1), (1, 3, 3, 6)], 1) == "arc x6 out of range 1..4"


def test_diagram_rejects_non_contiguous_referenced_arcs():
    with pytest.raises(DiagramError):
        LinkDiagram(arc_count=3, crossings=(Crossing(1, 1, 1, 1),), free_circles=1)
    message = "referenced arcs must be exactly x1..x{} with {} free circles above"
    assert _rejection(3, [(1, 1, 1, 1)], 1) == message.format(2, 1)
    # a gap wins over the dangling endpoints of x1, x2 and x4
    assert _rejection(4, [(1, 1, 2, 4)]) == message.format(4, 0)
    # so does a crossing-free diagram that declares too few free circles
    assert _rejection(2, [], 1) == message.format(1, 1)


def test_diagram_rejects_bad_sign():
    with pytest.raises(DiagramError):
        Crossing(0, 1, 1, 1)
    with pytest.raises(DiagramError, match=r"^sign must be \+1 or -1, got 0$"):
        reidemeister_r1(catalog("trefoil"), 1, sign=0)


def test_arc_count_equals_crossings_when_all_components_pass_under():
    for name, arcs in (("trefoil", 3), ("hopf_sum", 4), ("allen_swenberg", 45)):
        d = catalog(name)
        assert d.arc_count == d.crossing_count == arcs


# ---------------------------------------------------------------------------
# catalog


def test_catalog_entries():
    expect = {
        "unknot": (1, 0, 1),
        "unlink2": (2, 0, 2),
        "hopf": (2, 2, 2),
        "trefoil": (3, 3, 1),
        "hopf_sum": (4, 4, 3),
        "allen_swenberg": (45, 45, 3),
    }
    assert set(catalog_names()) == set(expect)
    for name, (arcs, crossings, components) in expect.items():
        entry = catalog_entry(name)
        d = entry.diagram
        assert (d.arc_count, d.crossing_count, d.component_count()) == (
            arcs,
            crossings,
            components,
        ), name
        assert entry.expected_components == components
    with pytest.raises(DiagramError, match=r"^catalog entry x: derived component count 1 != 2$"):
        CatalogEntry("x", catalog("trefoil"), 2)


def test_catalog_unknown_name():
    with pytest.raises(UnknownLinkError):
        catalog("borromean")


def test_catalog_trefoil_relation_table():
    rel = extract(catalog("trefoil")).relations
    assert [(r.under_out, r.under_in, r.over) for r in rel] == [(3, 1, 2), (2, 3, 1), (1, 2, 3)]
    assert all(r.positive for r in rel)


def test_catalog_hopf_sum_relation_table():
    rel = extract(catalog("hopf_sum")).relations
    assert [(r.under_out, r.under_in, r.over) for r in rel] == [
        (2, 3, 1),
        (3, 2, 4),
        (1, 1, 3),
        (4, 4, 3),
    ]


def test_allen_swenberg_components_exact():
    comps = catalog("allen_swenberg").components()
    assert sorted(len(c) for c in comps) == [2, 4, 39]
    assert frozenset({1, 2}) in comps
    assert frozenset({3, 4, 5, 6}) in comps
    assert frozenset(range(7, 46)) in comps


# ---------------------------------------------------------------------------
# PD codes


def test_pd_hopf_link():
    d = parse_pd_code("X(1,3,2,4) X(3,1,4,2)")
    assert d.arc_count == 2
    assert d.crossing_count == 2
    assert len({c.sign for c in d.crossings}) == 1  # both crossings same sign
    assert d == catalog("hopf")
    # independent check: count colorings over Z_3 with 2x - y by hand
    q = alexander(3, 2)
    by_hand = 0
    for xa in range(3):
        for xb in range(3):
            colors = {1: xa, 2: xb}
            if all(
                colors[c.under_out] == apply(q, colors[c.under_in], colors[c.over], c.positive)
                for c in d.crossings
            ):
                by_hand += 1
    assert by_hand == 3
    assert counting_invariant(extract(d), q) == 3


def test_pd_trefoil_matches_catalog_up_to_relabeling():
    d = parse_pd_code("X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)")
    assert d.arc_count == 3
    assert all(c.sign == 1 for c in d.crossings)
    got = {(r.under_out, r.under_in, r.over) for r in extract(d).relations}
    want = {(3, 1, 2), (2, 3, 1), (1, 2, 3)}
    relabelings = [
        {1: p[0], 2: p[1], 3: p[2]} for p in itertools.permutations((1, 2, 3))
    ]
    assert any(
        {(m[o], m[i], m[v]) for o, i, v in got} == want for m in relabelings
    )


def test_pd_mirror_trefoil_is_negative():
    d = parse_pd_code("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert all(c.sign == -1 for c in d.crossings)
    assert counting_invariant(extract(d), alexander(3, 2)) == 9


def test_pd_kinks():
    d = parse_pd_code("X(1,2,2,1)")
    assert d.arc_count == 1 and d.crossings[0].sign == -1
    d = parse_pd_code("X(1,1,2,2)")
    assert d.arc_count == 1 and d.crossings[0].sign == 1


def test_pd_round_trips_through_relations():
    for code in (
        "X(1,3,2,4) X(3,1,4,2)",
        "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)",
        "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
    ):
        d = parse_pd_code(code)
        assert parse_relations_file(d.render_relations()) == d


def test_pd_errors():
    with pytest.raises(PDCodeError, match="empty"):
        parse_pd_code("   ")
    with pytest.raises(PDCodeError, match="malformed"):
        parse_pd_code("X(1,2,3)")
    with pytest.raises(PDCodeError, match="twice"):
        parse_pd_code("X(1,2,3,4)")
    with pytest.raises(PDCodeError, match="inconsistent"):
        parse_pd_code("X(1,3,2,4) X(1,4,2,3)")
    # edge labels take ASCII digits only: Arabic-Indic one and five
    with pytest.raises(PDCodeError, match="malformed quadruple at offset 1"):
        parse_pd_code("X(\u0661,\u0665,2,4) X(3,1,4,6) X(5,3,6,2)")


def test_pd_comments_run_to_the_end_of_a_line():
    trefoil = parse_pd_code("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert parse_pd_code("# trefoil\nX(1,4,2,5) X(3,6,4,1) X(5,2,6,3)") == trefoil
    assert parse_pd_code("X(1,4,2,5) X(3,6,4,1)#X(\nX(5,2,6,3) # note") == trefoil
    # every line break of str.splitlines ends a comment
    for brk in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029":
        assert parse_pd_code(f"# a{brk}X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)") == trefoil
    # a comment hides the quadruples after it on its line
    with pytest.raises(PDCodeError, match="appears 1 time"):
        parse_pd_code("X(1,4,2,5) # X(3,6,4,1) X(5,2,6,3)")
    # offsets count the comment's characters
    with pytest.raises(PDCodeError, match="malformed quadruple at offset 8"):
        parse_pd_code("# X(1)\n(1,4,2,5)")


def _pd_outcome(text):
    """("ok", arcs, *(sign, in, out, over)), or the error's class name and message."""
    try:
        d = parse_pd_code(text)
    except (PDCodeError, DiagramError) as exc:
        return type(exc).__name__, str(exc)
    crossings = ((c.sign, c.under_in, c.under_out, c.over) for c in d.crossings)
    return ("ok", d.arc_count, *crossings)


PD_MUTATIONS_SHA256 = "cdfc32e0e21b96cce08a0ba353571e86dd174f75e3abdbf8b939861d3a9da5b4"


def test_pd_mutations_are_pinned():
    # one to three edits anywhere in a valid code, each a character inserted,
    # deleted or replaced or two characters swapped (which keeps every edge
    # label's count, so orientations are tested too): the catalog trefoil, the closure of the 3-braid
    # s1 s2^-1 s1 s2^-1, a commented file, and the trefoil with one edge
    # labelled by 640 digits, read under the smallest int-string limit
    # Python allows, so that one more digit is over it
    big = "1" + "0" * 639
    codes = [
        "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)",
        "X(2,5,4,1) X(5,3,7,6) X(6,8,1,4) X(8,7,3,2)\n",
        "# trefoil\nX(1,5,2,4)  # first\n\tX(3,1,4,6)\n# X(9,9,9,9)\nX(5,3,6,2) #\n",
        f"X({big},5,2,4) X(3,{big},4,6) X(5,3,6,2)",
    ]
    alphabet = "X(),#0123456789 \nx ١"
    rng = random.Random(21)
    outcomes = []
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for _ in range(6000):
            text = rng.choice(codes)
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(text) + 1)
                edit = rng.randrange(4)
                if edit == 0:
                    text = text[:i] + rng.choice(alphabet) + text[i:]
                elif edit == 1:
                    text = text[:i] + text[i + 1 :]
                elif edit == 2:
                    text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
                else:
                    i, j = sorted(rng.sample(range(len(text)), 2))
                    text = text[:i] + text[j] + text[i + 1 : j] + text[i] + text[j + 1 :]
            outcomes.append(_pd_outcome(text))
    finally:
        sys.set_int_max_str_digits(saved)
    # an error's kind is its message with every number written N
    kinds = {o[0] if o[0] == "ok" else re.sub("[0-9]+", "N", o[1]) for o in outcomes}
    assert kinds == {
        "ok",
        "empty PD code: a diagram without crossings cannot be written in PD form "
        "(use the relations format with a circles header)",
        "malformed quadruple at offset N",
        "edge label of more than N digits at offset N",
        "edge labels must be >= N: (N, N, N, N)",
        "edge N appears N time(s); every edge label must appear exactly twice",
        "inconsistent orientation: edge N is the incoming under-edge of two crossings",
        "inconsistent orientation: edge N is the outgoing under-edge of two crossings",
        "inconsistent orientation: no assignment of strand directions satisfies all quadruples",
    }
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == PD_MUTATIONS_SHA256


@pytest.fixture
def int_digit_limit():
    """Python's default limit of 4300 digits on int <-> str, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


def test_long_indices_and_labels_under_the_int_digit_limit(int_digit_limit):
    # the limit counts leading zeros, so the parsers strip them before int();
    # a value still too long is the parser's own error, at its 'x' or quadruple
    with pytest.raises(RelationSyntaxError, match=r"^line 2, column 6: arc index of more than 4300 digits$"):
        parse_relations_file("x1 = x1 * x1\nx1 = x" + "9" * 5000 + " * x1")
    with pytest.raises(RelationSyntaxError, match=r"^line 1, column 6: arc index must be >= 1$"):
        parse_relations_file("x1 = x" + "0" * 5000 + " * x1")
    assert parse_relations_file("x1 = x1 * x" + "0" * 5000 + "1") == parse_relations_file("x1 = x1 * x1")
    trefoil = parse_pd_code("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert parse_pd_code("X(" + "0" * 5000 + "1,4,2,5) X(3,6,4,1) X(5,2,6,3)") == trefoil
    with pytest.raises(PDCodeError, match=r"^edge labels must be >= 1: \(0, 1, 2, 2\)$"):
        parse_pd_code("X(1,2,2,1) X(" + "0" * 5000 + ",1,2,2)")
    with pytest.raises(PDCodeError, match=r"^edge label of more than 4300 digits at offset 23$"):
        parse_pd_code("X(1,4,2,5) X(3,6,4,1) X(5,2,6," + "3" * 4400 + ")")


def test_cli_reads_long_indices_and_labels_in_full(int_digit_limit, tmp_path, capsys):
    from quandlecolor.cli import main

    cases = [
        ("x" + "9" * 5000 + " = x1 * x1", 2, "", "error: arc index gap: x2 is never referenced "
         f"(indices must be contiguous from 1 to {'9' * 5000})\n"),
        ("x1 = x" + "0" * 5000 + " * x1", 2, "", "error: line 1, column 6: arc index must be >= 1\n"),
        ("x1 = x1 * x" + "0" * 5000 + "1", 0, "count: 3\n", ""),
        ("X(1,2,2,1) X(" + "0" * 5000 + ",1,2,2)", 2, "", "error: edge labels must be >= 1: (0, 1, 2, 2)\n"),
        ("X(1,4,2,5) X(3,6,4,1) X(5,2,6," + "3" * 4400 + ")", 2, "",
         "error: edge 3 appears 1 time(s); every edge label must appear exactly twice\n"),
        ("X(" + "0" * 5000 + "1,4,2,5) X(3,6,4,1) X(5,2,6,3)", 0, "count: 9\n", ""),
    ]
    for text, code, out, err in cases:
        path = tmp_path / "link.txt"
        path.write_text(text + "\n")
        assert main(["colorings", str(path), "--n", "3", "--t", "2"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)
        assert sys.get_int_max_str_digits() == 4300


# ---------------------------------------------------------------------------
# connected sum


def _alexander_grid(n_max):
    for n in range(2, n_max + 1):
        for t in range(1, n):
            if gcd(n, t) == 1:
                yield n, t


def test_connected_sum_of_hopf_links_matches_catalog_counts():
    hopf = catalog("hopf")
    hs = extract(catalog("hopf_sum"))
    for a1, a2 in itertools.product((1, 2), repeat=2):
        d = connected_sum(hopf, hopf, a1, a2)
        assert d.crossing_count == 4
        assert d.component_count() == 3
        for n, t in _alexander_grid(5):
            q = alexander(n, t)
            assert counting_invariant(extract(d), q) == counting_invariant(hs, q)


def test_connected_sum_kink_with_trefoil():
    kink = parse_relations_file("x1 = x1 * x1\n")
    trefoil = catalog("trefoil")
    for a2 in (1, 2, 3):
        d = connected_sum(kink, trefoil, 1, a2)
        assert d.crossing_count == 4
        for n, t in ((3, 2), (4, 3), (5, 2)):
            q = alexander(n, t)
            assert counting_invariant(extract(d), q) == counting_invariant(
                extract(trefoil), q
            )


def test_connected_sum_with_unknot_is_identity_on_counts():
    unknot = catalog("unknot")
    for name in ("hopf", "trefoil", "hopf_sum"):
        d1 = catalog(name)
        for a1 in range(1, d1.arc_count + 1):
            d = connected_sum(d1, unknot, a1, 1)
            assert d.crossing_count == d1.crossing_count
            for n, t in ((3, 2), (4, 3), (5, 3)):
                q = alexander(n, t)
                assert counting_invariant(extract(d), q) == counting_invariant(
                    extract(d1), q
                )
            # and the other way round
            d = connected_sum(unknot, d1, 1, a1)
            for n, t in ((3, 2), (4, 3)):
                q = alexander(n, t)
                assert counting_invariant(extract(d), q) == counting_invariant(
                    extract(d1), q
                )


def test_connected_sum_of_unknots():
    unknot = catalog("unknot")
    d = connected_sum(unknot, unknot, 1, 1)
    assert d == unknot


def test_connected_sum_arc_out_of_range():
    with pytest.raises(DiagramError, match="out of range"):
        connected_sum(catalog("hopf"), catalog("hopf"), 3, 1)
    with pytest.raises(DiagramError, match="out of range"):
        connected_sum(catalog("hopf"), catalog("hopf"), 1, 0)


def _sum_cases():
    """(d1, d2, a1, a2): 300 seeded over the catalog and copies of it moved by
    R1/R2, then every arc pair of a few small diagrams with free circles and
    an over-only arc."""
    over_only = reidemeister_r2(catalog("unlink2"), 1, 2)  # x2 passes over x1 only
    pool = [catalog(name) for name in catalog_names()] + [over_only]
    pool += [grown(name, catalog(name).arc_count + k, seed)
             for name in catalog_names() for k, seed in ((2, 31), (7, 32))]
    rng = random.Random(25)
    cases = []
    for _ in range(300):
        d1, d2 = rng.choice(pool), rng.choice(pool)
        cases.append((d1, d2, rng.randint(1, d1.arc_count), rng.randint(1, d2.arc_count)))
    small = [catalog("unknot"), catalog("unlink2"), over_only, catalog("hopf")]
    cases += [(d1, d2, a1, a2) for d1, d2 in itertools.product(small, repeat=2)
              for a1 in range(1, d1.arc_count + 1) for a2 in range(1, d2.arc_count + 1)]
    return cases


def _splice_kind(d: LinkDiagram, arc: int) -> str:
    if arc > d.arc_count - d.free_circles:
        return "free"
    if any(arc in (c.under_in, c.under_out) for c in d.crossings):
        return "under"
    return "over-only"


# sha256 of the arc count and render_relations() of each connected sum of
# _sum_cases(), first recorded while d2's merged arc was renamed by a second
# pass over its crossings
CONNECTED_SUM_SHA256 = "c58a86264984a5773cdb1734e5f2bacc1fbb426605abacc406945b8b2c4e14b1"


def test_connected_sum_is_unchanged():
    digest, kinds = hashlib.sha256(), Counter()
    for d1, d2, a1, a2 in _sum_cases():
        d = connected_sum(d1, d2, a1, a2)
        assert d.crossing_count == d1.crossing_count + d2.crossing_count
        digest.update(f"{d.arc_count}\n{d.render_relations()}\n".encode())
        kinds[_splice_kind(d1, a1), _splice_kind(d2, a2)] += 1
    # a band (both spliced arcs under-strands), and every no-band case
    assert kinds["under", "under"] > 100
    assert all(kinds[k] for k in itertools.product(("under", "over-only", "free"), repeat=2))
    assert digest.hexdigest() == CONNECTED_SUM_SHA256


# ---------------------------------------------------------------------------
# Reidemeister moves


def test_r1_shapes():
    trefoil = catalog("trefoil")
    d = reidemeister_r1(trefoil, 2, 1)
    assert d.arc_count == 4
    assert d.crossing_count == 4
    unknot = catalog("unknot")
    k = reidemeister_r1(unknot, 1, 1)
    assert k == parse_relations_file("x1 = x1 * x1\n")
    k = reidemeister_r1(unknot, 1, -1)
    assert k == parse_relations_file("x1 = x1 / x1\n")


def test_r2_shapes():
    trefoil = catalog("trefoil")
    d = reidemeister_r2(trefoil, 1, 2)
    assert d.arc_count == 5
    assert d.crossing_count == 5
    assert d.crossings[-2].sign == 1 and d.crossings[-1].sign == -1
    u2 = catalog("unlink2")
    d = reidemeister_r2(u2, 1, 2)
    assert d.arc_count == 3 and d.crossing_count == 2
    assert counting_invariant(extract(d), alexander(3, 2)) == 9  # n**2


def test_r1_r2_arc_out_of_range():
    with pytest.raises(DiagramError):
        reidemeister_r1(catalog("unknot"), 2)
    with pytest.raises(DiagramError):
        reidemeister_r2(catalog("unknot"), 1, 2)
    with pytest.raises(DiagramError, match=r"^arc x99 out of range 1\.\.3$"):
        reidemeister_r2(catalog("trefoil"), 99, 1)


def _last_under_slot(d, arc):
    """(crossing index, field) of the last under-strand endpoint of ``arc``, or None."""
    slots = [
        (i, field)
        for i, c in enumerate(d.crossings)
        for field in ("under_in", "under_out")
        if getattr(c, field) == arc
    ]
    return slots[-1] if slots else None


def _check_move(d, moved, added, new_arcs, cut, split):
    """``moved`` is ``d`` with crossings ``added`` appended, ``new_arcs`` arcs
    more and ``cut`` free circles fewer.

    ``split`` = ((i, field), arc) renames one under-slot of crossing i to
    ``arc``; every other earlier crossing is d's own.
    """
    earlier = list(d.crossings)
    if split is not None:
        (i, field), arc = split
        earlier[i] = earlier[i]._replace(**{field: arc})
    assert moved.crossing_count == d.crossing_count + len(added)
    assert moved.arc_count == d.arc_count + new_arcs
    assert moved.free_circles == d.free_circles - cut
    assert moved.crossings == tuple(earlier) + tuple(added)


def _check_kink(d, arc, sign, kinked):
    # referenced arcs x1..xr keep their labels.  An arc that passes under is
    # split at its last under-slot, the new piece x(r+1) leaving through the
    # kink; any other arc (over-only, or a free circle, which then becomes
    # x(r+1)) closes through the kink
    r = d.arc_count - d.free_circles
    slot = _last_under_slot(d, arc)
    if slot is not None:
        kink = Crossing(sign, under_in=arc, under_out=r + 1, over=arc)
        _check_move(d, kinked, [kink], 1, 0, (slot, r + 1))
    else:
        a = r + 1 if arc > r else arc
        kink = Crossing(sign, under_in=a, under_out=a, over=a)
        _check_move(d, kinked, [kink], 0, int(arc > r), None)


def _check_poke(d, arc, over, poked):
    # cut free circles take x(r+1).. in index order, then comes the middle
    # arc; an arc that passes under is split, its last under-slot moving to
    # the tail arc above the middle one
    r = d.arc_count - d.free_circles
    cut = sorted({a for a in (arc, over) if a > r})
    label = {a: r + 1 + k for k, a in enumerate(cut)}
    label.update({a: a for a in (arc, over) if a <= r})
    middle = r + len(cut) + 1
    slot = _last_under_slot(d, arc)
    tail = middle + 1 if slot is not None else label[arc]
    added = [
        Crossing(1, under_in=label[arc], under_out=middle, over=label[over]),
        Crossing(-1, under_in=middle, under_out=tail, over=label[over]),
    ]
    if slot is not None:
        _check_move(d, poked, added, 2, len(cut), (slot, tail))
    else:
        _check_move(d, poked, added, 1, len(cut), None)


def test_r1_round_trip():
    # the kink's output read off directly: counts, free circles, the
    # appended crossing and the one renamed under-slot
    for name in ("unknot", "unlink2", "hopf", "trefoil", "hopf_sum"):
        d = catalog(name)
        for arc in range(1, d.arc_count + 1):
            for sign in (1, -1):
                _check_kink(d, arc, sign, reidemeister_r1(d, arc, sign))


def test_r2_round_trip():
    # the poke's output read off directly, as for the kink
    for name in ("unknot", "unlink2", "hopf", "trefoil", "hopf_sum"):
        d = catalog(name)
        for arc in range(1, d.arc_count + 1):
            for over in range(1, d.arc_count + 1):
                _check_poke(d, arc, over, reidemeister_r2(d, arc, over))


def _move_bases():
    """Each catalog diagram, then the trefoil with three free circles above its arcs."""
    bases = [catalog(name) for name in catalog_names()]
    bases.append(parse_relations_file("circles: 3\n" + catalog("trefoil").render_relations()))
    return bases


def _seeded_move_sequences(bases):
    """About 300 seeded moves from each base, a list of (d, move, arc, arg,
    moved) per base, ``arg`` the kink's sign or the poke's over-arc.

    A free circle is picked now and then while any is left, so most are cut
    late, with x1..xr grown to tens of arcs below them; a tenth of the pokes
    go under their own arc.
    """
    sequences = []
    for seed, d in enumerate(bases):
        rng = random.Random(seed)
        moves = []
        for _ in range(300):
            r = d.arc_count - d.free_circles

            def pick():
                if d.free_circles and rng.random() < 0.02:
                    return rng.randint(r + 1, d.arc_count)
                return rng.randint(1, max(r, 1))

            arc = pick()
            if rng.random() < 0.5:
                move, arg = reidemeister_r1, rng.choice((1, -1))
            else:
                move, arg = reidemeister_r2, arc if rng.random() < 0.1 else pick()
            moved = move(d, arc, arg)
            moves.append((d, move, arc, arg, moved))
            d = moved
        sequences.append(moves)
    return sequences


def test_seeded_move_sequences_keep_labels():
    # each move of _seeded_move_sequences read off directly
    on_circles = self_pokes = 0
    for seed, moves in enumerate(_seeded_move_sequences(_move_bases())):
        for d, move, arc, arg, moved in moves:
            if move is reidemeister_r1:
                _check_kink(d, arc, arg, moved)
            else:
                self_pokes += arg == arc
                _check_poke(d, arc, arg, moved)
            on_circles += moved.free_circles < d.free_circles
        assert moved.free_circles == 0, seed
    assert on_circles == 6 and self_pokes >= 50


def _surgery_results(cases, bases):
    """The connected sum of each of ``cases``, each sum of a chain over the
    second diagrams of the first 100, and every move of
    ``_seeded_move_sequences(bases)``."""
    results = [connected_sum(*case) for case in cases]
    rng = random.Random(35)
    chain = cases[0][0]
    for _, d2, _, a2 in cases[:100]:
        chain = connected_sum(chain, d2, rng.randint(1, chain.arc_count), a2)
        results.append(chain)
    results += [moved for moves in _seeded_move_sequences(bases) for *_, moved in moves]
    return results


def test_every_surgery_result_passes_the_whole_check():
    # surgery builds its results with no check: each must be one the
    # constructor, and a parse of its rendering, accepts as it is
    results = _surgery_results(_sum_cases(), _move_bases())
    results += [grown(name, 300, seed) for name in catalog_names() for seed in (1, 2)]
    for d in results:
        assert LinkDiagram(d.arc_count, d.crossings, d.free_circles) == d
        assert parse_relations_file(d.render_relations()) == d


def test_surgery_runs_no_whole_diagram_check(monkeypatch):
    # the inputs are built, and checked, before the constructor is patched
    cases, bases = _sum_cases(), _move_bases()

    def whole_check(self, *args, **kwargs):
        raise AssertionError("LinkDiagram.__init__ called by surgery")

    monkeypatch.setattr(LinkDiagram, "__init__", whole_check)
    assert len(_surgery_results(cases, bases)) == len(cases) + 100 + 300 * len(bases)


def test_surgery_takes_integer_arcs_only():
    trefoil = catalog("trefoil")
    for move, message in (
        (lambda: reidemeister_r1(trefoil, 2.0), "arc must be an integer, got 2.0"),
        (lambda: reidemeister_r1(trefoil, 1.5, -1), "arc must be an integer, got 1.5"),
        (lambda: reidemeister_r1(trefoil, None), "arc must be an integer, got None"),
        (lambda: reidemeister_r2(trefoil, 1.5, 1), "arc must be an integer, got 1.5"),
        (lambda: reidemeister_r2(trefoil, 1, "2"), "over_arc must be an integer, got '2'"),
        (lambda: connected_sum(trefoil, trefoil, 1.5, 1), "a1 must be an integer, got 1.5"),
        (lambda: connected_sum(trefoil, trefoil, 1, 2.5), "a2 must be an integer, got 2.5"),
    ):
        with pytest.raises(DiagramError) as exc:
            move()
        assert str(exc.value) == message
    # what operator.index takes is an arc, as its int: a bool, or an integer
    # type of another library (numpy's, say)
    class Two:
        def __index__(self):
            return 2

    for arc, same in ((True, 1), (Two(), 2)):
        kinked = reidemeister_r1(trefoil, arc)
        assert kinked == reidemeister_r1(trefoil, same)
        assert parse_relations_file(kinked.render_relations()) == kinked
        assert reidemeister_r2(trefoil, arc, arc) == reidemeister_r2(trefoil, same, same)
        assert connected_sum(trefoil, trefoil, arc, arc) == connected_sum(trefoil, trefoil, same, same)


def test_a_crossing_holds_its_sign_as_the_int_1_or_minus_1():
    trefoil = catalog("trefoil")
    for build, message in (
        (lambda: Crossing(1.0, 1, 1, 1), "crossing sign must be an integer, got 1.0"),
        (lambda: Crossing(-1.0, 1, 1, 1), "crossing sign must be an integer, got -1.0"),
        (lambda: trefoil.crossings[0]._replace(sign=1.0), "crossing sign must be an integer, got 1.0"),
        (lambda: reidemeister_r1(trefoil, 1, 1.0), "sign must be an integer, got 1.0"),
        (lambda: reidemeister_r1(trefoil, 1, "-1"), "sign must be an integer, got '-1'"),
        (lambda: Crossing(False, 1, 1, 1), "crossing sign must be +1 or -1, got 0"),
    ):
        with pytest.raises(DiagramError) as exc:
            build()
        assert str(exc.value) == message
    # what operator.index takes is a sign, held as its int: True as 1, or an
    # integer type of another library (numpy's, say)
    class MinusOne:
        def __index__(self):
            return -1

    for sign, same in ((True, 1), (MinusOne(), -1)):
        for c in (Crossing(sign, 1, 1, 1), reidemeister_r1(trefoil, 1, sign).crossings[-1]):
            assert type(c.sign) is int and c.sign == same
            assert repr(c).startswith(f"Crossing(sign={same}, ")


# sha256 of render_relations() of conftest.grown(name, 1100, 1), recorded
# while every move renormalized the whole diagram: labelling only the arcs a
# move touches must give the same diagrams (unlink2 cuts its second circle
# while it sits above x1)
GROWN_1100_SHA256 = {
    "unlink2": "12d932bbffae1490b7fba367270a421283a4b0d1c2d3aef9617b611a411a0b10",
    "trefoil": "ba960cb4575d3795bd1999d6233ec1cea7e513329d07de90f7e86bec0683ddd2",
}


@pytest.mark.parametrize("name", sorted(GROWN_1100_SHA256))
def test_grown_diagram_is_unchanged(name):
    d = grown(name, 1100, 1)
    text = d.render_relations()
    assert hashlib.sha256(text.encode()).hexdigest() == GROWN_1100_SHA256[name]
    assert parse_relations_file(text) == d


def test_counting_invariant_under_moves_all_small_quandles(small_catalog):
    # every quandle table of order <= 4 (exhaustive: 1 + 1 + 5 + 36) plus
    # order-5 members of the families used elsewhere
    quandles = [validate(op) for m in (2, 3, 4) for op in all_quandle_tables(m)]
    quandles += [alexander(5, 2), alexander(5, 4), trivial(5)]
    for name, d in small_catalog.items():
        p = extract(d)
        for q in quandles:
            base = len(brute_force_colorings(p, q))
            for arc in range(1, d.arc_count + 1):
                for sign in (1, -1):
                    moved = extract(reidemeister_r1(d, arc, sign))
                    assert len(brute_force_colorings(moved, q)) == base, (name, arc, sign)
                moved = extract(reidemeister_r2(d, arc, max(1, d.arc_count - arc + 1)))
                assert len(brute_force_colorings(moved, q)) == base, (name, arc)


# ---------------------------------------------------------------------------
# randomized diagrams: every arc passes under exactly once, so any
# under-successor permutation plus arbitrary over arcs and signs is valid


@st.composite
def diagrams(draw):
    arcs = draw(st.integers(min_value=1, max_value=5))
    succ = draw(st.permutations(range(1, arcs + 1)))
    overs = draw(
        st.lists(st.integers(min_value=1, max_value=arcs), min_size=arcs, max_size=arcs)
    )
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=arcs, max_size=arcs))
    circles = draw(st.integers(min_value=0, max_value=2))
    lines = [
        f"x{succ[i - 1]} = x{i} {'*' if signs[i - 1] == 1 else '/'} x{overs[i - 1]}"
        for i in range(1, arcs + 1)
    ]
    if circles:
        lines.insert(0, f"circles: {circles}")
    return parse_relations_file("\n".join(lines) + "\n")


@settings(max_examples=120, deadline=None)
@given(diagrams())
def test_parse_render_parse_is_identity(d):
    rendered = d.render_relations()
    again = parse_relations_file(rendered)
    assert again == d
    assert again.render_relations() == rendered


@settings(max_examples=60, deadline=None)
@given(diagrams(), st.sampled_from([(2, 1), (3, 2), (4, 3), (5, 3)]))
def test_random_diagram_oracle_equivalence(d, params):
    from quandlecolor import build_system, enumerate_solutions

    n, t = params
    q = alexander(n, t)
    p = extract(d)
    brute = set(brute_force_colorings(p, q))
    linear = set(enumerate_solutions(build_system(p, q.alexander), n))
    assert brute == linear


@settings(max_examples=40, deadline=None)
@given(diagrams(), st.integers(min_value=1, max_value=5), st.sampled_from((1, -1)))
def test_random_diagram_moves_round_trip(d, arc, sign):
    arc = 1 + (arc - 1) % d.arc_count
    kinked = reidemeister_r1(d, arc, sign)
    _check_kink(d, arc, sign, kinked)
    poked = reidemeister_r2(d, arc, d.arc_count)
    _check_poke(d, arc, d.arc_count, poked)
    q = alexander(3, 2)
    base = counting_invariant(extract(d), q)
    assert counting_invariant(extract(kinked), q) == base
    assert counting_invariant(extract(poked), q) == base
