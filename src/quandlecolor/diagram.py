"""Oriented link diagrams as arcs and signed crossings.

A diagram is the canonical input object: arcs are numbered 1..arc_count,
each crossing records which arc dives under (entering as ``under_in``,
leaving as ``under_out``) and which arc passes over, and ``sign`` selects
the quandle operation the crossing induces (+1 for ``>``, -1 for ``>^-1``).
Closed components that touch no crossing are counted by ``free_circles``
and occupy the top arc indices.

A crossing table sometimes records a relation with the producing arc on
the left even where the strand's orientation runs the other way (the same
equation rearranged), so an arc may legitimately be the written under-out
of two crossings.  Validation therefore enforces the structural truth
underneath: every arc has exactly two under-strand endpoints (or none, for
closed circles that only pass over), which makes the under-strand adjacency
graph 2-regular and decomposes it into the link's components.

Two parsers are provided: the line-oriented relations grammar
(``x2 = x3 * x1`` / ``x1 = x2 / x3``, optional ``circles: k`` header,
``#`` comments) and planar-diagram codes (``X(a,b,c,d)`` quadruples, also
with ``#`` comments).  Each does its per-line or per-quadruple work inside
``re``, leaving only the building of ``Crossing``s to Python.  A good
relation line is one whole-line match, its three indices three ``int()``
calls; a line that match rejects is read again, token by token, only to name
its first bad token and that token's line and column.  A PD code is one match
over the whole text, whose end is the offset of the first malformed
quadruple, and one scan that collects its labels; its quadruples are read one
at a time again only to name an error.  Its strand directions are read by
walking each component once.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import Counter
from typing import Iterable

from .errors import DiagramError, PDCodeError, RelationSyntaxError
from .record import Record, set_field


def _find(parent, x: int) -> int:
    """The root of x in a union-find forest (a list or dict of parents), halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merged_classes(items: Iterable[int], pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Classes of ``items`` under the equivalence generated by ``pairs``, by smallest member."""
    parent = {x: x for x in items}
    for a, b in pairs:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    classes: dict[int, list[int]] = {}
    for x in parent:
        classes.setdefault(_find(parent, x), []).append(x)
    return sorted(classes.values(), key=min)


def _index(name: str, value) -> int:
    """``value`` as an int by ``operator.index``, or a DiagramError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise DiagramError(f"{name} must be an integer, got {value!r}") from None


def _components(arc_count: int, crossings: Iterable[Crossing]) -> list[list[int]]:
    """Arcs 1..arc_count in link components, classes of arcs joined through an under-strand."""
    return _merged_classes(range(1, arc_count + 1), ((c.under_in, c.under_out) for c in crossings))


class Crossing(Record):
    """One crossing: ``under_out = under_in > over`` (or ``>^-1`` when sign is -1).

    ``under_in == under_out`` is allowed; it means the under-strand's arc
    closes into itself through this crossing (a kink, or a component that
    passes under exactly once).  ``sign`` is held as the int 1 or -1: any
    other integer type (``True``, a numpy integer) is taken by
    ``operator.index`` (``True`` is held as 1), and a float raises
    DiagramError, as an arc argument of diagram surgery does.
    """

    __slots__ = ("sign", "under_in", "under_out", "over")

    def __init__(self, sign: int, under_in: int, under_out: int, over: int) -> None:
        if sign.__class__ is not int:  # the parsers pass ints, which skip this call
            sign = _index("crossing sign", sign)
        if sign not in (1, -1):
            raise DiagramError(f"crossing sign must be +1 or -1, got {sign}")
        set_field(self, "sign", sign)
        set_field(self, "under_in", under_in)
        set_field(self, "under_out", under_out)
        set_field(self, "over", over)

    @property
    def positive(self) -> bool:
        return self.sign == 1


class LinkDiagram(Record):
    """Immutable oriented link diagram.

    ``crossings`` is held as a tuple.  Invariants, checked whole by the
    constructor (and so by the parsers, ``_replace``, pickling and ``copy``)
    and kept by construction in the results of diagram surgery:

    * every crossing index lies in [1, arc_count];
    * arcs referenced by crossings are exactly 1..(arc_count - free_circles),
      the remaining top indices being the free circles;
    * every arc has 0 or 2 under-strand endpoints across all crossings.

    The diagram's presentation, once :func:`presentation.extract` has read
    it, is kept in ``__dict__``, outside the fields.
    """

    __slots__ = ("arc_count", "crossings", "free_circles", "__dict__")

    def __init__(self, arc_count: int, crossings: Iterable[Crossing], free_circles: int = 0) -> None:
        crossings = tuple(crossings)
        set_field(self, "arc_count", arc_count)
        set_field(self, "crossings", crossings)
        set_field(self, "free_circles", free_circles)
        if self.arc_count < 1:
            raise DiagramError("a diagram needs at least one arc")
        if self.free_circles < 0:
            raise DiagramError("free_circles must be >= 0")
        # one pass of builtins per field; the endpoint counts are taken
        # first, as their keys are most of the referenced arcs, and read last
        ins = [c.under_in for c in crossings]
        outs = [c.under_out for c in crossings]
        ends = Counter(ins)
        ends.update(outs)
        referenced = set(ends)
        referenced.update([c.over for c in crossings])
        if referenced and (min(referenced) < 1 or max(referenced) > self.arc_count):
            arc = next(
                arc
                for c in crossings
                for arc in (c.under_in, c.under_out, c.over)
                if not 1 <= arc <= self.arc_count
            )
            raise DiagramError(f"arc x{arc} out of range 1..{self.arc_count}")
        bound = self.arc_count - self.free_circles
        if len(referenced) != bound or (referenced and max(referenced) != bound):
            raise DiagramError(
                f"referenced arcs must be exactly x1..x{bound} "
                f"with {self.free_circles} free circles above"
            )
        if ends and set(ends.values()) != {2}:
            arc = min(arc for arc, k in ends.items() if k != 2)
            k, under_outs = ends[arc], outs.count(arc)
            if under_outs >= 2:
                raise DiagramError(
                    f"arc x{arc} is the under-out of {under_outs} crossings "
                    f"({k} under-strand endpoints in total, expected 2)"
                )
            raise DiagramError(
                f"arc x{arc} has {k} under-strand endpoints, expected 2 "
                "(dangling under-strand)"
            )

    @classmethod
    def _moved(cls, arc_count: int, crossings: Iterable[Crossing], free_circles: int) -> LinkDiagram:
        """The result of diagram surgery, its three fields set with no check.

        Surgery builds a valid diagram, so the constructor's whole check would
        only repeat, at O(crossings) per result, what built its inputs:

        * each input is a ``LinkDiagram``, checked when it was built and
          immutable since, and each arc argument an int in range, checked
          before any crossing is built;
        * a Reidemeister move renames one under-slot to a fresh arc and
          appends crossings that give every new arc exactly two under-strand
          endpoints, and the arc that lost the slot its second one back;
        * a connected sum relabels the second diagram's arcs above the
          first's, in order, merges the spliced arcs into one, and when both
          pass under, its band takes one under-strand endpoint from each;
        * a free circle that is cut takes the next label above x1..xr, and
          the counts passed here grow by exactly the arcs added.

        So every arc still has 0 or 2 under-strand endpoints, and the
        referenced arcs are exactly x1..xr with the free circles above.
        """
        d = object.__new__(cls)
        set_field(d, "arc_count", arc_count)
        set_field(d, "crossings", tuple(crossings))
        set_field(d, "free_circles", free_circles)
        return d

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    def components(self) -> tuple[frozenset[int], ...]:
        """Partition of arcs into link components.

        Arcs joined through a crossing's under-strand belong to the same
        component; arcs never passing under (over-only circles and free
        circles) are singleton components.  Sorted by smallest member.
        """
        return tuple(frozenset(g) for g in _components(self.arc_count, self.crossings))

    def component_count(self) -> int:
        return len(self.components())

    def render_relations(self) -> str:
        """Render to the relations-file grammar; parsing it back is the identity."""
        lines = [f"circles: {self.free_circles}"] if self.free_circles else []
        for c in self.crossings:
            lines.append(f"x{c.under_out} = x{c.under_in} {'*' if c.positive else '/'} x{c.over}")
        return "\n".join(lines) + "\n"


class CatalogEntry(Record):
    """A named built-in diagram with its expected component count."""

    __slots__ = ("name", "diagram", "expected_components")

    def __init__(self, name: str, diagram: LinkDiagram, expected_components: int) -> None:
        set_field(self, "name", name)
        set_field(self, "diagram", diagram)
        set_field(self, "expected_components", expected_components)
        if self.diagram.component_count() != self.expected_components:
            raise DiagramError(
                f"catalog entry {self.name}: derived component count "
                f"{self.diagram.component_count()} != {self.expected_components}"
            )


# ---------------------------------------------------------------------------
# Relations-file parser


# A whole good relation line, from the Unicode whitespace that may open it to
# the comment that may end it: out, in, the operator and over, each index past
# its leading zeros (int()'s digit limit counts them).  ASCII digits only:
# str.isdigit() also takes '²', which int() rejects.
_RELATION_LINE_RE = re.compile(
    r"\s*x0*([1-9][0-9]*)[ \t]*=[ \t]*x0*([1-9][0-9]*)[ \t]*([*/])[ \t]*x0*([1-9][0-9]*)\s*(?:#.*)?"
)
# A relation line past its leading whitespace, read only to name the error of
# a line the pattern above rejects (so compiled on the first error, and kept
# by re).  Each token is an optional group nested inside the one before, so
# the match stops at the first bad token: m.lastindex is the last good one,
# and m.end() is where the next was expected, past the spaces and tabs that
# follow (none are skipped right after an 'x').
_RELATION_TOKENS = (
    r"(?:(x)(?:([0-9]+)[ \t]*(?:(=)[ \t]*(?:(x)(?:([0-9]+)[ \t]*"
    r"(?:([*/])[ \t]*(?:(x)(?:([0-9]+)[ \t]*)?)?)?)?)?)?)?)?"
)
_ARC, _DIGITS = "arc reference 'x<index>'", "digits after 'x'"
# the token expected after group m.lastindex (0 when nothing matched)
_EXPECTED = (_ARC, _DIGITS, "'='", _ARC, _DIGITS, "'*' or '/'", _ARC, _DIGITS)

# ASCII digits only, as in arc indices: \d also takes other scripts' digits
_CIRCLES_RE = re.compile(r"^circles\s*:\s*0*([0-9]+)\s*$")
# each free circle adds a column: per-column kernel state, and a factor n to the count n**k
MAX_CIRCLES = 4096


def _relation_error(lineno: int, raw: str) -> RelationSyntaxError:
    """The error of a relation line that ``_RELATION_LINE_RE`` rejects, or
    that it takes but with an index over the int-string limit."""
    line = raw.split("#", 1)[0].rstrip()
    start = len(line) - len(line.lstrip())  # columns stay raw-line positions
    m = re.compile(_RELATION_TOKENS).match(line, start)
    arcs = [m[g] and m[g].lstrip("0") for g in (2, 5, 8)]  # int()'s digit limit counts leading zeros
    for g, digits in zip((2, 5, 8), arcs):  # an index of 0, at its 'x', comes before any later error
        if digits == "":
            return RelationSyntaxError(lineno, m.start(g - 1) + 1, "arc index must be >= 1")
    if m.lastindex != 8:
        expected = _EXPECTED[m.lastindex or 0]
        return RelationSyntaxError(lineno, m.end() + 1, f"expected {expected}")
    if m.end() != len(line):
        return RelationSyntaxError(lineno, m.end() + 1, "unexpected trailing text")
    limit = sys.get_int_max_str_digits()
    g = next(g for g, digits in zip((2, 5, 8), arcs) if len(digits) > limit)
    return RelationSyntaxError(lineno, m.start(g - 1) + 1, f"arc index of more than {limit} digits")


def parse_relations_file(text: str) -> LinkDiagram:
    """Parse the line-oriented relations grammar into a diagram.

    Each relation line ``x<out> = x<in> * x<over>`` is a positive crossing
    and ``/`` a negative one; line order becomes crossing order.  An
    optional header ``circles: <k>`` (before any relation) declares closed
    components without crossings.  Blank lines, ``#`` comments and any
    Unicode whitespace that opens or ends a line are ignored.  Arc indices
    referenced must be contiguous from 1; free-circle arcs are appended
    above them.
    """
    crossings: list[Crossing] = []
    free_circles = 0
    saw_circles = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _RELATION_LINE_RE.fullmatch(raw)
        if m is not None:
            out, in_, op, over = m.groups()
            try:
                in_, out, over = int(in_), int(out), int(over)
            except ValueError:  # more digits than the caller's int-string limit, which the CLI lifts
                raise _relation_error(lineno, raw) from None
            crossings.append(Crossing(1 if op == "*" else -1, in_, out, over))
            continue
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("circles"):
            m = _CIRCLES_RE.match(stripped)
            if m is None:
                raise RelationSyntaxError(lineno, 1, "malformed circles header")
            if saw_circles:
                raise RelationSyntaxError(lineno, 1, "duplicate circles header")
            if crossings:
                raise RelationSyntaxError(
                    lineno, 1, "circles header must precede all relations"
                )
            saw_circles = True
            count = m.group(1)  # no leading zeros: compare lengths before int()
            if len(count) > len(str(MAX_CIRCLES)) or int(count) > MAX_CIRCLES:
                raise RelationSyntaxError(
                    lineno, raw.index(count) + 1, f"at most {MAX_CIRCLES} circles allowed"
                )
            free_circles = int(count)
            continue
        raise _relation_error(lineno, raw)

    referenced = {a for c in crossings for a in (c.under_in, c.under_out, c.over)}
    max_ref = max(referenced, default=0)
    if max_ref == 0 and free_circles == 0:
        raise DiagramError("empty input: declare relations or a circles header")
    if len(referenced) != max_ref:
        # the first index i whose i-th smallest reference is not i is the gap
        gap = next(i for i, a in enumerate(sorted(referenced), start=1) if a != i)
        raise DiagramError(
            f"arc index gap: x{gap} is never referenced "
            f"(indices must be contiguous from 1 to {max_ref})"
        )
    return LinkDiagram(
        arc_count=max_ref + free_circles,
        crossings=tuple(crossings),
        free_circles=free_circles,
    )


# ---------------------------------------------------------------------------
# PD-code parser

# a comment ends where str.splitlines ends a line
_PD_COMMENT = r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"
# whitespace and comments
_PD_GAP = rf"(?:\s|{_PD_COMMENT})*"
_PD_SKIP = re.compile(_PD_GAP)
# a quadruple of labels {0}: captured in a term, not in the whole-code match,
# where groups inside the repetition would cost it about two thirds more
_PD_QUAD = r"[Xx]\(\s*{0}\s*,\s*{0}\s*,\s*{0}\s*,\s*{0}\s*\)"
# the longest run of quadruples that opens the text: its end is the offset of
# the first malformed one, or the end of a good code
_PD_SYNTAX = re.compile(_PD_GAP + "(?:" + _PD_QUAD.format("[0-9]+") + _PD_GAP + ")*")
# over a run of quadruples: each label past its leading zeros, and '' for each
# comment, whose digits are no labels
_PD_LABEL = re.compile(_PD_COMMENT + "|0*([0-9]+)")
# a quadruple and the gap after it, so one match steps to the next; read only
# to name an error, so compiled on the first one (and kept by re)
_PD_TERM = _PD_QUAD.format("([0-9]+)") + _PD_GAP


def _pd_error(text: str) -> PDCodeError:
    """The error of the first bad quadruple of a PD code that has one: a
    label over the int-string limit or below 1, or a malformed quadruple."""
    term = re.compile(_PD_TERM)
    pos = _PD_SKIP.match(text).end()
    while True:
        m = term.match(text, pos)
        if m is None:
            return PDCodeError(f"malformed quadruple at offset {pos + 1}")
        try:  # leading zeros stripped, as in arc indices
            quad = tuple(int(g.lstrip("0") or "0") for g in m.groups())
        except ValueError:  # more digits than the caller's int-string limit, which the CLI lifts
            limit = sys.get_int_max_str_digits()
            return PDCodeError(f"edge label of more than {limit} digits at offset {pos + 1}")
        if min(quad) < 1:
            return PDCodeError(f"edge labels must be >= 1: {quad}")
        pos = m.end()


def parse_pd_code(text: str) -> LinkDiagram:
    """Parse whitespace-separated ``X(a,b,c,d)`` quadruples into a diagram.

    A ``#`` starts a comment that runs to the end of its line.

    Edges are listed counterclockwise starting at the incoming under-edge
    ``a``; the under-strand exits at ``c``.  A crossing is positive when its
    over-strand runs from ``d`` to ``b`` and negative the other way; which
    of the two holds is read by walking each component once: its
    under-passages fix its direction, and must agree.  A component that
    never passes under runs so that the lowest-index crossing it passes over
    is positive; its other crossings follow from that direction.

    Diagram arcs are the over-strand-maximal runs of edges, numbered by
    smallest edge label.  Rendering the extracted relations and re-parsing
    them reproduces the same diagram.
    """
    end = _PD_SYNTAX.match(text).end()
    try:
        labels = [int(g) for g in _PD_LABEL.findall(text, 0, end) if g]
    except ValueError:  # more digits than the caller's int-string limit, which the CLI lifts
        raise _pd_error(text) from None
    if end != len(text) or 0 in labels:
        raise _pd_error(text)
    if not labels:
        raise PDCodeError(
            "empty PD code: a diagram without crossings cannot be written in "
            "PD form (use the relations format with a circles header)"
        )

    # label k of the code sits in slot k % 4 (a, b, c, d) of quadruple k // 4;
    # an edge's endpoints are its first and last positions, and the edges
    # keep the order of their first appearance
    size = len(labels)
    last = dict(zip(labels, range(size)))
    first = dict(zip(reversed(labels), range(size - 1, -1, -1)))
    # twice each: size / 2 edges, none whose first position is its last
    if 2 * len(last) != size or not set(first.values()).isdisjoint(last.values()):
        edge, k = next((e, k) for e, k in Counter(labels).items() if k != 2)
        raise PDCodeError(
            f"edge {edge} appears {k} time(s); every edge label "
            "must appear exactly twice"
        )

    # other[p]: the other position of p's label.  An edge arrives at one of
    # its ends and departs from the other, so it cannot join two a slots
    # (where the under-strand arrives) or two c slots (where it departs).
    other = [0] * size
    for edge, p in last.items():
        q = first[edge]
        other[p], other[q] = q, p
        if p % 4 == q % 4 and p % 2 == 0:
            kind = "incoming" if p % 4 == 0 else "outgoing"
            raise PDCodeError(
                f"inconsistent orientation: edge {edge} is the {kind} "
                "under-edge of two crossings"
            )

    # One walk per component: from position p the strand runs along its edge
    # to arrive = other[p], then through that crossing to the opposite slot
    # arrive ^ 2.  At an under-passage, arriving at a means the walk runs
    # forward; a component without one runs so that its lowest-index
    # crossing is positive.  A crossing is positive when its over-strand
    # arrives at d.
    signs = [0] * (size // 4)
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        forward = None
        overs = []  # (crossing, whether the walk arrives at its d)
        p = start
        while not seen[p]:
            arrive = other[p]
            seen[p] = seen[arrive] = True
            slot = arrive % 4
            if slot % 2:
                overs.append((arrive // 4, slot == 3))
            elif forward is None:
                forward = slot == 0
            elif forward != (slot == 0):
                raise PDCodeError(
                    "inconsistent orientation: no assignment of strand directions "
                    "satisfies all quadruples"
                )
            p = arrive ^ 2
        if forward is None:
            forward = min(overs)[1]
        for i, at_d in overs:
            signs[i] = 1 if at_d == forward else -1

    # Arcs: edges merged across over-passages, numbered by smallest edge.
    classes = _merged_classes(last, zip(labels[1::4], labels[3::4]))
    arc_of = {e: arc_id for arc_id, members in enumerate(classes, start=1) for e in members}
    arcs = [arc_of[e] for e in labels]
    crossings = tuple(map(Crossing, signs, arcs[0::4], arcs[2::4], arcs[1::4]))
    return LinkDiagram(arc_count=len(classes), crossings=crossings, free_circles=0)


# ---------------------------------------------------------------------------
# Diagram surgery: connected sum and Reidemeister moves
#
# A Reidemeister move renumbers nothing: x1..xr (r = arc_count - free_circles)
# keep their labels, a free circle the move cuts takes the next label above r
# (two cut circles in index order), then come the new arcs.  So a move copies
# the crossing tuple once, renames one under-slot and appends its crossings;
# this is the order-preserving relabelling connected_sum gives too.  A result
# is built by LinkDiagram._moved, with no whole-diagram check, so each arc
# argument passes operator.index first: no float arc such as 1.5 gets in.


def _under_slots(crossings, arc: int) -> list[tuple[int, str]]:
    """(crossing index, field) under-strand occurrences of ``arc``, in order.

    A slot names its ``Crossing`` field, 'under_in' or 'under_out', so
    :func:`_replace_slot` renames it by that name.
    """
    slots = []
    for i, c in enumerate(crossings):
        if c.under_in == arc:
            slots.append((i, "under_in"))
        if c.under_out == arc:
            slots.append((i, "under_out"))
    return slots


def _replace_slot(crossings: list[Crossing], slot: tuple[int, str], new: int) -> None:
    """Rename one slot of :func:`_under_slots` to arc ``new``, through ``Crossing``'s constructor."""
    i, field = slot
    crossings[i] = crossings[i]._replace(**{field: new})


def connected_sum(d1: LinkDiagram, d2: LinkDiagram, a1: int, a2: int) -> LinkDiagram:
    """Splice arc ``a2`` of ``d2`` into arc ``a1`` of ``d1``.

    Arcs of d2 are renumbered above d1's, a2 is merged into a1, and when
    both spliced arcs have under-strand endpoints one new arc closes the
    band (one endpoint from each side moves onto it).  Crossings are
    untouched otherwise, so the crossing count is the sum of the inputs'.
    The referenced arcs are x1.. in order, free circles above: d1's keep
    their labels, a free a1 that a2's crossings now name comes next, then
    d2's arcs but a2 in order, then the band.
    """
    a1, a2 = _index("a1", a1), _index("a2", a2)
    if not 1 <= a1 <= d1.arc_count:
        raise DiagramError(f"arc x{a1} out of range for the first diagram")
    if not 1 <= a2 <= d2.arc_count:
        raise DiagramError(f"arc x{a2} out of range for the second diagram")
    r1, r2 = d1.arc_count - d1.free_circles, d2.arc_count - d2.free_circles
    base = r1 + (a1 > r1 and a2 <= r2)  # d2's arc j becomes base + j, less one past a2
    label = [base + j - (j > a2) for j in range(r2 + 1)]
    if a2 <= r2:
        label[a2] = a1 if a1 <= r1 else base
    cross1 = list(d1.crossings)
    cross2 = [Crossing(c.sign, label[c.under_in], label[c.under_out], label[c.over])
              for c in d2.crossings]
    occ1 = _under_slots(cross1, a1)
    occ2 = _under_slots(d2.crossings, a2)
    arcs, free = base + r2 - (a2 <= r2), d1.free_circles + d2.free_circles
    if occ1 and occ2:
        # Band between two under-strand arcs: the new arc takes the
        # downstream endpoint of a1 and the upstream endpoint of a2.
        arcs += 1
        _replace_slot(cross1, next((s for s in occ1 if s[1] == "under_in"), occ1[-1]), arcs)
        _replace_slot(cross2, next((s for s in occ2 if s[1] == "under_out"), occ2[-1]), arcs)
    elif a1 > r1 or a2 > r2:
        free -= 1  # no band: a free circle merges into the other spliced arc
    return LinkDiagram._moved(arcs + free, cross1 + cross2, free)


def _last_under_slot(crossings, arc: int) -> tuple[int, str] | None:
    """The last of ``_under_slots(crossings, arc)``, found from the end, or None."""
    for i in range(len(crossings) - 1, -1, -1):
        c = crossings[i]
        if c.under_out == arc:
            return i, "under_out"
        if c.under_in == arc:
            return i, "under_in"
    return None


def reidemeister_r1(d: LinkDiagram, arc: int, sign: int = 1) -> LinkDiagram:
    """Insert a kink on ``arc``: new crossing with relation a' = a > a (or >^-1).

    On an arc bounded by crossings this splits the arc in two; on a closed
    circle (free or over-only) the kink cuts it once, so the arc count is
    unchanged and the circle stops being free.
    """
    arc, sign = _index("arc", arc), _index("sign", sign)
    if not 1 <= arc <= d.arc_count:
        raise DiagramError(f"arc x{arc} out of range 1..{d.arc_count}")
    if sign not in (1, -1):
        raise DiagramError(f"sign must be +1 or -1, got {sign}")
    r = d.arc_count - d.free_circles
    cross = list(d.crossings)
    slot = _last_under_slot(cross, arc)
    if slot is not None:
        _replace_slot(cross, slot, r + 1)
        cross.append(Crossing(sign, under_in=arc, under_out=r + 1, over=arc))
        return LinkDiagram._moved(d.arc_count + 1, cross, d.free_circles)
    cut = arc > r
    if cut:
        arc = r + 1
    cross.append(Crossing(sign, under_in=arc, under_out=arc, over=arc))
    return LinkDiagram._moved(d.arc_count, cross, d.free_circles - cut)


def reidemeister_r2(d: LinkDiagram, arc: int, over_arc: int) -> LinkDiagram:
    """Poke ``arc`` under ``over_arc``: crossings c = a > b then a'' = c >^-1 b.

    Adds two crossings of opposite operation and two arcs (one when ``arc``
    is a closed circle, which the poke cuts twice into two arcs).
    """
    arc, over_arc = _index("arc", arc), _index("over_arc", over_arc)
    for a in (arc, over_arc):
        if not 1 <= a <= d.arc_count:
            raise DiagramError(f"arc x{a} out of range 1..{d.arc_count}")
    r = d.arc_count - d.free_circles
    cut = sorted({a for a in (arc, over_arc) if a > r})
    label = {a: k for k, a in enumerate(cut, start=r + 1)}
    a, b = label.get(arc, arc), label.get(over_arc, over_arc)
    middle = r + len(cut) + 1
    cross = list(d.crossings)
    slot = _last_under_slot(cross, arc)
    if slot is None:
        tail, new_arcs = a, 1
    else:
        tail, new_arcs = middle + 1, 2
        _replace_slot(cross, slot, tail)
    cross.append(Crossing(1, under_in=a, under_out=middle, over=b))
    cross.append(Crossing(-1, under_in=middle, under_out=tail, over=b))
    return LinkDiagram._moved(d.arc_count + new_arcs, cross, d.free_circles - len(cut))
