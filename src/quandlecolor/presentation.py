"""Presentations of a diagram's fundamental quandle.

Generators are the diagram's arcs; each crossing is one relation
``under_out = under_in > over`` (``>^-1`` for negative crossings), kept in
crossing order so generated coefficient matrices are row-comparable with
the source table.  A relation is the diagram's own :class:`Crossing`, so
reading a presentation off a diagram copies nothing.
"""

from __future__ import annotations

from typing import Iterable

from .diagram import Crossing, LinkDiagram
from .record import Record, set_field


class QuandlePresentation(Record):
    """Arc generators 1..arc_count plus an ordered tuple of crossing relations."""

    __slots__ = ("arc_count", "relations")

    def __init__(self, arc_count: int, relations: Iterable[Crossing]) -> None:
        set_field(self, "arc_count", arc_count)
        set_field(self, "relations", tuple(relations))
        for r in self.relations:
            for arc in (r.under_out, r.under_in, r.over):
                if not 1 <= arc <= self.arc_count:
                    raise ValueError(f"arc x{arc} out of range 1..{self.arc_count}")


def extract(d: LinkDiagram) -> QuandlePresentation:
    """Read the fundamental-quandle presentation off a diagram, one relation per crossing."""
    return QuandlePresentation(d.arc_count, d.crossings)
