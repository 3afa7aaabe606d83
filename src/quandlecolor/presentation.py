"""Presentations of a diagram's fundamental quandle.

Generators are the diagram's arcs; each crossing is one relation
``under_out = under_in > over`` (``>^-1`` for negative crossings), kept in
crossing order so generated coefficient matrices are row-comparable with
the source table.  A relation is the diagram's own :class:`Crossing`, so
reading a presentation off a diagram copies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import Crossing, LinkDiagram


@dataclass(frozen=True)
class QuandlePresentation:
    """Arc generators 1..arc_count plus an ordered list of crossing relations."""

    arc_count: int
    relations: tuple[Crossing, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        for r in self.relations:
            for arc in (r.under_out, r.under_in, r.over):
                if not 1 <= arc <= self.arc_count:
                    raise ValueError(f"arc x{arc} out of range 1..{self.arc_count}")


def extract(d: LinkDiagram) -> QuandlePresentation:
    """Read the fundamental-quandle presentation off a diagram, one relation per crossing."""
    return QuandlePresentation(d.arc_count, d.crossings)
