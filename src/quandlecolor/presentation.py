"""Presentations of a diagram's fundamental quandle.

Generators are the diagram's arcs; each crossing contributes one relation
``out = in > over`` (``>^-1`` for negative crossings), kept in crossing
order so generated coefficient matrices are row-comparable with the source
table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import LinkDiagram


@dataclass(frozen=True)
class CrossingRelation:
    """One relation ``out = in_ > over`` (positive) or ``out = in_ >^-1 over``."""

    out: int
    in_: int
    over: int
    positive: bool = True

    def arcs(self) -> tuple[int, int, int]:
        return (self.out, self.in_, self.over)


@dataclass(frozen=True)
class QuandlePresentation:
    """Arc generators 1..arc_count plus an ordered list of crossing relations."""

    arc_count: int
    relations: tuple[CrossingRelation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        for r in self.relations:
            for arc in r.arcs():
                if not 1 <= arc <= self.arc_count:
                    raise ValueError(f"arc x{arc} out of range 1..{self.arc_count}")


def extract(d: LinkDiagram) -> QuandlePresentation:
    """Read the fundamental-quandle presentation off a diagram, one relation per crossing."""
    return QuandlePresentation(
        arc_count=d.arc_count,
        relations=tuple(
            CrossingRelation(
                out=c.under_out, in_=c.under_in, over=c.over, positive=c.positive
            )
            for c in d.crossings
        ),
    )
