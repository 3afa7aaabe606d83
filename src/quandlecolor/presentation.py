"""Presentations of a diagram's fundamental quandle.

Generators are the diagram's arcs; each crossing contributes one relation
``out = in > over`` (``>^-1`` for negative crossings), kept in crossing
order so generated coefficient matrices are row-comparable with the source
table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import LinkDiagram, _merged_classes


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


def trivial_t_classes(p: QuandlePresentation) -> tuple[frozenset[int], ...]:
    """Arc classes forced equal when the quandle is trivial (x > y = x).

    Every relation then collapses to ``out = in``, so this is the finest
    partition putting each relation's in and out arcs together.  For
    presentations extracted from a diagram the classes coincide with the
    diagram's components, and the coloring count with a trivial quandle of
    order m is m ** len(classes).
    """
    classes = _merged_classes(
        range(1, p.arc_count + 1), ((r.in_, r.out) for r in p.relations)
    )
    return tuple(frozenset(g) for g in classes)
