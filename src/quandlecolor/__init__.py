"""Quandle coloring invariants of oriented link diagrams.

Parse a diagram (relations grammar or PD code) or pick one from the
catalog, extract its fundamental-quandle presentation, and count or
enumerate colorings by finite quandles — exactly, over any modulus, via
a sparse Smith-form elimination over Z_n for the Alexander family, with a
brute-force oracle for arbitrary tables.
"""

from .catalog import CATALOG, catalog, catalog_entry, catalog_names
from .diagram import (
    CatalogEntry,
    Crossing,
    LinkDiagram,
    connected_sum,
    parse_pd_code,
    parse_relations_file,
    reidemeister_r1,
    reidemeister_r2,
)
from .errors import (
    AxiomError,
    CapExceededError,
    DiagramError,
    IdempotenceError,
    InputError,
    NotAUnitError,
    PDCodeError,
    QuandleColorError,
    QuandleTableError,
    RelationSyntaxError,
    RightInvertibilityError,
    SelfDistributivityError,
    UnknownLinkError,
)
from .invariants import (
    ComparisonCell,
    DistinguishabilityReport,
    PhiPolynomial,
    all_colorings,
    compare,
    counting_invariant,
    involutory_units,
    phi_polynomial,
    units,
)
from .presentation import QuandlePresentation, extract
from .quandle import (
    AlexanderParams,
    FiniteQuandle,
    alexander,
    parse_quandle_file,
    validate,
)
from .smith import SmithForm, smith_normal_form, solution_count_mod
from .solver import (
    DEFAULT_CAP,
    ColoringSystem,
    brute_force_colorings,
    build_system,
    count_solutions,
    enumerate_solutions,
)

__version__ = "0.1.0"

__all__ = [
    "AlexanderParams",
    "AxiomError",
    "CATALOG",
    "CapExceededError",
    "CatalogEntry",
    "ColoringSystem",
    "ComparisonCell",
    "Crossing",
    "DEFAULT_CAP",
    "DiagramError",
    "DistinguishabilityReport",
    "FiniteQuandle",
    "IdempotenceError",
    "InputError",
    "LinkDiagram",
    "NotAUnitError",
    "PDCodeError",
    "PhiPolynomial",
    "QuandleColorError",
    "QuandlePresentation",
    "QuandleTableError",
    "RelationSyntaxError",
    "RightInvertibilityError",
    "SelfDistributivityError",
    "SmithForm",
    "UnknownLinkError",
    "alexander",
    "all_colorings",
    "brute_force_colorings",
    "build_system",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "compare",
    "connected_sum",
    "count_solutions",
    "counting_invariant",
    "enumerate_solutions",
    "extract",
    "involutory_units",
    "parse_pd_code",
    "parse_quandle_file",
    "parse_relations_file",
    "phi_polynomial",
    "reidemeister_r1",
    "reidemeister_r2",
    "smith_normal_form",
    "solution_count_mod",
    "units",
    "validate",
]
