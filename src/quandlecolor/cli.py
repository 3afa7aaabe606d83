"""Command-line front end.

Subcommands: ``catalog``, ``relations``, ``validate-quandle``, ``colorings``,
``phi``, ``compare``, and ``matrix``.  Default output is human-readable;
``--format json`` emits a machine-readable document (command echo, inputs,
results, exit status) whose numbers round-trip exactly.  Exit codes: 0 on
success (compare verdicts are data, never exit codes), 1 when the reader
closes stdout early, 2 for parse or validation errors, 3 when an
enumeration cap is exceeded, 4 for a non-unit multiplier.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .catalog import CATALOG, catalog_entry, catalog_names
from .diagram import _PD_SKIP, LinkDiagram, parse_pd_code, parse_relations_file
from .errors import CapExceededError, NotAUnitError, QuandleColorError, UnknownLinkError
from .invariants import (
    VERDICTS,
    ComparisonCell,
    PhiPolynomial,
    all_colorings,
    compare_cells,
    counting_invariant,
    phi_polynomial,
)
from .presentation import extract
from .quandle import FiniteQuandle, alexander, parse_quandle_file
from .smith import smith_normal_form
from .solver import DEFAULT_CAP, build_system


class UsageError(QuandleColorError):
    """Bad flag combination; maps to exit code 2."""


def _resolve_link(target: str) -> tuple[str, LinkDiagram]:
    """A link argument is a catalog name or a path to a relations/PD file."""
    if target in CATALOG:
        return target, CATALOG[target].diagram
    path = Path(target)
    if path.is_file():
        text = path.read_text(encoding="utf-8-sig")
        # a PD code is a file whose first term, past whitespace and comments, opens X( or x(
        if text.startswith(("X(", "x("), _PD_SKIP.match(text).end()):
            return target, parse_pd_code(text)
        return target, parse_relations_file(text)
    raise UnknownLinkError(f"{target!r} is neither a catalog name nor a readable file")


def _check_modulus(n: int) -> None:
    if n < 2:
        raise UsageError("moduli must be >= 2")


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise UsageError("--cap must be >= 0")


def _alexander_flags(args, missing: str) -> FiniteQuandle:
    """alexander(--n, --t): UsageError(missing) unless both are given, then n >= 2."""
    if args.n is None or args.t is None:
        raise UsageError(missing)
    _check_modulus(args.n)
    return alexander(args.n, args.t)


def _resolve_quandle(args) -> tuple[FiniteQuandle, dict]:
    has_params = args.n is not None or args.t is not None
    if args.quandle_file is not None:
        if has_params:
            raise UsageError("give either --n/--t or --quandle-file, not both")
        text = Path(args.quandle_file).read_text(encoding="utf-8-sig")
        return parse_quandle_file(text), {"quandle_file": args.quandle_file}
    q = _alexander_flags(args, "need both --n and --t (or a --quandle-file)")
    return q, {"n": args.n, "t": args.t}


def _emit(args, doc: Callable[[], dict], human: Callable[[], Iterable[str]]) -> None:
    """Print the JSON document or the text lines, whichever --format asks for.

    Each comes from a function called only when its output is printed, so
    the other is never built.  Every command but ``compare``, which streams
    its cells (see cmd_compare), prints through here.
    """
    if args.format == "json":
        print(json.dumps(doc(), indent=2, sort_keys=True))
    else:
        for line in human():
            print(line)


def _document(command: str, inputs: dict, results: dict) -> dict:
    return {"command": command, "inputs": inputs, "results": results, "exit_status": 0}


def cmd_catalog(args) -> int:
    entries = [(name, catalog_entry(name)) for name in catalog_names()]
    _emit(
        args,
        lambda: _document("catalog", {}, {"links": [
            {
                "name": name,
                "arcs": entry.diagram.arc_count,
                "crossings": entry.diagram.crossing_count,
                "components": entry.expected_components,
            }
            for name, entry in entries
        ]}),
        lambda: [
            f"{name} {entry.diagram.arc_count} arcs {entry.diagram.crossing_count} crossings "
            f"{entry.expected_components} components"
            for name, entry in entries
        ],
    )
    return 0


def cmd_relations(args) -> int:
    name, diagram = _resolve_link(args.link)
    text = diagram.render_relations()
    _emit(args, lambda: _document("relations", {"link": name}, {"relations": text}),
          lambda: [text.rstrip("\n")])
    return 0


def cmd_validate_quandle(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8-sig")
    q = parse_quandle_file(text)
    involutory = q.is_involutory()
    _emit(
        args,
        lambda: _document(
            "validate-quandle",
            {"file": args.file},
            {"valid": True, "order": q.order, "involutory": involutory},
        ),
        lambda: [f"valid quandle of order {q.order} (involutory: {'yes' if involutory else 'no'})"],
    )
    return 0


def cmd_colorings(args) -> int:
    _check_cap(args.cap)
    name, diagram = _resolve_link(args.link)
    p = extract(diagram)
    q, quandle_inputs = _resolve_quandle(args)
    inputs = {"link": name, "cap": args.cap, **quandle_inputs}
    results: dict = {}
    if args.enumerate:
        results["colorings"] = all_colorings(p, q, args.cap)
        results["count"] = len(results["colorings"])
    else:
        results["count"] = counting_invariant(p, q, args.cap)
    _emit(args, lambda: _document("colorings", inputs, results), lambda: [
        f"count: {results['count']}", *(" ".join(map(str, c)) for c in results.get("colorings", ()))
    ])
    return 0


def cmd_phi(args) -> int:
    _check_cap(args.cap)
    name, diagram = _resolve_link(args.link)
    p = extract(diagram)
    q = _alexander_flags(args, "phi needs both --n and --t")
    poly = phi_polynomial(p, q, args.cap)
    inputs = {"link": name, "n": args.n, "t": args.t, "cap": args.cap}
    results = {"terms": [list(term) for term in poly.terms], "count": poly.total()}
    _emit(args, lambda: _document("phi", inputs, results), lambda: [str(poly)])
    return 0


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--n expects integers like '2,3,5,7', got {text!r}") from None
    if not values:
        raise UsageError("--n expects at least one modulus")
    _check_modulus(min(values))
    return values


def _parse_t_policy(text: str):
    if text in ("all-units", "involutory"):
        return text
    try:
        return int(text)
    except ValueError:
        raise UsageError(
            f"--t expects 'all-units', 'involutory', or an integer, got {text!r}"
        ) from None


def _text_phi(phi: PhiPolynomial | None) -> str:
    return "-" if phi is None else str(phi)


def _compare_text(cells: Iterable[ComparisonCell], name_a: str, name_b: str) -> Iterator[str]:
    """The text report: a header line, a line per cell, then the verdict."""
    yield f"compare {name_a} vs {name_b}\n"
    distinguished = False
    for cell in cells:
        distinguished = distinguished or cell.differs
        yield (f"n={cell.n} t={cell.t} count_a={cell.count_a} count_b={cell.count_b} "
               f"phi_a=({_text_phi(cell.phi_a)}) phi_b=({_text_phi(cell.phi_b)})\n")
    yield f"verdict: {VERDICTS[distinguished]}\n"


def _json_phi(phi: PhiPolynomial | None) -> str:
    """A cell's polynomial as json.dumps(indent=2) lays out its [exponent, coefficient] pairs.

    It is never empty: a cell's n constant colorings give it a q^1 term.
    """
    if phi is None:
        return "null"
    pairs = ",".join(f"\n          [\n            {e},\n            {c}\n          ]"
                     for e, c in phi.terms)
    return f"[{pairs}\n        ]"


def _compare_json(
    cells: Iterable[ComparisonCell], name_a: str, name_b: str, n_values: list[int],
    policy: str, cap: int,
) -> Iterator[str]:
    """The bytes of ``json.dumps(document, indent=2, sort_keys=True)``, one cell at a time.

    Sorted keys put ``results`` last at the top and ``grid`` first in it,
    and every other value is known before the grid, but the verdict: so
    the head, each cell and then the tail are written with the fixed layout
    below.  Strings go through json.dumps, which escapes them as the
    document would.
    """
    link_a, link_b, t_policy = map(json.dumps, (name_a, name_b, policy))
    ns = ",\n".join(f"      {n}" for n in n_values)
    yield (f'{{\n  "command": "compare",\n  "exit_status": 0,\n  "inputs": {{\n'
           f'    "cap": {cap},\n    "link_a": {link_a},\n    "link_b": {link_b},\n'
           f'    "n": [\n{ns}\n    ],\n    "t_policy": {t_policy}\n  }},\n'
           f'  "results": {{\n    "grid": [')
    distinguished, separator = False, ""
    for cell in cells:
        distinguished = distinguished or cell.differs
        yield (f'{separator}\n      {{\n        "count_a": {cell.count_a},\n'
               f'        "count_b": {cell.count_b},\n        "n": {cell.n},\n'
               f'        "phi_a": {_json_phi(cell.phi_a)},\n'
               f'        "phi_b": {_json_phi(cell.phi_b)},\n        "t": {cell.t}\n      }}')
        separator = ","
    close = "\n    ]" if separator else "]"
    yield (f'{close},\n    "link_a": {link_a},\n    "link_b": {link_b},\n'
           f'    "t_policy": {t_policy},\n    "verdict": {json.dumps(VERDICTS[distinguished])}\n'
           f'  }}\n}}\n')


def cmd_compare(args) -> int:
    _check_cap(args.cap)
    name_a, diagram_a = _resolve_link(args.link_a)
    name_b, diagram_b = _resolve_link(args.link_b)
    n_values = _parse_n_list(args.n)
    policy = _parse_t_policy(args.t)
    # compare_cells raises every error before its first cell, and the output
    # opens with exit_status 0: so nothing is written before this call, and
    # after it each cell is written as it is made, none kept
    cells = compare_cells(extract(diagram_a), extract(diagram_b), n_values, policy, args.cap)
    if args.format == "json":
        sys.stdout.writelines(_compare_json(cells, name_a, name_b, n_values, str(policy), args.cap))
    else:
        sys.stdout.writelines(_compare_text(cells, name_a, name_b))
    return 0


def cmd_matrix(args) -> int:
    name, diagram = _resolve_link(args.link)
    params = _alexander_flags(args, "matrix needs both --n and --t").alexander
    system = build_system(extract(diagram), params)
    snf = smith_normal_form(system.matrix, cols=system.cols)
    reduced = snf.diagonal_matrix()

    def block(matrix) -> list[str]:
        lines = [f"{system.rows} {system.cols} {params.n} {params.t}"]
        lines.extend(" ".join(str(v) for v in row) for row in matrix)
        return lines

    _emit(
        args,
        lambda: _document(
            "matrix",
            {"link": name, "n": args.n, "t": args.t},
            {
                "rows": system.rows,
                "cols": system.cols,
                "matrix": [list(r) for r in system.matrix],
                "reduced": [list(r) for r in reduced],
                "diagonal": list(snf.diagonal),
            },
        ),
        lambda: block(system.matrix) + [""] + block(reduced),
    )
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call of main.

    ``parse_args`` keeps no state in it, and argparse reads the streams and
    the terminal width only when it prints, so every call prints what a new
    parser would (``prog`` is fixed, not taken from sys.argv).
    """
    parser = argparse.ArgumentParser(
        prog="quandlecolor",
        description="Quandle coloring invariants of oriented link diagrams.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, link_args=1, quandle=False, phi_style=False, cap=True):
        if link_args == 1:
            sp.add_argument("link", help="catalog name or relations/PD file path")
        elif link_args == 2:
            sp.add_argument("link_a")
            sp.add_argument("link_b")
        if quandle or phi_style:
            sp.add_argument("--n", type=int, default=None, help="modulus of Z_n")
            sp.add_argument("--t", type=int, default=None, help="unit multiplier t")
        if quandle:
            sp.add_argument(
                "--quandle-file", default=None, help="path to a quandle table file"
            )
        if cap:
            sp.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_CAP,
                help=f"enumeration cap (default {DEFAULT_CAP})",
            )
        sp.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default text)",
        )

    sp = sub.add_parser("catalog", help="list the built-in links")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("relations", help="print a link's crossing relations")
    add_common(sp, cap=False)
    sp.set_defaults(func=cmd_relations)

    sp = sub.add_parser("validate-quandle", help="check a quandle table file")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_validate_quandle)

    sp = sub.add_parser("colorings", help="count (and list) colorings of a link")
    add_common(sp, quandle=True)
    sp.add_argument(
        "--enumerate", action="store_true", help="also list the assignments"
    )
    sp.set_defaults(func=cmd_colorings)

    sp = sub.add_parser("phi", help="enhanced coloring polynomial of a link")
    add_common(sp, phi_style=True)
    sp.set_defaults(func=cmd_phi)

    sp = sub.add_parser("compare", help="sweep two links over an (n, t) grid")
    add_common(sp, link_args=2)
    sp.add_argument("--n", required=True, help="comma-separated moduli, e.g. 2,3,5,7")
    sp.add_argument(
        "--t",
        default="all-units",
        help="'all-units', 'involutory', or a fixed integer t (default all-units)",
    )
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("matrix", help="dump the coloring system before/after reduction")
    add_common(sp, phi_style=True, cap=False)
    sp.set_defaults(func=cmd_matrix)

    return parser


def main(argv=None) -> int:
    # counts print exactly at any size: lift Python's cap on int <-> str
    # digits (where the running Python has one) for this call only
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed pipe is met here, not in the exit flush
        return status
    except BrokenPipeError:
        # the reader closed stdout (`| head`), which is no bad input: as the
        # "Note on SIGPIPE" in Python's signal docs advises, point stdout's fd,
        # if it has one, at devnull so the exit flush is quiet, and exit 1
        with contextlib.suppress(AttributeError, ValueError):  # no real fd
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 1
    except (QuandleColorError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, NotAUnitError) else 3 if isinstance(exc, CapExceededError) else 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
