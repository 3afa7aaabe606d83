"""Command-line interface: output formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

from quandlecolor import (
    alexander,
    catalog,
    catalog_names,
    compare,
    extract,
    parse_relations_file,
    units,
)
from quandlecolor.cli import build_parser, main

from conftest import (
    compare_document,
    compare_lines,
    grown,
    run_cli_limited,
    run_python_limited,
    start_cli_limited,
    table_text,
    transpositions,
    trivial,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    lines = out.splitlines()
    assert "allen_swenberg 45 arcs 45 crossings 3 components" in lines
    assert "hopf_sum 4 arcs 4 crossings 3 components" in lines
    assert "unknot 1 arcs 0 crossings 1 components" in lines


def test_catalog_json_round_trip(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "catalog"
    assert doc["exit_status"] == 0
    by_name = {row["name"]: row for row in doc["results"]["links"]}
    assert by_name["allen_swenberg"]["crossings"] == 45
    assert by_name["unlink2"]["components"] == 2


def test_colorings_count(capsys):
    code, out, _ = run(capsys, "colorings", "trefoil", "--n", "3", "--t", "2")
    assert code == 0
    assert out.splitlines()[0] == "count: 9"


def test_colorings_more_examples(capsys):
    code, out, _ = run(capsys, "colorings", "hopf_sum", "--n", "5", "--t", "3")
    assert (code, out.splitlines()[0]) == (0, "count: 5")
    code, out, _ = run(capsys, "colorings", "unknot", "--n", "7", "--t", "2")
    assert (code, out.splitlines()[0]) == (0, "count: 7")


def test_colorings_enumerate(capsys):
    code, out, _ = run(
        capsys, "colorings", "trefoil", "--n", "3", "--t", "2", "--enumerate"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count: 9"
    assert len(lines) == 10
    assert "0 1 2" in lines


def test_colorings_json_numbers_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "colorings", "trefoil", "--n", "3", "--t", "2", "--enumerate",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["results"]["count"] == 9
    assert len(doc["results"]["colorings"]) == 9
    assert [0, 1, 2] in doc["results"]["colorings"]
    assert doc["inputs"] == {"link": "trefoil", "n": 3, "t": 2, "cap": 1000000}


def test_colorings_quandle_file(tmp_path, capsys):
    path = tmp_path / "q.txt"
    path.write_text("order: 3\n0 2 1\n2 1 0\n1 0 2\n")  # takasaki(3)
    code, out, _ = run(capsys, "colorings", "trefoil", "--quandle-file", str(path))
    assert code == 0
    assert out.splitlines()[0] == "count: 9"


def test_colorings_flag_conflicts(capsys, tmp_path):
    code, _, err = run(capsys, "colorings", "trefoil")
    assert code == 2 and "need both" in err
    code, _, err = run(capsys, "colorings", "trefoil", "--n", "3")
    assert code == 2
    table = tmp_path / "trivial1.txt"
    table.write_text("order: 1\n0\n")
    for argv, message in (
        (("colorings", "trefoil", "--n", "3", "--t", "2", "--quandle-file", str(table)),
         "give either --n/--t or --quandle-file, not both"),
        (("phi", "trefoil", "--n", "3"), "phi needs both --n and --t"),
        (("matrix", "trefoil", "--n", "3"), "matrix needs both --n and --t"),
        (("compare", "trefoil", "hopf", "--n", " , "), "--n expects at least one modulus"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_modulus_below_2_is_a_usage_error(capsys):
    for argv in (
        ("colorings", "trefoil", "--n", "1", "--t", "1"),
        ("phi", "trefoil", "--n", "0", "--t", "1"),
        ("matrix", "trefoil", "--n", "1", "--t", "0"),
        ("compare", "unknot", "trefoil", "--n", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: moduli must be >= 2\n"


def test_n_t_checks_run_in_one_order(capsys, monkeypatch, tmp_path):
    # for each command that reads --n and --t: the cap, then the link, then
    # a missing flag, then the modulus, then whether t is a unit
    monkeypatch.chdir(tmp_path)  # no file named nosuch
    unknown = "'nosuch' is neither a catalog name nor a readable file"
    for command, missing in (
        ("colorings", "need both --n and --t (or a --quandle-file)"),
        ("phi", "phi needs both --n and --t"),
        ("matrix", "matrix needs both --n and --t"),
    ):
        cases = [
            (("nosuch", "--n", "3"), 2, unknown),
            (("trefoil", "--n", "1"), 2, missing),
            (("trefoil", "--n", "1", "--t", "2"), 2, "moduli must be >= 2"),
            (("trefoil", "--n", "4", "--t", "2"), 4, "t=2 is not a unit modulo n=4"),
        ]
        if command != "matrix":  # matrix takes no --cap
            cases.append((("nosuch", "--n", "1", "--t", "2", "--cap", "-1"), 2,
                          "--cap must be >= 0"))
        for argv, status, message in cases:
            assert run(capsys, command, *argv) == (status, "", f"error: {message}\n"), argv


def test_negative_cap_is_a_usage_error(capsys):
    for argv in (
        ("colorings", "trefoil", "--n", "3", "--t", "2", "--enumerate", "--cap", "-1"),
        ("colorings", "trefoil", "--n", "3", "--t", "2", "--cap", "-1"),
        ("phi", "trefoil", "--n", "3", "--t", "2", "--cap", "-1"),
        ("compare", "hopf_sum", "trefoil", "--n", "3", "--cap", "-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: --cap must be >= 0\n"
    # cap 0 keeps its meaning: compare gives counts only, enumeration is over the cap
    code, out, _ = run(
        capsys, "compare", "unknot", "trefoil", "--n", "3", "--t", "2", "--cap", "0"
    )
    assert code == 0
    assert "count_a=3 count_b=9 phi_a=(-) phi_b=(-)" in out
    code, _, err = run(
        capsys, "colorings", "trefoil", "--n", "3", "--t", "2", "--enumerate", "--cap", "0"
    )
    assert code == 3 and "exceed" in err


def test_exit_code_not_a_unit(capsys):
    code, _, err = run(capsys, "colorings", "trefoil", "--n", "4", "--t", "2")
    assert code == 4
    assert "not a unit" in err


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run(
        capsys, "colorings", "trefoil", "--n", "3", "--t", "2",
        "--enumerate", "--cap", "1",
    )
    assert code == 3
    assert "exceed" in err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("x1 = x1 + x1\n")
    code, _, err = run(capsys, "colorings", str(bad), "--n", "3", "--t", "2")
    assert code == 2
    assert "line 1" in err
    # a non-ASCII digit in an arc index is a syntax error, not a traceback
    bad.write_text("x\u00b2 = x1 * x1\n", encoding="utf-8")
    code, out, err = run(capsys, "colorings", str(bad), "--n", "3", "--t", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1, column 2:")
    # a file that is not UTF-8 is a clean error, not a decode traceback
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe")
    for argv in (
        ("relations", str(binary)),
        ("colorings", "trefoil", "--quandle-file", str(binary)),
        ("validate-quandle", str(binary)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "decode" in err


def test_unknown_link(capsys):
    code, _, err = run(capsys, "colorings", "borromean", "--n", "3", "--t", "2")
    assert code == 2
    assert "catalog" in err


def test_link_from_relations_file(tmp_path, capsys):
    path = tmp_path / "trefoil.rel"
    path.write_text("x3 = x1 * x2\nx2 = x3 * x1\nx1 = x2 * x3\n")
    code, out, _ = run(capsys, "colorings", str(path), "--n", "3", "--t", "2")
    assert code == 0
    assert out.splitlines()[0] == "count: 9"


def test_link_from_pd_file(tmp_path, capsys):
    path = tmp_path / "trefoil.pd"
    # '#' comments, leading or trailing, are read past as in relations files
    for text in (
        "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)\n",
        "# trefoil\nX(1,5,2,4) X(3,1,4,6) X(5,3,6,2)\n",
        "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)  # note\n",
    ):
        path.write_text(text)
        code, out, _ = run(capsys, "phi", str(path), "--n", "3", "--t", "2")
        assert code == 0
        assert out.strip() == "3*q^1 + 6*q^3"
    path.write_text("# trefoil\nX(1,5,2,4) X(3,1,4,6) X(5,3,6)\n")
    code, out, err = run(capsys, "phi", str(path), "--n", "3", "--t", "2")
    assert (code, out, err) == (2, "", "error: malformed quadruple at offset 33\n")


TREFOIL_PD = "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)\n"
KINK = "x1 = x1 * x1\n"
PD, RELATIONS = (0, "count: 9\n", ""), (0, "count: 3\n", "")  # the trefoil and the kink at (3, 2)
RELATION_ERROR = (2, "", "error: line 1, column 1: expected arc reference 'x<index>'\n")


# a file is a PD code when its first term, past whitespace and comments, opens X( or x(
@pytest.mark.parametrize("text, outcome", [
    pytest.param(TREFOIL_PD, PD, id="pd"),
    pytest.param("# trefoil\n# X(1,1,2,2)\n" + TREFOIL_PD, PD, id="comment-lines"),
    pytest.param("# ends at any line break\x85" + TREFOIL_PD, PD, id="comment-to-nel"),
    pytest.param("\n\n  \t\n" + TREFOIL_PD, PD, id="blank-lines"),
    pytest.param("\u00a0\u2003\u3000" + TREFOIL_PD, PD, id="unicode-whitespace"),
    pytest.param("x" + TREFOIL_PD[1:], PD, id="lower-case"),
    pytest.param("  # c\n  x" + TREFOIL_PD[1:], PD, id="comment-then-lower-case"),
    pytest.param(KINK + "# X(1,5,2,4)\n", RELATIONS, id="relations"),
    pytest.param("# X(1,5,2,4)\n" + KINK, RELATIONS, id="relations-after-a-pd-comment"),
    pytest.param("X " + TREFOIL_PD[1:], RELATION_ERROR, id="space-before-paren"),
    pytest.param("X\n" + TREFOIL_PD[1:], RELATION_ERROR, id="break-before-paren"),
])
def test_link_file_format_is_chosen_by_its_first_term(tmp_path, capsys, text, outcome):
    path = tmp_path / "link.txt"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "colorings", str(path), "--n", "3", "--t", "2") == outcome


def test_files_may_open_with_a_byte_order_mark(tmp_path, capsys):
    bom = b"\xef\xbb\xbf"
    relations, pd, table = tmp_path / "t.rel", tmp_path / "t.pd", tmp_path / "q.txt"
    relations.write_bytes(bom + b"x3 = x1 * x2\nx2 = x3 * x1\nx1 = x2 * x3\n")
    pd.write_bytes(bom + TREFOIL_PD.encode())
    table.write_bytes(bom + b"order: 3\n0 2 1\n2 1 0\n1 0 2\n")
    for path in (relations, pd):
        assert run(capsys, "colorings", str(path), "--n", "3", "--t", "2") == PD
    assert run(capsys, "colorings", "trefoil", "--quandle-file", str(table)) == PD
    assert run(capsys, "validate-quandle", str(table)) == (
        0, "valid quandle of order 3 (involutory: yes)\n", ""
    )


def test_phi_output(capsys):
    code, out, _ = run(capsys, "phi", "trefoil", "--n", "3", "--t", "2")
    assert code == 0
    assert out.strip() == "3*q^1 + 6*q^3"
    code, out, _ = run(capsys, "phi", "allen_swenberg", "--n", "3", "--t", "2")
    assert code == 0
    assert out.strip() == "3*q^1"
    code, out, _ = run(capsys, "phi", "unlink2", "--n", "2", "--t", "1")
    assert code == 0
    assert out.strip() == "2*q^1 + 2*q^2"


def test_phi_json(capsys):
    code, out, _ = run(capsys, "phi", "trefoil", "--n", "3", "--t", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["results"]["terms"] == [[1, 3], [3, 6]]
    assert doc["results"]["count"] == 9


def test_relations_round_trip(capsys):
    from quandlecolor import catalog, parse_relations_file

    code, out, _ = run(capsys, "relations", "hopf_sum")
    assert code == 0
    assert parse_relations_file(out) == catalog("hopf_sum")
    assert out.splitlines()[0] == "x2 = x3 * x1"


def test_validate_quandle_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("order: 3\n0 2 1\n2 1 0\n1 0 2\n")
    code, out, _ = run(capsys, "validate-quandle", str(good))
    assert code == 0
    assert "valid quandle of order 3" in out
    assert "involutory: yes" in out
    code, out, _ = run(capsys, "validate-quandle", str(good), "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "command": "validate-quandle",
        "inputs": {"file": str(good)},
        "results": {"valid": True, "order": 3, "involutory": True},
        "exit_status": 0,
    }

    bad = tmp_path / "bad.txt"
    bad.write_text("order: 2\n0 1\n1 1\n")  # column 1 repeats
    code, _, err = run(capsys, "validate-quandle", str(bad))
    assert code == 2
    assert "bijection" in err

    big = tmp_path / "big.txt"
    big.write_text("order: 2\n0 99999999999999999999\n1 1\n")  # past int64
    for argv in (
        ("validate-quandle", str(big)),
        ("colorings", "trefoil", "--quandle-file", str(big)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: table entries must lie in [0, 1]\n"

    # ASCII digits only: int() would read this order as 3
    arabic = tmp_path / "arabic.txt"
    arabic.write_text("order: \u0663\n0 2 1\n2 1 0\n1 0 2\n", encoding="utf-8")
    for argv in (
        ("validate-quandle", str(arabic)),
        ("colorings", "trefoil", "--quandle-file", str(arabic)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: first line must be 'order: <m>'\n"


def test_compare_verdicts_and_exit_codes(capsys):
    code, out, _ = run(
        capsys, "compare", "hopf_sum", "allen_swenberg", "--n", "2,3", "--t", "all-units"
    )
    assert code == 0
    assert out.splitlines()[-1] == "verdict: not distinguished"

    code, out, _ = run(capsys, "compare", "unknot", "trefoil", "--n", "3", "--t", "2")
    assert code == 0  # verdict is data, not an error
    assert out.splitlines()[-1] == "verdict: distinguished"

    code, out, _ = run(
        capsys, "compare", "hopf_sum", "allen_swenberg", "--n", "3,5", "--t", "involutory"
    )
    assert code == 0
    assert out.splitlines()[-1] == "verdict: not distinguished"


@pytest.mark.parametrize("n, roots", [
    (1000000000000000003, [1, 1000000000000000002]),  # a prime
    # (10**9 + 7) * (10**9 + 9): +-1 modulo each prime, combined
    (1000000016000000063, [1, 1000000008, 1000000015000000055, 1000000016000000062]),
])
def test_involutory_compare_at_n_near_10_to_18(n, roots):
    # n is factored by Miller-Rabin and rho past trial division, so each
    # answers within 5 s, where trial division up to sqrt(n) took about 70 s
    with start_cli_limited("compare", "hopf_sum", "allen_swenberg", "--n", str(n),
                           "--t", "involutory", "--format", "json") as child:
        try:
            out, err = child.communicate(timeout=5)
        finally:
            child.kill()
    assert (child.returncode, err) == (0, "")
    assert [(cell["n"], cell["t"]) for cell in json.loads(out)["results"]["grid"]] == [
        (n, t) for t in roots
    ]


def test_involutory_compare_past_the_rho_bound_exits_2():
    # (10**15 + 37) * (2 * 10**15 + 21): rho would need tens of millions of
    # steps (27 s with no bound), so it stops at _RHO_STEPS, about 1 s
    n = (10**15 + 37) * (2 * 10**15 + 21)
    with start_cli_limited("compare", "hopf_sum", "allen_swenberg", "--n", str(n),
                           "--t", "involutory") as child:
        try:
            out, err = child.communicate(timeout=5)
        finally:
            child.kill()
    assert (child.returncode, out) == (2, "")
    assert err == f"error: cannot factor n: rho found no factor of its part {n} in 1048576 steps\n"


def test_compare_json_document(capsys):
    code, out, _ = run(
        capsys,
        "compare", "unknot", "trefoil", "--n", "3", "--t", "2", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["results"]["verdict"] == "distinguished"
    assert doc["results"]["grid"][0]["count_b"] == 9
    assert doc["inputs"]["n"] == [3]


def test_compare_count_only_cells_and_the_phi_cap(capsys):
    # a cell past the cap on one side prints both exact counts and no
    # polynomial, in either order; at the cap both polynomials print
    for cap, unknot_phi, trefoil_phi in (("5", "-", "-"), ("9", "3*q^1", "3*q^1 + 6*q^3")):
        for a, b, counts, phis in (
            ("unknot", "trefoil", "count_a=3 count_b=9", (unknot_phi, trefoil_phi)),
            ("trefoil", "unknot", "count_a=9 count_b=3", (trefoil_phi, unknot_phi)),
        ):
            code, out, _ = run(capsys, "compare", a, b, "--n", "3", "--t", "2", "--cap", cap)
            assert code == 0
            assert out.splitlines()[1:] == [
                "n=3 t=2 {} phi_a=({}) phi_b=({})".format(counts, *phis),
                "verdict: distinguished",
            ]
    code, out, _ = run(capsys, "compare", "hopf_sum", "allen_swenberg", "--n", "23", "--t", "1",
                       "--cap", "1000")
    assert code == 0
    assert out.splitlines()[1] == "n=23 t=1 count_a=12167 count_b=12167 phi_a=(-) phi_b=(-)"
    code, out, err = run(capsys, "phi", "allen_swenberg", "--n", "23", "--t", "1", "--cap", "1000")
    assert (code, out, err) == (3, "", "error: 12167 colorings exceed cap 1000\n")


def test_trivial_cells_at_the_cap_boundary(capsys):
    # at t = 1, and at t = 4 mod 3, the quandle is trivial: each of the 3
    # components of hopf_sum and allen_swenberg takes any color, n**3
    # colorings; one cap below that, phi exits 3 with the exact count and
    # compare keeps both counts and no polynomial
    for n, t, phi in (("23", "1", "23*q^1 + 1518*q^2 + 10626*q^3"),
                      ("3", "4", "3*q^1 + 18*q^2 + 6*q^3")):
        count = int(n) ** 3
        for cap, expected, shown in ((count, (0, phi + "\n", ""), phi),
                                     (count - 1, (3, "", f"error: {count} colorings exceed cap "
                                                         f"{count - 1}\n"), "-")):
            assert run(capsys, "phi", "hopf_sum", "--n", n, "--t", t, "--cap", str(cap)) == expected
            code, out, _ = run(capsys, "compare", "hopf_sum", "allen_swenberg", "--n", n, "--t", t,
                               "--cap", str(cap))
            assert code == 0
            assert out.splitlines()[1:] == [
                f"n={n} t=1 count_a={count} count_b={count} phi_a=({shown}) phi_b=({shown})",
                "verdict: not distinguished",
            ]


HEADLINE_GRID_SHA256 = {
    "all-units": "ac95986402b6327cb30f1092028bfd7f33183b86d8e4bf83aef29311055595ad",
    "involutory": "0fb812858d58dbdc9872076d7ced738fde58041790bc94900ae32ba7b38a343a",
}


@pytest.mark.parametrize("policy", sorted(HEADLINE_GRID_SHA256))
def test_compare_headline_grid_bytes(capsys, policy):
    # the paper's sweep over n = 2..23, byte for byte as first recorded
    grid = ",".join(str(n) for n in range(2, 24))
    code, out, _ = run(capsys, "compare", "hopf_sum", "allen_swenberg", "--n", grid,
                       "--t", policy, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HEADLINE_GRID_SHA256[policy]


def _link(target: str):
    """A compare argument's diagram: a catalog name or a relations file."""
    if target in catalog_names():
        return catalog(target)
    return parse_relations_file(Path(target).read_text(encoding="utf-8"))


def test_compare_streams_the_bytes_of_the_whole_document(capsys, tmp_path):
    # each document written cell by cell equals json.dumps of the whole
    # report's dict, and each text report the lines of the whole report
    odd = tmp_path / 'tr\u00e9"fo\\il \u2603.rel'
    odd.write_text(catalog("trefoil").render_relations(), encoding="utf-8")
    cases = [
        ("hopf_sum", "allen_swenberg", "23,5", "1", "1000"),  # a count-only cell and one not
        ("unknot", "trefoil", "3,4,5", "all-units", "0"),  # count-only throughout
        ("hopf_sum", str(odd), "4,3,4,2,3", "all-units", "1000000"),  # unsorted, repeated
        (str(odd), "unknot", "8,12,9", "involutory", "1000000"),
        ("hopf_sum", "allen_swenberg", "7,5,3", "-1", "1000000"),  # a fixed t
        ("unknot", "trefoil", "3", "2", "1000000"),  # a grid of one cell
    ]
    for a, b, n, t, cap in cases:
        n_values = [int(v) for v in n.split(",")]
        policy = t if t in ("all-units", "involutory") else int(t)
        report = compare(extract(_link(a)), extract(_link(b)), n_values, policy, int(cap),
                         link_a=a, link_b=b)
        argv = ["compare", a, b, "--n", n, "--t", t, "--cap", cap]
        assert run(capsys, *argv, "--format", "json") == (
            0, compare_document(report, n_values, int(cap)), "")
        code, out, err = run(capsys, *argv)
        assert (code, out.splitlines(), err) == (0, compare_lines(report), "")


def test_compare_writes_nothing_before_a_late_error(capsys):
    # t = 2 is a unit mod 3 but not mod 4: the error comes before any byte
    for fmt in ("text", "json"):
        assert run(capsys, "compare", "hopf_sum", "trefoil", "--n", "3,4", "--t", "2",
                   "--format", fmt) == (4, "", "error: t=2 is not a unit modulo n=4\n")



@pytest.mark.parametrize("fmt, first", [("text", "compare hopf_sum vs allen_swenberg"), ("json", "{")])
def test_a_closed_stdout_exits_1_quietly(fmt, first):
    # the reader takes one line and closes the pipe, as `| head -n 1` does,
    # while the grid is still being written: a closed pipe is no bad input
    # (exit 2), so the CLI exits 1 with nothing on stderr, as Python's
    # recipe for SIGPIPE does
    with start_cli_limited("compare", "hopf_sum", "allen_swenberg", "--n", "2003",
                           "--format", fmt) as child:
        assert child.stdout.readline() == first + "\n"
        child.stdout.close()
        assert (child.wait(timeout=60), child.stderr.read()) == (1, "")



def test_a_closed_stdout_with_no_fd_exits_1_quietly(capsys, monkeypatch):
    # a library caller's stdout may be no file: nothing is pointed at devnull
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["compare", "hopf_sum", "allen_swenberg", "--n", "5"]) == 1
    assert capsys.readouterr().err == ""

def test_compare_holds_one_cell_at_a_time():
    # the output of a 210-cell grid goes to os.devnull; the CLI keeps no
    # grid, so its peak of traced memory does not grow with the grid: 0.03 MB
    # streamed, where holding the report and its encoded document took
    # 0.60 MB (and 6.1 MB at n = 2003).  Tracing makes each cell about 14
    # times slower, so the grid is kept small
    argv = ["compare", "hopf_sum", "allen_swenberg", "--n", "211", "--format", "json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(argv[:4] + ["5"] + argv[5:])  # warm: imports and the parser
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 200_000


ENUMERATE_SHA256 = {
    "listings": "aa182144bfa45adf225e4a7ca70ec42b9d094372fa3cbbcf9061f7673c61db52",
    "cap-exceeded": "4e32ef0d487ebb6480108af830c88697ec936d80a3926ca0116c42de597ed1c4",
}


def _enumerate_transcript(capsys, extras) -> str:
    """sha256 of ``colorings --enumerate`` on every catalog link, n = 2..12 and all units.

    Each run adds its argv, exit code, stdout and stderr to the digest.
    ``extras`` lists (expected exit code, flags appended to the argv).
    """
    digest = hashlib.sha256()
    for link in catalog_names():
        for n in range(2, 13):
            for t in units(n):
                argv = ("colorings", link, "--n", str(n), "--t", str(t), "--enumerate")
                for expected, flags in extras:
                    code, out, err = run(capsys, *argv, *flags)
                    assert code == expected, (argv, flags)
                    digest.update(f"{' '.join(argv + flags)}\n{code}\n{out}{err}".encode())
    return digest.hexdigest()


def test_enumerate_listing_bytes(capsys):
    # every listing, as text and as JSON, byte for byte as first recorded
    extras = ((0, ()), (0, ("--format", "json")))
    assert _enumerate_transcript(capsys, extras) == ENUMERATE_SHA256["listings"]


def test_enumerate_cap_exceeded_bytes(capsys):
    # every link has at least n colorings: caps 0 and 1 exit 3, and the
    # error names the exact count
    extras = ((3, ("--cap", "0")), (3, ("--cap", "1")))
    assert _enumerate_transcript(capsys, extras) == ENUMERATE_SHA256["cap-exceeded"]


TABLE_LISTING_SHA256 = {
    "listings": "90d7aa5404dd43a67c982d61c30ef7eccd4ea2149df75a48f2ff6af7af6c6de1",
    "cap-exceeded": "78b92662c4b7077958715e843cb78e3e4d64a947620625a355f945ad492ece1f",
}


def _table_transcript(capsys, tmp_path, monkeypatch, extras) -> str:
    """sha256 of ``colorings --quandle-file --enumerate`` on every catalog link and four tables.

    The tables, written by ``table_text`` and named relative to the working
    directory so the JSON inputs do not hold a temporary path, are the
    transpositions of S4, trivial(3), and Alexander (5, 2) and (9, 2) with
    no (n, t), so every listing takes the brute-force search.  Each run
    adds its argv, exit code, stdout and stderr to the digest.
    """
    monkeypatch.chdir(tmp_path)
    tables = {"s4.txt": transpositions(4), "trivial3.txt": trivial(3),
              "alexander5_2.txt": alexander(5, 2), "alexander9_2.txt": alexander(9, 2)}
    for name, q in tables.items():
        (tmp_path / name).write_text(table_text(q))
    digest = hashlib.sha256()
    for link in catalog_names():
        for name in tables:
            argv = ("colorings", link, "--quandle-file", name, "--enumerate")
            for expected, flags in extras:
                code, out, err = run(capsys, *argv, *flags)
                assert code == expected, (argv, flags)
                digest.update(f"{' '.join(argv + flags)}\n{code}\n{out}{err}".encode())
    return digest.hexdigest()


def test_table_listing_bytes(capsys, tmp_path, monkeypatch):
    extras = ((0, ()), (0, ("--format", "json")))
    assert _table_transcript(capsys, tmp_path, monkeypatch, extras) == TABLE_LISTING_SHA256["listings"]


def test_table_listing_cap_exceeded_bytes(capsys, tmp_path, monkeypatch):
    # every link has at least as many colorings as the table has elements
    extras = ((3, ("--cap", "1")),)
    assert _table_transcript(capsys, tmp_path, monkeypatch, extras) == TABLE_LISTING_SHA256["cap-exceeded"]


def test_compare_bad_flags(capsys):
    code, _, err = run(capsys, "compare", "unknot", "trefoil", "--n", "x", "--t", "2")
    assert code == 2
    code, _, err = run(capsys, "compare", "unknot", "trefoil", "--n", "3", "--t", "sometimes")
    assert code == 2


def test_matrix_dump_format(capsys):
    code, out, _ = run(capsys, "matrix", "hopf_sum", "--n", "3", "--t", "2")
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    before, after = (b.splitlines() for b in blocks)
    assert before[0] == "4 4 3 2" and after[0] == "4 4 3 2"
    assert before[1:] == ["-1 -1 2 0", "0 2 -1 -1", "1 0 -1 0", "0 0 -1 1"]
    diag = [row.split() for row in after[1:]]
    assert [diag[i][i] for i in range(4)] == ["1", "1", "1", "0"]


def test_matrix_json_includes_diagonal(capsys):
    code, out, _ = run(
        capsys, "matrix", "trefoil", "--n", "3", "--t", "2", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["results"]["rows"] == 3
    assert doc["results"]["matrix"][0] == [2, -1, -1]


def test_byte_identical_machine_output(capsys):
    args = ("compare", "hopf_sum", "trefoil", "--n", "2,3", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_counts_print_exactly_past_4300_digits(capsys):
    # (10**1500 + 1)**3 has 4501 digits, past Python's default cap of 4300
    # on int -> str conversion; main lifts the cap for its own call
    n = "1" + "0" * 1499 + "1"
    count = "1" + "0" * 1499 + "3" + "0" * 1499 + "3" + "0" * 1499 + "1"
    code, out, err = run(capsys, "compare", "hopf_sum", "hopf_sum", "--n", n, "--t", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == (
        f"n={n} t=1 count_a={count} count_b={count} phi_a=(-) phi_b=(-)"
    )
    code, out, _ = run(
        capsys, "compare", "hopf_sum", "hopf_sum", "--n", n, "--t", "1", "--format", "json"
    )
    cell = json.loads(out, parse_int=str)["results"]["grid"][0]
    assert (code, cell["count_a"], cell["count_b"]) == (0, count, count)
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is not None:
        # and puts back whatever cap it found
        saved = limit()
        sys.set_int_max_str_digits(5000)
        try:
            run(capsys, "catalog")
            assert limit() == 5000
        finally:
            sys.set_int_max_str_digits(saved)


def test_circles_header_is_bounded(tmp_path):
    # past 4096 circles the header is a syntax error at the count, not a
    # 10**8-column system that ends in a MemoryError
    circles = tmp_path / "circles.txt"
    circles.write_text("circles: 99999999\n")
    done = run_cli_limited("colorings", str(circles), "--n", "3", "--t", "2")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: line 1, column 10: at most 4096 circles allowed\n"


def test_validate_large_table_in_bounded_memory(tmp_path):
    # self-distributivity is checked one x at a time: an order-401 table
    # needs m^2, not m^3, memory
    table = tmp_path / "q401.txt"
    rows = (" ".join(map(str, row)) for row in alexander(401, 3).op)
    table.write_text("order: 401\n" + "\n".join(rows) + "\n")
    done = run_cli_limited("validate-quandle", str(table))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "valid quandle of order 401 (involutory: no)\n"


BIG = "99999999999999999999999"  # 3 * 33333333333333333333333


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("colorings", "trefoil", "--n", "20011", "--t", "3"), (0, "count: 20011\n", "")),
        (("phi", "trefoil", "--n", "20011", "--t", "3"), (0, "20011*q^1\n", "")),
        (
            ("phi", "trefoil", "--n", BIG, "--t", "2"),
            (3, "", "error: 299999999999999999999997 colorings exceed cap 1000000\n"),
        ),
        (
            ("colorings", "trefoil", "--n", BIG, "--t", "3"),
            (4, "", f"error: t=3 is not a unit modulo n={BIG}\n"),
        ),
    ],
    ids=["colorings-20011", "phi-20011", "phi-past-cap", "not-a-unit"],
)
def test_alexander_queries_build_no_table(argv, expected):
    # the linear route reads only (n, t): an n x n table at n = 20011 would
    # need several GB, past the 1 GB limit
    done = run_cli_limited(*argv)
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("phi", "allen_swenberg", "--n", "1000003", "--t", "2", "--cap", "2000000"),
            (0, "1000003*q^1\n", ""),
        ),
        (
            ("phi", "trefoil", "--n", str(2**31 - 1), "--t", "2", "--cap", "10000000000"),
            (0, f"{2**31 - 1}*q^1\n", ""),
        ),
        (
            ("phi", "trefoil", "--n", str(2**40 + 1), "--t", "2", "--cap", "2000000000000"),
            (0, f"{2**40 + 1}*q^1\n", ""),
        ),
    ],
    ids=["allen_swenberg-1000003", "trefoil-2**31-1", "trefoil-2**40+1"],
)
def test_phi_enumerates_one_coloring_per_translation_class(argv, expected):
    # only the n monochromatic colorings exist, and they are one class under
    # x -> x + c: one coloring is enumerated, not n of them; past 2**31 the
    # arithmetic leaves int64
    done = run_cli_limited(*argv)
    assert (done.returncode, done.stdout, done.stderr) == expected


@pytest.mark.parametrize(
    "name, table, expected",
    [
        ("trefoil", "order: 2\n0 0\n1 1\n", (0, "count: 2\n", "")),
        ("allen_swenberg", "order: 3\n0 0 0\n1 1 1\n2 2 2\n", (0, "count: 27\n", "")),
    ],
    ids=["trefoil-1100", "allen_swenberg-1100"],
)
def test_quandle_file_on_1100_arcs(tmp_path, name, table, expected):
    # the brute-force search keeps its own stack: no RecursionError however
    # many arcs, and a trivial table forces every arc of a component
    link = tmp_path / "grown.rel"
    link.write_text(grown(name, 1100, 1).render_relations())
    quandle = tmp_path / "q.txt"
    quandle.write_text(table)
    done = run_cli_limited("colorings", str(link), "--quandle-file", str(quandle))
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_quandle_file_on_4096_circles(tmp_path):
    # 4096 branches, none filtered: the rows waiting on the stack stay within
    # the search's cell budget, where a split of each block alone would hold
    # gigabytes before the first finished block reached the cap
    link = tmp_path / "circles.rel"
    link.write_text("circles: 4096\n")
    quandle = tmp_path / "s5.txt"
    quandle.write_text(table_text(transpositions(5)))
    done = run_cli_limited("colorings", str(link), "--quandle-file", str(quandle), "--cap", "3")
    assert (done.returncode, done.stdout, done.stderr) == (3, "", "error: more than 3 colorings\n")


TAKASAKI_3 = "order: 3\n0 2 1\n2 1 0\n1 0 2\n"
TREFOIL_3_LISTING = "count: 9\n0 0 0\n0 1 2\n0 2 1\n1 0 2\n1 1 1\n1 2 0\n2 0 1\n2 1 0\n2 2 2\n"

# in a fresh interpreter: import the CLI, run each argv of argv[1] (JSON),
# and after each record (exit code, stdout, stderr, whether numpy,
# dataclasses and inspect are loaded); the first row is the import alone
NUMPY_PROBE = """
import contextlib, io, json, sys
import quandlecolor.cli
loaded = lambda: [name in sys.modules for name in ("numpy", "dataclasses", "inspect")]
results = [[None, None, None, *loaded()]]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quandlecolor.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue(), *loaded()])
print(json.dumps(results))
"""


def _lean_commands(tmp_path):
    """Commands that build no array, one a count of a grown file written to tmp_path."""
    link = tmp_path / "grown.rel"
    link.write_text(grown("trefoil", 300, 1).render_relations())
    return [
        ["catalog"],
        ["relations", "hopf_sum"],
        ["colorings", "allen_swenberg", "--n", "101", "--t", "3"],
        ["colorings", str(link), "--n", "9", "--t", "2"],
        ["colorings", "allen_swenberg", "--n", "9", "--t", "1"],
        ["colorings", "allen_swenberg", "--n", "101", "--t", "1", "--enumerate"],
        ["phi", "allen_swenberg", "--n", "101", "--t", "1"],
        ["matrix", "trefoil", "--n", "5", "--t", "2"],
        ["phi", "trefoil", "--n", "3", "--t", "2"],
        ["phi", "hopf_sum", "--n", "23", "--t", "1"],
        ["phi", "allen_swenberg", "--n", "24", "--t", "13"],
    ]


def test_numpy_loads_only_when_needed(tmp_path, capsys):
    # numpy is most of a fresh process's start-up: importing the CLI, and
    # commands that build no array, never load it (a count by (n, t) of a
    # grown file, or at t = 1, included, phi or an enumeration past the
    # cap, which exit 3, phi at t = 1, which has a closed form, and phi
    # whose histogram is small enough to count in Python, 144 searched
    # colorings of 3 distinct lifted columns at n = 24); phi past
    # SMALL_HISTOGRAM entries (400 searched colorings of 3 columns here),
    # enumeration and table validation import it where they build arrays
    table = tmp_path / "q.txt"
    table.write_text(TAKASAKI_3)
    lean = _lean_commands(tmp_path)
    needs_numpy = [
        ["phi", "allen_swenberg", "--n", "40", "--t", "21"],
        ["colorings", "trefoil", "--n", "3", "--t", "2", "--enumerate"],
        ["colorings", "trefoil", "--quandle-file", str(table)],
    ]
    done = run_python_limited("-c", NUMPY_PROBE, json.dumps(lean + needs_numpy))
    assert (done.returncode, done.stderr) == (0, "")
    results = [tuple(r[:4]) for r in json.loads(done.stdout)]
    assert results[0] == (None, None, None, False)
    for argv, result in zip(lean, results[1:]):
        assert result == (*run(capsys, *argv), False)
    assert results[len(lean) + 1:] == [
        (0, "40*q^1 + 2280*q^2 + 13680*q^3\n", "", True),
        (0, TREFOIL_3_LISTING, "", True),
        (0, "count: 9\n", "", True),
    ]


def test_the_paper_grid_loads_no_numpy():
    # the paper's sweep under either policy, in a fresh process: every cell
    # is answered from its count, in closed form (t = 1) or by a histogram
    # small enough to count in Python, with the bytes first recorded
    grid = ",".join(str(n) for n in range(2, 24))
    policies = sorted(HEADLINE_GRID_SHA256)
    argvs = [["compare", "hopf_sum", "allen_swenberg", "--n", grid, "--t", policy,
              "--format", "json"] for policy in policies]
    done = run_python_limited("-c", NUMPY_PROBE, json.dumps(argvs))
    assert (done.returncode, done.stderr) == (0, "")
    results = json.loads(done.stdout)
    assert results[0][:4] == [None, None, None, False]
    assert [(code, hashlib.sha256(out.encode()).hexdigest(), err, numpy)
            for code, out, err, numpy, *_ in results[1:]] == [
        (0, HEADLINE_GRID_SHA256[policy], "", False) for policy in policies
    ]


def test_start_up_loads_no_dataclasses_or_inspect(tmp_path):
    # dataclasses imports inspect (and with it ast, dis and tokenize), and
    # each decorated class execs its generated methods, on every start, so
    # the package's records are plain classes: neither the CLI's import nor
    # a command that builds no array loads either module
    lean = _lean_commands(tmp_path)
    done = run_python_limited("-c", NUMPY_PROBE, json.dumps(lean))
    assert (done.returncode, done.stderr) == (0, "")
    results = json.loads(done.stdout)
    assert [r[4:] for r in results] == [[False, False]] * (1 + len(lean))


def run_to_exit(capsys, argv):
    """(exit code, stdout, stderr) of a main call that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code",
    [
        ((), 2),
        (("bogus",), 2),
        (("colorings", "trefoil", "--n", "3", "--t", "2", "--bogus"), 2),
        (("colorings", "trefoil", "--n", "bad", "--t", "2"), 2),
        (("catalog", "--format", "xml"), 2),
        (("colorings", "--n", "3", "--t", "2"), 2),
        (("--help",), 0),
        (("colorings", "--help"), 0),
    ],
    ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "bad-int", "bad-choice",
         "missing-link", "help", "colorings-help"],
)
def test_shared_parser_keeps_no_state(argv, code, capsys, monkeypatch):
    # main builds its parser once per process; argparse's own exits give
    # the same bytes on every call, and the same as a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    assert build_parser() is build_parser()
    first = run_to_exit(capsys, argv)
    assert first[0] == code
    assert run_to_exit(capsys, argv) == first
    done = run_cli_limited(*argv)
    assert (done.returncode, done.stdout, done.stderr) == first


def test_help_wraps_at_the_width_when_printed(capsys, monkeypatch):
    # argparse reads the terminal width when it prints, not when the shared
    # parser was built
    helps = {}
    for columns in ("40", "120", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        helps.setdefault(columns, run_to_exit(capsys, ("colorings", "--help")))
        assert run_to_exit(capsys, ("colorings", "--help")) == helps[columns]
        done = run_cli_limited("colorings", "--help")
        assert (done.returncode, done.stdout, done.stderr) == helps[columns]
    assert helps["40"] != helps["120"]


def test_flags_do_not_carry_over_between_calls(tmp_path, capsys):
    table = tmp_path / "q.txt"
    table.write_text(TAKASAKI_3)
    listing = ("colorings", "trefoil", "--n", "3", "--t", "2", "--enumerate")
    count = ("colorings", "trefoil", "--n", "3", "--t", "2")
    from_file = ("colorings", "trefoil", "--quandle-file", str(table))
    from_params = ("colorings", "trefoil", "--n", "5", "--t", "2")
    expected = {
        listing: (0, TREFOIL_3_LISTING, ""),
        count: (0, "count: 9\n", ""),
        from_file: (0, "count: 9\n", ""),
        from_params: (0, "count: 5\n", ""),
    }
    for argv in (listing, count, listing, count, from_file, from_params, from_file, from_params):
        assert run(capsys, *argv) == expected[argv], argv
