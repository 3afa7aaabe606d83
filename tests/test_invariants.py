"""Counting invariant, enhanced polynomial, involutory sweep, and comparison grids."""

import itertools
import json
import random
import time
import tracemalloc
from collections import Counter
from math import gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quandlecolor import (
    AlexanderParams,
    CapExceededError,
    Crossing,
    PhiPolynomial,
    QuandleColorError,
    QuandlePresentation,
    alexander,
    all_colorings,
    brute_force_colorings,
    build_system,
    catalog,
    catalog_entry,
    catalog_names,
    compare,
    connected_sum,
    count_solutions,
    counting_invariant,
    enumerate_solutions,
    extract,
    involutory_units,
    parse_pd_code,
    parse_relations_file,
    phi_polynomial,
    reidemeister_r2,
    units,
)
from quandlecolor.invariants import resolve_t_values
from quandlecolor.solver import (
    Forcing,
    _alike_arcs,
    brute_force_count,
    image_size_counts,
    trivial_image_sizes,
)

from conftest import (
    FORCING_QUANDLES,
    as_table_file,
    braid_pd,
    check_against_oracle,
    dense_smith,
    equivalent_braid,
    forcing_diagrams,
    grown,
    image_size,
    involutory_units_among_units,
    report_dict,
    takasaki,
    transpositions,
    trivial,
)


def test_counting_invariant_examples():
    assert counting_invariant(extract(catalog("trefoil")), alexander(3, 2)) == 9
    assert counting_invariant(extract(catalog("hopf_sum")), alexander(5, 3)) == 5
    for m in (2, 3, 7):
        assert counting_invariant(extract(catalog("unknot")), trivial(m)) == m
    assert counting_invariant(extract(catalog("unknot")), takasaki(6)) == 6


def test_counting_invariant_unchanged_by_r1_r2_on_large_diagrams():
    # 300-500-arc diagrams grown by seeded R1/R2 moves keep the count of the
    # catalog diagram they came from, at composite and prime moduli
    for name, arcs, seed in (("trefoil", 300, 11), ("hopf_sum", 400, 12), ("allen_swenberg", 500, 13)):
        big, base = extract(grown(name, arcs, seed)), extract(catalog(name))
        assert 300 <= big.arc_count <= 502
        for n, t in ((9, 2), (12, 5), (16, 3), (7, 3), (31, 3)):
            q = alexander(n, t)
            assert counting_invariant(big, q) == counting_invariant(base, q), (name, n, t)


def test_a_1000_arc_chain_counts_by_the_product_rule_and_by_brute_force():
    # x -> x + c carries a coloring by an Alexander quandle to another, so
    # 1/n of a summand's colorings give the joined arc any one color, and the
    # count of K1 # K2 is count(K1) * count(K2) / n
    rng = random.Random(5)
    parts = [("trefoil", 300), ("allen_swenberg", 400), ("hopf_sum", 300)]
    chain = None
    for seed, (name, arcs) in enumerate(parts, start=20):
        d = grown(name, arcs, seed)
        chain = d if chain is None else connected_sum(
            chain, d, rng.randint(1, chain.arc_count), rng.randint(1, d.arc_count)
        )
    p = extract(chain)
    assert p.arc_count >= 1000
    for n, t in ((8, 3), (9, 2), (15, 2)):
        q = alexander(n, t)
        product = prod(counting_invariant(extract(catalog(name)), q) for name, _ in parts)
        linear = counting_invariant(p, q)
        assert linear == product // n ** (len(parts) - 1), (n, t)
        if n != 15:
            assert counting_invariant(p, as_table_file(q)) == linear, (n, t)


@settings(max_examples=5, deadline=None)
@given(
    st.sampled_from(catalog_names()),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=100, max_value=1500),
)
def test_growth_to_1500_arcs_keeps_counts(name, seed, arcs):
    # the linear count at a prime and a composite modulus, and the trivial
    # quandle's 2**components by brute force, survive growth by R1/R2 moves
    big = extract(grown(name, arcs, seed))
    base = extract(catalog(name))
    for n, t in ((3, 2), (9, 2)):
        q = alexander(n, t)
        assert counting_invariant(big, q) == counting_invariant(base, q), (n, t)
    assert counting_invariant(big, trivial(2)) == 2 ** catalog_entry(name).expected_components


@st.composite
def braid_words(draw):
    """(strands, word): a 3- or 4-strand braid word of length <= 40 using every generator."""
    strands = draw(st.sampled_from((3, 4)))
    word = draw(st.lists(
        st.integers(min_value=1, max_value=strands - 1).flatmap(lambda i: st.sampled_from((i, -i))),
        max_size=40 - (strands - 1),
    ))
    word += [g for g in range(1, strands) if g not in {abs(x) for x in word}]
    return strands, word


def braid_action_count(strands: int, word, n: int, t: int) -> int:
    """Colorings of the closure by (Z_n, t) as fixed points of the braid's action, no parser read.

    +i maps the colors (x_i, x_i+1) below the crossing to (x_i+1 > x_i, x_i)
    above it, -i to (x_i+1, x_i >^-1 x_i+1).  The action is a matrix M over
    Z_n, and the colorings are the solutions of (M - I) x = 0.
    """
    t_inv = pow(t, -1, n)
    m = [[int(i == j) for j in range(strands)] for i in range(strands)]
    for g in word:
        i = abs(g) - 1
        lo, hi = m[i], m[i + 1]
        if g > 0:
            m[i], m[i + 1] = [(t * b + (1 - t) * a) % n for a, b in zip(lo, hi)], lo
        else:
            m[i], m[i + 1] = hi, [(t_inv * a + (1 - t_inv) * b) % n for a, b in zip(lo, hi)]
    diagonal, _ = dense_smith([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)])
    count = n ** (strands - len(diagonal))
    for d in diagonal:
        count *= gcd(d, n)
    return count


def every_strand_passes_under(strands: int, word) -> bool:
    """True when each component of the closure is the under-strand of some crossing.

    A component that only passes over has no direction in a PD code, so
    parse_pd_code may orient it against the braid.
    """
    perm, under = list(range(strands)), set()  # perm[pos] = strand now at pos
    for g in word:
        i = abs(g) - 1
        under.add(perm[i + 1] if g > 0 else perm[i])
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    component = list(range(strands))  # strand -> a representative of its component
    for pos, strand in enumerate(perm):  # the closure joins strand `strand` to strand `pos`
        a, b = component[strand], component[pos]
        component = [b if c == a else c for c in component]
    return all(any(component[s] == c and s in under for s in range(strands)) for c in set(component))


# braids closing to one link each: the figure-eight knot, a link of 3
# components and one of 2; every strand of each passes under
EQUIVALENT_BRAID_BASES = ((3, [1, -2, 1, -2]), (3, [1, 1, 2, 1, 1, 2]), (4, [1, -2, 3, 1, -2, 3]))


def test_equivalent_braid_closures_count_alike():
    # conftest.equivalent_braid's braid relations, commutations, g g^-1,
    # rotations and stabilizations give diagrams of one link that R1/R2
    # growth does not reach: some variant keeps more _alike_arcs classes than
    # its base.  At n = 2..13 and every unit t (513 cells over 9 pairs), the
    # count by the forcing route, by the braid's action and, for n <= 7, by
    # brute force over the quandle's table agree within and across each pair
    pairs = []
    for strands, word in EQUIVALENT_BRAID_BASES:
        for seed in range(3):
            variant = equivalent_braid(strands, word, 30, seed)
            if every_strand_passes_under(strands, word) and every_strand_passes_under(*variant):
                pairs.append([(s, w, extract(parse_pd_code(braid_pd(s, w))))
                              for s, w in ((strands, word), variant)])
    assert len(pairs) == 9
    classes = [[len(set(_alike_arcs(p)[1:])) for _, _, p in pair] for pair in pairs]
    assert any(variant > base for base, variant in classes), classes
    for n in range(2, 14):
        for t in units(n):
            q = alexander(n, t)
            table = as_table_file(q) if n <= 7 else None
            for pair in pairs:
                counts = set()
                for strands, word, p in pair:
                    counts |= {counting_invariant(p, q), braid_action_count(strands, word, n, t)}
                    if table is not None:
                        counts.add(brute_force_count(p, table))
                assert len(counts) == 1, ([word for _, word, _ in pair], n, t, counts)


@settings(max_examples=100, deadline=None)
@given(braid_words())
@example((4, [1, -2, 3] * 13 + [-1]))
def test_braid_closures_count_alike_by_every_route(strands_word):
    # PD codes of braid closures, at moduli whose units are not only +-1:
    # the count by the braid's action, by the sparse kernel, by brute force
    # over the quandle's table, and the kernel against the dense oracle
    strands, word = strands_word
    assume(every_strand_passes_under(strands, word))
    code = braid_pd(strands, word)
    d = parse_pd_code(code)
    # every component passes under, so the braid's directions are the only
    # ones: each crossing's sign is its letter's
    signs = [1 if g > 0 else -1 for g in word]
    assert [c.sign for c in d.crossings] == signs
    # the signs do not depend on the labels or the order of the crossings:
    # permute the labels (seeded) and rotate the list, and they rotate with it
    quads = [[int(e) for e in q.strip("X()").split(",")] for q in code.split()]
    edges, k = 2 * len(quads), len(quads) // 2
    perm = random.Random(edges).sample(range(1, edges + 1), edges)
    moved = " ".join("X({},{},{},{})".format(*(perm[e - 1] for e in q)) for q in quads[k:] + quads[:k])
    assert [c.sign for c in parse_pd_code(moved).crossings] == signs[k:] + signs[:k]
    p = extract(d)
    for n, t in ((8, 3), (9, 2), (15, 2)):
        q = alexander(n, t)
        count = counting_invariant(p, q)
        assert count == braid_action_count(strands, word, n, t), (n, t)
        assert count == counting_invariant(p, as_table_file(q)), (n, t)
        system = build_system(p, q.alexander)
        check_against_oracle(system.matrix, system.cols, (n,))


def test_counting_invariant_brute_path_for_plain_tables():
    # a validated table without Alexander parameters goes through the search
    q = trivial(3)
    assert q.alexander is None
    assert counting_invariant(extract(catalog("trefoil")), q) == 3


def test_brute_path_count_reads_the_search_blocks():
    # no list of colorings is built: the count must still be the sorted list's
    # length, and the cap must hold at the same count
    for q in (transpositions(4), trivial(3), as_table_file(alexander(5, 2))):
        for name in ("hopf", "trefoil", "hopf_sum", "allen_swenberg"):
            p = extract(catalog(name))
            colorings = brute_force_colorings(p, q)
            assert counting_invariant(p, q) == len(colorings), name
            counting_invariant(p, q, cap=len(colorings))
            with pytest.raises(CapExceededError, match=f"more than {len(colorings) - 1} "):
                counting_invariant(p, q, cap=len(colorings) - 1)


def test_counting_invariant_cap_only_on_brute_path():
    p = extract(catalog("hopf_sum"))
    # the linear route never enumerates, so a tiny cap is irrelevant
    assert counting_invariant(p, alexander(7, 1), cap=5) == 343
    with pytest.raises(CapExceededError):
        counting_invariant(p, trivial(7), cap=5)


def test_phi_trefoil():
    poly = phi_polynomial(extract(catalog("trefoil")), alexander(3, 2))
    assert poly.terms == ((1, 3), (3, 6))
    assert str(poly) == "3*q^1 + 6*q^3"
    assert poly.total() == 9


def test_phi_hopf_sum_and_allen_swenberg_are_nq():
    for name in ("hopf_sum", "allen_swenberg"):
        p = extract(catalog(name))
        for n in (2, 3, 5):
            for t in range(2, n):
                if gcd(n, t) != 1:
                    continue
                poly = phi_polynomial(p, alexander(n, t))
                assert poly.terms == ((1, n),), (name, n, t)


def test_phi_unlink2_by_hand():
    # 4 colorings over Z_2 at t=1: two monochromatic, two using both colors
    p = extract(catalog("unlink2"))
    by_hand = {}
    for a in range(2):
        for b in range(2):
            size = len({a, b})
            by_hand[size] = by_hand.get(size, 0) + 1
    assert by_hand == {1: 2, 2: 2}
    poly = phi_polynomial(p, alexander(2, 1))
    assert dict(poly.terms) == by_hand
    assert str(poly) == "2*q^1 + 2*q^2"


def test_phi_coefficients_sum_to_count_and_q1_is_order():
    cases = [
        ("trefoil", alexander(3, 2)),
        ("hopf_sum", alexander(5, 4)),
        ("hopf", alexander(4, 3)),
        ("unlink2", takasaki(3)),
        ("allen_swenberg", alexander(3, 1)),
    ]
    for name, q in cases:
        p = extract(catalog(name))
        poly = phi_polynomial(p, q)
        assert poly.total() == counting_invariant(p, q)
        assert dict(poly.terms).get(1, 0) >= q.order
        # monochromatic colorings are exactly the quandle elements here
        assert dict(poly.terms).get(1, 0) == q.order
        assert max(e for e, _ in poly.terms) <= min(p.arc_count, q.order)


def test_phi_exponents_bounded_by_arc_count():
    poly = phi_polynomial(extract(catalog("unknot")), takasaki(5))
    assert poly.terms == ((1, 5),)


def _colorings_or_count(route):
    """A route's colorings, or the count its CapExceededError carries (None by brute force)."""
    try:
        return route()
    except CapExceededError as exc:
        return exc.count


def test_all_colorings_routes_agree():
    # by (n, t), all_colorings lifts the solutions of the forcing search's
    # checks; it must list what build_system's full rows and brute force by
    # the quandle's table list, and past the cap carry build_system's count
    cap = 2000
    diagrams = forcing_diagrams() + [
        grown("trefoil", 40, 21), grown("hopf_sum", 120, 22), grown("allen_swenberg", 200, 23)
    ]
    for d in diagrams:
        p = extract(d)
        for n, t in FORCING_QUANDLES:
            q = alexander(n, t)
            full = build_system(p, q.alexander)
            linear = _colorings_or_count(lambda: all_colorings(p, q, cap))
            assert linear == _colorings_or_count(lambda: enumerate_solutions(full, n, cap))
            brute = _colorings_or_count(lambda: brute_force_colorings(p, as_table_file(q), cap))
            if isinstance(linear, list):
                assert linear == brute, (d.arc_count, n, t)
            else:
                assert linear == count_solutions(full, n) > cap and brute is None, (d.arc_count, n, t)


def test_all_colorings_by_n_t_never_builds_the_full_system(monkeypatch):
    import quandlecolor.invariants as invariants
    import quandlecolor.solver as solver

    def refuse(*args):
        raise AssertionError("build_system called")

    for module in (solver, invariants):
        monkeypatch.setattr(module, "build_system", refuse, raising=False)
    colorings = all_colorings(extract(catalog("trefoil")), alexander(3, 2))
    assert [" ".join(map(str, c)) for c in colorings] == [
        "0 0 0", "0 1 2", "0 2 1", "1 0 2", "1 1 1", "1 2 0", "2 0 1", "2 1 0", "2 2 2",
    ]
    with pytest.raises(CapExceededError) as exc:
        all_colorings(extract(catalog("allen_swenberg")), alexander(101, 1))
    assert exc.value.count == 101**3


def test_units_and_involutory_units():
    assert units(8) == (1, 3, 5, 7)
    assert involutory_units(8) == (1, 3, 5, 7)
    assert involutory_units(5) == (1, 4)
    assert involutory_units(2) == (1,)
    assert involutory_units(12) == (1, 5, 7, 11)
    for n in range(2, 25):
        for t in involutory_units(n):
            assert alexander(n, t).is_involutory()
    for n in range(1, 3000):
        assert involutory_units(n) == involutory_units_among_units(n), n
    # the roots come from n's factors by CRT: a scan of 2**40 * 3**20
    # residues would never finish; 2**40 contributes 4 roots, 3**20 two
    n = 2**40 * 3**20
    start = time.perf_counter()
    roots = involutory_units(n)
    assert time.perf_counter() - start < 0.5
    assert len(set(roots)) == 8 and roots == tuple(sorted(roots))
    assert roots[0] == 1 and roots[-1] == n - 1
    assert all(0 < t < n and t * t % n == 1 for t in roots)
    # no tuple of the phi(n) units is built on the way: at n = 10**6 + 3 it
    # would peak near 40 MB
    tracemalloc.start()
    try:
        assert involutory_units(10**6 + 3) == (1, 10**6 + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _trial_division_prime_powers(n: int):
    """(p, p**k) per prime p dividing n, by trial division up to sqrt(n): the factoring oracle."""
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            yield p, q
        p += 1 if p == 2 else 2
    if n > 1:
        yield n, n


def test_involutory_units_agree_with_trial_division(monkeypatch):
    import quandlecolor.invariants as invariants

    fast = [involutory_units(n) for n in range(20001)]
    monkeypatch.setattr(invariants, "_prime_powers", _trial_division_prime_powers)
    assert [involutory_units(n) for n in range(20001)] == fast
    monkeypatch.undo()
    # with trial division only below 8, Miller-Rabin and rho factor every
    # part of n above 7 (prime powers such as 7**5 and 9973**2 included)
    monkeypatch.setattr(invariants, "_TRIAL", 8)
    for n in range(20001):
        assert list(invariants._prime_powers(n)) == list(_trial_division_prime_powers(n)), n


def test_factoring_past_trial_division():
    from quandlecolor.invariants import _is_prime, _prime_powers

    # strong pseudoprimes to the prime bases up to 23 and up to 37: the
    # witnesses 29 and 41 expose them
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    cases = {
        3825123056546413051: [149491, 747451, 34233211],
        318665857834031151167461: [399165290221, 798330580441],
        1000000000000000003: [1000000000000000003],
        (10**9 + 7) * (10**9 + 9): [10**9 + 7, 10**9 + 9],
        (10**9 + 7) ** 2: [10**9 + 7] * 2,
        (2**31 - 1) * (2**61 - 1): [2**31 - 1, 2**61 - 1],
        2**3 * 67**2 * 1031 * (10**6 + 3) ** 3: [2] * 3 + [67] * 2 + [1031] + [10**6 + 3] * 3,
        # past the witnesses' bound, but trial division leaves nothing
        2**100 * 3**50: [2] * 100 + [3] * 50,
    }
    for n, primes in cases.items():
        expected = [(p, p ** primes.count(p)) for p in sorted(set(primes))]
        assert list(_prime_powers(n)) == expected, n
    roots = involutory_units((10**9 + 7) * (10**9 + 9))
    assert len(roots) == 4 and all(t * t % ((10**9 + 7) * (10**9 + 9)) == 1 for t in roots)
    # from the least composite that passes every witness on (1287836182261 *
    # 2575672364521), a part that passes proves nothing, prime (2**89 - 1) or
    # not: an error, where taking it as prime would lose roots
    psi = 3317044064679887385961981
    for n, part in ((psi, psi), (2**89 - 1, 2**89 - 1), (3 * (2**89 - 1), 2**89 - 1)):
        with pytest.raises(QuandleColorError, match=f"cannot factor n: its factor {part} "):
            involutory_units(n)


def _involutory_counts(p, n):
    """(t, count) for every involutory Alexander quandle over Z_n, by compare's sweep."""
    return tuple((cell.t, cell.count_a) for cell in compare(p, p, (n,), "involutory").grid)


def test_involutory_analysis_hopf_sum():
    p = extract(catalog("hopf_sum"))
    assert _involutory_counts(p, 3) == ((1, 27), (2, 3))
    assert _involutory_counts(p, 2) == ((1, 8),)
    for n in (2, 3, 5, 7):
        rows = dict(_involutory_counts(p, n))
        assert rows[1] == n**3


def test_involutory_analysis_allen_swenberg():
    p = extract(catalog("allen_swenberg"))
    assert _involutory_counts(p, 5) == ((1, 125), (4, 5))


def test_involutory_analysis_composite_modulus_lists_all_roots():
    p = extract(catalog("trefoil"))
    rows = _involutory_counts(p, 8)
    assert [t for t, _ in rows] == [1, 3, 5, 7]


def test_compare_headline_pair_not_distinguished():
    report = compare(
        extract(catalog("hopf_sum")),
        extract(catalog("allen_swenberg")),
        (3, 5),
        t_policy="all-units",
        link_a="hopf_sum",
        link_b="allen_swenberg",
    )
    assert report.verdict == "not distinguished"
    assert not report.distinguished
    assert [(cell.n, cell.t) for cell in report.grid] == [
        (3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4),
    ]
    for cell in report.grid:
        assert cell.count_a == cell.count_b
        assert cell.phi_a == cell.phi_b


def test_compare_unknot_vs_trefoil_distinguished():
    report = compare(
        extract(catalog("unknot")),
        extract(catalog("trefoil")),
        (3,),
        t_policy=2,
        link_a="unknot",
        link_b="trefoil",
    )
    assert report.distinguished
    (cell,) = report.grid
    assert (cell.count_a, cell.count_b) == (3, 9)


def test_compare_reflexive_and_symmetric():
    a = extract(catalog("hopf_sum"))
    b = extract(catalog("trefoil"))
    same = compare(a, a, (2, 3), "all-units")
    assert not same.distinguished
    assert all(cell.count_a == cell.count_b for cell in same.grid)
    ab = compare(a, b, (2, 3, 4), "all-units")
    ba = compare(b, a, (2, 3, 4), "all-units")
    assert ab.distinguished == ba.distinguished
    for x, y in zip(ab.grid, ba.grid):
        assert (x.count_a, x.count_b) == (y.count_b, y.count_a)


def test_compare_involutory_policy():
    report = compare(
        extract(catalog("hopf_sum")),
        extract(catalog("allen_swenberg")),
        (3, 5),
        t_policy="involutory",
    )
    assert [(c.n, c.t) for c in report.grid] == [(3, 1), (3, 2), (5, 1), (5, 4)]
    assert not report.distinguished
    with pytest.raises(ValueError, match=r"^unknown t policy 'bogus'$"):
        resolve_t_values("bogus", 5)


def test_compare_cap_exceeded_cells_keep_counts():
    report = compare(
        extract(catalog("hopf_sum")),
        extract(catalog("allen_swenberg")),
        (5,),
        t_policy=1,
        cap=10,  # 125 solutions each: polynomials dropped, counts kept
    )
    (cell,) = report.grid
    assert cell.count_a == cell.count_b == 125
    assert cell.phi_a is None and cell.phi_b is None
    assert not report.distinguished

    # only one side over the cap: both polynomials still dropped, counts exact
    unknot, trefoil = extract(catalog("unknot")), extract(catalog("trefoil"))
    for a, b, counts in ((unknot, trefoil, (3, 9)), (trefoil, unknot, (9, 3))):
        report = compare(a, b, (3,), t_policy=2, cap=5)
        (cell,) = report.grid
        assert (cell.count_a, cell.count_b) == counts
        assert cell.phi_a is None and cell.phi_b is None
        assert report.distinguished


def test_compare_count_only_cells_at_the_cap_boundary():
    # unknot has 3 colorings at (3, 2) and trefoil 9: below 9 the trefoil side
    # is past the cap, so the cell keeps both counts and drops both
    # polynomials, in either order; at 9 both polynomials are kept
    unknot, trefoil = extract(catalog("unknot")), extract(catalog("trefoil"))
    phis = {unknot: PhiPolynomial(((1, 3),)), trefoil: PhiPolynomial(((1, 3), (3, 6)))}
    counts = {unknot: 3, trefoil: 9}
    for cap in (5, 8, 9):
        for a, b in ((unknot, trefoil), (trefoil, unknot)):
            (cell,) = compare(a, b, (3,), t_policy=2, cap=cap).grid
            assert (cell.count_a, cell.count_b) == (counts[a], counts[b])
            if cap < 9:
                assert cell.phi_a is None and cell.phi_b is None
            else:
                assert (cell.phi_a, cell.phi_b) == (phis[a], phis[b])
            assert cell.differs
    # phi alone raises with the exact count
    with pytest.raises(CapExceededError, match="^12167 colorings exceed cap 1000$") as exc:
        phi_polynomial(extract(catalog("allen_swenberg")), alexander(23, 1), cap=1000)
    assert exc.value.count == 12167


def test_compare_eliminates_each_system_once(monkeypatch):
    import quandlecolor.solver as solver

    calls = []
    original = solver._eliminate

    def counting(entries, cols, modulus):
        calls.append(cols)
        return original(entries, cols, modulus)

    monkeypatch.setattr(solver, "_eliminate", counting)
    a, b = extract(catalog("hopf_sum")), extract(catalog("allen_swenberg"))
    # a t = 1 cell is the trivial quandle, counted in closed form: no elimination
    report = compare(a, b, (2, 3, 5), t_policy="all-units")
    assert len(report.grid) == 7
    assert len(calls) == 2 * sum(cell.t != 1 for cell in report.grid) == 8
    calls.clear()
    compare(a, b, (5,), t_policy=1, cap=10)  # both over the cap
    assert calls == []
    compare(a, b, (5,), t_policy=2, cap=4)  # both over the cap
    assert len(calls) == 2


def test_report_serialization_round_trips():
    report = compare(
        extract(catalog("unknot")),
        extract(catalog("trefoil")),
        (3,),
        t_policy="all-units",
        link_a="unknot",
        link_b="trefoil",
    )
    doc = json.loads(json.dumps(report_dict(report)))
    assert doc["verdict"] == report.verdict
    assert doc["grid"][0]["count_a"] == report.grid[0].count_a
    assert doc["grid"][0]["phi_b"] == [list(t) for t in report.grid[0].phi_b.terms]


def test_phi_polynomial_equality_and_zero():
    assert PhiPolynomial.from_counts({1: 3, 3: 6}) == PhiPolynomial.from_counts(
        {3: 6, 1: 3}
    )
    assert str(PhiPolynomial.from_counts({})) == "0"
    assert PhiPolynomial.from_counts({2: 0}) == PhiPolynomial.from_counts({})


# closures of the 3-braid (s1 s2^-1)^3 (the Borromean rings) and of the
# 4-braid s1 s2 s3^-1 s2 s1 s3^-1 s2^-1 s3 s1
BRAID_PD_CODES = (
    "X(2,5,4,1) X(5,3,7,6) X(6,9,8,4) X(9,7,11,10) X(10,12,1,8) X(12,11,3,2)",
    "X(2,6,5,1) X(3,8,7,6) X(8,4,10,9) X(9,12,11,7) X(11,14,13,5) X(12,10,16,15) "
    "X(14,15,18,17) X(16,4,3,18) X(17,2,1,13)",
)


def _histogram_cases():
    chain = connected_sum(catalog("hopf_sum"), catalog("trefoil"), 2, 1)
    chain = connected_sum(chain, catalog("allen_swenberg"), 5, 7)
    # rows whose out equals in (t - 1, 1 - t) or over (t, -t): the first
    # kind keeps no unit pivot; arc 5 is in no relation
    degenerate = QuandlePresentation(5, (
        Crossing(sign=1, under_in=1, under_out=1, over=2),
        Crossing(sign=-1, under_in=3, under_out=2, over=2),
        Crossing(sign=1, under_in=1, under_out=3, over=3),
        Crossing(sign=-1, under_in=4, under_out=4, over=1),
        Crossing(sign=1, under_in=2, under_out=2, over=2),
    ))
    return {
        "grown-trefoil-40": extract(grown("trefoil", 40, 21)),
        "grown-hopf_sum-120": extract(grown("hopf_sum", 120, 22)),
        "grown-allen_swenberg-200": extract(grown("allen_swenberg", 200, 23)),
        "chain": extract(chain),
        "braid-3": extract(parse_pd_code(BRAID_PD_CODES[0])),
        "braid-4": extract(parse_pd_code(BRAID_PD_CODES[1])),
        "hopf": extract(catalog("hopf")),
        "degenerate": degenerate,
    }


HISTOGRAM_CASES = _histogram_cases()


def _counts_or_cap(route):
    """A route's image-size histogram, or the exact count its CapExceededError carries."""
    try:
        return dict(route())
    except CapExceededError as exc:
        return exc.count


def _sizes_or_count(result):
    """image_size_counts's histogram, whose sum is its count, or past the cap the count alone."""
    count, sizes = result
    if sizes is None:
        return count
    assert sum(sizes.values()) == count
    return sizes


@pytest.mark.parametrize("name", sorted(HISTOGRAM_CASES))
def test_image_size_counts_match_enumeration(name):
    # the histogram, from the forcing search's checks lifted by its plan and
    # from the full rows with the identity lift, equals enumerate_solutions + Counter in
    # counts, histograms and cap decisions
    p = HISTOGRAM_CASES[name]
    cap = 3000
    # at a prime n with t != 1 most cells have only the constant colorings
    for n in (4, 5, 7, 8, 9, 12, 16, 23):
        report = compare(p, p, (n,), "all-units", cap=cap)
        for t, cell in zip(units(n), report.grid):
            params = AlexanderParams(n, t)
            full = build_system(p, params)
            expected = _counts_or_cap(
                lambda: Counter(map(image_size, enumerate_solutions(full, n, cap)))
            )
            checks = Forcing(p).system(params)
            assert all(sum(row) % n == 0 for row in checks.matrix), (n, t)
            lift = Forcing(p).lift(params)
            assert lift([1] * checks.cols) == [1] * p.arc_count, (n, t)
            assert _sizes_or_count(image_size_counts(checks, lift, n, cap)) == expected
            identity = list  # x itself: column j is arc j+1
            assert _sizes_or_count(image_size_counts(full, identity, n, cap)) == expected
            assert (cell.n, cell.t, cell.count_a) == (n, t, counting_invariant(p, alexander(n, t)))
            if isinstance(expected, dict):
                assert cell.phi_a == PhiPolynomial.from_counts(expected), (n, t)
                assert sum(expected.values()) == cell.count_a
                # the cap compares the full count, not the n-times-smaller search
                count = cell.count_a
                assert image_size_counts(checks, lift, n, count - 1) == (count, None)
                assert _sizes_or_count(image_size_counts(checks, lift, n, count)) == expected
            else:
                assert cell.phi_a is None and cell.count_a == expected, (n, t)


def test_phi_by_a_table_counts_the_image_sizes_of_the_brute_force_colorings():
    # phi by a table histograms the search's blocks, one column per class of
    # alike arcs: the image sizes of the sorted colorings, and for an
    # Alexander table phi by (n, t)
    cap = 3000
    tables = [transpositions(4), trivial(3), *(alexander(n, t) for n, t in ((9, 2), (8, 3)))]
    for q in tables:
        table = as_table_file(q)
        for d in forcing_diagrams() + [grown("trefoil", 40, 21)]:
            p = extract(d)
            expected = _counts_or_cap(
                lambda: Counter(map(image_size, brute_force_colorings(p, table, cap)))
            )
            assert _counts_or_cap(lambda: dict(phi_polynomial(p, table, cap).terms)) == expected
            if q.alexander is not None and expected is not None:
                assert dict(phi_polynomial(p, q, cap).terms) == expected, (d.arc_count, q.order)


def test_compare_compiles_each_link_once_per_class_of_t(monkeypatch):
    import quandlecolor.solver as solver

    calls = []
    original = solver._compile

    def counting(p, *args):
        calls.append(p)
        return original(p, *args)

    monkeypatch.setattr(solver, "_compile", counting)
    a, b = extract(catalog("hopf_sum")), extract(catalog("allen_swenberg"))
    # every unit of a prime n but 1 leaves 1 - t a unit; t = 1 compiles no
    # plan, as it is answered from the component count
    report = compare(a, b, (2, 3, 5, 7), t_policy="all-units")
    assert len(report.grid) == 1 + 2 + 4 + 6
    assert calls == [a, b]
    # t = 4 and 7 mod 9 make the other class: 1 - t is neither 0 nor a unit
    calls.clear()
    compare(a, b, (9,), t_policy="all-units")
    assert calls == [a, b, a, b]


def test_phi_searches_one_coloring_per_translation_class(monkeypatch):
    import quandlecolor.solver as solver

    widths = []
    original = solver._eliminate

    def recording(entries, cols, modulus):
        widths.append(cols)
        return original(entries, cols, modulus)

    monkeypatch.setattr(solver, "_eliminate", recording)
    # the 1000003 colorings are the constant ones, a single class under
    # x -> x + c: the first arc is fixed at 0, and the elimination of the
    # other branches alone finds that class
    p = extract(catalog("allen_swenberg"))
    branches = Forcing(p).system(AlexanderParams(1000003, 2)).cols
    widths.clear()
    assert phi_polynomial(p, alexander(1000003, 2), cap=2_000_000).terms == ((1, 1000003),)
    assert widths == [branches - 1]


def test_small_histograms_in_python_match_numpy(monkeypatch):
    # the same cells counted all in Python, then all in numpy
    import quandlecolor.solver as solver

    cells = [(forcing.system(params), forcing.lift(params), params.n)
             for forcing in (Forcing(extract(catalog(name)))
                             for name in ("hopf_sum", "allen_swenberg", "trefoil"))
             for params in (AlexanderParams(n, t)
                            for n in (4, 9, 12, 16, 20, 23) for t in units(n))]
    routes = []
    for limit in (10**9, 0):
        monkeypatch.setattr(solver, "SMALL_HISTOGRAM", limit)
        routes.append([image_size_counts(checks, lift, n, 10**6) for checks, lift, n in cells])
    assert routes[0] == routes[1]
    assert sum(len(sizes) > 1 for _, sizes in routes[0]) > 20


def test_the_zero_arc_presentation_has_one_empty_coloring():
    # no arcs, no relations: one coloring, the empty one, of image size 0, by
    # the forcing route (whose search at t != 1 has no column to hold at 0),
    # at t = 1 in closed form, and by brute force over a table
    p0 = QuandlePresentation(0, ())
    for q in (alexander(3, 2), alexander(3, 1), transpositions(4)):
        assert counting_invariant(p0, q) == 1
        assert str(phi_polynomial(p0, q)) == "1*q^0"
        assert all_colorings(p0, q) == [()]
    assert compare(p0, p0, (3,)).verdict == "not distinguished"


def test_trivial_image_sizes_count_colorings_by_colors_used():
    # S(c, k) * n(n-1)...(n-k+1) colorings of c free components use k colors
    for c, n in itertools.product(range(6), range(1, 7)):
        expected = Counter(map(image_size, itertools.product(range(n), repeat=c)))
        assert trivial_image_sizes(c, n) == dict(expected), (c, n)


def _trivial_cell_diagrams():
    over_only = reidemeister_r2(catalog("unlink2"), 1, 2)  # x2 passes over x1 only
    circles = parse_relations_file("circles: 1\n" + catalog("hopf_sum").render_relations())
    grown_copies = [grown(name, catalog(name).arc_count + 12, 26) for name in catalog_names()]
    return [*map(catalog, catalog_names()), *grown_copies, over_only, circles]


def test_trivial_cells_in_closed_form_match_the_histogram(monkeypatch):
    # t = 1 is the trivial quandle: each of the c components (the branches
    # of the trivial plan) takes any color, so phi and compare answer from
    # c alone, with nothing eliminated, the same as image_size_counts
    import quandlecolor.solver as solver

    links = []
    for d in _trivial_cell_diagrams():
        p, cells = extract(d), []
        for n in range(2, 24):
            checks = Forcing(p).system(AlexanderParams(n, 1))
            assert (checks.rows, checks.cols) == (0, d.component_count())
            lift = Forcing(p).lift(AlexanderParams(n, 1))
            count, sizes = image_size_counts(checks, lift, n, 10**9)
            assert count == n**checks.cols
            assert trivial_image_sizes(checks.cols, n) == sizes, (d.arc_count, n)
            cells.append((n, count, sizes))
        links.append((p, cells))
    eliminations = []
    original = solver._eliminate
    monkeypatch.setattr(solver, "_eliminate",
                        lambda *args: eliminations.append(args) or original(*args))
    for p, cells in links:
        for n, count, sizes in cells:
            assert dict(phi_polynomial(p, alexander(n, 1), cap=count).terms) == sizes
        # the canonical t decides: 4 is 1 mod 3
        assert dict(phi_polynomial(p, alexander(3, 4), cap=10**9).terms) == cells[1][2]
        report = compare(p, p, range(2, 24), t_policy=1, cap=10**9)
        assert [(cell.n, cell.count_a, cell.phi_a) for cell in report.grid] == [
            (n, count, PhiPolynomial.from_counts(sizes)) for n, count, sizes in cells
        ]
    assert eliminations == []


def test_trivial_counts_from_the_component_count(monkeypatch):
    # at t = 1 (and t = 4 mod 3) the count is n**components, read off the
    # diagram's union-find: no plan is compiled, run or eliminated
    import quandlecolor.solver as solver

    for name in ("_compile", "_run_forms", "_eliminate"):
        monkeypatch.setattr(solver, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    for d in _trivial_cell_diagrams():
        p, c = extract(d), d.component_count()
        for n in (2, 3, 7, 23, 10**30 + 57):
            assert counting_invariant(p, alexander(n, 1)) == n**c, (d.arc_count, n)
        assert counting_invariant(p, alexander(3, 4)) == 3**c


def test_trivial_cells_at_the_cap_boundary():
    # at cap n**c - 1 the cell is count-only and phi raises with the exact
    # count; at cap n**c both have the polynomial
    for name in catalog_names():
        p, c = extract(catalog(name)), catalog_entry(name).expected_components
        for n in (2, 5, 23):
            count = n**c
            phi = phi_polynomial(p, alexander(n, 1), cap=count)
            assert phi.total() == count
            with pytest.raises(CapExceededError) as exc:
                phi_polynomial(p, alexander(n, 1), cap=count - 1)
            assert exc.value.count == count
            (cell,) = compare(p, p, (n,), t_policy=1, cap=count - 1).grid
            assert (cell.count_a, cell.count_b, cell.phi_a, cell.phi_b) == (count, count, None, None)
            (cell,) = compare(p, p, (n,), t_policy=1, cap=count).grid
            assert (cell.count_a, cell.phi_a, cell.phi_b) == (count, phi, phi)


def test_a_constant_only_cell_is_answered_from_its_count(monkeypatch):
    import quandlecolor.solver as solver

    def histogram(blocks, width):
        raise AssertionError("a cell with one translation class built a histogram")

    monkeypatch.setattr(solver, "_image_sizes", histogram)
    p = extract(catalog("allen_swenberg"))
    assert phi_polynomial(p, alexander(1000003, 2), cap=2_000_000).terms == ((1, 1000003),)
    # the cap still applies to the full count
    with pytest.raises(CapExceededError) as exc:
        phi_polynomial(p, alexander(1000003, 2), cap=1000002)
    assert exc.value.count == 1000003
