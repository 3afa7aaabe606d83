"""Seeded input generators and the benchmark's own answer oracles.

Every input text a workload feeds the program is made here from a
``random.Random`` the caller seeds, so one seed always gives the same
inputs.  The oracles compute expected answers without the program's
parsers or its Smith-form kernel: relations texts are read with a regex,
coefficient matrices are built here, and solution counts come from an
elimination over Z/p^k (minimal-valuation pivots).  Diagram surgery
(R1/R2 moves, connected sums) and relations rendering are the program's
own public functions; the answers they must preserve are not.
"""

from __future__ import annotations

import re
from math import gcd

_RELATION = re.compile(r"x(\d+)\s*=\s*x(\d+)\s*([*/])\s*x(\d+)")
_CIRCLES = re.compile(r"circles\s*:\s*(\d+)")


# ---------------------------------------------------------------------------
# Oracles


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _valuation(v: int, p: int, k: int) -> int:
    """p-adic valuation of a nonzero residue mod p**k."""
    e = 0
    while v % p == 0 and e < k:
        v //= p
        e += 1
    return e


def _count_prime_power(rows, cols: int, p: int, k: int) -> int:
    q = p**k
    a = [[v % q for v in row] for row in rows]
    a = [row for row in a if any(row)]
    free = set(range(cols))
    count = 1
    while a:
        best = None
        for i, row in enumerate(a):
            for j in free:
                if row[j]:
                    v = _valuation(row[j], p, k)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, i, j = best
        pivot_row = a.pop(i)
        pv = p**v
        inv_unit = pow(pivot_row[j] // pv, -1, q)
        for row in a:
            if row[j]:
                f = (row[j] // pv) * inv_unit % q
                for c in free:
                    if pivot_row[c]:
                        row[c] = (row[c] - f * pivot_row[c]) % q
        a = [row for row in a if any(row)]
        free.discard(j)
        count *= pv
    return count * q ** len(free)


def count_mod(rows, cols: int, n: int) -> int:
    """Number of x in (Z_n)^cols with rows * x = 0 (mod n).

    Z_n splits into its prime-power parts (CRT); over Z/p^k an entry of
    least valuation divides every other entry, so pivoting on it
    diagonalizes the system, and a pivot p^v admits p^v values.
    """
    count = 1
    for p, k in _factorize(n).items():
        count *= _count_prime_power(rows, cols, p, k)
    return count


def read_relations(text: str) -> tuple[int, list[tuple[int, int, int, bool]]]:
    """(arc count, [(out, in, over, positive)]) from a relations text."""
    circles = 0
    rels = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _CIRCLES.fullmatch(line)
        if m:
            circles = int(m.group(1))
            continue
        m = _RELATION.fullmatch(line)
        if m is None:
            raise ValueError(f"not a relation: {line!r}")
        out, in_, op, over = m.groups()
        rels.append((int(out), int(in_), int(over), op == "*"))
    arcs = max((max(r[:3]) for r in rels), default=0) + circles
    return arcs, rels


def relations_count(text: str, n: int, t: int) -> int:
    """Colorings of a relations text by the Alexander quandle (Z_n, t).

    ``out = in > over`` reads t*in + (1-t)*over - out = 0; a negative
    crossing, scaled by the unit t, reads in + (t-1)*over - t*out = 0.
    """
    arcs, rels = read_relations(text)
    rows = []
    for out, in_, over, positive in rels:
        row = [0] * arcs
        if positive:
            row[in_ - 1] += t
            row[over - 1] += 1 - t
            row[out - 1] -= 1
        else:
            row[in_ - 1] += 1
            row[over - 1] += t - 1
            row[out - 1] -= t
        rows.append(row)
    return count_mod(rows, arcs, n)


def braid_count(strands: int, word, n: int, t: int) -> int:
    """Colorings of a braid closure by (Z_n, t): fixed points of the braid's action.

    Strands run upward.  Generator +i crosses position i over i+1 and maps
    (x_i, x_i+1) to (x_i+1 > x_i, x_i); -i crosses it under and maps them
    to (x_i+1, x_i >^-1 x_i+1).  The action is linear over Z_n, so the
    colorings of the closure are the kernel of M - I.
    """
    t_inv = pow(t, -1, n)
    m = [[int(i == j) for j in range(strands)] for i in range(strands)]
    for g in word:
        i = abs(g) - 1
        lo, hi = m[i], m[i + 1]
        if g > 0:
            m[i] = [(t * b + (1 - t) * a) % n for a, b in zip(lo, hi)]
            m[i + 1] = lo
        else:
            m[i] = hi
            m[i + 1] = [(t_inv * a + (1 - t_inv) * b) % n for a, b in zip(lo, hi)]
    rows = [[m[i][j] - (i == j) for j in range(strands)] for i in range(strands)]
    return count_mod(rows, strands, n)


def units(n: int) -> list[int]:
    return [t for t in range(1, n) if gcd(t, n) == 1]


# ---------------------------------------------------------------------------
# Generators


def grow(qc, diagram, rng, target_arcs: int, kink_share: float = 0.5):
    """Apply seeded R1 kinks and R2 pokes until the diagram has target_arcs arcs."""
    d = diagram
    while d.arc_count < target_arcs:
        if rng.random() < kink_share:
            d = qc.reidemeister_r1(d, rng.randint(1, d.arc_count), rng.choice((1, -1)))
        else:
            d = qc.reidemeister_r2(d, rng.randint(1, d.arc_count), rng.randint(1, d.arc_count))
    return d


def kinks(qc, diagram, rng, count: int):
    d = diagram
    for _ in range(count):
        d = qc.reidemeister_r1(d, rng.randint(1, d.arc_count), rng.choice((1, -1)))
    return d


def chain(qc, diagrams, rng):
    """Connected sum of the diagrams, left to right, at seeded arcs."""
    d = diagrams[0]
    for nxt in diagrams[1:]:
        d = qc.connected_sum(d, nxt, rng.randint(1, d.arc_count), rng.randint(1, nxt.arc_count))
    return d


def braid_word(rng, strands: int, length: int) -> list[int]:
    """A seeded braid word whose closure has no strand that only passes over.

    Every generator appears, so every position takes part in a crossing,
    and every component of the closure passes under somewhere, so a PD
    parser can read each strand's direction from the code alone.
    """
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if {abs(g) for g in word} != set(range(1, strands)):
            continue
        perm = list(range(strands))  # perm[pos] = strand now at pos
        under = set()
        for g in word:
            i = abs(g) - 1
            under.add(perm[i + 1] if g > 0 else perm[i])
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        seen: set[int] = set()
        ok = True
        for start in range(strands):
            if start in seen:
                continue
            cycle = []
            s = start
            while s not in seen:
                seen.add(s)
                cycle.append(s)
                s = perm.index(s)
            ok = ok and any(s in under for s in cycle)
        if ok:
            return word


def braid_pd(strands: int, word) -> str:
    """PD code of the braid closure, one ``X(a,b,c,d)`` per generator.

    Around a crossing the edges sit at bottom-left (BL), bottom-right (BR),
    top-right (TR) and top-left (TL).  For +i the under-strand runs BR -> TL
    and the code is X(BR, TR, TL, BL): its over-strand runs d -> b, a
    positive crossing.  For -i the under-strand runs BL -> TR and the code is
    X(BL, BR, TR, TL), over-strand b -> d, negative.
    """
    edge = list(range(1, strands + 1))
    next_label = strands + 1
    quads = []
    for g in word:
        i = abs(g) - 1
        bl, br = edge[i], edge[i + 1]
        tl, tr = next_label, next_label + 1
        next_label += 2
        quads.append([br, tr, tl, bl] if g > 0 else [bl, br, tr, tl])
        edge[i], edge[i + 1] = tl, tr
    closing = {top: bottom for bottom, top in zip(range(1, strands + 1), edge)}
    labels = sorted({closing.get(e, e) for q in quads for e in q})
    renumber = {e: k for k, e in enumerate(labels, start=1)}
    return " ".join(
        "X({},{},{},{})".format(*(renumber[closing.get(e, e)] for e in q)) for q in quads
    ) + "\n"


def transposition_table(k: int) -> list[list[int]]:
    """Conjugation quandle on the transpositions of S_k: x > y = y x y^-1."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    index = {p: n for n, p in enumerate(pairs)}

    def conj(x, y):
        a, b = x
        c, d = y
        swap = {c: d, d: c}
        a, b = swap.get(a, a), swap.get(b, b)
        return index[(min(a, b), max(a, b))]

    return [[conj(x, y) for y in pairs] for x in pairs]


def alexander_table(n: int, t: int) -> list[list[int]]:
    return [[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)]


def trivial_table(m: int) -> list[list[int]]:
    return [[x] * m for x in range(m)]


# ---------------------------------------------------------------------------
# Relabelings: same answers, different texts


def relabel_relations(text: str, rng, shuffle_lines: bool) -> str:
    arcs, rels = read_relations(text)
    referenced = sorted({a for r in rels for a in r[:3]})
    image = referenced[:]
    rng.shuffle(image)
    m = dict(zip(referenced, image))
    lines = [
        f"x{m[out]} = x{m[in_]} {'*' if pos else '/'} x{m[over]}"
        for out, in_, over, pos in rels
    ]
    if shuffle_lines:
        rng.shuffle(lines)
    circles = arcs - len(referenced)
    head = [f"circles: {circles}"] if circles else []
    return "\n".join(head + lines) + "\n"


def relabel_pd(text: str, rng) -> str:
    quads = [tuple(int(v) for v in q) for q in re.findall(r"X\((\d+),(\d+),(\d+),(\d+)\)", text)]
    labels = sorted({e for q in quads for e in q})
    image = labels[:]
    rng.shuffle(image)
    m = dict(zip(labels, image))
    rng.shuffle(quads)
    return " ".join("X({},{},{},{})".format(*(m[e] for e in q)) for q in quads) + "\n"


def relabel_table(table, rng) -> list[list[int]]:
    """The isomorphic table under a seeded permutation of the elements."""
    size = len(table)
    perm = list(range(size))
    rng.shuffle(perm)
    out = [[0] * size for _ in range(size)]
    for x in range(size):
        for y in range(size):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return out


def table_text(table) -> str:
    return f"order: {len(table)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in table)
