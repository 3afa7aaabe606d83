"""Link invariants built from quandle colorings.

The counting invariant is the number of homomorphisms from a diagram's
fundamental quandle into a fixed finite quandle; the enhanced polynomial
refines it by recording how many distinct colors each coloring uses,
``phi = sum over colorings of q ** image_size``.  ``compare`` sweeps both
invariants across a grid of Alexander quandles and reports whether two
links are distinguished anywhere on the grid.

For an Alexander quandle every query goes to one place, solver.Forcing,
which answers each (n, t).  At t = 1 the quandle is trivial: each of the
c components is free, so the answer has a closed form, n**c colorings
and sizes in Stirling numbers, with no plan compiled and nothing
eliminated.  Otherwise the brute-force search's plan runs over linear
forms in its branch values and leaves check rows over the branches.
``counting_invariant`` eliminates the checks; ``all_colorings``
enumerates their solutions as sums of multiples of the generators, each
lifted to every arc by running the plan once on ints; ``phi_polynomial``
and ``compare`` take the exact count and, within the cap, the image
sizes from ``image_size_counts``, which searches one coloring per class
of x -> x + c*1, with no coloring listed, over one column per group of
arcs whose lifted generator columns agree, answers a single class (the
constant colorings) from its count alone, counts a histogram of at most
SMALL_HISTOGRAM entries in Python and only a larger one in numpy.  So
``phi trefoil --n 3 --t 2``, ``phi hopf_sum --n 23 --t 1``, ``phi
allen_swenberg --n 24 --t 13`` (144 colorings of 3 columns) and the
paper's whole grid load no numpy, and ``phi allen_swenberg --n 40 --t
21`` (400 colorings of 3 columns) does.  A link's plan is compiled once
per class of t (1 - t a unit or not) and kept on its presentation, which
``extract`` keeps on its diagram, so ``compare`` runs it at each grid
point, and a later call on the same diagram or presentation compiles
nothing again; a cell past the cap keeps the exact counts alone.  Its
cells come from one generator (``compare_cells``), walked lazily in (n,
t) order, so the CLI writes each cell as it is made and holds one cell at
a time.
"""

from __future__ import annotations

from itertools import count, groupby
from math import gcd
from typing import Iterable, Iterator, Mapping, Union

from .errors import CapExceededError, QuandleColorError
from .presentation import QuandlePresentation
from .quandle import AlexanderParams, FiniteQuandle
from .record import Record, set_field
from .solver import (
    DEFAULT_CAP,
    Forcing,
    brute_force_colorings,
    brute_force_count,
    brute_force_image_sizes,
)


class PhiPolynomial(Record):
    """Sparse polynomial in q: terms maps image size to number of colorings.

    The coefficients sum to the counting invariant, exponents are bounded by
    min(arc count, quandle order), and the q^1 coefficient counts the
    monochromatic colorings (at least the quandle's order, by idempotence).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]) -> None:
        set_field(self, "terms", terms)  # (exponent, coefficient), ascending

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "PhiPolynomial":
        return cls(tuple(sorted((e, c) for e, c in counts.items() if c)))

    def total(self) -> int:
        """Sum of coefficients, i.e. the counting invariant."""
        return sum(c for _, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*q^{e}" for e, c in self.terms)


def all_colorings(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> list[tuple[int, ...]]:
    """Every coloring of p by q, sorted, via the exact linear route when q is Alexander.

    A coloring is a tuple of arc colors, arc 1 first.
    """
    if q.alexander is not None:
        return Forcing(p).colorings(q.alexander, cap)
    return brute_force_colorings(p, q, cap)


def counting_invariant(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> int:
    """Number of homomorphisms from the fundamental quandle into q.

    Alexander quandles are counted exactly, with no cap (solver.Forcing):
    at t = 1, where the quandle is trivial, the count is n**components;
    otherwise the checks the forcing search leaves over its branches are
    counted through the sparse Smith form over Z_n.  Other quandles fall
    back to the brute-force search, where ``cap`` bounds the enumeration.
    """
    if q.alexander is None:
        return brute_force_count(p, q, cap)
    return Forcing(p).count(q.alexander)


def phi_polynomial(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> PhiPolynomial:
    """The enhanced polynomial, from a histogram of the colorings by image size.

    No coloring is listed, but the cap applies to their count.  An
    Alexander quandle's image sizes are counted from the forcing search
    (solver.Forcing, in closed form at t = 1); another quandle's, by the
    same histogram, from the brute-force search's blocks.
    """
    if q.alexander is None:
        return PhiPolynomial.from_counts(brute_force_image_sizes(p, q, cap))
    count, sizes = Forcing(p).image_sizes(q.alexander, cap)
    if sizes is None:
        raise CapExceededError(cap, count)
    return PhiPolynomial.from_counts(sizes)


def _walk_units(n: int) -> Iterator[int]:
    """The units of Z_n in increasing order, one at a time."""
    return (t for t in range(1, n) if gcd(t, n) == 1)


def units(n: int) -> tuple[int, ...]:
    return tuple(_walk_units(n))


_TRIAL = 1024  # n is divided by 2 and the odd numbers below this before rho takes the rest
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least odd composite that passes Miller-Rabin to every witness (Sorenson and Webster,
# Math. Comp. 86, 2017): below it the test is exact
_PROVEN_BELOW = 3317044064679887385961981
# rho's steps on one part of n, about 1 s on a 2-vCPU host.  A walk takes steps of the order of
# the square root of the part's least prime factor: 450455 for 399165290221, 2004479 for
# 10**12 + 39; with no bound, (10**15 + 37) * (2 * 10**15 + 21) took 27 s
_RHO_STEPS = 1 << 20


def _prime_powers(n: int):
    """(p, p**k) for each prime p dividing n, k its multiplicity, p increasing.

    Trial division below _TRIAL, which factors every n < _TRIAL**2 alone,
    so a small n costs what it did by trial division alone; each part left
    is a prime when it is below the square of the first divisor not tried
    or passes Miller-Rabin, and is split by rho otherwise.
    """
    p = 2
    while p * p <= n and p < _TRIAL:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            yield p, q
        p += 1 if p == 2 else 2
    if n < p * p:  # no factor below p: 1 or a prime
        if n > 1:
            yield n, n
        return
    primes, parts = [], [n]
    while parts:
        m = parts.pop()
        if m < p * p or _is_prime(m):  # m has no factor below p
            primes.append(m)
        else:
            d = _rho(m)
            parts += [d, m // d]
    for prime, copies in groupby(sorted(primes)):
        yield prime, prime ** len(list(copies))


def _is_prime(m: int) -> bool:
    """Miller-Rabin to _WITNESSES for an odd m > 41, m - 1 = d * 2**s with d odd.

    QuandleColorError for an m of at least _PROVEN_BELOW that passes: the
    test proves nothing there, and a factor taken as prime would lose roots.
    """
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    if not all(pow(a, d, m) == 1 or m - 1 in {pow(a, d << i, m) for i in range(s)}
               for a in _WITNESSES):
        return False
    if m >= _PROVEN_BELOW:
        raise QuandleColorError(f"cannot factor n: its factor {m} passes Miller-Rabin to the "
                                f"prime bases up to 41, which proves primes only below "
                                f"{_PROVEN_BELOW}")
    return True


def _rho(m: int) -> int:
    """A factor 1 < f < m of an odd composite m.

    Pollard's rho (BIT 15, 1975) on x -> x**2 + c with Brent's cycle
    search (BIT 20, 1980): x waits while y takes 1, 2, 4, ... steps, then
    moves up to y, until gcd(x - y, m) > 1.  A walk that finds only m
    itself starts over with the next c.  QuandleColorError once the walks
    of m would pass _RHO_STEPS steps in all.
    """
    steps = 0
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            if steps + r > _RHO_STEPS:
                raise QuandleColorError(f"cannot factor n: rho found no factor of its part {m} "
                                        f"in {_RHO_STEPS} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % m
                if (g := gcd(x - y, m)) != 1:
                    break
            steps += r
            r *= 2
        if g != m:
            return g


def involutory_units(n: int) -> tuple[int, ...]:
    """Units t of Z_n with t*t = 1 (mod n): exactly the involutory Alexander quandles.

    Always contains 1 and n-1; composite n can have more (t=3 mod 8, say).
    The square roots of 1 modulo a prime power q = p**k are +-1 for odd p,
    1 mod 2, 1 and 3 mod 4, and +-1 and q/2 +- 1 for q >= 8; the Chinese
    remainder theorem combines them over the prime powers of n, so the
    cost is factoring n (:func:`_prime_powers`), not a scan of Z_n.
    """
    if n < 2:
        return ()
    roots, m = [0], 1  # the square roots of 1 mod m
    for p, q in _prime_powers(n):
        if p > 2:
            mine = (1, q - 1)
        elif q <= 4:
            mine = range(1, q, 2)
        else:
            mine = (1, q - 1, q // 2 - 1, q // 2 + 1)
        inverse = pow(m, -1, q)
        roots = [a + m * ((b - a) * inverse % q) for a in roots for b in mine]
        m *= q
    return tuple(sorted(roots))


TPolicy = Union[str, int]


def resolve_t_values(policy: TPolicy, n: int) -> Iterable[int]:
    """Expand a t policy ('all-units', 'involutory', or a fixed residue) for one n.

    All units are walked lazily; every error (an unknown policy, a fixed t
    that is no unit mod n) is raised by this call, not while walking.
    """
    if policy == "all-units":
        return _walk_units(n)
    if policy == "involutory":
        return involutory_units(n)
    if isinstance(policy, int):
        return (AlexanderParams(n, policy).t,)
    raise ValueError(f"unknown t policy {policy!r}")


class ComparisonCell(Record):
    """One grid point: counts for both links, polynomials when enumerable."""

    __slots__ = ("n", "t", "count_a", "count_b", "phi_a", "phi_b")

    def __init__(self, n: int, t: int, count_a: int, count_b: int,
                 phi_a: PhiPolynomial | None, phi_b: PhiPolynomial | None) -> None:
        set_field(self, "n", n)
        set_field(self, "t", t)
        set_field(self, "count_a", count_a)
        set_field(self, "count_b", count_b)
        set_field(self, "phi_a", phi_a)
        set_field(self, "phi_b", phi_b)

    @property
    def differs(self) -> bool:
        if self.count_a != self.count_b:
            return True
        return (
            self.phi_a is not None
            and self.phi_b is not None
            and self.phi_a != self.phi_b
        )


VERDICTS = ("not distinguished", "distinguished")  # by whether any cell differs


class DistinguishabilityReport(Record):
    """Counting/polynomial grid for two links plus the resulting verdict."""

    __slots__ = ("link_a", "link_b", "t_policy", "grid")

    def __init__(self, link_a: str, link_b: str, t_policy: str,
                 grid: tuple[ComparisonCell, ...]) -> None:
        set_field(self, "link_a", link_a)
        set_field(self, "link_b", link_b)
        set_field(self, "t_policy", t_policy)
        set_field(self, "grid", grid)

    @property
    def distinguished(self) -> bool:
        return any(cell.differs for cell in self.grid)

    @property
    def verdict(self) -> str:
        return VERDICTS[self.distinguished]


def compare(
    a: QuandlePresentation,
    b: QuandlePresentation,
    n_values,
    t_policy: TPolicy = "all-units",
    cap: int = DEFAULT_CAP,
    link_a: str = "a",
    link_b: str = "b",
) -> DistinguishabilityReport:
    """Sweep both links over the (n, t) grid and compare counts and polynomials.

    The grid holds the cells of :func:`compare_cells`, in (n, t) order.
    """
    return DistinguishabilityReport(
        link_a=link_a,
        link_b=link_b,
        t_policy=str(t_policy),
        grid=tuple(compare_cells(a, b, n_values, t_policy, cap)),
    )


def compare_cells(
    a: QuandlePresentation,
    b: QuandlePresentation,
    n_values,
    t_policy: TPolicy = "all-units",
    cap: int = DEFAULT_CAP,
) -> Iterator[ComparisonCell]:
    """The cells of the (n, t) grid, one at a time in (n, t) order, n over sorted distinct values.

    Every error is raised by this call, before the first cell: a fixed t
    that is no unit at some n raises NotAUnitError here, whatever comes
    first in the grid.  The t values of each n are walked lazily, and no
    cell is kept, so a caller that writes each cell as it comes holds one.

    Each link has one solver.Forcing per call, so its plan is compiled
    once per class of t, and a t = 1 cell is answered from each link's
    component count in closed form.  Any other runs the two plans at
    (n, t) and eliminates each link's checks once (see image_size_counts),
    which gives its exact count whatever the cap.  A cell where either link has
    more than ``cap`` colorings keeps both exact counts and drops both
    polynomials (a count-only cell) rather than failing the grid; once the
    first link is past the cap, the second is counted and not histogrammed.
    """
    grid = [(n, resolve_t_values(t_policy, n)) for n in sorted(set(int(n) for n in n_values))]
    return _cells((a, b), grid, cap)


def _cells(links, grid, cap: int) -> Iterator[ComparisonCell]:
    """The generator of :func:`compare_cells`, over its resolved (n, t values) pairs."""
    a, b = map(Forcing, links)
    for n, t_values in grid:
        for t in t_values:
            params = AlexanderParams(n, t)
            count_a, sizes_a = a.image_sizes(params, cap)
            # past the cap on a, the cell keeps no polynomial: b needs only its count
            count_b, sizes_b = b.image_sizes(params, 0 if sizes_a is None else cap)
            phi_a = phi_b = None
            if sizes_a is not None and sizes_b is not None:
                phi_a, phi_b = map(PhiPolynomial.from_counts, (sizes_a, sizes_b))
            yield ComparisonCell(n, t, count_a, count_b, phi_a, phi_b)
