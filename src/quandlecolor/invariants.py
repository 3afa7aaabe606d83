"""Link invariants built from quandle colorings.

The counting invariant is the number of homomorphisms from a diagram's
fundamental quandle into a fixed finite quandle; the enhanced polynomial
refines it by recording how many distinct colors each coloring uses,
``phi = sum over colorings of q ** image_size``.  ``compare`` sweeps both
invariants across a grid of Alexander quandles and reports whether two
links are distinguished anywhere on the grid.

For an Alexander quandle every query takes one reduction: the brute-force
search's plan runs over linear forms in its branch values (see
solver._forced_system), and leaves check rows over the branches and one
form per arc.  ``counting_invariant`` eliminates the checks;
``all_colorings`` enumerates their solutions and lifts each by the forms;
``phi_polynomial`` and ``compare`` both take solver._forced_image_sizes,
which returns the exact count and, within the cap, the image sizes.  At
t = 1 the quandle is trivial: the plan's c branches are the components,
each free, so the count is n**c and the sizes have a closed form in
Stirling numbers, with nothing eliminated.  Otherwise it hands checks and
forms to ``image_size_counts``, which searches one coloring per class of
x -> x + c*1, with no coloring listed, over one column per group of forms
whose lifted columns agree, answers a single class (the constant
colorings) from its count alone, counts a histogram of at most
SMALL_HISTOGRAM entries in Python and only a larger one in numpy.  So
``phi trefoil --n 3 --t 2``, ``phi hopf_sum --n 23 --t 1`` and the paper's
whole grid load no numpy, and ``phi allen_swenberg --n 24 --t 13`` (144
colorings of 9 columns) does.  ``compare`` compiles each link's plan once
per call and class of t (t = 1, 1 - t a unit, or neither) and runs it at
each grid point; a cell past the cap keeps the exact counts alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Union

from .errors import CapExceededError
from .presentation import QuandlePresentation
from .quandle import AlexanderParams, FiniteQuandle
from .solver import (
    DEFAULT_CAP,
    _forced_image_sizes,
    _forced_system,
    _forcing_class,
    _forcing_steps,
    _frontier,
    _image_sizes,
    _plan,
    brute_force_colorings,
    brute_force_count,
    count_solutions,
    enumerate_solutions,
)


@dataclass(frozen=True)
class PhiPolynomial:
    """Sparse polynomial in q: terms maps image size to number of colorings.

    The coefficients sum to the counting invariant, exponents are bounded by
    min(arc count, quandle order), and the q^1 coefficient counts the
    monochromatic colorings (at least the quandle's order, by idempotence).
    """

    terms: tuple[tuple[int, int], ...]  # (exponent, coefficient), ascending

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
        checks, forms = _forced_system(p, q.alexander)
        return enumerate_solutions(checks, q.alexander.n, cap, forms)
    return brute_force_colorings(p, q, cap)


def counting_invariant(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> int:
    """Number of homomorphisms from the fundamental quandle into q.

    Alexander quandles are counted exactly, with no cap, by forcing: the
    search plan runs once over linear forms in the branch values, and the
    checks it leaves over the branches are counted through the sparse Smith
    form over Z_n (see solver._forced_system).  Other quandles fall back to
    the brute-force search, where ``cap`` bounds the enumeration.
    """
    if q.alexander is not None:
        system, _ = _forced_system(p, q.alexander)
        return count_solutions(system, q.alexander.n)
    return brute_force_count(p, q, cap)


def phi_polynomial(
    p: QuandlePresentation, q: FiniteQuandle, cap: int = DEFAULT_CAP
) -> PhiPolynomial:
    """The enhanced polynomial; requires enumerating colorings, so the cap applies.

    An Alexander quandle's image sizes are counted from the forcing search
    (see solver._forced_image_sizes: in closed form at t = 1, else from its
    checks and forms by image_size_counts); another quandle's,
    by the same histogram, from the brute-force search's blocks, whose
    columns (classes of alike arcs) take as many distinct colors as the arcs.
    """
    if q.alexander is None:
        plan = _plan(p, q)
        return PhiPolynomial.from_counts(_image_sizes(_frontier(plan, cap), plan.width))
    params = q.alexander
    count, sizes = _forced_image_sizes(_forcing_steps(p, _forcing_class(params)), p.arc_count,
                                       params, cap)
    if sizes is None:
        raise CapExceededError(cap, count)
    return PhiPolynomial.from_counts(sizes)


def units(n: int) -> tuple[int, ...]:
    return tuple(t for t in range(1, n) if gcd(t, n) == 1)


def _prime_powers(n: int):
    """(p, p**k) for each prime p dividing n, k its multiplicity, by trial division."""
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


def involutory_units(n: int) -> tuple[int, ...]:
    """Units t of Z_n with t*t = 1 (mod n): exactly the involutory Alexander quandles.

    Always contains 1 and n-1; composite n can have more (t=3 mod 8, say).
    The square roots of 1 modulo a prime power q = p**k are +-1 for odd p,
    1 mod 2, 1 and 3 mod 4, and +-1 and q/2 +- 1 for q >= 8; the Chinese
    remainder theorem combines them over the prime powers of n, so the
    cost is the trial division, not a scan of Z_n.
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


def resolve_t_values(policy: TPolicy, n: int) -> tuple[int, ...]:
    """Expand a t policy ('all-units', 'involutory', or a fixed residue) for one n."""
    if policy == "all-units":
        return units(n)
    if policy == "involutory":
        return involutory_units(n)
    if isinstance(policy, int):
        return (AlexanderParams(n, policy).t,)
    raise ValueError(f"unknown t policy {policy!r}")


@dataclass(frozen=True)
class ComparisonCell:
    """One grid point: counts for both links, polynomials when enumerable."""

    n: int
    t: int
    count_a: int
    count_b: int
    phi_a: PhiPolynomial | None
    phi_b: PhiPolynomial | None

    @property
    def differs(self) -> bool:
        if self.count_a != self.count_b:
            return True
        return (
            self.phi_a is not None
            and self.phi_b is not None
            and self.phi_a != self.phi_b
        )


@dataclass(frozen=True)
class DistinguishabilityReport:
    """Counting/polynomial grid for two links plus the resulting verdict."""

    link_a: str
    link_b: str
    t_policy: str
    grid: tuple[ComparisonCell, ...]

    @property
    def distinguished(self) -> bool:
        return any(cell.differs for cell in self.grid)

    @property
    def verdict(self) -> str:
        return "distinguished" if self.distinguished else "not distinguished"

    def to_dict(self) -> dict:
        return {
            "link_a": self.link_a,
            "link_b": self.link_b,
            "t_policy": self.t_policy,
            "grid": [
                {
                    "n": cell.n,
                    "t": cell.t,
                    "count_a": cell.count_a,
                    "count_b": cell.count_b,
                    "phi_a": None if cell.phi_a is None else list(cell.phi_a.terms),
                    "phi_b": None if cell.phi_b is None else list(cell.phi_b.terms),
                }
                for cell in self.grid
            ],
            "verdict": self.verdict,
        }


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

    Each link's forcing plan is compiled once per call and class of t (see
    solver._forcing_class); a t = 1 cell is counted from the plan's
    branches in closed form, and any other runs the two plans' forms at
    (n, t) and eliminates each link's checks once (see image_size_counts),
    which gives its exact count whatever the cap.  A cell where either link has
    more than ``cap`` colorings keeps both exact counts and drops both
    polynomials (a count-only cell) rather than failing the grid; once the
    first link is past the cap, the second is counted and not histogrammed.
    Cells are assembled in (n, t) order.
    """
    plans: dict[tuple[int, tuple[bool, bool]], list] = {}  # (link, class of t) -> its steps

    def sizes(link: int, params: AlexanderParams, cap: int) -> tuple[int, dict[int, int] | None]:
        p, key = (a, b)[link], (link, _forcing_class(params))
        if key not in plans:
            plans[key] = _forcing_steps(p, key[1])
        return _forced_image_sizes(plans[key], p.arc_count, params, cap)

    cells = []
    for n in sorted(set(int(n) for n in n_values)):
        for t in resolve_t_values(t_policy, n):
            params = AlexanderParams(n, t)
            count_a, sizes_a = sizes(0, params, cap)
            # past the cap on a, the cell keeps no polynomial: b needs only its count
            count_b, sizes_b = sizes(1, params, 0 if sizes_a is None else cap)
            phi_a = phi_b = None
            if sizes_a is not None and sizes_b is not None:
                phi_a, phi_b = map(PhiPolynomial.from_counts, (sizes_a, sizes_b))
            cells.append(ComparisonCell(n, t, count_a, count_b, phi_a, phi_b))
    return DistinguishabilityReport(
        link_a=link_a,
        link_b=link_b,
        t_policy=str(t_policy),
        grid=tuple(cells),
    )
