"""The four workloads: seeded inputs, golden answers and the ops that use them.

An op is one query to the program.  ``Op.run`` makes the call being timed
and ``Op.check`` compares its result with the golden answer.  A workload
hands out its ops in rounds; a run repeats rounds until its time is up,
so every round is a complete, stratified sample of the workload.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from pathlib import Path

import gen

WORK_DIR = Path(".bench_work")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

HEADLINE_N = range(2, 24)
HEADLINE_POLICIES = ("all-units", "involutory")
# spaced so that the cost of the n^3 table check grows by 1.1-1.5x from one
# modulus to the next above 31: p50 and p90 then fall among neighbouring
# moduli rather than on a jump between two of them
POINT_MODULI = (2, 31, 53, 64, 79, 91, 101, 113, 128, 139, 151, 163, 173, 181, 191, 199)
POINT_LINKS = ("unknot", "unlink2", "hopf", "trefoil", "hopf_sum", "allen_swenberg")
POINT_COMMANDS = ("colorings", "phi", "matrix")
# the command of each modulus in successive rounds; `matrix` builds no table,
# so it gets one turn in four, which keeps p50 off the cluster of queries
# that cost only the CLI's own 2-3 ms
POINT_CYCLE = ("colorings", "matrix", "phi", "colorings")
# small generated files: R1/R2-grown catalog links and braid closures
POINT_FILES = (("grow", "trefoil"), ("grow", "hopf_sum"), ("braid", 3, 12),
               ("grow", "hopf"), ("grow", "allen_swenberg"), ("braid", 4, 21))
POINT_PHI_LIMIT = 20_000  # phi queries enumerating more colorings than this are left out
DEFAULT_CAP = 1_000_000  # the CLI's default --cap, echoed in its JSON documents


def digest(rc: int, out: str, err: str) -> str:
    """Fingerprint of one CLI call: exit code, stdout and stderr."""
    return hashlib.sha256(f"{rc}\0{out}\0{err}".encode()).hexdigest()[:16]


def run_cli(qc, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = qc.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def point_t_values(n: int) -> list[int]:
    """t = 1, t = n-1, the least other unit, and the least non-unit > 1."""
    ts = [1, n - 1]
    ts += [t for t in gen.units(n) if 1 < t < n - 1][:1]
    ts += [t for t in range(2, n) if t not in gen.units(n)][:1]
    return sorted(set(ts))


def point_argv(key: str) -> list[str]:
    """Key 'cmd link n t fmt' of a catalog point query -> CLI arguments."""
    cmd, link, n, t, fmt = key.split()
    argv = [cmd, link, "--n", n, "--t", t]
    return argv + (["--format", "json"] if fmt == "json" else [])


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Ops


class Op:
    """One query: ``run`` is timed, ``check`` is not."""

    def run(self, qc):
        raise NotImplementedError

    def check(self, result) -> bool:
        raise NotImplementedError

    def perturbed(self) -> "Op":
        """The same query with a wrong golden answer."""
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        return 0


class CliOp(Op):
    """An in-process ``cli.main`` call; the golden answer fixes rc, stdout and stderr."""

    def __init__(self, argv, rc: int, fingerprint: str, verdict: str | None = None):
        self.argv = argv
        self.rc = rc
        self.fingerprint = fingerprint
        self.verdict = verdict

    def run(self, qc):
        return run_cli(qc, self.argv)

    def check(self, result) -> bool:
        rc, out, err = result
        if rc != self.rc or digest(rc, out, err) != self.fingerprint:
            return False
        return self.verdict is None or json.loads(out)["results"]["verdict"] == self.verdict

    def perturbed(self):
        return CliOp(self.argv, self.rc, self.fingerprint[::-1], self.verdict)

    def output_bytes(self, result) -> int:
        _, out, err = result
        return len(out.encode()) + len(err.encode())


class CountOp(Op):
    """``counting_invariant(extract(parse(text)), alexander(n, t))``."""

    def __init__(self, text: str, pd: bool, n: int, t: int, expected: int):
        self.text, self.pd, self.n, self.t = text, pd, n, t
        self.expected = expected

    def run(self, qc):
        parse = qc.parse_pd_code if self.pd else qc.parse_relations_file
        return qc.counting_invariant(qc.extract(parse(self.text)), qc.alexander(self.n, self.t))

    def check(self, result) -> bool:
        return result == self.expected

    def perturbed(self):
        return CountOp(self.text, self.pd, self.n, self.t, self.expected + 1)


class BruteOp(Op):
    """``brute_force_colorings(extract(parse(diagram)), parse_quandle_file(table))``."""

    def __init__(self, table: str, diagram: str, expected: int, cross_checked: bool):
        self.table, self.diagram = table, diagram
        self.expected = expected
        self.cross_checked = cross_checked

    def run(self, qc):
        q = qc.parse_quandle_file(self.table)
        p = qc.extract(qc.parse_relations_file(self.diagram))
        return len(qc.brute_force_colorings(p, q))

    def check(self, result) -> bool:
        return self.cross_checked and result == self.expected

    def perturbed(self):
        return BruteOp(self.table, self.diagram, self.expected + 1, True)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def self_check_ops(self) -> list[Op]:
        """Ops whose golden answer must pass; the first, a cheap one, is also perturbed."""
        return self.round_ops(0)[:1]


class HeadlineSweep(Workload):
    """The paper's sweep: compare hopf_sum allen_swenberg, one op per (policy, n).

    The grid is fixed by the paper, so the seed does not change it.
    """

    def __init__(self, qc, seed: int, golden: dict):
        self.ops = []
        for policy in HEADLINE_POLICIES:
            for n in HEADLINE_N:
                rc, fp = golden["headline_sweep"][f"{policy} {n}"].split()
                argv = ["compare", "hopf_sum", "allen_swenberg", "--n", str(n),
                        "--t", policy, "--format", "json"]
                self.ops.append(CliOp(argv, int(rc), fp, verdict="not distinguished"))

    def round_ops(self, r):
        return self.ops


LARGE_SLOTS = (
    # (family, spec, modulus); sizes run from 45 to ~190 arcs before the
    # size scale of each draw (see LargeDiagrams) is applied.  Op costs run
    # from ~10 ms to ~1 s; the four slots of about 100 ms keep the median
    # among many neighbouring costs rather than in a sparse stretch
    ("grow", ("trefoil", 45, 0.5), 4),
    ("grow", ("trefoil", 90, 1.0), 9),
    ("grow", ("trefoil", 130, 0.5), 8),
    ("grow", ("trefoil", 190, 0.0), 7),  # about 95 R2 pokes
    ("grow", ("hopf_sum", 120, 0.5), 5),
    ("grow", ("hopf_sum", 180, 0.5), 8),
    ("grow", ("allen_swenberg", 90, 0.5), 3),
    ("grow", ("allen_swenberg", 120, 0.5), 5),
    ("grow", ("allen_swenberg", 150, 0.5), 7),
    ("chain", ("trefoil",) * 20, 4),
    ("chain", ("allen_swenberg", "allen_swenberg"), 5),
    ("chain", ("allen_swenberg", "trefoil", "allen_swenberg"), 9),
    ("chain", ("allen_swenberg",) * 4, 7),
    ("chain", ("allen_swenberg",) * 5, 3),
    ("braid", (3, 60), 8),
    ("braid", (3, 110), 7),
    ("braid", (4, 100), 5),
    ("braid", (4, 130), 4),
    ("braid", (3, 150), 9),
    ("braid", (4, 180), 7),
)


class CatalogOracle:
    """Oracle counts of catalog links by Alexander quandles, cached per (link, n, t)."""

    def __init__(self, qc):
        self.qc = qc
        self.cache: dict[tuple[str, int, int], int] = {}

    def count(self, name: str, n: int, t: int) -> int:
        key = (name, n, t)
        if key not in self.cache:
            self.cache[key] = gen.relations_count(self.qc.catalog(name).render_relations(), n, t)
        return self.cache[key]

    def connected_sum(self, names, n: int, t: int) -> int:
        """count(K1 # K2) * n = count(K1) * count(K2): (Z_n, t) is homogeneous."""
        product = 1
        for name in names:
            product *= self.count(name, n, t)
        return product // n ** (len(names) - 1)


class LargeDiagrams(Workload):
    """Counting on 30-250 arc diagrams: elimination dominates, nothing is shared.

    Set-up draws GEN_ROUNDS rounds of fresh diagrams, one per slot, so a
    run averages over many random structures rather than one per slot.
    Each draw scales the slot's size (arcs, braid length, or the number of
    summands of a chain of one knot) by a factor from SIZE_RANGE, log-
    uniformly and stratified: over the rounds, each slot draws once from
    each of GEN_ROUNDS equal strata, in an order that differs from slot to
    slot.  The costs of the ops then fill a smooth range rather than a few
    fixed sizes, so latency percentiles do not jump across gaps, while
    every seed draws about the same mix of sizes.  The same goes for t,
    which moves the cost of an op by up to 1.6x: each slot cycles through
    the units other than 1 from a seeded start.  Each round relabels
    every diagram's arcs and crossing order afresh, so no two ops in a run
    see the same text or the same coefficient matrix.
    """

    GEN_ROUNDS = 8
    SIZE_RANGE = (0.7, 1.3)

    def __init__(self, qc, seed: int, golden: dict):
        rng = random.Random(seed)
        self.seed = seed
        oracle = CatalogOracle(qc)
        t_start = [rng.randrange(len(gen.units(n)) - 1) for *_, n in LARGE_SLOTS]
        self.rounds = [[self._item(qc, oracle, rng, self._scale(rng, r, s), r + t_start[s], *slot)
                        for s, slot in enumerate(LARGE_SLOTS)]
                       for r in range(self.GEN_ROUNDS)]

    def _scale(self, rng, r: int, s: int) -> float:
        """Size factor of slot s in generated round r: stratum (3r + s) mod GEN_ROUNDS."""
        lo, hi = self.SIZE_RANGE
        u = ((3 * r + s) % self.GEN_ROUNDS + rng.random()) / self.GEN_ROUNDS
        return lo * (hi / lo) ** u

    @staticmethod
    def _item(qc, oracle, rng, scale, t_index, family, spec, n):
        """(text, is_pd, n, t, expected count) for one slot."""
        ts = [u for u in gen.units(n) if u != 1]
        t = ts[t_index % len(ts)]
        if family == "grow":
            name, arcs, kink_share = spec
            d = gen.grow(qc, qc.catalog(name), rng, round(arcs * scale), kink_share)
            # R1/R2 leave the count of the base diagram unchanged
            return d.render_relations(), False, n, t, oracle.count(name, n, t)
        if family == "chain":
            if len(set(spec)) == 1:
                spec = spec[:1] * max(2, round(len(spec) * scale))
            d = gen.chain(qc, [qc.catalog(name) for name in spec], rng)
            return d.render_relations(), False, n, t, oracle.connected_sum(spec, n, t)
        strands, length = spec
        length = round(length * scale)
        word = gen.braid_word(rng, strands, length)
        return gen.braid_pd(strands, word), True, n, t, gen.braid_count(strands, word, n, t)

    def round_ops(self, r):
        rng = random.Random(f"{self.seed}/{r}")
        ops = []
        for text, pd, n, t, expected in self.rounds[r % self.GEN_ROUNDS]:
            text = gen.relabel_pd(text, rng) if pd else gen.relabel_relations(text, rng, True)
            ops.append(CountOp(text, pd, n, t, expected))
        return ops


GENERAL_SLOTS = (
    # (diagram, table); tables: conjugation quandles of transpositions of
    # S4/S5, trivial quandles, and Alexander quandles written as files
    (("catalog", "hopf"), ("S4",)),
    (("catalog", "allen_swenberg"), ("S4",)),
    (("catalog", "allen_swenberg"), ("alexander", 5)),
    (("catalog", "allen_swenberg"), ("alexander", 7)),
    (("catalog", "allen_swenberg"), ("trivial", 3)),
    (("catalog", "allen_swenberg"), ("trivial", 4)),
    (("kinks", "allen_swenberg", 3), ("S4",)),
    (("kinks", "allen_swenberg", 3), ("alexander", 5)),
    (("chain", "allen_swenberg", "trefoil"), ("trivial", 3)),
    (("chain", "allen_swenberg", "hopf"), ("alexander", 5)),
    (("chain", "trefoil", "trefoil", "trefoil"), ("S5",)),
    (("chain", "trefoil", "trefoil", "trefoil"), ("alexander", 7)),
    (("kinks", "hopf_sum", 5), ("S5",)),
    (("kinks", "trefoil", 6), ("alexander", 9)),
    (("chain", "hopf_sum", "trefoil", "hopf"), ("S5",)),
    (("chain", "hopf_sum", "trefoil", "hopf"), ("S4",)),
    (("catalog", "trefoil"), ("S5",)),
)


class GeneralQuandles(Workload):
    """Brute-force colorings by quandles given as table files.

    The answers come from three independent places: base counts of the
    conjugation quandles (golden file), m ** components for trivial
    quandles, and oracle counts for Alexander tables, which the program's
    linear route must also reproduce.  Kinks keep a count; a connected sum
    multiplies counts and divides by |Q|, since every quandle here is
    homogeneous.  Set-up draws GEN_ROUNDS rounds of fresh kinks, sums and
    multipliers; each round relabels the arcs and the quandle elements,
    which changes neither the answer nor the size of the search.
    """

    GEN_ROUNDS = 8

    def __init__(self, qc, seed: int, golden: dict):
        rng = random.Random(seed)
        self.seed = seed
        oracle = CatalogOracle(qc)
        conj = {"S4": gen.transposition_table(4), "S5": gen.transposition_table(5)}
        self.rounds = [[self._item(qc, oracle, golden, conj, rng, *slot) for slot in GENERAL_SLOTS]
                       for _ in range(self.GEN_ROUNDS)]

    @staticmethod
    def _item(qc, oracle, golden, conj, rng, dspec, tspec):
        """(table, diagram text, expected count, cross-checked) for one slot."""
        kind, *args = dspec
        if kind == "catalog":
            d, parts = qc.catalog(args[0]), [args[0]]
        elif kind == "kinks":  # args[1] kinks on average
            kinks = rng.randint(args[1] - 2, args[1] + 2)
            d, parts = gen.kinks(qc, qc.catalog(args[0]), rng, kinks), [args[0]]
        else:
            d, parts = gen.chain(qc, [qc.catalog(a) for a in args], rng), list(args)
        cross_checked = True
        if tspec[0] in conj:
            table = conj[tspec[0]]
            product = 1
            for part in parts:
                product *= golden["general_quandles"][tspec[0]][part]
            expected = product // len(table) ** (len(parts) - 1)
        elif tspec[0] == "trivial":
            table = gen.trivial_table(tspec[1])
            components = sum(qc.catalog_entry(p).expected_components for p in parts)
            expected = tspec[1] ** (components - (len(parts) - 1))
        else:
            n = tspec[1]
            t = rng.choice([u for u in gen.units(n) if u != 1])
            table = gen.alexander_table(n, t)
            expected = oracle.connected_sum(parts, n, t)
            cross_checked = qc.counting_invariant(qc.extract(d), qc.alexander(n, t)) == expected
        return table, d.render_relations(), expected, cross_checked

    def round_ops(self, r):
        rng = random.Random(f"{self.seed}/{r}")
        return [
            BruteOp(gen.table_text(gen.relabel_table(table, rng)),
                    gen.relabel_relations(text, rng, False), expected, checked)
            for table, text, expected, checked in self.rounds[r % self.GEN_ROUNDS]
        ]


class PointQueries(Workload):
    """Single CLI queries with moduli up to 199, including expected error exits.

    A round holds one successful catalog query per modulus, one query that
    must exit 3 (enumeration cap), one that must exit 4 (non-unit t) and
    two `colorings` queries on small generated files.  The command for each
    modulus cycles through POINT_CYCLE from round to round, so every round
    has the same mix and round 0 builds the largest table.  Moduli run in ascending order, so the allocator sees the same
    sequence of table sizes in every run.  The file queries use every
    modulus equally often, whatever the seed, and rounds take them in a
    seeded cyclic order, so a run of 48 rounds issues each once.  Catalog
    queries are checked against the seed's output fingerprints; file
    queries against bytes rebuilt from the oracle count.
    """

    QUERIES_PER_FILE = 8  # 6 files * 8 queries = 3 queries per modulus

    def __init__(self, qc, seed: int, golden: dict):
        rng = random.Random(seed)
        self.seed = seed
        self.by_query: dict[tuple[int, str], list[tuple[str, int, str]]] = {}
        self.by_exit: dict[int, list[tuple[str, int, str]]] = {3: [], 4: []}
        for key, value in sorted(golden["point_queries"].items()):
            rc, fp = value.split()
            rc = int(rc)
            entry = (key, rc, fp)
            if rc == 0:
                cmd, _, n, _, _ = key.split()
                self.by_query.setdefault((int(n), cmd), []).append(entry)
            else:
                self.by_exit[rc].append(entry)
        WORK_DIR.mkdir(exist_ok=True)
        moduli = list(POINT_MODULI) * (len(POINT_FILES) * self.QUERIES_PER_FILE // len(POINT_MODULI))
        rng.shuffle(moduli)
        self.file_ops = []
        for i, spec in enumerate(POINT_FILES):
            if spec[0] == "braid":
                _, strands, length = spec
                word = gen.braid_word(rng, strands, length)
                path, text = WORK_DIR / f"point-{i}.pd", gen.braid_pd(strands, word)
                count = functools.partial(gen.braid_count, strands, word)
            else:
                base = qc.catalog(spec[1])
                d = gen.grow(qc, base, rng, base.arc_count + 8)
                path, text = WORK_DIR / f"point-{i}.rel", d.render_relations()
                count = functools.partial(gen.relations_count, text)
            path.write_text(text, encoding="utf-8")
            for _ in range(self.QUERIES_PER_FILE):
                n = moduli.pop()
                t = rng.choice(gen.units(n))
                self.file_ops += self._file_ops(str(path), n, t, count(n, t))
        rng.shuffle(self.file_ops)

    @staticmethod
    def _file_ops(path: str, n: int, t: int, count: int) -> list[Op]:
        """`colorings` on a file, text and JSON, expecting the seed's output format."""
        argv = ["colorings", path, "--n", str(n), "--t", str(t)]
        doc = {"command": "colorings", "exit_status": 0,
               "inputs": {"cap": DEFAULT_CAP, "link": path, "n": n, "t": t},
               "results": {"count": count}}
        text = f"count: {count}\n"
        doc_json = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        return [CliOp(argv, 0, digest(0, text, "")),
                CliOp(argv + ["--format", "json"], 0, digest(0, doc_json, ""))]

    @staticmethod
    def _op(entry):
        key, rc, fp = entry
        return CliOp(point_argv(key), rc, fp)

    def round_ops(self, r):
        rng = random.Random(f"{self.seed}/{r}")
        ops = [self._op(rng.choice(self.by_query[n, POINT_CYCLE[(i + r) % len(POINT_CYCLE)]]))
               for i, n in enumerate(POINT_MODULI)]
        ops += [self._op(rng.choice(self.by_exit[3])), self._op(rng.choice(self.by_exit[4]))]
        ops += [self.file_ops[(2 * r + k) % len(self.file_ops)] for k in range(2)]
        return ops

    def self_check_ops(self):
        rng = random.Random(self.seed)
        exits = [self._op(min(self.by_exit[rc], key=lambda e: int(e[0].split()[2])))
                 for rc in (3, 4)]
        return super().self_check_ops() + exits + [rng.choice(self.file_ops)]


WORKLOADS = {
    "headline_sweep": HeadlineSweep,
    "large_diagrams": LargeDiagrams,
    "point_queries": PointQueries,
    "general_quandles": GeneralQuandles,
}
