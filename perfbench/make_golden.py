"""Record the golden answers the benchmark checks against.

    python3 perfbench/make_golden.py

Runs the program in ``src/`` and writes ``golden.json``: the exit code and
the fingerprint (exit code, stdout, stderr) of every headline-sweep cell
and of every catalog point query, and the conjugation-quandle counts of the catalog
links that the general-quandle workload builds on.  Answers that an
oracle can check are checked here before they are written.  Regenerate
only at a commit whose outputs are known to be right: the file defines
what "correct" means for every later run.
"""

from __future__ import annotations

import json
import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def main() -> None:
    qc = run.import_program()
    golden = {"headline_sweep": {}, "point_queries": {}, "general_quandles": {}}

    for policy in W.HEADLINE_POLICIES:
        for n in W.HEADLINE_N:
            rc, out, err = W.run_cli(qc, ["compare", "hopf_sum", "allen_swenberg", "--n", str(n),
                                          "--t", policy, "--format", "json"])
            assert rc == 0 and json.loads(out)["results"]["verdict"] == "not distinguished"
            golden["headline_sweep"][f"{policy} {n}"] = f"{rc} {W.digest(rc, out, err)}"

    for link in W.POINT_LINKS:
        text = qc.catalog(link).render_relations()
        for n in W.POINT_MODULI:
            for t in W.point_t_values(n):
                count = gen.relations_count(text, n, t) if gcd(t, n) == 1 else None
                for cmd in W.POINT_COMMANDS:
                    if cmd == "phi" and count is not None and W.POINT_PHI_LIMIT < count <= W.DEFAULT_CAP:
                        continue
                    for fmt in ("text", "json"):
                        key = f"{cmd} {link} {n} {t} {fmt}"
                        rc, out, err = W.run_cli(qc, W.point_argv(key))
                        expected_rc = 4 if count is None else 3 if cmd == "phi" and count > W.DEFAULT_CAP else 0
                        assert rc == expected_rc, (key, rc)
                        if cmd == "colorings" and rc == 0:
                            shown = json.loads(out)["results"]["count"] if fmt == "json" else int(out.split()[1])
                            assert shown == count, (key, shown, count)
                        golden["point_queries"][key] = f"{rc} {W.digest(rc, out, err)}"

    for name, size in (("S4", 4), ("S5", 5)):
        q = qc.parse_quandle_file(gen.table_text(gen.transposition_table(size)))
        counts = {link: len(qc.brute_force_colorings(qc.extract(qc.catalog(link)), q))
                  for link in W.POINT_LINKS}
        # unknot: |Q|; unlink2: |Q|^2; hopf_sum is hopf # hopf
        assert counts["unknot"] == q.order and counts["unlink2"] == q.order**2
        assert counts["hopf_sum"] * q.order == counts["hopf"] ** 2
        golden["general_quandles"][name] = counts

    path = W.GOLDEN_PATH
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path.name}: {len(golden['point_queries'])} point queries")


if __name__ == "__main__":
    main()
