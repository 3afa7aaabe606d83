"""quandlecolor benchmark: one workload per process, one client, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload large_diagrams --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The run imports the program from ``src/`` next to this directory, builds
the workload's inputs and golden answers from the seed, checks that the
golden gate rejects a wrong answer, warms up, then issues ops one at a
time, in whole rounds, until ``--seconds`` have passed and MIN_OPS ops
have been timed.  Every answer is checked.  Every time reported is
corrected for the host's drifting speed (see ``hostspeed``).  With ``--trace 0`` it reports the
end-to-end metrics.  With ``--trace 1`` it runs each op of the first round
both untraced and traced (the difference is the tracing overhead), traces
the rest of the run and reports the per-layer metrics.  The last line of
stdout is a JSON object; the lines above it repeat every metric with its
unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import quantile
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_SAMPLES = 3
SETUP_KERNEL_REPEATS = 5
WARMUP_OPS = 2
MIN_OPS = 100  # so that 10 samples lie beyond the reported p90
TRACE_FILE = "trace-{workload}-{seed}.jsonl"


def import_program():
    """Import quandlecolor from this checkout's src/, never from elsewhere."""
    if not (SRC / "quandlecolor" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'quandlecolor'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quandlecolor
    import quandlecolor.cli  # noqa: F401  (ops reach it as quandlecolor.cli.main)

    if Path(quandlecolor.__file__).resolve().parent != SRC / "quandlecolor":
        sys.exit(f"error: imported quandlecolor from {quandlecolor.__file__}, not {SRC}")
    return quandlecolor


def build(qc, workload: str, seed: int):
    return workloads.WORKLOADS[workload](qc, seed, workloads.load_golden())


def setup_probe(workload: str, seed: int) -> None:
    """One set-up sample: cold import plus input generation, in a fresh process."""
    speed = hostspeed.HostSpeed(SETUP_KERNEL_REPEATS)
    start = time.perf_counter()
    qc = import_program()
    imported = time.perf_counter()
    build(qc, workload, seed)
    setup_s = speed.correct(time.perf_counter() - start)
    import_s = (imported - start) * speed.factors[-1]
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up and import seconds over SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return (statistics.median(s["setup_s"] for s in samples),
            statistics.median(s["import_s"] for s in samples))


class Tally:
    """Attempted and failed ops, with the first few failures kept for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op, result) -> None:
        self.attempted += 1
        try:
            ok = not isinstance(result, Exception) and op.check(result)
        except Exception as exc:  # a malformed answer is a wrong answer
            ok, result = False, exc
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(op).__name__} {getattr(op, 'argv', '')}: {result!r:.300}")


def execute(qc, op, speed=None):
    """Run one op; return its result and its seconds, corrected by `speed` if given."""
    start = time.perf_counter()
    try:
        result = op.run(qc)
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        result = exc
    seconds = time.perf_counter() - start
    return result, seconds if speed is None else speed.correct(seconds)


def gate_bites(qc, wl) -> bool:
    """The golden gate passes true answers (exit 3 and 4 included) and fails a wrong one."""
    ops = wl.self_check_ops()
    tally = Tally()
    for op in ops:
        tally.record(op, execute(qc, op)[0])
    passes = tally.failed == 0
    tally.record(ops[0].perturbed(), execute(qc, ops[0])[0])
    return passes and tally.failed == 1


def run_round(qc, ops, tally: Tally, speed, tracer=None) -> list[float]:
    """Issue the ops one after another; return their corrected latencies."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.start_op(tally.attempted)
        result, dt = execute(qc, op, speed)
        if tracer is not None:
            tracer.end_op(op, result, speed.factors[-1])
        tally.record(op, result)
        latencies.append(dt)
    return latencies


def run_rounds(qc, wl, deadline: float, min_ops: int, tally: Tally, speed, tracer=None,
               first_round=0):
    """Issue whole rounds until `deadline` has passed and `min_ops` ops are timed."""
    latencies: list[float] = []
    r = first_round
    while time.perf_counter() < deadline or len(latencies) < min_ops:
        latencies += run_round(qc, wl.round_ops(r), tally, speed, tracer)
        r += 1
    return latencies


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies, timed_failed: int, setup_s: float, peak_rss_mb: float) -> dict:
    busy = sum(latencies)
    return {
        "throughput_ops_s": metric((len(latencies) - timed_failed) / busy, "1/s"),
        "latency_p50_ms": metric(quantile.harrell_davis(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": metric(quantile.harrell_davis(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(tracer, ops: int, import_s: float, overhead_s: float) -> dict:
    times = tracer.self_times()
    counts = tracer.counts

    def per_op(value):
        return value / ops

    calls = counts.get("smith.calls", 0)
    systems = counts.get("smith.systems", 0)
    out = {}
    for name in ("smith.smith_normal_form.s", "solver.build_system.s",
                 "solver.brute_force_colorings.s", "quandle.alexander.s",
                 "quandle.parse_quandle_file.s", "diagram.parse_relations_file.s",
                 "diagram.parse_pd_code.s", "presentation.extract.s",
                 "solver.enumerate_solutions.self_s", "invariants.phi_polynomial.self_s",
                 "invariants.compare.self_s", "solver.count_solutions.self_s",
                 "invariants.counting_invariant.self_s", "cli.main.self_s"):
        out[name] = metric(per_op(times.get(name, 0.0)), "s/op")
    for name in ("smith.calls", "smith.matrix_cells", "solver.colorings_enumerated",
                 "solver.brute_force.colorings_found", "quandle.validate.triples",
                 "diagram.arcs_parsed"):
        out[name] = metric(per_op(counts.get(name, 0)), "count/op")
    out["cli.output_bytes"] = metric(per_op(counts.get("cli.output_bytes", 0)), "bytes/op")
    out["smith.max_coeff_bits"] = metric(counts.get("smith.max_coeff_bits", 0), "bits")
    out["smith.calls_per_system"] = metric(calls / systems if systems else 0.0, "ratio")
    out["diagram.surgery.s"] = metric(tracer.surgery_seconds(), "s")
    out["import.quandlecolor.s"] = metric(import_s, "s")
    out["trace.overhead_s"] = metric(overhead_s, "s/op")
    out["trace.spans"] = metric(per_op(tracer.layer_spans()), "count/op")
    return out


def run_workload(args) -> int:
    qc = import_program()  # first, so that set-up samples never compile bytecode
    setup_s, import_s = measure_setup(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # generation is traced too, for diagram.surgery.s
    wl = build(qc, args.workload, args.seed)
    if tracer is not None:
        tracer.uninstall()
    if not gate_bites(qc, wl):
        print("error: the golden gate did not reject a perturbed answer, "
              "or rejected a true one", file=sys.stderr)
        return 1
    tally = Tally()  # warm-up and reference ops are checked and counted too
    for op in wl.round_ops(0)[:WARMUP_OPS]:
        tally.record(op, execute(qc, op)[0])

    speed = hostspeed.HostSpeed()
    failed_untimed = tally.failed
    deadline = time.perf_counter() + args.seconds
    if tracer is None:
        latencies = run_round(qc, wl.round_ops(0), tally, speed)
        # after one whole round every kind of op has run once; later rounds
        # only add allocator fragmentation, which grows with run length
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies += run_rounds(qc, wl, deadline, MIN_OPS - len(latencies), tally, speed,
                                first_round=1)
        metrics = end_to_end(latencies, tally.failed - failed_untimed, setup_s, peak_rss_mb)
    else:
        # tracing overhead: each op of round 0 untraced and traced, alternating
        # which goes first so that warming up favours neither side
        untraced, latencies = [], []
        for i, op in enumerate(wl.round_ops(0)):
            for traced in ((False, True) if i % 2 else (True, False)):
                if traced:
                    tracer.install()
                    latencies += run_round(qc, [op], tally, speed, tracer)
                    tracer.uninstall()
                else:
                    untraced += run_round(qc, [op], tally, speed)
        overhead_s = (sum(latencies) - sum(untraced)) / len(latencies)
        tracer.install()
        latencies += run_rounds(qc, wl, deadline, MIN_OPS - len(latencies), tally, speed,
                                tracer, first_round=1)
        tracer.uninstall()
        metrics = per_layer(tracer, len(latencies), import_s, overhead_s)
        tracer.write(workloads.WORK_DIR / TRACE_FILE.format(workload=args.workload, seed=args.seed))

    for line in tally.errors:
        print(f"failed: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {len(latencies)} ops timed, "
          f"{sum(latencies):.2f} s of op time at reference speed; host speed "
          f"{statistics.median(speed.factors):.3f} of reference (median over ops)")
    print(f"  {'failed_frac':32s} {tally.failed / tally.attempted:.6g} fraction")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every workload's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
