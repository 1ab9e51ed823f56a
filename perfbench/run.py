"""Benchmark of coxkl: one workload per run, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kl-blocks --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else.
Every human-readable line goes before the last line, which is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, taken from traced rounds
(the set-up and one pass) that alternate with untraced ones.
"""
from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # traces and CLI cache directories; not committed
SETUP_PROBES = 8  # fresh interpreters timing set-up, besides this one
# reference_work's fastest time on the 2-core VM the benchmark was tuned on
REFERENCE_S = 0.009
WORKLOAD_NAMES = ("kl-blocks", "audit", "cli-session")


def find_program():
    """Put the checkout's src/ first on the path; coxkl must resolve there.

    The package is located, not imported, so that set-up times its import.
    """
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("coxkl")
    if spec is None or Path(spec.origin).resolve() != SRC / "coxkl" / "__init__.py":
        sys.exit(f"perfbench: no coxkl package under {SRC}; run from the root of a full checkout")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def steady_s(samples) -> float:
    """Median seconds of a call site, at the host speed where the reference takes REFERENCE_S.

    Other tenants of a shared host slow every interpreter-bound call by up to
    2x, for seconds to minutes at a time.  Each call is timed right after the
    fixed ``reference_work``, so the ratio of the two keeps the program's own
    cost and drops the host's speed at that moment.
    """
    return REFERENCE_S * statistics.median(s.seconds / s.reference for s in samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def set_up(args):
    """Import, group construction and input generation; returns (workload, seconds).

    Reading the benchmark's own recorded digests is not the program's set-up
    and happens before the clock starts.
    """
    expected = json.loads((BENCH / "expected.json").read_text())
    t0 = perf_counter()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.groups or cls.groups, args.seed, expected, str(OUT))
    return wl, perf_counter() - t0


def setup_sample(setup_s: float):
    """Pair a set-up time with reference_work, timed (median of 3) right after it."""
    import workloads

    return workloads.Sample(setup_s, statistics.median(workloads.time_reference() for _ in range(3)))


def probe_setup(args) -> list:
    """Set-up samples taken in fresh interpreters, one after another."""
    import workloads

    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.groups:
        cmd += ["--groups", ",".join(args.groups)]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(workloads.Sample(*json.loads(done.stdout.splitlines()[-1])))
    return out


def run_passes(wl, seconds: float, corrupt: bool):
    """Closed loop: start another pass only while it should end within the budget."""
    wl.prepare()
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        p = wl.run_pass(corrupt and not passes)
        wl.verify(p)
        passes.append(p)
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


def site_times(passes):
    """Each call site's median over the passes, in host-steady seconds.

    Every pass makes the same calls in the same order.  Returns the
    table-filling sites by name and the other sites' times, ascending.
    """
    cold = {site: steady_s([x for p in passes for x in p.cold[site]]) for site in passes[0].cold}
    warm = sorted(map(steady_s, zip(*(p.warm for p in passes))))
    return cold, warm


def end_to_end(args, wl, setup_s: float):
    setups = [setup_sample(setup_s)]
    passes = run_passes(wl, args.seconds, args.corrupt)
    setups += probe_setup(args)
    cold, warm = site_times(passes)
    n_cold = sum(len(v) for p in passes for v in p.cold.values())
    metrics = {
        "setup_s": (steady_s(setups), f"median of {len(setups)} fresh interpreters"),
        "solve_s": (
            sum(cold.values()) + sum(warm),
            f"one pass: {len(cold) + len(warm)} call sites, each a median of {len(passes)} passes",
        ),
        "cold_cmd_s": (sum(cold.values()), f"{len(cold)} table-filling sites, {n_cold} calls in all"),
        "cmd_p50_s": (percentile(warm, 50), f"over {len(warm)} warm call sites, each a median of {len(passes)} passes"),
        "cmd_p90_s": (percentile(warm, 90), f"over {len(warm)} warm call sites, each a median of {len(passes)} passes"),
        "peak_rss_mb": (peak_rss_mb(), "ru_maxrss of this process"),
    }
    return passes, metrics


def per_layer(args, wl):
    """Untraced and traced rounds in turn, after an untraced warm-up round.

    A round repeats the set-up, without the import, and runs one pass.  Pairs
    of rounds go on while another pair should end within the run's seconds.
    The layer metrics are per traced round.  ``trace.overhead_frac`` compares
    the two kinds of round as ``setup_s`` plus ``solve_s`` would: one round of
    each differed by up to 20% either way on the audit.
    """
    import spans

    wl.prepare()
    tracer = spans.Tracer()
    passes, rounds = [], {False: [], True: []}  # (set-up sample, pass) by tracing
    traced_s = 0.0
    start = perf_counter()
    for i in itertools.count():
        tracing = i > 0 and i % 2 == 0
        t0 = perf_counter()
        if tracing:
            tracer.install()
        try:
            this, setup = set_up(args)
            s = setup_sample(setup)
            p = this.run_pass(tracing and args.corrupt and not rounds[True])
        finally:
            tracer.remove()
        wl.verify(p)
        passes.append(p)
        if i:
            rounds[tracing].append((s, p))
        if tracing:
            traced_s += setup + p.busy
            now = perf_counter()
            if now - start + 2 * (now - t0) > args.seconds:
                break
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    n = len(rounds[True])
    metrics = {k: (v, f"per round, {n} rounds") for k, v in tracer.layer_metrics(n).items()}

    def total(rs):
        cold, warm = site_times([p for _, p in rs])
        return steady_s([s for s, _ in rs]) + sum(cold.values()) + sum(warm)

    untraced, traced = total(rounds[False]), total(rounds[True])
    metrics["trace.overhead_frac"] = (
        traced / untraced - 1,
        f"traced {traced:.4f} s / untraced {untraced:.4f} s, host-steady, {n} rounds of each",
    )
    metrics["trace.gap_frac"] = (
        1 - tracer.top_level_seconds() / traced_s, "share of the traced time outside top-level spans"
    )
    return passes, metrics


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode:
            return done.returncode
        res = json.loads(done.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--groups", type=lambda s: tuple(s.split(",")), help="override the workload's groups (smoke test)")
    ap.add_argument("--corrupt", action="store_true", help="alter one captured output before it is checked (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    find_program()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(BENCH))
    OUT.mkdir(exist_ok=True)
    wl, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps(setup_sample(setup_s)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    passes, metrics = per_layer(args, wl) if args.trace else end_to_end(args, wl, setup_s)
    if metrics.keys() != units.keys():
        sys.exit(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json lists {sorted(units)}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  groups {wl.describe()}  trace {args.trace}")
    for name, (value, note) in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {units[name]:<6} {note}")
    print(f"  {'failed_frac':<24} {failed / attempted:>14.6g} {'ratio':<6} {failed} of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
