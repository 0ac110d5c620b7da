"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plain_sweeps --seed 1 \\
        --seconds 17 --trace 0

Run from the root of a checkout (``src/`` and the committed
``.keycache/`` must be present).  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — every ``end_to_end`` metric
of ``BENCHMARK.json`` with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``.  The exit code is 0 when every output check passed,
1 when one failed, and 2 when the program cannot be found.

Scratch state (keys, stores) lives under ``.perfbench/run-<pid>/`` and
is removed on exit; span files (``.perfbench/traces/``) and the per-seed
digest ledger (``.perfbench/ledger/``) persist.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / ".perfbench"
CANONICAL_KEYS = ROOT / ".keycache" / "seed20200830"
WORKLOAD_NAMES = ("plain_sweeps", "secure_negotiation", "analyst_reads")
#: The seed of the committed ``.keycache/`` and ``tests/golden/`` digests.
DEFAULT_SEED = 20200830


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=17)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "smoke"),
        default="full",
        help="smoke: a few spec rows, for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def seed_keycache(keycache: Path, seeds) -> None:
    """Give every seed the committed keys, in a run-private cache.

    Keys are deterministic in (seed, label, bits) and the labels do not
    depend on the seed, so a seed's population asks for exactly the
    labels the committed 20200830 cache holds.  Generating them instead
    costs ~0.5 s per key in pure Python (~300 keys for
    ``plain_sweeps``), far beyond one run.  The committed directory is
    only read; any label it lacks is generated into the copy and shows
    as ``deployments.keys_generated``.
    """
    for seed in seeds:
        target = keycache / f"seed{seed}"
        target.mkdir(parents=True, exist_ok=True)
        for path in CANONICAL_KEYS.iterdir():
            shutil.copyfile(path, target / path.name)


def prepare(run_dir: Path, seeds) -> None:
    """Key cache, environment and import path; before repro is imported."""
    seed_keycache(run_dir / "keycache", seeds)
    os.environ["REPRO_KEYCACHE"] = str(run_dir / "keycache")
    os.environ.pop("REPRO_STUDY_STORE", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def tail_note(samples: list[float]) -> str:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    for q in (99, 95, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            value = statistics.quantiles(samples, n=100)[q - 1] * 1000
            return f", p{q} {value:.1f} ms"
    return ""


def run(args: argparse.Namespace, run_dir: Path) -> tuple[dict, list[str]]:
    from perfbench import layers
    from perfbench.checks import Verifier, load_pins
    from perfbench.tracing import Tracer, span_stats
    from perfbench.workloads import WORKLOADS, Tally, claim_checks

    workload = WORKLOADS[args.workload](args.seed, args.size, run_dir)
    if args.seed == DEFAULT_SEED and args.size == "full":
        verifier = Verifier(pins=load_pins(args.workload))
    else:
        verifier = Verifier(
            ledger=BENCH_DIR
            / "ledger"
            / f"{args.workload}-{args.size}-seed{args.seed}.json"
        )
    tally = Tally()
    lines = [f"workload {args.workload} seed {args.seed} size {args.size}"]
    tracer = Tracer() if args.trace else None

    setup_walls = []
    reps = 1 if tracer is not None else workload.setup_reps
    for _ in range(reps):
        env = None  # free the previous environment before rebuilding
        start = perf_counter()
        env = workload.setup(tracer)
        setup_walls.append(perf_counter() - start)

    if tracer is None:
        measured = workload.measure(env, args.seconds, verifier, tally)
        metrics = end_to_end_metrics(
            args.workload, setup_walls, measured, lines
        )
    else:
        extras = workload.setup_extras(env)
        extras.update(
            workload.trace(env, args.seconds, tracer, verifier, tally)
        )
        metrics = {
            name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
            for name, value in layers.layer_metrics(tracer, extras).items()
        }
        stats = span_stats(tracer)
        lines.append(f"  {'span':32} {'calls':>6} {'s':>7} {'self_s':>7}")
        for name, entry in sorted(stats.items()):
            lines.append(
                f"  {name:32} {entry['calls']:6} {entry['s']:7.3f} "
                f"{entry['self_s']:7.3f}"
            )
        lines.extend(claim_checks(args.workload, tracer))
        path = tracer.write(
            BENCH_DIR
            / "traces"
            / f"{args.workload}-{args.size}-seed{args.seed}.spans"
        )
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    verifier.save()
    lines.extend(f"check failed: {problem}" for problem in verifier.problems)
    correct = tally.failed == 0 and not verifier.problems
    lines.append(
        f"error_rate {tally.failed / max(tally.attempted, 1):.4f} "
        f"({tally.failed} of {tally.attempted} operations failed)"
    )
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": max(tally.failed, 0 if correct else 1),
        "metrics": metrics,
    }
    return result, lines


def end_to_end_metrics(workload, setup_walls, measured, lines) -> dict:
    from repro.crypto.cache import cache_stats

    scan_wall = sum(measured.pass_walls)
    setup_s = statistics.median(setup_walls)
    ops_per_s = measured.work / scan_wall
    pass_p50_ms = statistics.median(measured.pass_walls) * 1000
    rss = measured.peak_rss_mb
    lines.append(
        f"setup_s {setup_s:.3f} s (median of {len(setup_walls)}: "
        + ", ".join(f"{w:.3f}" for w in setup_walls)
        + ")"
    )
    if workload == "analyst_reads":
        lines.append(
            f"read_ops_per_s {ops_per_s:.3f} 1/s ({measured.work} ops "
            f"over {scan_wall:.2f} s, one client, no think time)"
        )
        for op, walls in measured.op_walls.items():
            lines.append(
                f"{op}_p50_ms {statistics.median(walls) * 1000:.1f} ms "
                f"(n={len(walls)}{tail_note(walls)})"
            )
    else:
        lines.append(
            f"grabs_per_s {ops_per_s:.3f} 1/s ({measured.work} host "
            f"records over {scan_wall:.2f} s of scan wall)"
        )
        caches = ", ".join(
            f"{entry['name']} {entry['hit_rate']:.3f}"
            for entry in cache_stats()
        )
        lines.append(f"cache hit rates after the last pass: {caches}")
    lines.append(
        f"pass_p50_ms {pass_p50_ms:.1f} ms "
        f"(n={len(measured.pass_walls)}{tail_note(measured.pass_walls)})"
    )
    lines.append(f"peak_rss_mb {rss:.1f} MB")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "pass_p50_ms": {"value": pass_p50_ms, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not CANONICAL_KEYS.is_dir():
        print(
            f"perfbench: no program under {ROOT} (need src/repro and "
            ".keycache/seed20200830); run from a full checkout",
            file=sys.stderr,
        )
        return 2
    # On SIGTERM, unwind like an exception: executor pools shut their
    # workers down and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = BENCH_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        seeds = [args.seed]
        if args.workload == "analyst_reads":
            seeds.append(args.seed + 1)  # the diff partner's study
        prepare(run_dir, seeds)
        result, lines = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
