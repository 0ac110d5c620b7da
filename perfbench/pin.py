"""Re-pin the default seed's digests in ``perfbench/pins.json``.

    python3 perfbench/pin.py

Run after an *intentional* change to the study's bytes (the same
occasions ``tests/golden/regenerate.py`` is for).  ``plain_sweeps``
pins each half of every sweep and the merged study, after checking
that the two merged halves equal an unsharded scan of the same study.
``analyst_reads`` pins the diff partner's study, the analysis report
and the diff, after checking the stored study against
``tests/golden/tiny_study.digest.json``.  ``secure_negotiation`` needs
no pins: its sweeps are checked against
``tests/golden/negotiated.digest.json`` directly.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import BENCH_DIR, DEFAULT_SEED, prepare  # noqa: E402


def pin_plain(run_dir: Path) -> dict[str, str]:
    from perfbench.checks import Verifier, study_digest
    from perfbench.workloads import PlainSweeps
    from repro.scanner.shard import merge_snapshots

    workload = PlainSweeps(DEFAULT_SEED, "full", run_dir)
    env = workload.setup()
    verifier = Verifier()
    halves = []
    for shard in range(workload.shards):
        _wall, snapshots = workload.scan(env, shard, workload.executor())
        workload.check(verifier, shard, snapshots)
        halves.append(snapshots)
    whole = env.study.scan_sweeps(
        env.timeline, env.identity, workload.executor()
    )
    merged = study_digest(merge_snapshots(halves))
    if merged != study_digest(whole):
        raise SystemExit("merged halves differ from the unsharded study")
    verifier.check("study", merged)
    return dict(sorted(verifier.recorded.items()))


def pin_analyst(run_dir: Path) -> dict[str, str]:
    from perfbench.checks import Verifier, load_pins
    from perfbench.workloads import AnalystReads

    workload = AnalystReads(DEFAULT_SEED, "full", run_dir)
    env = workload.setup()
    verifier = Verifier()
    for _ in range(2):
        _walls, failed = workload.cycle(env, verifier)
        if failed:
            raise SystemExit(f"cycle failed: {verifier.problems}")
    workload.check_store(env, verifier)
    golden = load_pins("analyst_reads")["study/a"]
    if verifier.recorded["study/a"] != golden:
        raise SystemExit("stored study differs from tiny_study.digest.json")
    return {
        label: digest
        for label, digest in sorted(verifier.recorded.items())
        if label != "study/a"
    }


def main() -> int:
    run_dir = BENCH_DIR / f"pin-{os.getpid()}"
    try:
        prepare(run_dir, [DEFAULT_SEED, DEFAULT_SEED + 1])
        from perfbench.checks import PINS_PATH

        pins = {
            "_comment": "Default-seed digests; regenerate with: "
            "python3 perfbench/pin.py",
            "plain_sweeps": pin_plain(run_dir),
            "analyst_reads": pin_analyst(run_dir),
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
