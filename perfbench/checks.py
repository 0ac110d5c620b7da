"""Output checks: every digest a run produces is compared with a pin.

At the default seed (20200830, full size) the expected digests are the
committed ones — ``tests/golden/negotiated.digest.json`` and
``tests/golden/tiny_study.digest.json`` — plus the benchmark's own
``pins.json`` for what no golden file covers (``plain_sweeps``'
shard digests, the ``analyst_reads`` report and diff digests).  At any
other seed or size the first run records its digests in a per-seed
ledger under ``.perfbench/ledger/`` and every later run of that seed
must reproduce them.  Within one run, a label checked twice must read
the same both times.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.golden import combined_digest, snapshot_digest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins(workload: str) -> dict[str, str]:
    """The default seed's expected digests for ``workload``."""
    if workload == "secure_negotiation":
        golden = json.loads(
            (GOLDEN_DIR / "negotiated.digest.json").read_text()
        )
        return {f"sweep/{d}": v for d, v in golden["per_sweep"].items()}
    pins = json.loads(PINS_PATH.read_text())[workload]
    if workload == "analyst_reads":
        golden = json.loads(
            (GOLDEN_DIR / "tiny_study.digest.json").read_text()
        )
        pins = dict(pins, **{"study/a": golden["digest"]})
    return pins


class Verifier:
    """Compares labelled digests with pins, a ledger, or earlier reads.

    ``pins`` set: every label must be pinned (a missing pin is a
    failure, so a renamed label cannot pass unchecked).  No pins: the
    ledger file (if any) supplies expectations and records new labels.
    """

    def __init__(
        self,
        pins: dict[str, str] | None = None,
        ledger: Path | None = None,
    ):
        self.pinned = pins is not None
        self.expected: dict[str, str] = dict(pins or {})
        self.ledger = ledger
        self.recorded: dict[str, str] = {}
        if ledger is not None and ledger.exists():
            self.expected.update(json.loads(ledger.read_text()))
        self.problems: list[str] = []

    def check(self, label: str, actual: str) -> bool:
        expected = self.expected.get(label)
        if expected is None:
            if self.pinned:
                self.problems.append(f"{label}: no pinned digest")
                return False
            self.expected[label] = self.recorded[label] = actual
            return True
        if expected != actual:
            self.problems.append(
                f"{label}: digest {actual[:12]}… != expected "
                f"{expected[:12]}…"
            )
            return False
        return True

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def save(self) -> None:
        """Append newly seen labels to the ledger (no-op when pinned)."""
        if self.ledger is None or not self.recorded:
            return
        self.ledger.parent.mkdir(parents=True, exist_ok=True)
        merged = {}
        if self.ledger.exists():
            merged = json.loads(self.ledger.read_text())
        merged.update(self.recorded)
        temp = self.ledger.with_suffix(".tmp")
        temp.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        temp.replace(self.ledger)


def study_digest(snapshots) -> str:
    """Whole-study digest, computed outside any traced function."""
    return combined_digest({s.date: snapshot_digest(s) for s in snapshots})


def check_sweeps(verifier: Verifier, prefix: str, snapshots) -> int:
    """Check each snapshot under ``prefix/<date>``; returns failures."""
    return sum(
        not verifier.check(f"{prefix}/{snap.date}", snapshot_digest(snap))
        for snap in snapshots
    )
