"""Self-tests of the benchmark: metric coverage, checks, refusal.

The coverage test runs every workload at the reduced ``smoke`` size,
untraced and traced, and checks that each metric ``BENCHMARK.json``
names is printed with its unit (~30 s in total).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.checks import Verifier  # noqa: E402
from perfbench.run import DEFAULT_SEED  # noqa: E402
from perfbench.tracing import read_spans  # noqa: E402
from perfbench.workloads import PlainSweeps  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    done = run_benchmark(
        ROOT,
        "--workload", workload,
        "--seed", str(DEFAULT_SEED),
        "--seconds", "1",
        "--trace", trace,
        "--size", "smoke",
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    printed = result["metrics"]
    assert sorted(printed) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(printed[metric["name"]]["value"], (int, float))
    if trace == "1":
        name = f"{workload}-smoke-seed{DEFAULT_SEED}.spans"
        header, columns = read_spans(ROOT / ".perfbench" / "traces" / name)
        assert header["spans"] == len(columns["end"]) > 0
        assert all(
            columns["end"][i] >= columns["start"][i]
            for i in range(header["spans"])
        )


def test_corrupted_snapshot_fails_the_check(tmp_path):
    workload = PlainSweeps(DEFAULT_SEED, "smoke", tmp_path)
    env = workload.setup()
    _wall, snapshots = workload.scan(env, 0, workload.serial())
    recorder = Verifier()
    assert workload.check(recorder, 0, snapshots) == (8, 0)
    pinned = Verifier(pins=recorder.recorded)
    assert workload.check(pinned, 0, snapshots) == (8, 0)
    snapshots[3].records[0].port += 1
    assert workload.check(pinned, 0, snapshots) == (8, 1)
    assert len(pinned.problems) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = run_benchmark(
        tmp_path, "--workload", "plain_sweeps", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
