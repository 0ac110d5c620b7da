"""The three benchmark workloads, driven through public entry points.

* ``plain_sweeps`` — the eight-sweep study over the 18 None-only rows
  of ``build_default_spec()`` (270 servers) plus the full discovery
  fleet, default sweep config, ``process`` executor with 2 workers.
  One pass scans one half (``ShardSpec(i, 2)``) of every sweep's
  candidate stream; passes alternate halves, so a run of two passes
  covers the whole study and the merged halves are checked as one.
* ``secure_negotiation`` — the golden negotiated-security study
  (``tiny_secure_spec()`` + ``tiny_study_config()``), serial.  One pass
  is one sweep (from 2020-05-04 on, in order), scanned by
  ``Study.scan_sweeps`` over a timeline view whose other sweeps are
  empty networks; each sweep is checked against its committed digest.
* ``analyst_reads`` — one closed-loop client, no think time, cycling
  ``load`` → ``run_analyses`` → ``StudyCatalog.diff`` → ``save`` over a
  two-entry store built during set-up.

Every workload also has a ``smoke`` size (a few spec rows) that the
self-test uses; the driver always runs ``full``.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from perfbench import layers
from perfbench.checks import Verifier, check_sweeps, study_digest
from perfbench.tracing import Tracer, span_stats
from repro.analysis.pipeline import run_analyses
from repro.core.config import StudyConfig
from repro.core.golden import tiny_secure_spec, tiny_spec, tiny_study_config
from repro.core.study import Study
from repro.crypto.cache import cache_stats, clear_caches
from repro.dataset.catalog import StudyCatalog
from repro.dataset.store import StudyStore, study_key
from repro.deployments.evolution import SWEEP_DATES
from repro.deployments.spec import PopulationSpec, build_default_spec
from repro.netsim.net import SimNetwork
from repro.scanner.executor import build_executor
from repro.scanner.shard import ShardSpec, merge_snapshots
from repro.util.simtime import SimClock, parse_utc

#: Grab samples a traced scan run collects at least, so that ten lie
#: beyond the reported p95 (``full`` size; ``smoke`` takes 20).
TRACE_MIN_GRABS = 200


@dataclasses.dataclass
class Tally:
    """Operations attempted and failed (raised or failed a check)."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclasses.dataclass
class Measurement:
    """What one untraced run measured."""

    work: int  # host records (scans) or read operations (analyst)
    pass_walls: list[float]
    #: Peak RSS through set-up and the first measured pass.  Later
    #: passes repeat the same work but still creep the high-water mark
    #: up (allocator fragmentation), so counting them would make the
    #: metric depend on how many passes fit in the window.
    peak_rss_mb: float
    op_walls: dict[str, list[float]] = dataclasses.field(
        default_factory=dict
    )


@dataclasses.dataclass
class ScanEnv:
    study: Study
    timeline: object
    identity: object
    factories: list = dataclasses.field(default_factory=list)


class CountingExecutor:
    """Counts completed tasks per kind on the coordinator side.

    ``expand`` fires exactly once per finished task on every backend,
    so the counts are exact even when grabs run in forked workers.
    """

    def __init__(self, inner, counts: Counter):
        self._inner = inner
        self._counts = counts
        self.name = inner.name
        self.workers = inner.workers

    def run(self, tasks, grab, expand):
        counts = self._counts

        def counting_expand(task, record):
            stage = getattr(task, "stage", 1)
            counts[("probe", "grab", "follow_ref")[stage]] += 1
            return expand(task, record)

        return self._inner.run(tasks, grab, counting_expand)


class _EmptyNetwork(SimNetwork):
    """A sweep's Internet with nobody in it (noise hosts included)."""

    def add_host(self, host) -> None:
        pass


class OneSweepTimeline:
    """A timeline view in which only sweep ``index`` has hosts.

    ``Study.scan_sweeps`` still walks all eight sweep dates; the other
    seven scan an empty Internet, so a pass costs one sweep and its
    snapshot is byte-identical to that sweep of a full study.
    """

    def __init__(self, timeline, index: int):
        self._timeline = timeline
        self._index = index

    def network_for_sweep(self, sweep: int):
        if sweep == self._index:
            return self._timeline.network_for_sweep(sweep)
        return _EmptyNetwork(SimClock(parse_utc(SWEEP_DATES[sweep])))


def _grab_extras(snapshots, grab_calls: int) -> dict[str, float]:
    """Ratios computed from a traced pass's output records."""
    records = [r for snap in snapshots for r in snap.records]
    attempted = completed = 0
    for record in records:
        session = record.session
        if session is None:
            continue
        if session.negotiated_policy_uri is not None:
            completed += 1
            attempted += 1
        elif session.negotiation_error is not None:
            attempted += 1
    useful = sum(1 for record in records if record.is_opcua)
    return {
        "scanner.useful_grab_ratio": useful / grab_calls if grab_calls else 0,
        "secure.negotiated_ratio": completed / attempted if attempted else 0,
        "transport.bytes_sent": sum(r.scan_bytes for r in records),
    }


def _cache_extras() -> dict[str, float]:
    return {
        f"crypto.cache.{entry['name']}.hit_rate": entry["hit_rate"]
        for entry in cache_stats()
    }


class ScanWorkload:
    """Shared set-up and tracing for the two scan workloads."""

    setup_reps = 3

    def __init__(self, seed: int, size: str, run_dir: Path):
        self.seed = seed
        self.size = size
        self.run_dir = run_dir

    def setup(self, tracer: Tracer | None = None) -> ScanEnv:
        """Build population, keys and timeline from cold crypto caches."""
        clear_caches()
        factories = []
        if tracer is not None:
            factories = layers.install_setup_layer(tracer)
        try:
            study = Study(self.config, spec=self.spec)
            _hosts, timeline = study.build_environment(self.spec)
            timeline.warm_discovery_allocations(len(SWEEP_DATES))
            identity = study.scanner_identity()
        finally:
            if tracer is not None:
                tracer.unpatch()
        if tracer is not None:
            tracer.assert_fired(layers.SETUP_SPANS)
        return ScanEnv(study, timeline, identity, factories)

    def setup_extras(self, env: ScanEnv) -> dict[str, float]:
        return {
            "deployments.keys_loaded": sum(
                f.stats["loaded"] for f in env.factories
            ),
            "deployments.keys_generated": sum(
                f.stats["generated"] for f in env.factories
            ),
        }

    def serial(self):
        return build_executor("serial", 1)

    def check(self, verifier, unit, snapshots) -> tuple[int, int]:
        """Check one pass's snapshots: ``(attempted, failed)``."""
        return len(snapshots), check_sweeps(
            verifier, self.label(unit), snapshots
        )

    def measure(self, env, seconds, verifier, tally) -> Measurement:
        walls: list[float] = []
        records, rss = 0, 0.0
        outputs: dict[int, list] = {}
        unit = self.first_unit
        while sum(walls) < seconds:
            outputs.pop(unit, None)  # hold one output per unit at most
            start = perf_counter()
            try:
                wall, snapshots = self.scan(env, unit, self.executor())
            except Exception as exc:  # counted as a failed operation
                walls.append(perf_counter() - start)
                tally.add(1, 1)
                verifier.fail(f"{type(exc).__name__}: {exc}")
                break
            walls.append(wall)
            rss = rss or peak_rss_mb()
            records += sum(len(s.records) for s in snapshots)
            tally.add(*self.check(verifier, unit, snapshots))
            outputs[unit] = snapshots
            unit = self.next_unit(unit)
        self.check_run(outputs, verifier, tally)
        return Measurement(records, walls, rss or peak_rss_mb())

    def check_run(self, outputs, verifier, tally) -> None:
        """Checks over a whole run's passes (none by default)."""

    def traced_passes(self, env, tracer, verifier, tally):
        """Traced serial passes until :data:`TRACE_MIN_GRABS` grabs."""
        layers.install_scan_layers(tracer)
        unit, walls, outputs = self.first_unit, [], []
        minimum = TRACE_MIN_GRABS if self.size == "full" else 20
        try:
            while True:
                with tracer.span("bench.pass"):
                    wall, snapshots = self.scan(env, unit, self.serial())
                walls.append(wall)
                outputs.extend(snapshots)
                tally.add(*self.check(verifier, unit, snapshots))
                unit = self.next_unit(unit)
                if tracer.calls("scanner.grab_host") >= minimum:
                    break
        finally:
            tracer.unpatch()
        tracer.assert_fired(self.required_spans)
        extras = _grab_extras(outputs, tracer.calls("scanner.grab_host"))
        extras.update(_cache_extras())
        return walls, extras


class PlainSweeps(ScanWorkload):
    name = "plain_sweeps"
    shards = 2
    first_unit = 0
    required_spans = layers.SCAN_SPANS + layers.TRAVERSAL_SPANS

    def __init__(self, seed: int, size: str, run_dir: Path):
        super().__init__(seed, size, run_dir)
        rows = [r for r in build_default_spec().rows if r.policy_group == "PA"]
        if size == "smoke":
            self.spec = PopulationSpec(rows=rows[:2])
            self.config = StudyConfig(
                seed=seed,
                noise_hosts=4,
                extra_sweep_candidates=50,
                discovery_scale=0.01,
            )
        else:
            self.spec = PopulationSpec(rows=rows)
            self.config = StudyConfig(seed=seed)

    def executor(self):
        return build_executor("process", 2)

    def scan(self, env: ScanEnv, shard: int, executor):
        """One half of every sweep: ``(wall, eight snapshots)``."""
        clear_caches()
        start = perf_counter()
        snapshots = env.study.scan_sweeps(
            env.timeline,
            env.identity,
            executor,
            shard=ShardSpec(shard, self.shards),
        )
        return perf_counter() - start, snapshots

    def next_unit(self, shard: int) -> int:
        return (shard + 1) % self.shards

    def label(self, shard: int) -> str:
        return f"shard{shard}"

    def check_run(self, outputs, verifier, tally) -> None:
        if len(outputs) == self.shards:
            merged = merge_snapshots(list(outputs.values()))
            tally.add(1, not verifier.check("study", study_digest(merged)))

    def trace(self, env, seconds, tracer, verifier, tally):
        counts: Counter = Counter()
        process_wall, process_out = self.scan(
            env, 0, CountingExecutor(self.executor(), counts)
        )
        serial_wall, serial_out = self.scan(env, 0, self.serial())
        for snapshots in (process_out, serial_out):
            tally.add(*self.check(verifier, 0, snapshots))
        walls, extras = self.traced_passes(env, tracer, verifier, tally)
        extras.update(
            {
                "executor.tasks.probe": counts["probe"],
                "executor.tasks.grab": counts["grab"],
                "executor.tasks.follow_ref": counts["follow_ref"],
                "executor.parallel_efficiency": serial_wall
                / (2 * process_wall),
                "trace.overhead_ratio": walls[0] / serial_wall,
            }
        )
        return extras


class SecureNegotiation(ScanWorkload):
    name = "secure_negotiation"
    #: Passes start at 2020-05-04, the first sweep that follows
    #: endpoint references; the final sweep adds traversal.
    first_unit = 3
    required_spans = layers.SCAN_SPANS + layers.CRYPTO_SPANS

    def __init__(self, seed: int, size: str, run_dir: Path):
        super().__init__(seed, size, run_dir)
        self.config = tiny_study_config(seed=seed)
        spec = tiny_secure_spec()
        if size == "smoke":
            spec = PopulationSpec(rows=spec.rows[:3])
        self.spec = spec

    executor = ScanWorkload.serial

    def scan(self, env: ScanEnv, sweep: int, executor):
        """One sweep: ``(wall, [its snapshot])``."""
        clear_caches()
        start = perf_counter()
        snapshots = env.study.scan_sweeps(
            OneSweepTimeline(env.timeline, sweep), env.identity, executor
        )
        return perf_counter() - start, [snapshots[sweep]]

    def next_unit(self, sweep: int) -> int:
        return (sweep + 1) % len(SWEEP_DATES)

    def label(self, sweep: int) -> str:
        return "sweep"

    def trace(self, env, seconds, tracer, verifier, tally):
        reference_wall, snapshots = self.scan(
            env, self.first_unit, self.serial()
        )
        tally.add(*self.check(verifier, self.first_unit, snapshots))
        walls, extras = self.traced_passes(env, tracer, verifier, tally)
        extras["trace.overhead_ratio"] = walls[0] / reference_wall
        return extras


# --- analyst reads -----------------------------------------------------------


@dataclasses.dataclass
class StoreEnv:
    store: StudyStore
    catalog: StudyCatalog
    config_a: StudyConfig
    config_b: StudyConfig
    spec: PopulationSpec
    key_a: str
    key_b: str


OPS = ("load", "analyze", "diff", "save")


class AnalystReads:
    name = "analyst_reads"
    setup_reps = 1

    def __init__(self, seed: int, size: str, run_dir: Path):
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.spec = tiny_spec(rows=2 if size == "smoke" else 8)
        self.config_a = tiny_study_config(seed=seed)
        # The diff partner: the same rows and scan config at the next
        # seed.  No single scan-config field changes this population's
        # final-sweep servers, so a different seed is what makes the
        # diff non-empty.
        self.config_b = tiny_study_config(seed=seed + 1)
        self._stores = 0

    def setup(self, tracer: Tracer | None = None) -> StoreEnv:
        """Scan both studies into a fresh store (``Study.run``)."""
        self._stores += 1
        store = StudyStore(self.run_dir / f"store-{self._stores}")
        for config in (self.config_a, self.config_b):
            Study(config, spec=self.spec).run(store=store)
        return StoreEnv(
            store=store,
            catalog=StudyCatalog(store),
            config_a=self.config_a,
            config_b=self.config_b,
            spec=self.spec,
            key_a=study_key(self.config_a, self.spec),
            key_b=study_key(self.config_b, self.spec),
        )

    def setup_extras(self, env: StoreEnv) -> dict[str, float]:
        return {}

    def check_store(self, env: StoreEnv, verifier: Verifier) -> int:
        failed = 0
        for label, key in (("study/a", env.key_a), ("study/b", env.key_b)):
            digest = env.catalog.describe(key).digest
            failed += not verifier.check(label, digest)
        return failed

    def cycle(self, env: StoreEnv, verifier: Verifier, tracer=None):
        """One load → analyze → diff → save cycle; ``(walls, failed)``.

        With a tracer, each operation is a top-level ``op.<name>`` span.
        """
        walls: dict[str, float] = {}
        failed = 0

        def timed(op, call):
            span = tracer.span(f"op.{op}") if tracer else nullcontext()
            with span:
                start = perf_counter()
                result = call()
                walls[op] = perf_counter() - start
            return result

        try:
            snapshots = timed(
                "load", lambda: env.store.load(env.config_a, env.spec)
            )
            failed += not verifier.check("study/a", study_digest(snapshots))
            report = timed(
                "analyze",
                lambda: run_analyses(
                    snapshots, env.spec, seed=env.config_a.seed
                ),
            )
            failed += not verifier.check("report", report.digest())
            diff = timed(
                "diff", lambda: env.catalog.diff(env.key_a, env.key_b)
            )
            failed += not verifier.check("diff", diff.digest())
            if diff.is_empty():
                verifier.fail("diff of the two entries is empty")
                failed += 1
            key = timed(
                "save",
                lambda: env.store.save(env.config_a, env.spec, snapshots),
            )
            failed += not verifier.check(
                "study/a", env.catalog.describe(key).digest
            )
            if tracer is not None:
                tracer.count(
                    "dataset.bytes_written",
                    sum(
                        p.stat().st_size
                        for p in env.store.entry_dir(key).iterdir()
                    ),
                )
        except Exception as exc:  # counted as failed operations
            verifier.fail(f"{type(exc).__name__}: {exc}")
            failed += len(OPS) - len(walls)
        return walls, failed

    def measure(self, env, seconds, verifier, tally) -> Measurement:
        tally.add(2, self.check_store(env, verifier))
        self.cycle(env, verifier)  # untimed warm-up
        op_walls: dict[str, list[float]] = {op: [] for op in OPS}
        cycle_walls: list[float] = []
        rss = 0.0
        while sum(cycle_walls) < seconds:
            walls, failed = self.cycle(env, verifier)
            tally.add(len(OPS), failed)
            for op, wall in walls.items():
                op_walls[op].append(wall)
            cycle_walls.append(sum(walls.values()))
            rss = rss or peak_rss_mb()
            if failed:
                break
        return Measurement(
            work=sum(len(w) for w in op_walls.values()),
            pass_walls=cycle_walls,
            peak_rss_mb=rss or peak_rss_mb(),
            op_walls=op_walls,
        )

    def trace(self, env, seconds, tracer, verifier, tally):
        tally.add(2, self.check_store(env, verifier))
        self.cycle(env, verifier)  # untimed warm-up
        reference, failed = self.cycle(env, verifier)
        tally.add(len(OPS), failed)
        layers.install_read_layers(tracer)
        traced: list[float] = []
        try:
            while not traced or sum(traced) < seconds:
                walls, failed = self.cycle(env, verifier, tracer)
                tally.add(len(OPS), failed)
                traced.append(sum(walls.values()))
                if failed:
                    break
        finally:
            tracer.unpatch()
        tracer.assert_fired(layers.READ_SPANS)
        return {
            "trace.overhead_ratio": statistics.median(traced)
            / sum(reference.values())
        }


WORKLOADS = {
    cls.name: cls for cls in (PlainSweeps, SecureNegotiation, AnalystReads)
}


def claim_checks(workload: str, tracer: Tracer) -> list[str]:
    """The traffic-profile claims the traced run confirms or refutes."""
    stats = span_stats(tracer)

    def total(name: str) -> float:
        return stats.get(name, {}).get("s", 0.0)

    lines = []
    if workload == "secure_negotiation":
        aes = total("crypto.aes.encrypt") + total("crypto.aes.decrypt")
        grab = total("scanner.grab_host")
        share = aes / grab if grab else 0.0
        lines.append(
            f"claim: crypto.aes.*.s is {share:.1%} of scanner.grab_host.s "
            f"({'holds' if share > 0.5 else 'does not hold'}: most = >50%)"
        )
    if workload == "analyst_reads":
        names, ids = tracer.names, tracer.name_ids
        diff_id = names.index("op.diff")
        primes_id = names.index("analysis.find_shared_primes")
        diff_s = primes_s = 0.0
        for i in range(len(ids)):
            duration = tracer.ends[i] - tracer.starts[i]
            if ids[i] == diff_id:
                diff_s += duration
            elif ids[i] == primes_id and ids[tracer.requests[i]] == diff_id:
                primes_s += duration
        share = primes_s / diff_s if diff_s else 0.0
        lines.append(
            "claim: analysis.find_shared_primes.s is "
            f"{share:.1%} of the diff operations' time "
            f"({'holds' if share > 0.5 else 'does not hold'}: most = >50%)"
        )
    return lines

