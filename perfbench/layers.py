"""Which public functions a traced run wraps, and the metrics they give.

Each wrapped function is patched at the name its caller looks up —
``repro.scanner.campaign.grab_host`` rather than only
``repro.scanner.grabber.grab_host``, every module that imported
``parse_certificate`` by name, both names of an aliased method — so the
span sees every call the program makes.

:data:`PER_LAYER` is the full per-layer metric catalogue, in the order
the traced run prints it; ``BENCHMARK.json`` lists the same names.
Every workload prints every name, with 0 for a layer it does not run
(e.g. AES on ``plain_sweeps``, the analyses on the scan workloads).
"""

from __future__ import annotations

from perfbench.tracing import Tracer, percentile_ms, span_stats

CLIENT_METHODS = (
    "hello",
    "open_secure_channel",
    "get_endpoints",
    "find_servers",
    "create_session",
    "activate_session",
    "browse",
    "read_attributes",
)

ANALYSIS_NAMES = (
    "modes",
    "policies",
    "negotiated",
    "certs",
    "reuse",
    "access",
    "rights",
    "deficits",
    "breakdown",
    "longitudinal",
    "ipv6",
    "anomalies",
)

CACHE_NAMES = (
    "rsa-public-ops",
    "rsa-private-ops",
    "rsa-known-inverses",
    "aes-key-schedule",
    "x509-parse",
)

PARSE_CERTIFICATE_CALLERS = (
    "repro.scanner.records",
    "repro.secure.channel",
    "repro.secure.negotiation",
    "repro.server.auth",
    "repro.x509.builder",
)


def _argument_length(tracer: Tracer, counter: str):
    """Adds the length of a method's first argument to ``counter``."""

    def measure(args):
        tracer.counters[counter] += len(args[1])

    return measure


def _moduli_pairs(tracer: Tracer):
    def measure(args):
        moduli = {
            record.certificate.modulus
            for record in args[0]
            if record.certificate is not None
        }
        tracer.counters["analysis.moduli_pairs"] += (
            len(moduli) * (len(moduli) - 1) // 2
        )

    return measure


def install_setup_layer(tracer: Tracer) -> list:
    """Wrap environment building; returns the key factories it sees."""
    from repro.deployments.keyfactory import KeyFactory

    tracer.patch(
        "repro.deployments.population:PopulationBuilder.build_hosts",
        "deployments.build_hosts",
    )
    tracer.patch(
        "repro.deployments.evolution:StudyTimeline.__init__",
        "deployments.timeline",
    )
    tracer.patch(
        "repro.deployments.evolution:StudyTimeline."
        "warm_discovery_allocations",
        "deployments.timeline",
    )
    factories: list = []
    original_init = KeyFactory.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        factories.append(self)

    tracer.replace(KeyFactory, "__init__", recording_init)
    return factories


SETUP_SPANS = ("deployments.build_hosts", "deployments.timeline")


def install_scan_layers(tracer: Tracer) -> None:
    """Wrap every layer below the executor, client to crypto."""
    tracer.patch("repro.scanner.campaign:grab_host", "scanner.grab_host")
    tracer.patch(
        "repro.scanner.grabber:traverse_address_space",
        "scanner.traverse_address_space",
    )
    tracer.patch(
        "repro.netsim.net:NetworkView.probe_many",
        "netsim.probe_many",
        _argument_length(tracer, "netsim.addresses_probed"),
    )
    tracer.patch("repro.netsim.net:NetworkView.connect", "netsim.connect")
    for method in CLIENT_METHODS:
        tracer.patch(
            f"repro.client.client:UaClient.{method}", f"client.{method}"
        )
    tracer.patch(
        "repro.server.engine:ServerConnection.receive", "server.receive"
    )
    tracer.patch(
        "repro.transport.connection:FrameReader.next_frame",
        "transport.next_frame",
    )
    tracer.patch("repro.secure.channel:encode_service", "uabin.encode_service")
    tracer.patch("repro.secure.channel:decode_service", "uabin.decode_service")
    for side in ("ClientSecureChannel", "ServerSecureChannel"):
        for method in ("encode_message", "decode_message"):
            tracer.patch(
                f"repro.secure.channel:{side}.{method}", f"secure.{method}"
            )
    tracer.patch(
        "repro.crypto.aes:AesCbc.encrypt",
        "crypto.aes.encrypt",
        _argument_length(tracer, "crypto.aes.encrypt.bytes"),
    )
    tracer.patch(
        "repro.crypto.aes:AesCbc.decrypt",
        "crypto.aes.decrypt",
        _argument_length(tracer, "crypto.aes.decrypt.bytes"),
    )
    for alias in ("raw_decrypt", "raw_sign"):
        tracer.patch(
            f"repro.crypto.rsa:RsaPrivateKey.{alias}", "crypto.rsa.private"
        )
    for alias in ("raw_encrypt", "raw_verify"):
        tracer.patch(
            f"repro.crypto.rsa:RsaPublicKey.{alias}", "crypto.rsa.public"
        )
    for module in PARSE_CERTIFICATE_CALLERS:
        tracer.patch(
            f"{module}:parse_certificate", "x509.parse_certificate"
        )


#: Spans every scan workload's traced pass must fire.
SCAN_SPANS = (
    "scanner.grab_host",
    "netsim.probe_many",
    "netsim.connect",
    "client.hello",
    "client.open_secure_channel",
    "client.get_endpoints",
    "client.find_servers",
    "client.create_session",
    "client.activate_session",
    "client.read_attributes",
    "server.receive",
    "transport.next_frame",
    "uabin.encode_service",
    "uabin.decode_service",
    "secure.encode_message",
    "secure.decode_message",
    "x509.parse_certificate",
)

#: Only the final sweep traverses address spaces (``plain_sweeps``
#: passes span all eight sweeps).
TRAVERSAL_SPANS = ("scanner.traverse_address_space", "client.browse")

#: Only negotiated Sign/SignAndEncrypt channels run crypto.
CRYPTO_SPANS = (
    "crypto.aes.encrypt",
    "crypto.aes.decrypt",
    "crypto.rsa.private",
    "crypto.rsa.public",
)


def install_read_layers(tracer: Tracer) -> None:
    """Wrap the dataset and analysis layers of the analyst read path."""
    import repro.dataset.store as store_module
    from repro.analysis.pipeline import ANALYSES

    tracer.patch("repro.dataset.store:StudyStore.save", "dataset.save")
    tracer.patch("repro.dataset.store:StudyStore.load", "dataset.load")
    for module in ("repro.dataset.store", "repro.core.golden"):
        tracer.patch(f"{module}:snapshot_digest", "core.snapshot_digest")
    iter_snapshots = store_module.iter_snapshots

    def counting_iter_snapshots(path):
        for snapshot in iter_snapshots(path):
            tracer.counters["dataset.records_decoded"] += len(
                snapshot.records
            )
            yield snapshot

    tracer.replace(store_module, "iter_snapshots", counting_iter_snapshots)
    for name in ANALYSIS_NAMES:
        tracer.patch_item(ANALYSES, name, f"analysis.{name}")
    tracer.patch(
        "repro.analysis.reuse:find_shared_primes",
        "analysis.find_shared_primes",
        _moduli_pairs(tracer),
    )
    tracer.patch(
        "repro.analysis.diff:StudySummary.fold", "analysis.diff.fold"
    )
    tracer.patch(
        "repro.dataset.catalog:diff_summaries", "analysis.diff_summaries"
    )


READ_SPANS = (
    "dataset.save",
    "dataset.load",
    "core.snapshot_digest",
    "analysis.find_shared_primes",
    "analysis.diff.fold",
    "analysis.diff_summaries",
) + tuple(f"analysis.{name}" for name in ANALYSIS_NAMES)


# --- the per-layer metric catalogue ------------------------------------------


def _catalogue() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` for every per-layer metric."""
    metrics = [
        ("scanner.grab_host.calls", "count", "lower"),
        ("scanner.grab_host.s", "s", "lower"),
        ("scanner.grab_host.p50_ms", "ms", "lower"),
        ("scanner.grab_host.p95_ms", "ms", "lower"),
        ("scanner.traverse_address_space.s", "s", "lower"),
        ("scanner.useful_grab_ratio", "ratio", "higher"),
        ("executor.tasks.probe", "count", "lower"),
        ("executor.tasks.grab", "count", "lower"),
        ("executor.tasks.follow_ref", "count", "lower"),
        ("executor.parallel_efficiency", "ratio", "higher"),
        ("netsim.probe_many.calls", "count", "lower"),
        ("netsim.probe_many.s", "s", "lower"),
        ("netsim.addresses_probed", "count", "lower"),
        ("netsim.connect.calls", "count", "lower"),
    ]
    for method in CLIENT_METHODS:
        metrics.append((f"client.{method}.calls", "count", "lower"))
        metrics.append((f"client.{method}.s", "s", "lower"))
    metrics += [
        ("server.receive.calls", "count", "lower"),
        ("server.receive.s", "s", "lower"),
        ("transport.next_frame.calls", "count", "lower"),
        ("transport.next_frame.s", "s", "lower"),
        ("transport.bytes_sent", "bytes", "lower"),
        ("uabin.encode_service.calls", "count", "lower"),
        ("uabin.encode_service.s", "s", "lower"),
        ("uabin.decode_service.calls", "count", "lower"),
        ("uabin.decode_service.s", "s", "lower"),
        ("secure.encode_message.calls", "count", "lower"),
        ("secure.encode_message.s", "s", "lower"),
        ("secure.decode_message.calls", "count", "lower"),
        ("secure.decode_message.s", "s", "lower"),
        ("secure.negotiated_ratio", "ratio", "higher"),
        ("crypto.aes.encrypt.s", "s", "lower"),
        ("crypto.aes.encrypt.bytes", "bytes", "lower"),
        ("crypto.aes.decrypt.s", "s", "lower"),
        ("crypto.aes.decrypt.bytes", "bytes", "lower"),
        ("crypto.rsa.private.calls", "count", "lower"),
        ("crypto.rsa.private.s", "s", "lower"),
        ("crypto.rsa.public.calls", "count", "lower"),
        ("crypto.rsa.public.s", "s", "lower"),
    ]
    for cache in CACHE_NAMES:
        metrics.append((f"crypto.cache.{cache}.hit_rate", "ratio", "higher"))
    metrics += [
        ("x509.parse_certificate.calls", "count", "lower"),
        ("x509.parse_certificate.s", "s", "lower"),
        ("deployments.build_hosts.s", "s", "lower"),
        ("deployments.timeline.s", "s", "lower"),
        ("deployments.keys_loaded", "count", "lower"),
        ("deployments.keys_generated", "count", "lower"),
        ("dataset.save.s", "s", "lower"),
        ("dataset.load.s", "s", "lower"),
        ("dataset.bytes_written", "bytes", "lower"),
        ("dataset.records_decoded", "count", "lower"),
        ("core.snapshot_digest.calls", "count", "lower"),
        ("core.snapshot_digest.s", "s", "lower"),
    ]
    for name in ANALYSIS_NAMES:
        metrics.append((f"analysis.{name}.s", "s", "lower"))
    metrics += [
        ("analysis.find_shared_primes.calls", "count", "lower"),
        ("analysis.find_shared_primes.s", "s", "lower"),
        ("analysis.moduli_pairs", "count", "lower"),
        ("analysis.diff.fold.s", "s", "lower"),
        ("analysis.diff_summaries.s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return metrics


PER_LAYER: list[tuple[str, str, str]] = _catalogue()
PER_LAYER_UNITS: dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict:
    """Every :data:`PER_LAYER` value from the spans, counters and
    ``extra`` (ratios and counts the workload measured itself)."""
    stats = span_stats(tracer)
    values: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        if name in extra:
            values[name] = extra[name]
        elif name in tracer.counters:
            values[name] = tracer.counters[name]
        else:
            span, _, stat = name.rpartition(".")
            entry = stats.get(span)
            if entry is None:
                values[name] = 0
            elif stat == "calls":
                values[name] = entry["calls"]
            elif stat == "s":
                values[name] = entry["s"]
            elif stat.startswith("p") and stat.endswith("_ms"):
                values[name] = percentile_ms(
                    entry["durations"], int(stat[1:-3])
                )
            else:
                values[name] = 0
    return values
