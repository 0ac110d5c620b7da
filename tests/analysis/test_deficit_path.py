"""The deficit path never pays for the O(n²) shared-prime check.

The pairwise GCD over all moduli backs one number — the ``reuse``
report's ``shared_prime_pairs`` — so it runs once per report.  The
deficit aggregation and everything built on it (longitudinal, diff
folds, breakdown, dual-stack) need only the thumbprint grouping.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.reuse as reuse_module
from repro.analysis.deficits import analyze_deficits
from repro.analysis.diff import summarize_stream
from repro.analysis.longitudinal import analyze_longitudinal
from repro.analysis.pipeline import run_analyses
from repro.analysis.reuse import (
    REUSE_DEFICIT_HOSTS,
    analyze_certificate_reuse,
    thumbprint_groups,
)
from repro.scanner.records import CertificateInfo, HostRecord


@pytest.fixture
def no_shared_primes(monkeypatch):
    def forbidden(records):
        raise AssertionError("find_shared_primes called on the deficit path")

    monkeypatch.setattr(reuse_module, "find_shared_primes", forbidden)


class TestDeficitPathSkipsSharedPrimes:
    def test_analyze_deficits(self, serial_tiny_result, no_shared_primes):
        servers = serial_tiny_result.snapshots[-1].servers()
        assert analyze_deficits(servers).total_servers == len(servers)

    def test_diff_fold(self, serial_tiny_result, no_shared_primes):
        snapshots = serial_tiny_result.snapshots
        summary = summarize_stream(snapshots)
        assert len(summary.sweeps) == len(snapshots)

    def test_longitudinal(self, serial_tiny_result, no_shared_primes):
        snapshots = serial_tiny_result.snapshots
        assert len(analyze_longitudinal(snapshots).sweeps) == len(snapshots)


def test_full_report_checks_shared_primes_once(
    serial_tiny_result, monkeypatch
):
    calls = []
    original = reuse_module.find_shared_primes

    def counting(records):
        calls.append(len(records))
        return original(records)

    monkeypatch.setattr(reuse_module, "find_shared_primes", counting)
    result = serial_tiny_result
    report = run_analyses(
        result.snapshots, result.spec, seed=result.config.seed
    )
    servers = result.snapshots[-1].servers()
    assert calls == [len(servers)]
    assert report.results["reuse"].shared_prime_pairs == original(servers)


# Each host serves no certificate, one of a few shared certificates, or
# a certificate of its own.
_HOST = st.tuples(
    st.one_of(st.none(), st.sampled_from(["aa", "bb", "cc"]), st.just("own")),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
)


def _records(hosts) -> list[HostRecord]:
    records = []
    for index, (thumbprint, asn) in enumerate(hosts):
        certificate = None
        if thumbprint is not None:
            if thumbprint == "own":
                thumbprint = f"own-{index}"
            certificate = CertificateInfo(
                der_hex="00",
                thumbprint_hex=thumbprint,
                signature_hash="sha256",
                key_bits=2048,
                subject=f"CN={thumbprint}",
                issuer=f"CN={thumbprint}",
                not_before="2020-01-01T00:00:00Z",
                not_after="2030-01-01T00:00:00Z",
                application_uri=None,
                self_signed=True,
                signature_valid=True,
                modulus_hex=f"{15 + 2 * len(thumbprint):x}",
            )
        records.append(
            HostRecord(
                ip=index,
                port=4840,
                asn=asn,
                timestamp="2020-08-30T00:00:00",
                is_opcua=True,
                certificate=certificate,
            )
        )
    return records


@settings(max_examples=200, deadline=None)
@given(hosts=st.lists(_HOST, max_size=30))
def test_grouping_matches_reuse_analysis(hosts):
    records = _records(hosts)
    reused = {
        thumbprint
        for thumbprint, indices in thumbprint_groups(records).items()
        if len(indices) >= REUSE_DEFICIT_HOSTS
    }
    served = Counter(
        record.certificate.thumbprint_hex
        for record in records
        if record.certificate is not None
    )
    assert reused == {t for t, n in served.items() if n >= 3}
    reuse = analyze_certificate_reuse(records)
    assert reused == {g.thumbprint_hex for g in reuse.reused_on_3plus}
    flags = analyze_deficits(records).per_host_flags
    for record, host_flags in zip(records, flags):
        expected = (
            record.certificate is not None
            and record.certificate.thumbprint_hex in reused
        )
        assert ("certificate-reuse" in host_flags) == expected
