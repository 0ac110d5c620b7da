"""§5.3 — secrets not meant to be shared (Figure 5).

Groups hosts by certificate thumbprint to find certificates installed
on multiple devices, measures their autonomous-system spread, and runs
the pairwise shared-prime check over all RSA moduli (the paper found
no weak keys; neither should the simulation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.scanner.records import HostRecord


@dataclass
class ReuseGroup:
    thumbprint_hex: str
    host_count: int
    asn_count: int
    subject: str
    hosts: list[int] = field(default_factory=list)  # record indices


@dataclass
class ReuseAnalysis:
    distinct_certificates: int = 0
    groups: list[ReuseGroup] = field(default_factory=list)  # size >= 2
    reused_on_3plus: list[ReuseGroup] = field(default_factory=list)
    shared_prime_pairs: int = 0

    @property
    def largest_group(self) -> ReuseGroup | None:
        return self.groups[0] if self.groups else None

    @property
    def hosts_affected(self) -> int:
        return sum(group.host_count for group in self.reused_on_3plus)


#: Hosts sharing one certificate before the sharing counts as the
#: certificate-reuse deficit (the paper's "three or more devices").
REUSE_DEFICIT_HOSTS = 3


def thumbprint_groups(records: list[HostRecord]) -> dict[str, list[int]]:
    """Record indices per served-certificate thumbprint.

    Thumbprints appear in first-seen order and each index list is
    ascending; records without a certificate are skipped.  This is the
    cheap half of the reuse analysis — the deficit aggregation needs
    only this, never the O(n²) :func:`find_shared_primes`.
    """
    groups: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        certificate = record.certificate
        if certificate is not None:
            groups.setdefault(certificate.thumbprint_hex, []).append(index)
    return groups


def analyze_certificate_reuse(records: list[HostRecord]) -> ReuseAnalysis:
    by_thumbprint = thumbprint_groups(records)
    analysis = ReuseAnalysis(distinct_certificates=len(by_thumbprint))
    for thumbprint, indices in by_thumbprint.items():
        if len(indices) < 2:
            continue
        asns = {records[i].asn for i in indices if records[i].asn is not None}
        group = ReuseGroup(
            thumbprint_hex=thumbprint,
            host_count=len(indices),
            asn_count=len(asns),
            subject=records[indices[-1]].certificate.subject,
            hosts=indices,
        )
        analysis.groups.append(group)
    analysis.groups.sort(key=lambda g: g.host_count, reverse=True)
    analysis.reused_on_3plus = [
        g for g in analysis.groups if g.host_count >= REUSE_DEFICIT_HOSTS
    ]
    analysis.shared_prime_pairs = find_shared_primes(records)
    return analysis


def find_shared_primes(records: list[HostRecord]) -> int:
    """Pairwise GCD over distinct moduli; returns offending pairs.

    A nontrivial GCD between two distinct RSA moduli exposes both
    private keys (Heninger et al.) — the paper checked for this and
    found nothing.
    """
    moduli = sorted(
        {
            record.certificate.modulus
            for record in records
            if record.certificate is not None
        }
    )
    shared = 0
    for i, first in enumerate(moduli):
        for second in moduli[i + 1 :]:
            gcd = math.gcd(first, second)
            if gcd not in (1, first, second):
                shared += 1
    return shared
