"""Overall deficit aggregation (the paper's 92 % headline).

A server is *deficiently configured* if any of the paper's deficit
classes applies:

1. no communication security at all (mode/policy None only);
2. only deprecated SHA-1 policies as the best option;
3. a certificate too weak for an announced current-secure policy;
4. a certificate shared with at least two other hosts;
5. anonymous read/write access to the address space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.certs import certificate_conformance_class
from repro.analysis.policies import record_policies
from repro.analysis.reuse import REUSE_DEFICIT_HOSTS, thumbprint_groups
from repro.scanner.records import HostRecord
from repro.secure.policies import SECURE_POLICIES

#: The paper's deficit classes in presentation order — the exact flag
#: strings :func:`host_deficits` emits; each maps to the
#: :class:`DeficitSummary` counter field with ``-`` replaced by ``_``.
DEFICIT_CLASSES = (
    "none-only",
    "deprecated-best",
    "weak-certificate",
    "certificate-reuse",
    "anonymous-access",
)

_SECURE_POLICIES = frozenset(SECURE_POLICIES)


@dataclass
class DeficitSummary:
    total_servers: int = 0
    none_only: int = 0
    deprecated_best: int = 0
    weak_certificate: int = 0
    certificate_reuse: int = 0
    anonymous_access: int = 0
    deficient: int = 0
    per_host_flags: list[set] = field(default_factory=list)

    @property
    def deficient_fraction(self) -> float:
        if not self.total_servers:
            return 0.0
        return self.deficient / self.total_servers


def host_deficits(record: HostRecord, reused_thumbprints: set[str]) -> set[str]:
    """The deficit classes applying to one scanned host."""
    flags: set[str] = set()
    policies = record_policies(record)
    if policies:
        strongest = max(policies, key=lambda p: p.security_rank)
        if not strongest.provides_security:
            flags.add("none-only")
        elif strongest.is_deprecated:
            flags.add("deprecated-best")
    certificate = record.certificate
    if certificate is not None:
        current_secure = [p for p in policies if p in _SECURE_POLICIES]
        if any(
            certificate_conformance_class(
                p, certificate.signature_hash, certificate.key_bits
            )
            == "weak"
            for p in current_secure
        ):
            flags.add("weak-certificate")
        if certificate.thumbprint_hex in reused_thumbprints:
            flags.add("certificate-reuse")
    if record.anonymous_accessible():
        flags.add("anonymous-access")
    return flags


def analyze_deficits(records: list[HostRecord]) -> DeficitSummary:
    reused_thumbprints = {
        thumbprint
        for thumbprint, hosts in thumbprint_groups(records).items()
        if len(hosts) >= REUSE_DEFICIT_HOSTS
    }
    summary = DeficitSummary(total_servers=len(records))
    for record in records:
        flags = host_deficits(record, reused_thumbprints)
        summary.per_host_flags.append(flags)
        if "none-only" in flags:
            summary.none_only += 1
        if "deprecated-best" in flags:
            summary.deprecated_best += 1
        if "weak-certificate" in flags:
            summary.weak_certificate += 1
        if "certificate-reuse" in flags:
            summary.certificate_reuse += 1
        if "anonymous-access" in flags:
            summary.anonymous_access += 1
        if flags:
            summary.deficient += 1
    return summary
