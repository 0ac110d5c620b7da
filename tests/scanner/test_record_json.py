"""``HostRecord.to_json_dict`` against the ``dataclasses.asdict`` form.

The stored JSONL is written with plain ``json.dumps`` (no key
sorting), so the dict's key order is part of the dataset bytes: the
shallow builder must match the ``asdict``-plus-sparse-stripping
reference byte for byte, not just compare equal.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.scanner.records import (
    CertificateInfo,
    EndpointRecord,
    HostRecord,
    NodeSummary,
    SecureChannelAttempt,
    SessionAttempt,
)


def reference_json_dict(record: HostRecord) -> dict:
    """The serialization ``to_json_dict`` replaced, kept as the oracle."""
    data = dataclasses.asdict(record)
    for key in HostRecord._SPARSE_FIELDS:
        if data.get(key) is None:
            data.pop(key, None)
    session = data.get("session")
    if session:
        for key in HostRecord._SPARSE_SESSION_FIELDS:
            if session.get(key) is None:
                session.pop(key, None)
    return data


CERTIFICATE = CertificateInfo(
    der_hex="3082",
    thumbprint_hex="ab" * 20,
    signature_hash="sha256",
    key_bits=2048,
    subject="CN=plc",
    issuer="CN=plc",
    not_before="2020-01-01T00:00:00Z",
    not_after="2030-01-01T00:00:00Z",
    application_uri="urn:plc",
    self_signed=True,
    signature_valid=True,
    modulus_hex="c5",
)

SECURE_CHANNEL = SecureChannelAttempt(
    security_policy_uri="http://opcfoundation.org/UA/SecurityPolicy#Basic256",
    security_mode=3,
    success=False,
    error_status=0x80130000,
    error_reason="BadSecurityChecksFailed",
)

SESSIONS = {
    "none": None,
    "plain": SessionAttempt(attempted=True, token_type=0, success=False),
    "negotiated": SessionAttempt(
        attempted=True,
        token_type=0,
        security_mode=1,
        security_policy_uri="http://opcfoundation.org/UA/SecurityPolicy#None",
        success=True,
        error_category="timeout",
        details_error="traversal failed",
        negotiated_policy_uri=(
            "http://opcfoundation.org/UA/SecurityPolicy#Basic256Sha256"
        ),
        negotiated_mode=3,
    ),
    "failed-negotiation": SessionAttempt(
        attempted=True,
        token_type=0,
        success=True,
        negotiation_error="BadCertificateInvalid",
    ),
}


def make_nodes() -> NodeSummary:
    return NodeSummary(
        total_nodes=40,
        variables=20,
        methods=2,
        readable_variables=18,
        writable_variables=3,
        executable_methods=1,
        readable_names_sample=["Temperature", "Pressure"],
        writable_names_sample=["Setpoint"],
        executable_names_sample=["Reset"],
        value_samples=["ACME Corp"],
        traversal_complete=False,
        budget_exhausted="nodes",
    )


def make_record(certificate, secure_channel, session, nodes, error_category):
    return HostRecord(
        ip=0x0A000001,
        port=4840,
        asn=64700,
        timestamp="2020-08-30T00:00:00Z",
        tcp_open=True,
        is_opcua=True,
        application_uri="urn:plc",
        application_type=0,
        product_uri="urn:vendor:plc",
        software_version="1.2.3",
        endpoints=[
            EndpointRecord(
                endpoint_url="opc.tcp://10.0.0.1:4840/",
                security_mode=1,
                security_policy_uri=(
                    "http://opcfoundation.org/UA/SecurityPolicy#None"
                ),
                token_types=[0, 1],
            ),
            EndpointRecord(
                endpoint_url=None,
                security_mode=3,
                security_policy_uri=None,
                token_types=[],
                security_level=3,
            ),
        ],
        certificate=CERTIFICATE if certificate else None,
        secure_channel=SECURE_CHANNEL if secure_channel else None,
        session=SESSIONS[session],
        namespaces=["http://opcfoundation.org/UA/", "urn:vendor"],
        nodes=make_nodes() if nodes else None,
        error="connection reset" if error_category else None,
        error_category="reset" if error_category else None,
        scan_duration_s=0.25,
        scan_bytes=4096,
    )


CASES = list(
    itertools.product(
        [False, True], [False, True], SESSIONS, [False, True], [False, True]
    )
)


@pytest.mark.parametrize(
    "certificate, secure_channel, session, nodes, error_category", CASES
)
def test_byte_equal_to_asdict_reference(
    certificate, secure_channel, session, nodes, error_category
):
    record = make_record(
        certificate, secure_channel, session, nodes, error_category
    )
    assert json.dumps(record.to_json_dict()) == json.dumps(
        reference_json_dict(record)
    )


def test_scanned_study_byte_equal(serial_tiny_result):
    for snapshot in serial_tiny_result.snapshots:
        for record in snapshot.records:
            assert json.dumps(record.to_json_dict()) == json.dumps(
                reference_json_dict(record)
            )


def test_returned_lists_are_copies():
    record = make_record(True, True, "negotiated", True, True)
    before = json.dumps(reference_json_dict(record))
    data = record.to_json_dict()
    data["namespaces"].append("urn:mutated")
    data["endpoints"].pop()
    data["endpoints"][0]["token_types"].append(99)
    data["endpoints"][0]["security_mode"] = 3
    for key in (
        "readable_names_sample",
        "writable_names_sample",
        "executable_names_sample",
        "value_samples",
    ):
        data["nodes"][key].append("mutated")
    data["certificate"]["subject"] = "CN=mutated"
    data["session"]["success"] = False
    assert json.dumps(reference_json_dict(record)) == before
