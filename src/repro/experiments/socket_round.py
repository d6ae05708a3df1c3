"""Socket modes of the ``collection`` CLI: a real round over TCP.

Three entry points, one fixed round shape (the mixed schema of
:mod:`repro.experiments.collection` at ε=1 with the OUE oracle on the
categorical attribute), all deterministic in their seeds:

* :func:`run_collection_gateway` — serve an asyncio collection gateway
  (``collection --serve HOST:PORT``): accept handshaken connections,
  fan frames over sharded consumers, and once ``expect_users`` users
  have been accepted, drain-and-merge and print the estimate.
* :func:`run_collection_sender` — act as one reporting client
  (``collection --connect HOST:PORT``): generate the seeded records,
  perturb, wire-encode, ship every frame plus a trailing zero-user
  heartbeat, and report what was sent.
* :func:`run_oneshot_reference` — ingest the *same* frames in-process
  (``collection --oneshot SEEDS``) and print the estimate in the same
  format.
* :func:`run_federation_root` / :func:`run_federation_edge` — the
  hierarchical topology (``collection --root HOST:PORT`` and
  ``collection --edge UPSTREAM``): edges serve clients locally and ship
  merged state snapshots upstream (:mod:`repro.federation`); the root
  prints the federated estimate, again in the same format.

Estimates are printed with ``float.hex`` values, so ``diff`` between a
socket round's output and the one-shot reference asserts bit-identical
aggregation end to end — the CI smoke job does exactly that with two
concurrent clients and two shards, and the crash-recovery smoke job
repeats it across a SIGKILLed gateway resumed from ``--checkpoint``
(senders replay, the gateway deduplicates, the diff still comes out
empty).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import ssl as ssl_module
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ParameterError
from ..federation import EdgeAggregator, serve_root
from ..session import (
    LDPClient,
    LDPServer,
    ReportBatch,
    Schema,
    SessionEstimate,
    ShardedServer,
)
from ..storage import open_store
from ..telemetry import MetricsRegistry
from ..transport import replay_frames, serve_collection
from ..transport.framing import SENDER_ID_SIZE
from ..wire.codec import encode_batch
from ..wire.contract import CollectionContract
from .collection import _mixed_records, mixed_schema

#: The fixed contract terms of a CLI socket round. Server and clients
#: derive the same contract from these, so independently started
#: processes handshake successfully.
ROUND_EPSILON = 1.0
ROUND_NUMERIC_DIMS = 8
ROUND_CATEGORIES = 16
ROUND_PROTOCOLS = {"category": "oue"}


def round_schema() -> Schema:
    """The mixed schema every socket-round participant agrees on."""
    return mixed_schema(ROUND_NUMERIC_DIMS, ROUND_CATEGORIES)


def round_contract() -> CollectionContract:
    """The collection contract of a CLI socket round."""
    return LDPClient(
        round_schema(), ROUND_EPSILON, protocols=ROUND_PROTOCOLS
    ).contract


def round_frames(seed: int, users: int, batches: int) -> List[bytes]:
    """One client's wire frames, a pure function of ``(seed, users, batches)``."""
    gen = np.random.default_rng(seed)
    records = _mixed_records(users, ROUND_NUMERIC_DIMS, ROUND_CATEGORIES, gen)
    client = LDPClient(round_schema(), ROUND_EPSILON, protocols=ROUND_PROTOCOLS)
    return [
        client.report_encoded(chunk, gen)
        for chunk in np.array_split(records, batches)
    ]


def round_sender_id(seed: int) -> bytes:
    """The deterministic sender id of the ``--seed N`` client.

    A re-run of the same seed is the *same* logical stream, so a client
    restarted after a crash (its own or the gateway's) resumes at the
    gateway's watermark instead of double-contributing its reports.
    """
    return hashlib.sha256(b"repro-sender:%d" % seed).digest()[:SENDER_ID_SIZE]


def round_edge_id(number: int) -> bytes:
    """The deterministic edge id of the ``--edge-id N`` edge aggregator.

    Same resume logic one tier up: an edge restarted under the same
    number is the *same* push stream at the root, so its first push
    after a crash continues at the root's epoch watermark instead of
    registering a ghost edge.
    """
    return hashlib.sha256(b"repro-edge:%d" % number).digest()[:SENDER_ID_SIZE]


def server_ssl_context(
    cert: Union[str, pathlib.Path], key: Union[str, pathlib.Path]
) -> ssl_module.SSLContext:
    """A server-side TLS context from a certificate + key pair (PEM)."""
    context = ssl_module.SSLContext(ssl_module.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(str(cert), str(key))
    return context


def client_ssl_context(ca: Union[str, pathlib.Path]) -> ssl_module.SSLContext:
    """A client-side TLS context trusting exactly the given CA bundle.

    Certificate *and* hostname verification stay on — the smoke certs
    carry ``IP:127.0.0.1`` / ``DNS:localhost`` subject-alt-names, so a
    loopback round passes real verification instead of disabling it.
    """
    return ssl_module.create_default_context(
        purpose=ssl_module.Purpose.SERVER_AUTH, cafile=str(ca)
    )


def format_round_estimate(estimate: SessionEstimate) -> str:
    """Render an estimate with ``float.hex`` values (diff == bit-equality)."""
    lines = ["users %d" % estimate.users]
    for attr in estimate.attributes:
        lines.append(
            "%s %s %s"
            % (
                attr.name,
                attr.kind,
                " ".join(float(v).hex() for v in attr.raw),
            )
        )
    return "\n".join(lines)


def write_metrics_snapshot(
    path: Union[str, pathlib.Path],
    mode: str,
    counters: Dict[str, Any],
    registry: MetricsRegistry,
) -> None:
    """Write one ``--metrics`` snapshot document as JSON.

    The document shape is shared by all three socket modes: ``mode``
    names which side wrote it, ``counters`` are that side's integer
    counts, and ``metrics`` is the full registry snapshot (histograms,
    time-weighted gauges, labelled families).
    """
    document = {"mode": mode, "counters": counters, "metrics": registry.snapshot()}
    pathlib.Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )


def parse_endpoint(text: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (port may be 0 to bind an ephemeral port).

    IPv6 hosts may be bracketed (``[::1]:9000`` → host ``::1``, port
    9000 — the URL convention) or bare (``::1:8080`` → host ``::1``,
    port 8080 — everything up to the last colon). Anything without a
    numeric port after its host — ``:::``, ``[::1]``, ``host:`` — is a
    :class:`ValueError`.
    """
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if (
            not host
            or not bracket
            or not rest.startswith(":")
            or not rest[1:].isdigit()
        ):
            raise ParameterError(
                "expected [HOST]:PORT with a numeric port, got %r" % text
            )
        return host, int(rest[1:])
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ParameterError("expected HOST:PORT, got %r" % text)
    return host, int(port)


def run_collection_gateway(
    endpoint: str,
    shards: int = 2,
    expect_users: int = 4000,
    queue_depth: int = 8,
    port_file: Optional[Union[str, pathlib.Path]] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
    tls_cert: Optional[str] = None,
    tls_key: Optional[str] = None,
) -> str:
    """Serve one socket round and return the formatted merged estimate.

    The gateway accepts connections until ``expect_users`` users have
    been accepted across all of them, then drains the shard queues,
    merges, and renders the estimate. ``port_file`` (written once the
    socket is bound, holding the bare port number) lets scripts start
    the server on port 0 and discover where it landed.

    ``checkpoint`` (a storage URI: ``file://``, ``sqlite://``,
    ``segments://``, or a bare JSON-file path) makes the round durable:
    the gateway checkpoints every ``checkpoint_every`` accepted frames
    (default 1 — every ack is durable) and resumes from the newest
    intact checkpoint on start, so a killed-and-restarted gateway
    finishes the round with estimates bit-identical to an uninterrupted
    one.

    ``metrics_path`` writes the gateway's telemetry snapshot (the same
    document the live ``STATS`` socket request serves) as JSON on exit —
    including the error exits, so a failed round still leaves its
    counters behind for diagnosis. ``tls_cert`` + ``tls_key`` (PEM
    paths) serve the round over TLS.
    """
    host, port = parse_endpoint(endpoint)
    if checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 1
    server_ssl = (
        server_ssl_context(tls_cert, tls_key) if tls_cert is not None else None
    )

    async def _serve() -> str:
        server = ShardedServer(
            round_schema(),
            ROUND_EPSILON,
            protocols=ROUND_PROTOCOLS,
            shards=shards,
        )
        store = open_store(checkpoint) if checkpoint is not None else None
        gateway = None
        try:
            gateway = await serve_collection(
                server,
                host,
                port,
                queue_depth=queue_depth,
                store=store,
                checkpoint_every_frames=checkpoint_every,
                ssl=server_ssl,
            )
            try:
                if port_file is not None:
                    pathlib.Path(port_file).write_text("%d\n" % gateway.port)
                await gateway.wait_for_users(expect_users)
            finally:
                # Bounded grace: in-flight clients may finish their
                # stream (trailing heartbeats included), but one silent
                # peer cannot hang the round after expect_users arrived.
                await gateway.stop(grace=10.0)
            return format_round_estimate(gateway.estimate())
        finally:
            if store is not None:
                store.close()
            if metrics_path is not None and gateway is not None:
                snapshot = gateway.stats_snapshot()
                write_metrics_snapshot(
                    metrics_path, "serve", snapshot["counters"], gateway.telemetry
                )

    return asyncio.run(_serve())


def run_collection_sender(
    endpoint: str,
    seed: int = 0,
    users: int = 4000,
    batches: int = 6,
    retry: int = 1,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
    tls_ca: Optional[str] = None,
) -> str:
    """Run one reporting client against a gateway; return a summary line.

    The client's stream — its frames *and* its sender id — is a pure
    function of ``(seed, users, batches)``, and every frame carries a
    sequence number, so re-running the same seed against a resumed
    gateway skips the already-durable prefix instead of double-counting
    it. ``retry`` is the total number of connection attempts (half a
    second apart): ``retry=30`` rides out a gateway restart of up to
    ~15 seconds mid-round. ``tls_ca`` (a PEM CA bundle) connects over
    TLS to a ``--tls-cert`` gateway or edge.
    """
    host, port = parse_endpoint(endpoint)
    client_ssl = client_ssl_context(tls_ca) if tls_ca is not None else None
    frames = round_frames(seed, users, batches)
    # The trailing zero-user heartbeat is the round's last sequenced
    # frame; on a resumed stream it is replayed (or skipped) like any
    # other.
    heartbeat = encode_batch(
        ReportBatch(users=0, payloads={}, counts={}, protocols={}),
        round_contract(),
    )
    stream = frames + [heartbeat]
    sender = asyncio.run(
        replay_frames(
            host,
            port,
            round_contract(),
            stream,
            round_sender_id(seed),
            attempts=retry,
            retry_delay=0.5,
            ssl=client_ssl,
        )
    )
    if metrics_path is not None:
        write_metrics_snapshot(
            metrics_path,
            "connect",
            {
                "frames_sent": sender.frames_sent,
                "frames_skipped": sender.frames_skipped,
                "bytes_sent": sender.bytes_sent,
                "resume_seq": sender.resume_seq,
            },
            sender.telemetry,
        )
    # Skips cover a prefix of the stream (the gateway's watermark), so
    # the payload split is exact; the heartbeat is the final frame.
    payload_skipped = min(sender.frames_skipped, len(frames))
    heartbeat_sent = sender.frames_skipped < len(stream)
    payload_bytes = sender.bytes_sent - (
        len(heartbeat) if heartbeat_sent else 0
    )
    summary = "sent %d frames (%d payload bytes) from seed %d" % (
        len(frames) - payload_skipped,
        payload_bytes,
        seed,
    )
    if payload_skipped:
        summary += "; skipped %d already-durable frames" % payload_skipped
    return summary


def run_oneshot_reference(
    seeds: Sequence[int],
    users: int = 4000,
    batches: int = 6,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
) -> str:
    """In-process ingestion of the same frames, same output format.

    ``diff`` against a gateway's output asserts that the socket path —
    concurrent clients, sharded consumers, backpressure stalls and all —
    changed the estimate by exactly nothing. With ``metrics_path`` the
    server's telemetry (decode timing, fold counters) is written on exit
    — telemetry never changes the estimate, so the diff stays empty.
    """
    server = LDPServer(round_schema(), ROUND_EPSILON, protocols=ROUND_PROTOCOLS)
    for seed in seeds:
        for frame in round_frames(seed, users, batches):
            server.ingest_encoded(frame)
    if metrics_path is not None:
        write_metrics_snapshot(
            metrics_path,
            "oneshot",
            {"users_folded": server.users},
            server.telemetry,
        )
    return format_round_estimate(server.estimate())


def run_federation_root(
    endpoint: str,
    expect_users: int = 4000,
    port_file: Optional[Union[str, pathlib.Path]] = None,
    checkpoint: Optional[str] = None,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
    tls_cert: Optional[str] = None,
    tls_key: Optional[str] = None,
) -> str:
    """Serve the root of a federated round; return the merged estimate.

    The root accepts ``STATE`` pushes from edge aggregators until the
    folded snapshots cover ``expect_users`` users, then stops and
    renders the federated estimate — in the same ``float.hex`` format as
    ``--serve`` and ``--oneshot``, so ``diff`` against the one-shot
    reference asserts that the whole two-tier topology changed the
    estimate by exactly nothing.

    ``checkpoint`` (a storage URI) makes the root durable: every fold is
    persisted *before* its ack, and a killed-and-restarted root resumes
    the round from its newest intact edge table. ``tls_cert`` +
    ``tls_key`` serve the push hop over TLS.
    """
    host, port = parse_endpoint(endpoint)
    server_ssl = (
        server_ssl_context(tls_cert, tls_key) if tls_cert is not None else None
    )

    async def _serve() -> str:
        store = open_store(checkpoint) if checkpoint is not None else None
        root = None
        try:
            root = await serve_root(
                round_schema(),
                ROUND_EPSILON,
                protocols=ROUND_PROTOCOLS,
                host=host,
                port=port,
                store=store,
                ssl=server_ssl,
            )
            try:
                if port_file is not None:
                    pathlib.Path(port_file).write_text("%d\n" % root.port)
                await root.wait_for_users(expect_users)
            finally:
                # Folded pushes are already durable; the grace only lets
                # an in-flight push finish its ack.
                await root.stop(grace=10.0)
            return format_round_estimate(root.estimate())
        finally:
            if store is not None:
                store.close()
            if metrics_path is not None and root is not None:
                snapshot = root.stats_snapshot()
                write_metrics_snapshot(
                    metrics_path, "root", snapshot["counters"], root.telemetry
                )

    return asyncio.run(_serve())


def run_federation_edge(
    upstream: str,
    listen: str = "127.0.0.1:0",
    shards: int = 2,
    expect_users: int = 4000,
    queue_depth: int = 8,
    push_every: int = 2,
    edge_number: int = 0,
    port_file: Optional[Union[str, pathlib.Path]] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
    retry: int = 1,
    tls_cert: Optional[str] = None,
    tls_key: Optional[str] = None,
    tls_ca: Optional[str] = None,
) -> str:
    """Run one edge aggregator of a federated round; return a summary.

    The edge serves clients on ``listen`` (``--listen``, port 0 binds an
    ephemeral port discovered through ``port_file``), folds their frames
    locally, and pushes its cumulative state upstream every
    ``push_every`` accepted frames plus once — always — at shutdown,
    after ``expect_users`` local users have been accepted. ``retry``
    bounds the transport attempts of each push (half a second apart), so
    an edge rides out a root restart mid-round.

    ``edge_number`` pins the edge's identity (:func:`round_edge_id`):
    re-running the same number resumes the same push stream at the root.
    With ``checkpoint`` the local gateway is durable too — the
    SIGKILL-and-resume story of ``--serve``, one tier down. ``tls_cert``
    + ``tls_key`` serve the *client* hop over TLS; ``tls_ca`` makes the
    *upstream* hop TLS (the two are independent).
    """
    upstream_host, upstream_port = parse_endpoint(upstream)
    listen_host, listen_port = parse_endpoint(listen)
    if checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 1
    server_ssl = (
        server_ssl_context(tls_cert, tls_key) if tls_cert is not None else None
    )
    upstream_ssl = client_ssl_context(tls_ca) if tls_ca is not None else None

    async def _serve() -> str:
        store = open_store(checkpoint) if checkpoint is not None else None
        edge = None
        try:
            edge = EdgeAggregator(
                round_schema(),
                ROUND_EPSILON,
                protocols=ROUND_PROTOCOLS,
                shards=shards,
                queue_depth=queue_depth,
                store=store,
                checkpoint_every_frames=checkpoint_every,
                edge_id=round_edge_id(edge_number),
                push_every_frames=push_every,
                push_attempts=retry,
                push_retry_delay=0.5,
            )
            await edge.start(
                upstream_host,
                upstream_port,
                host=listen_host,
                port=listen_port,
                ssl=server_ssl,
                upstream_ssl=upstream_ssl,
            )
            if port_file is not None:
                pathlib.Path(port_file).write_text("%d\n" % edge.port)
            await edge.gateway.wait_for_users(expect_users)
            await edge.stop(grace=10.0)
            return (
                "edge %d pushed %d snapshots (last epoch %d) covering "
                "%d users"
                % (
                    edge_number,
                    edge.pushes_completed,
                    edge.last_epoch,
                    edge.users,
                )
            )
        finally:
            if store is not None:
                store.close()
            if metrics_path is not None and edge is not None:
                snapshot = edge.stats_snapshot()
                counters = dict(snapshot["counters"])
                counters.update(snapshot["federation"])
                write_metrics_snapshot(
                    metrics_path, "edge", counters, edge.telemetry
                )

    return asyncio.run(_serve())
