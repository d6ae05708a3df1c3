"""Socket modes of the ``collection`` CLI: a real round over TCP.

Five entry points, one fixed round shape (the mixed schema of
:mod:`repro.experiments.collection` at ε=1 with the OUE oracle on the
categorical attribute), all deterministic in their seeds:

* :func:`run_collection_gateway` — serve an asyncio collection gateway
  (``collection --serve HOST:PORT``): accept handshaken connections,
  fold each frame into a shard before acking it, and once
  ``expect_users`` users have been accepted, stop, merge and print the
  estimate.
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
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ParameterError
from ..federation import EdgeAggregator, RootAggregator
from ..session import (
    LDPClient,
    LDPServer,
    ReportBatch,
    Schema,
    SessionEstimate,
    ShardedServer,
)
from ..storage import CheckpointStore, open_store
from ..telemetry import MetricsRegistry
from ..transport import CollectionGateway, replay_frames
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
#: One client's round: users and frames per ``--connect`` client (the
#: ``--oneshot`` reference replays the same frames), and by default the
#: users a serving side waits for.
ROUND_USERS = 4000
ROUND_BATCHES = 6


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

    The document shape is shared by all five socket modes: ``mode``
    names which side wrote it, ``counters`` are that side's integer
    counts, and ``metrics`` is the full registry snapshot (histograms,
    gauges, labelled families).
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


def _serve_round(
    mode: str,
    build: Callable[[Optional[CheckpointStore], Optional[int]], Any],
    start: Callable[[Any, Optional[ssl_module.SSLContext]], Awaitable[Any]],
    render: Callable[[Any], str],
    *,
    expect_users: int,
    port_file: Optional[Union[str, pathlib.Path]],
    checkpoint: Optional[str],
    metrics_path: Optional[Union[str, pathlib.Path]],
    tls_cert: Optional[str],
    tls_key: Optional[str],
    checkpoint_every: Optional[int] = None,
) -> str:
    """The serving lifecycle ``--serve``, ``--root`` and ``--edge`` share.

    Opens the ``checkpoint`` store and builds the node over it with
    ``build(store, checkpoint_every)`` — a store without an explicit
    ``checkpoint_every`` checkpoints every accepted frame, so every ack
    is durable. ``start(node, ssl)`` binds it (over TLS when
    ``tls_cert`` + ``tls_key`` are given); the bound port goes to
    ``port_file``, and the round runs until ``expect_users`` users
    arrived. Once started, the node stops on every exit; the store is
    closed and ``metrics_path`` written on every exit, the error exits
    included, so a failed round still leaves its counters behind for
    diagnosis. Returns ``render(node)``.
    """
    server_ssl = (
        server_ssl_context(tls_cert, tls_key) if tls_cert is not None else None
    )
    if checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 1

    async def serve() -> str:
        store = open_store(checkpoint) if checkpoint is not None else None
        node = None
        try:
            node = build(store, checkpoint_every)
            await start(node, server_ssl)
            try:
                if port_file is not None:
                    pathlib.Path(port_file).write_text("%d\n" % node.port)
                await node.wait_for_users(expect_users)
            finally:
                # Bounded grace: in-flight clients may finish their
                # stream (trailing heartbeats included) and an in-flight
                # push its ack, but one silent peer cannot hang the round
                # after expect_users arrived. Folded pushes and
                # checkpointed frames are already durable.
                await node.stop(grace=10.0)
            return render(node)
        finally:
            if store is not None:
                store.close()
            if metrics_path is not None and node is not None:
                snapshot = node.stats_snapshot()
                counters = dict(snapshot["counters"])
                # An edge's push counters ride beside its gateway's.
                counters.update(snapshot.get("federation", {}))
                write_metrics_snapshot(
                    metrics_path, mode, counters, node.telemetry
                )

    return asyncio.run(serve())


def run_collection_gateway(
    endpoint: str,
    shards: int = 1,
    expect_users: int = ROUND_USERS,
    port_file: Optional[Union[str, pathlib.Path]] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
    tls_cert: Optional[str] = None,
    tls_key: Optional[str] = None,
) -> str:
    """Serve one socket round and return the formatted merged estimate.

    The gateway accepts connections until ``expect_users`` users have
    been accepted (and so folded) across all of them, then stops,
    merges, and renders the estimate. ``port_file`` (written once the
    socket is bound, holding the bare port number) lets scripts start
    the server on port 0 and discover where it landed.

    ``checkpoint`` (a storage URI: ``file://``, ``segments://``, or a
    bare JSON-file path) makes the round durable:
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
    return _serve_round(
        "serve",
        lambda store, every: CollectionGateway(
            ShardedServer(
                round_schema(),
                ROUND_EPSILON,
                protocols=ROUND_PROTOCOLS,
                shards=shards,
            ),
            store=store,
            checkpoint_every_frames=every,
        ),
        lambda gateway, ssl: gateway.start(host, port, ssl=ssl),
        lambda gateway: format_round_estimate(gateway.estimate()),
        expect_users=expect_users,
        port_file=port_file,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        metrics_path=metrics_path,
        tls_cert=tls_cert,
        tls_key=tls_key,
    )


def run_collection_sender(
    endpoint: str,
    seed: int = 0,
    users: int = ROUND_USERS,
    batches: int = ROUND_BATCHES,
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
    users: int = ROUND_USERS,
    batches: int = ROUND_BATCHES,
    metrics_path: Optional[Union[str, pathlib.Path]] = None,
) -> str:
    """In-process ingestion of the same frames, same output format.

    ``diff`` against a gateway's output asserts that the socket path —
    concurrent clients, sharded folds, backpressure and all —
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
    expect_users: int = ROUND_USERS,
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
    return _serve_round(
        "root",
        lambda store, _every: RootAggregator(
            round_schema(), ROUND_EPSILON, protocols=ROUND_PROTOCOLS, store=store
        ),
        lambda root, ssl: root.start(host, port, ssl=ssl),
        lambda root: format_round_estimate(root.estimate()),
        expect_users=expect_users,
        port_file=port_file,
        checkpoint=checkpoint,
        metrics_path=metrics_path,
        tls_cert=tls_cert,
        tls_key=tls_key,
    )


def run_federation_edge(
    upstream: str,
    listen: str = "127.0.0.1:0",
    shards: int = 1,
    expect_users: int = ROUND_USERS,
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
    upstream_ssl = client_ssl_context(tls_ca) if tls_ca is not None else None
    return _serve_round(
        "edge",
        lambda store, every: EdgeAggregator(
            round_schema(),
            ROUND_EPSILON,
            protocols=ROUND_PROTOCOLS,
            shards=shards,
            store=store,
            checkpoint_every_frames=every,
            edge_id=round_edge_id(edge_number),
            push_every_frames=push_every,
            push_attempts=retry,
            push_retry_delay=0.5,
        ),
        lambda edge, ssl: edge.start(
            upstream_host,
            upstream_port,
            host=listen_host,
            port=listen_port,
            ssl=ssl,
            upstream_ssl=upstream_ssl,
        ),
        lambda edge: "edge %d pushed %d snapshots (last epoch %d) covering "
        "%d users"
        % (edge_number, edge.pushes_completed, edge.last_epoch, edge.users),
        expect_users=expect_users,
        port_file=port_file,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
        metrics_path=metrics_path,
        tls_cert=tls_cert,
        tls_key=tls_key,
    )
