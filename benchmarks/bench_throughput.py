"""Perturbation and ingestion throughput (engineering benchmark).

Not a paper artefact — these are the benchmarks that keep the hot paths
honest. Two families:

* **perturbation**: each mechanism perturbs a 500k-value batch and
  pytest-benchmark reports values/second. A regression here (e.g. an
  accidental Python-level loop) multiplies every Fig. 4/5 regeneration
  time, so the bench asserts a conservative throughput floor.
* **wire ingestion**: the full distributed path — encode a report batch
  under its contract, decode + verify it, fan it over a
  :class:`~repro.session.ShardedServer` (1, 2 and 4 shards) and read the
  merged estimate. Reports/second land in
  ``benchmarks/results/wire_throughput.json`` as a machine-readable
  record for the performance trajectory across PRs.
* **socket ingestion**: the same workload end-to-end over localhost TCP
  — concurrent :class:`~repro.transport.AsyncReportSender` clients
  handshake a :func:`~repro.transport.serve_collection` gateway, ship
  length-prefixed frames through the acked/backpressured path, and the
  gateway stops and merges. Frames/second, MB/second and the wire-v2
  bytes/report (against the dense v1 encoding of the same batches,
  asserted >= 4x smaller) land in the same JSON record under
  ``"socket"``.
* **client reporting**: :meth:`~repro.session.LDPClient.report_batch`
  perturbing one million users per protocol (piecewise, duchi, oue,
  olh, grr) — the device-side rate that bounds simulation-driven
  experiments; reports/second per protocol land under ``"client"``.
* **checkpoint stores**: a full round checkpoint (the workload's
  aggregation snapshot plus sender watermarks) is saved and recovered
  through each :mod:`repro.storage` backend. Round-trips/second and
  MB/second per backend land in the same JSON record under
  ``"checkpoint"`` — the cost of ``--checkpoint-every 1`` durability is
  a number, not a guess.
* **federation**: the upstream hop of the hierarchical tier — edges
  push the workload's full cumulative state to a
  :class:`~repro.federation.RootAggregator` over localhost TCP
  (handshake, CRC-sealed encode, root-side validate + fold, merged
  estimate). States/second, upstream MB/second and the bytes of one
  push land under ``"federation"``, sizing how often ``--push-every``
  can fire before the push hop dominates the round.

The socket bench also runs one *instrumented* round and records the
gateway's telemetry snapshot (counters, ack and fold latency means)
under ``"telemetry"``, so latency numbers ride the performance
trajectory alongside the throughput.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.experiments.collection import mixed_schema
from repro.federation import StatePusher, encode_state_push, serve_root
from repro.mechanisms import available_mechanisms, get_mechanism
from repro.session import (
    CategoricalAttribute,
    LDPClient,
    NumericAttribute,
    Schema,
    ShardedServer,
)
from repro.wire import encode_batch
from repro.storage import (
    encode_document,
    open_store,
    round_checkpoint_document,
)
from repro.telemetry import MetricsRegistry
from repro.transport import AsyncReportSender, serve_collection
from bench_config import BENCH_SEED

BATCH = 500_000
EPSILON = 1.0
#: Conservative floor (values/second) — real numbers are ~10-100x higher.
MIN_THROUGHPUT = 1e5

#: Wire-path shape: enough users that codec + ingest dominate fixture
#: noise, small enough for laptop-seconds runs.
WIRE_USERS = 20_000
WIRE_BATCHES = 8
WIRE_NUMERIC_DIMS = 4
WIRE_CATEGORIES = 16
WIRE_SHARD_COUNTS = (1, 2, 4)
#: Conservative floor for encode→decode→sharded-ingest (reports/second).
MIN_INGEST_THROUGHPUT = 2e4


def _mean_seconds(benchmark):
    """Mean seconds of the timed rounds, or ``None`` when nothing was timed.

    Under ``--benchmark-disable`` each body runs once, untimed, as a
    smoke check: the callers then skip their throughput floor and leave
    ``wire_throughput.json`` alone, because there is no number to judge
    or record.
    """
    if benchmark.stats is None:
        return None
    return benchmark.stats.stats.mean


@pytest.mark.parametrize("name", sorted(available_mechanisms()))
def test_perturb_throughput(benchmark, name):
    mechanism = get_mechanism(name)
    lo, hi = mechanism.input_domain
    rng = np.random.default_rng(BENCH_SEED)
    values = rng.uniform(lo, hi, size=BATCH)

    out = benchmark(mechanism.perturb, values, EPSILON, rng)
    assert out.shape == values.shape
    seconds = _mean_seconds(benchmark)
    if seconds is None:
        return
    assert BATCH / seconds > MIN_THROUGHPUT, (
        "%s perturbs only %.0f values/s" % (name, BATCH / seconds)
    )


# --------------------------------------------------------------------------
# Wire path: encode → decode → sharded ingest → merged estimate
# --------------------------------------------------------------------------


def _wire_workload():
    """Mixed schema + pre-perturbed report batches (perturbation excluded)."""
    schema = mixed_schema(WIRE_NUMERIC_DIMS, WIRE_CATEGORIES)
    rng = np.random.default_rng(BENCH_SEED)
    records = np.column_stack(
        [
            rng.uniform(-1.0, 1.0, size=(WIRE_USERS, WIRE_NUMERIC_DIMS)),
            rng.integers(0, WIRE_CATEGORIES, size=WIRE_USERS)[:, None],
        ]
    )
    client = LDPClient(schema, EPSILON, protocols={"category": "oue"})
    batches = [
        client.report_batch(chunk, rng)
        for chunk in np.array_split(records, WIRE_BATCHES)
    ]
    return schema, client, batches


def _record_wire_result(
    results_dir, key, payload: dict, section: str = "results"
) -> None:
    """Merge one measurement into the machine-readable record."""
    path = results_dir / "wire_throughput.json"
    workload = {
        "users": WIRE_USERS,
        "batches": WIRE_BATCHES,
        "numeric_dims": WIRE_NUMERIC_DIMS,
        "n_categories": WIRE_CATEGORIES,
        "reports": WIRE_USERS * (WIRE_NUMERIC_DIMS + 1),
    }
    document = {}
    if path.exists():
        document = json.loads(path.read_text())
    if document.get("workload") != workload:
        document = {}  # shape changed: stale numbers would mislead
    # One record, two benchmark families: "results" holds the in-process
    # wire path (encode→decode→sharded ingest), "socket" the end-to-end
    # TCP path — label the file by what distinguishes the sections.
    document["benchmark"] = "wire_throughput"
    document["sections"] = {
        "results": "wire_sharded_ingest",
        "socket": "socket_ingest",
        "checkpoint": "checkpoint_store",
        "telemetry": "socket_round_telemetry",
        "federation": "federation_state_push",
        "client": "client_report_batch",
    }
    document["workload"] = workload
    document.setdefault(section, {})[str(key)] = payload
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("shards", WIRE_SHARD_COUNTS)
def test_wire_sharded_ingest_throughput(benchmark, results_dir, shards):
    schema, client, batches = _wire_workload()
    total_reports = WIRE_USERS * schema.dimensions

    def encode_decode_ingest():
        server = ShardedServer(
            schema, EPSILON, protocols={"category": "oue"}, shards=shards
        )
        for batch in batches:
            server.ingest_encoded(client.encode(batch))
        return server.estimate()

    estimate = benchmark(encode_decode_ingest)
    assert estimate.users == WIRE_USERS
    seconds = _mean_seconds(benchmark)
    if seconds is None:
        return
    throughput = total_reports / seconds
    assert throughput > MIN_INGEST_THROUGHPUT, (
        "wire path moves only %.0f reports/s over %d shards"
        % (throughput, shards)
    )
    _record_wire_result(
        results_dir,
        shards,
        {
            "seconds_mean": seconds,
            "reports_per_second": throughput,
            "users_per_second": WIRE_USERS / seconds,
        },
    )


# --------------------------------------------------------------------------
# Socket path: handshake → framed sends → gateway validate/fold → ack
# --------------------------------------------------------------------------

#: Concurrent senders sharing the workload's frames over localhost TCP.
SOCKET_CLIENTS = 4
SOCKET_SHARDS = 2
#: Conservative floor for the end-to-end socket round (reports/second):
#: everything the wire path does, plus TCP and per-frame ack round trips.
MIN_SOCKET_THROUGHPUT = 1e4


def test_socket_ingest_throughput(benchmark, results_dir):
    schema, client, batches = _wire_workload()
    frames = [client.encode(batch) for batch in batches]
    per_client = [frames[i::SOCKET_CLIENTS] for i in range(SOCKET_CLIENTS)]
    total_reports = WIRE_USERS * schema.dimensions
    total_bytes = sum(len(frame) for frame in frames)
    # The same batches under wire v1 (dense float payloads): the v2
    # packed/narrowed families must keep this OUE-heavy workload at
    # least 4x smaller on the wire, or the codec regressed.
    v1_total_bytes = sum(
        len(encode_batch(batch, client.contract, version=1))
        for batch in batches
    )
    assert v1_total_bytes >= 4 * total_bytes, (
        "wire v2 compresses this workload only %.2fx over v1"
        % (v1_total_bytes / total_bytes)
    )

    def socket_round(metrics=None):
        async def run():
            server = ShardedServer(
                schema,
                EPSILON,
                protocols={"category": "oue"},
                shards=SOCKET_SHARDS,
            )
            gateway = await serve_collection(
                server,
                "127.0.0.1",
                0,
                metrics=metrics,
            )
            contract = server.contract

            async def one_client(own_frames):
                sender = await AsyncReportSender.connect(
                    "127.0.0.1", gateway.port, contract
                )
                async with sender:
                    for frame in own_frames:
                        await sender.send_encoded(frame)

            await asyncio.gather(
                *(one_client(own) for own in per_client)
            )
            await gateway.stop()
            return gateway

        return asyncio.run(run())

    gateway = benchmark(socket_round)
    assert gateway.estimate().users == WIRE_USERS

    # One more round, instrumented: the ack and fold latency
    # distributions ride the perf record, so a future regression comes
    # with the numbers attached.
    snapshot = socket_round(MetricsRegistry()).stats_snapshot()
    counters = snapshot["counters"]
    assert counters["frames_accepted"] == len(frames)
    assert counters["rejections_total"] == 0
    seconds = _mean_seconds(benchmark)
    if seconds is None:
        return
    throughput = total_reports / seconds
    assert throughput > MIN_SOCKET_THROUGHPUT, (
        "socket path moves only %.0f reports/s end to end" % throughput
    )
    _record_wire_result(
        results_dir,
        SOCKET_SHARDS,
        {
            "clients": SOCKET_CLIENTS,
            "seconds_mean": seconds,
            "frames_per_second": len(frames) / seconds,
            "mb_per_second": total_bytes / seconds / 1e6,
            "reports_per_second": throughput,
            "bytes_per_report": total_bytes / total_reports,
            "v1_bytes_per_report": v1_total_bytes / total_reports,
            "compression_vs_v1": v1_total_bytes / total_bytes,
        },
        section="socket",
    )
    families = snapshot["metrics"]
    ack = families["gateway_ack_latency_seconds"]["values"][""]
    fold = families["gateway_fold_seconds"]["values"][""]
    _record_wire_result(
        results_dir,
        SOCKET_SHARDS,
        {
            "counters": counters,
            "ack_latency_seconds_mean": ack["mean"],
            "fold_seconds_mean": fold["mean"],
        },
        section="telemetry",
    )


# --------------------------------------------------------------------------
# Checkpoint stores: round checkpoint save → recover, per backend
# --------------------------------------------------------------------------

CHECKPOINT_BACKENDS = ("file", "segments")
#: Conservative floor (write+recover round-trips/second): a gateway at
#: ``--checkpoint-every 1`` pays one write per acked frame, so a backend
#: slower than this would dominate the socket path's frame rate.
MIN_CHECKPOINT_ROUNDTRIPS = 5.0


@pytest.mark.parametrize("backend", CHECKPOINT_BACKENDS)
def test_checkpoint_store_throughput(benchmark, results_dir, tmp_path, backend):
    schema, client, batches = _wire_workload()
    server = ShardedServer(
        schema, EPSILON, protocols={"category": "oue"}, shards=SOCKET_SHARDS
    )
    for batch in batches:
        server.ingest_encoded(client.encode(batch))
    document = round_checkpoint_document(
        server.state_dict(),
        {b"\x01" * 16: WIRE_BATCHES},
        WIRE_BATCHES,
    )
    checkpoint_bytes = len(encode_document(document))
    uri = {
        "file": "file://%s" % (tmp_path / "bench.json"),
        "segments": "segments://%s" % (tmp_path / "bench-segments"),
    }[backend]

    with open_store(uri) as store:

        def save_and_recover():
            store.save(document)
            return store.recover()

        recovered = benchmark(save_and_recover)
    assert recovered["frames"] == WIRE_BATCHES
    seconds = _mean_seconds(benchmark)
    if seconds is None:
        return
    roundtrips = 1.0 / seconds
    assert roundtrips > MIN_CHECKPOINT_ROUNDTRIPS, (
        "%s store manages only %.1f checkpoint round-trips/s"
        % (backend, roundtrips)
    )
    _record_wire_result(
        results_dir,
        backend,
        {
            "seconds_mean": seconds,
            "roundtrips_per_second": roundtrips,
            "checkpoint_bytes": checkpoint_bytes,
            "mb_per_second": checkpoint_bytes / seconds / 1e6,
        },
        section="checkpoint",
    )


# --------------------------------------------------------------------------
# Federation: edges push cumulative state upstream, root validates + folds
# --------------------------------------------------------------------------

FEDERATION_EDGES = 3
#: Conservative floor (full state pushes/second across the topology):
#: encode + CRC + TCP + root-side decode, validate-restore and fold of
#: the whole workload's snapshot. An edge at ``--push-every N`` pays one
#: of these per N accepted frames.
MIN_PUSH_THROUGHPUT = 1.0


def test_federation_push_throughput(benchmark, results_dir):
    schema, client, batches = _wire_workload()
    server = ShardedServer(
        schema, EPSILON, protocols={"category": "oue"}, shards=SOCKET_SHARDS
    )
    for batch in batches:
        server.ingest_encoded(client.encode(batch))
    state = server.state_dict()
    push_bytes = len(encode_state_push(state))

    def federated_round():
        async def run():
            root = await serve_root(
                schema, EPSILON, protocols={"category": "oue"}
            )
            contract = server.contract

            async def one_edge(number):
                pusher = await StatePusher.connect(
                    "127.0.0.1", root.port, contract, bytes([number]) * 16
                )
                async with pusher:
                    await pusher.push(state)

            await asyncio.gather(
                *(one_edge(n + 1) for n in range(FEDERATION_EDGES))
            )
            await root.stop()
            return root

        return asyncio.run(run())

    root = benchmark(federated_round)
    assert root.pushes_accepted == FEDERATION_EDGES
    assert root.pushes_rejected == 0
    # each edge pushed the same cumulative snapshot: the merge is additive
    assert root.estimate().users == FEDERATION_EDGES * WIRE_USERS
    seconds = _mean_seconds(benchmark)
    if seconds is None:
        return
    states_per_second = FEDERATION_EDGES / seconds
    assert states_per_second > MIN_PUSH_THROUGHPUT, (
        "federation hop folds only %.2f state pushes/s" % states_per_second
    )
    _record_wire_result(
        results_dir,
        FEDERATION_EDGES,
        {
            "edges": FEDERATION_EDGES,
            "push_bytes": push_bytes,
            "seconds_mean": seconds,
            "states_per_second": states_per_second,
            "upstream_mb_per_second": (
                FEDERATION_EDGES * push_bytes / seconds / 1e6
            ),
        },
        section="federation",
    )


# --------------------------------------------------------------------------
# Client side: LDPClient.report_batch at population scale, per protocol
# --------------------------------------------------------------------------

CLIENT_USERS = 1_000_000
CLIENT_CATEGORIES = 16
CLIENT_PROTOCOLS = ("piecewise", "duchi", "oue", "olh", "grr")
#: Conservative floor (reports/second) for one attribute's perturbation
#: through the full client path (validate → privatize → batch).
MIN_CLIENT_THROUGHPUT = 5e4


@pytest.mark.parametrize("protocol", CLIENT_PROTOCOLS)
def test_client_report_batch_throughput(benchmark, results_dir, protocol):
    """Reports/second a single client process can produce per protocol.

    The device-side half of the pipeline: the socket and federation
    sections measure how fast the collector folds reports, this one
    measures how fast :meth:`LDPClient.report_batch` can make them — the
    number that bounds simulation-driven experiments at paper scale.
    """
    numeric = protocol in ("piecewise", "duchi")
    if numeric:
        schema = Schema([NumericAttribute("value")])
    else:
        schema = Schema(
            [CategoricalAttribute("label", n_categories=CLIENT_CATEGORIES)]
        )
    client = LDPClient(schema, EPSILON, protocols={schema.names[0]: protocol})
    rng = np.random.default_rng(BENCH_SEED)
    if numeric:
        records = rng.uniform(-1.0, 1.0, size=(CLIENT_USERS, 1))
    else:
        records = rng.integers(
            0, CLIENT_CATEGORIES, size=(CLIENT_USERS, 1)
        ).astype(np.float64)

    batch = benchmark(client.report_batch, records, rng)
    assert batch.users == CLIENT_USERS
    seconds = _mean_seconds(benchmark)
    if seconds is None:
        return
    throughput = CLIENT_USERS / seconds
    assert throughput > MIN_CLIENT_THROUGHPUT, (
        "%s client produces only %.0f reports/s" % (protocol, throughput)
    )
    _record_wire_result(
        results_dir,
        protocol,
        {
            "users": CLIENT_USERS,
            "seconds_mean": seconds,
            "reports_per_second": throughput,
        },
        section="client",
    )
