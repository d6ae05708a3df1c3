"""Multi-process telemetry collection over the wire (distributed API).

A realistic collection topology: edge gateways perturb and wire-encode
user records in separate worker processes, ship opaque byte frames to a
collector, and the collector fans them over sharded worker servers —
checkpointing mid-round so a restart loses nothing. Three properties of
the :mod:`repro.wire` layer make this safe:

* **contract handshake** — every frame embeds the fingerprint of the
  schema + budget + protocol agreement; the collector rejects frames
  from a misconfigured gateway (demonstrated below) instead of
  aggregating silent garbage;
* **exact aggregation** — shard routing, merge order, and
  checkpoint/restore cannot change the estimates by even one bit, so
  the distributed answer *is* the single-server answer;
* **self-describing frames** — payloads for numeric mechanisms and the
  OUE oracle travel in one versioned binary format, CRC-protected.

The gateways run in a real ``multiprocessing`` pool (only bytes cross
the process boundary, exactly as over a socket), with a sequential
fallback when the platform restricts subprocesses.

Run:  python examples/distributed_collection.py
"""

import os
import tempfile

import numpy as np

from repro import (
    CategoricalAttribute,
    ContractMismatchError,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
    ShardedServer,
)

USERS, GATEWAYS, SHARDS, EPSILON, SEED = 60_000, 6, 3, 2.0, 11

SCHEMA = Schema(
    [
        NumericAttribute("screen_time"),
        NumericAttribute("battery_drain"),
        CategoricalAttribute("top_app", n_categories=12),
    ]
)
PROTOCOLS = {"top_app": "oue"}


def gateway_worker(args):
    """One edge gateway: perturb its users' records, return wire bytes.

    Runs in a separate process — nothing but the byte frame (and the
    arguments) ever crosses the boundary, exactly like a network hop.
    """
    records, seed = args
    client = LDPClient(SCHEMA, EPSILON, protocols=PROTOCOLS)
    return client.report_encoded(records, np.random.default_rng(seed))


def simulate_population(rng: np.random.Generator) -> np.ndarray:
    screen = np.clip(rng.normal(0.3, 0.4, USERS), -1, 1)
    battery = np.clip(rng.normal(-0.1, 0.3, USERS), -1, 1)
    apps = rng.choice(12, USERS, p=np.linspace(12, 1, 12) / np.sum(np.linspace(12, 1, 12)))
    return np.column_stack([screen, battery, apps])


def collect_frames(workloads) -> list:
    """Fan the gateway workloads over a process pool (or sequentially)."""
    try:
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(2) as pool:
            return pool.map(gateway_worker, workloads)
    except (ImportError, OSError):  # restricted platforms: same bytes, one process
        return [gateway_worker(load) for load in workloads]


def main() -> None:
    rng = np.random.default_rng(SEED)
    records = simulate_population(rng)
    truth_mean = records[:, :2].mean(axis=0)

    workloads = [
        (chunk, SEED + 100 + i)
        for i, chunk in enumerate(np.array_split(records, GATEWAYS))
    ]
    frames = collect_frames(workloads)
    print(
        "collected %d wire frames (%d bytes total) from %d gateways"
        % (len(frames), sum(len(f) for f in frames), GATEWAYS)
    )

    # --- collector side: sharded ingest with a mid-round checkpoint ----
    collector = ShardedServer(
        SCHEMA, EPSILON, protocols=PROTOCOLS, shards=SHARDS
    )
    for frame in frames[: GATEWAYS // 2]:
        collector.ingest_encoded(frame)
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = os.path.join(scratch, "checkpoint.json")
        collector.save_state(checkpoint)
        resumed = ShardedServer(
            SCHEMA, EPSILON, protocols=PROTOCOLS, shards=SHARDS
        ).load_state(checkpoint)
    for frame in frames[GATEWAYS // 2 :]:
        resumed.ingest_encoded(frame)
    estimate = resumed.estimate()

    # --- the distributed answer IS the single-server answer -----------
    reference = LDPServer(SCHEMA, EPSILON, protocols=PROTOCOLS)
    for frame in frames:
        reference.ingest_encoded(frame)
    baseline = reference.estimate()
    for a, b in zip(estimate.attributes, baseline.attributes):
        assert np.array_equal(a.raw, b.raw), a.name
    print(
        "sharded + checkpointed estimates are bit-identical to one-shot "
        "ingestion (%d users)" % estimate.users
    )

    print("\nestimated vs true means:")
    for name, true_value in zip(("screen_time", "battery_drain"), truth_mean):
        print(
            "  %-14s %+.4f  (true %+.4f)"
            % (name, estimate[name].scalar, true_value)
        )
    top = int(np.argmax(estimate.frequencies("top_app")))
    print("  most-used app:  #%d" % top)

    # --- a misconfigured gateway is rejected by fingerprint -----------
    rogue = LDPClient(SCHEMA, epsilon=8.0, protocols=PROTOCOLS)
    rogue_frame = rogue.report_encoded(records[:100], rng)
    try:
        resumed.ingest_encoded(rogue_frame)
    except ContractMismatchError as error:
        print("\nrogue gateway rejected:\n  %s" % error)


if __name__ == "__main__":
    main()
