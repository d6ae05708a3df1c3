"""A full collection round over localhost sockets (async transport).

The production topology of the paper's collection model: many reporting
clients connect to a TCP collection gateway, handshake their
`CollectionContract` fingerprint (a misconfigured client is turned away
before a single report flows), and stream length-prefixed wire frames.
The gateway validates every frame and folds it into one shard of a
`ShardedServer` before acking it — a sender waits on each ack, so a slow
fold slows its producer down (backpressure) instead of ballooning
gateway memory. On shutdown the gateway merges its shards, and because
aggregation is exact, the estimate is bit-identical to one-shot
in-process ingestion of the same reports.

This example runs the whole round in one process over 127.0.0.1:

* four concurrent senders ship seeded report frames (plus zero-user
  heartbeat frames — valid no-ops that keep idle connections honest);
* a rogue client constructed under a different budget is rejected at
  the handshake;
* the gateway's merged estimate is asserted bit-equal to a reference
  server that ingested the same frames directly.

Run:  PYTHONPATH=src python examples/async_collection.py
"""

import asyncio

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
from repro.transport import AsyncReportSender, serve_collection

USERS_PER_CLIENT, CLIENTS, SHARDS, EPSILON, SEED = 5_000, 4, 3, 2.0, 23

SCHEMA = Schema(
    [
        NumericAttribute("screen_time"),
        NumericAttribute("battery_drain"),
        CategoricalAttribute("top_app", n_categories=12),
    ]
)
PROTOCOLS = {"top_app": "oue"}


def client_frames(seed: int) -> list:
    """One client's perturbed, wire-encoded report frames (seeded)."""
    gen = np.random.default_rng(seed)
    records = np.column_stack(
        [
            np.clip(gen.normal(0.3, 0.4, USERS_PER_CLIENT), -1, 1),
            np.clip(gen.normal(-0.1, 0.3, USERS_PER_CLIENT), -1, 1),
            gen.integers(0, 12, USERS_PER_CLIENT),
        ]
    )
    client = LDPClient(SCHEMA, EPSILON, protocols=PROTOCOLS)
    return [
        client.report_encoded(chunk, gen)
        for chunk in np.array_split(records, 5)
    ]


async def run_client(port: int, seed: int) -> int:
    """Connect, stream one round's frames (with heartbeats), disconnect."""
    contract = LDPClient(SCHEMA, EPSILON, protocols=PROTOCOLS).contract
    sender = await AsyncReportSender.connect("127.0.0.1", port, contract)
    async with sender:
        await sender.heartbeat()  # idle-gateway flush: a valid no-op
        for frame in client_frames(seed):
            await sender.send_encoded(frame)
        await sender.heartbeat()
        return sender.bytes_sent


async def run_round() -> None:
    # --- gateway: each frame folded into a shard before its ack --------
    collector = ShardedServer(SCHEMA, EPSILON, protocols=PROTOCOLS, shards=SHARDS)
    gateway = await serve_collection(collector, "127.0.0.1", 0)
    print("gateway listening on 127.0.0.1:%d (%d shards)" % (gateway.port, SHARDS))

    # --- concurrent clients -------------------------------------------
    shipped = await asyncio.gather(
        *(run_client(gateway.port, SEED + i) for i in range(CLIENTS))
    )
    print(
        "%d clients shipped %d frames (%d payload bytes, %d heartbeats)"
        % (
            CLIENTS,
            gateway.frames_accepted,
            sum(shipped),
            gateway.heartbeats,
        )
    )

    # --- a misconfigured client never gets to send a report -----------
    rogue = LDPClient(SCHEMA, epsilon=8.0, protocols=PROTOCOLS)
    try:
        await AsyncReportSender.connect("127.0.0.1", gateway.port, rogue)
    except ContractMismatchError as error:
        print("rogue client rejected at handshake:\n  %s" % error)

    # --- shutdown, then read the merged estimate ----------------------
    await gateway.stop()
    estimate = gateway.estimate()

    reference = LDPServer(SCHEMA, EPSILON, protocols=PROTOCOLS)
    for i in range(CLIENTS):
        for frame in client_frames(SEED + i):
            reference.ingest_encoded(frame)
    baseline = reference.estimate()
    for a, b in zip(estimate.attributes, baseline.attributes):
        assert np.array_equal(a.raw, b.raw), a.name
    print(
        "socket-round estimates are bit-identical to in-process ingestion "
        "(%d users)" % estimate.users
    )

    print("\nestimated means:")
    for name in ("screen_time", "battery_drain"):
        print("  %-14s %+.4f" % (name, estimate[name].scalar))
    print("  most-used app:  #%d" % int(np.argmax(estimate.frequencies("top_app"))))


def main() -> None:
    asyncio.run(run_round())


if __name__ == "__main__":
    main()
