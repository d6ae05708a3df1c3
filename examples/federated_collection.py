"""A hierarchical federated round: edges aggregate, a root merges.

The two-tier topology for populations too large (or too scattered) for
one gateway: clients report to a nearby *edge aggregator*, which runs a
full collection gateway locally — same handshake, same acked frames,
same backpressure — and folds reports into its own sharded server.
Periodically, and always at shutdown, each edge cuts a cumulative
``state_dict`` snapshot and pushes it upstream to a *root aggregator*
over the same framed socket protocol (a ``STATE`` hello instead of a
report hello). The root keeps the newest epoch per edge and merges
across edges with the exact big-integer accumulation, so the federated
estimate is **bit-identical** to one-shot ingestion of every client's
reports — for any edge count, any client-to-edge split, and any amount
of push retrying.

Three properties carry the tier:

* **cumulative pushes** — a snapshot at epoch ``n`` covers everything
  epochs ``1..n-1`` did, so a lost push costs nothing: the next one
  subsumes it;
* **epoch idempotency** — the root's handshake reply carries the highest
  epoch it has folded for this edge id, and anything at or below that
  watermark is acknowledged without folding — retries can never double
  count;
* **contract symmetry** — both hops fingerprint-check the same
  collection contract, and a report stream dialing a root (or a push
  stream dialing a plain gateway) is refused with a typed error.

This example runs the whole hierarchy in one process over 127.0.0.1:
three edges serve four clients between them, one edge deliberately
re-pushes an already-folded epoch (deduped, not double counted), and
the root's merged estimate is asserted bit-equal to a reference server
that ingested every frame directly.

Run:  PYTHONPATH=src python examples/federated_collection.py
"""

import asyncio

import numpy as np

from repro import (
    CategoricalAttribute,
    LDPClient,
    LDPServer,
    NumericAttribute,
    Schema,
)
from repro.federation import EdgeAggregator, StatePusher, serve_root
from repro.transport import replay_frames

USERS_PER_CLIENT, EDGES, EPSILON, SEED = 4_000, 3, 2.0, 29

SCHEMA = Schema(
    [
        NumericAttribute("screen_time"),
        NumericAttribute("battery_drain"),
        CategoricalAttribute("top_app", n_categories=12),
    ]
)
PROTOCOLS = {"top_app": "oue"}

#: Stable identities: an edge id names one resumable push stream at the
#: root, so a restarted edge resumes instead of registering a ghost.
EDGE_IDS = [bytes([0x10 + n]) * 16 for n in range(EDGES)]
CLIENT_IDS = [bytes([0x20 + n]) * 16 for n in range(EDGES + 1)]


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
        for chunk in np.array_split(records, 4)
    ]


async def federated_round(rounds: list) -> dict:
    """Run root + edges + clients; return everything worth asserting."""
    async with await serve_root(
        SCHEMA, EPSILON, protocols=PROTOCOLS
    ) as root:
        edges = []
        for edge_id in EDGE_IDS:
            edge = EdgeAggregator(
                SCHEMA,
                EPSILON,
                protocols=PROTOCOLS,
                shards=2,
                edge_id=edge_id,
                push_every_frames=2,  # push every 2 accepted frames
            )
            edges.append(await edge.start("127.0.0.1", root.port))

        # Clients split across the edges (the last edge serves two).
        contract = root.contract
        await asyncio.gather(
            *(
                replay_frames(
                    "127.0.0.1",
                    edges[min(n, EDGES - 1)].port,
                    contract,
                    frames,
                    CLIENT_IDS[n],
                )
                for n, frames in enumerate(rounds)
            )
        )

        # Stop the edges: each stops its gateway and ALWAYS pushes its
        # final cumulative snapshot, so the root holds complete rounds.
        for edge in edges:
            await edge.stop()

        # A flaky edge retries a push it already delivered: the root's
        # epoch watermark acknowledges it without folding.
        async with await StatePusher.connect(
            "127.0.0.1", root.port, contract, EDGE_IDS[0]
        ) as pusher:
            pusher._next_epoch = pusher.resume_epoch  # replay the last epoch
            await pusher.push(edges[0].server.state_dict())

        await root.wait_for_users(len(rounds) * USERS_PER_CLIENT)
        snapshot = root.stats_snapshot()
        return {
            "estimate": root.estimate(),
            "counters": snapshot["counters"],
            "pushes": [edge.pushes_completed for edge in edges],
        }


def main() -> None:
    rounds = [client_frames(SEED + n) for n in range(EDGES + 1)]

    reference = LDPServer(SCHEMA, EPSILON, protocols=PROTOCOLS)
    for frames in rounds:
        for frame in frames:
            reference.ingest_encoded(frame)

    result = asyncio.run(federated_round(rounds))
    counters = result["counters"]

    print("== topology ==")
    print(
        "%d clients x %d users -> %d edges -> 1 root"
        % (len(rounds), USERS_PER_CLIENT, EDGES)
    )
    print(
        "pushes folded: %d  deduped: %d  rejected: %d  (per edge: %s)"
        % (
            counters["pushes_accepted"],
            counters["pushes_deduped"],
            counters["pushes_rejected"],
            result["pushes"],
        )
    )

    print("\n== federated vs one-shot (must be bit-identical) ==")
    federated, oneshot = result["estimate"], reference.estimate()
    assert federated.users == oneshot.users == len(rounds) * USERS_PER_CLIENT
    for ours, theirs in zip(federated.attributes, oneshot.attributes):
        assert np.array_equal(ours.raw, theirs.raw), ours.name
        shown = (
            np.array2string(ours.raw[:4], precision=4)
            if ours.kind == "categorical"
            else "%+.6f" % ours.scalar
        )
        print("%-14s %s  (identical)" % (ours.name, shown))

    assert counters["pushes_deduped"] == 1  # the replayed epoch
    assert counters["pushes_rejected"] == 0
    assert counters["edges"] == EDGES
    print(
        "\nfederated estimate over %d edges is bit-identical to one-shot"
        % EDGES
    )


if __name__ == "__main__":
    main()
