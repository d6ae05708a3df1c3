"""Command-line entry point: ``python -m repro.experiments <artefact>``.

Each subcommand regenerates one paper artefact and prints its rows/series
to stdout. ``--quick`` runs a scaled-down configuration (the same ones the
benchmark harness uses); without it the paper-scale defaults apply, which
can take a long time.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..exceptions import ParameterError
from .ablation import (
    run_confidence_ablation,
    run_harmful_regime,
    run_solver_equivalence,
)
from .case_study import run_case_study
from .clt_validation import run_fig2, run_fig3
from .collection import run_session_collection
from .convergence import run_convergence, worked_example
from .dimensionality import FIG5_MECHANISMS, run_dimensionality_sweep
from .frequency_experiment import run_frequency_experiment
from .mse_sweep import FIG4_PANELS, run_mse_sweep

#: Scaled-down shapes used by --quick (and the benchmark harness).
QUICK_USERS = 20_000
QUICK_REPEATS = 2
QUICK_CLT_REPEATS = 300

#: The ``collection`` modes: the in-process experiment (no mode flag)
#: and the five socket modes, each named by its flag.
IN_PROCESS = "the in-process experiment"
SOCKET_MODES = ("--serve", "--connect", "--oneshot", "--root", "--edge")
SERVING = ("--serve", "--root", "--edge")

#: The one place that says which ``collection`` mode reads which flag:
#: each mode-specific flag maps to the modes that read it and to the
#: ``run_*`` parameter a socket mode passes it as. A flag the selected
#: mode would ignore is a misuse the user must hear about, not a silent
#: no-op. Flags left out (``--log-json``) apply to every mode.
COLLECTION_FLAGS = {
    # the scaled-down shape of the in-process experiment
    "--quick": ((IN_PROCESS,), None),
    # clients own their rounds' seeds; --oneshot takes them as its argument
    "--seed": ((IN_PROCESS, "--connect"), "seed"),
    # the gateway owns the shards
    "--shards": ((IN_PROCESS, "--serve", "--edge"), "shards"),
    # the serving side owns the round's durable state
    "--checkpoint": ((IN_PROCESS,) + SERVING, "checkpoint"),
    "--checkpoint-every": (("--serve", "--edge"), "checkpoint_every"),
    "--expect-users": (SERVING, "expect_users"),
    "--port-file": (SERVING, "port_file"),
    # the listening side presents the certificate
    "--tls-cert": (SERVING, "tls_cert"),
    "--tls-key": (SERVING, "tls_key"),
    # the side that dials out verifies the peer and owns the reconnect loop
    "--tls-ca": (("--connect", "--edge"), "tls_ca"),
    "--retry": (("--connect", "--edge"), "retry"),
    # the serving side takes frames as they come
    "--batches": (("--connect", "--oneshot"), "batches"),
    "--users": (SOCKET_MODES, "users"),
    "--metrics": (SOCKET_MODES, "metrics_path"),
    "--listen": (("--edge",), "listen"),
    "--push-every": (("--edge",), "push_every"),
    "--edge-id": (("--edge",), "edge_number"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None, help="random seed (default 0)"
    )
    common.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down run (laptop-seconds instead of paper-scale)",
    )
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="artefact", required=True)

    sub.add_parser("table2", help="Table II analytical benchmark", parents=[common])
    sub.add_parser("fig2", help="CLT vs experiment on Uniform", parents=[common])
    sub.add_parser("fig3", help="CLT vs experiment, case study", parents=[common])

    fig4 = sub.add_parser("fig4", help="MSE vs epsilon panels", parents=[common])
    fig4.add_argument(
        "--dataset",
        default="gaussian",
        choices=sorted({d for d, _ in FIG4_PANELS}),
    )
    fig4.add_argument(
        "--mechanism",
        default="laplace",
        choices=sorted({m for _, m in FIG4_PANELS}),
    )

    fig5 = sub.add_parser("fig5", help="MSE vs dimensionality on COV-19-like", parents=[common])
    fig5.add_argument("--mechanism", default="laplace", choices=FIG5_MECHANISMS)

    sub.add_parser("theorem2", help="Berry-Esseen worked example + sweep", parents=[common])
    sub.add_parser("prediction", help="framework MSE prediction vs experiment", parents=[common])
    sub.add_parser("ablation", help="HDR4ME design ablations", parents=[common])
    freq = sub.add_parser("frequency", help="Section V-C frequency extension", parents=[common])
    freq.add_argument("--mechanism", default="piecewise")
    collection = sub.add_parser(
        "collection",
        help="mixed-schema streaming collection through the session API",
        parents=[common],
    )
    collection.add_argument(
        "--shards",
        type=int,
        default=None,
        help="fan the batch stream over N worker servers, wire-encoding "
        "every batch (default 1: plain in-memory ingestion)",
    )
    collection.add_argument(
        "--checkpoint",
        metavar="URI",
        default=None,
        help="checkpoint store URI: file://PATH, segments://DIR, or a "
        "bare path (JSON file). In-process: save "
        "the server state mid-stream, restore into a fresh server and "
        "resume (bit-identical estimates either way). With --serve: "
        "make the round durable — checkpoint per --checkpoint-every "
        "and resume from the newest intact checkpoint on start",
    )
    collection.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="serve mode: checkpoint every N accepted frames, before "
        "the Nth frame's ack goes out (requires --checkpoint; "
        "default 1: every acknowledged frame is durable)",
    )
    collection.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="N",
        help="connect mode: up to N connection attempts half a second "
        "apart (default 1) — rides out a gateway restart mid-round; "
        "the resumed stream skips already-durable frames",
    )
    socket_mode = collection.add_mutually_exclusive_group()
    socket_mode.add_argument(
        "--serve",
        metavar="HOST:PORT",
        default=None,
        help="serve an asyncio collection gateway (sharded per --shards); "
        "stop and print the merged estimate once --expect-users users "
        "arrived (port 0 binds an ephemeral port, see --port-file)",
    )
    socket_mode.add_argument(
        "--connect",
        metavar="HOST:PORT",
        default=None,
        help="act as one reporting client: handshake, ship the --seed "
        "round's frames plus a zero-user heartbeat, and exit",
    )
    socket_mode.add_argument(
        "--oneshot",
        metavar="SEEDS",
        default=None,
        help="comma-separated client seeds: ingest the same frames "
        "in-process and print the estimate in --serve's format "
        "(diff asserts bit-identical aggregation)",
    )
    socket_mode.add_argument(
        "--root",
        metavar="HOST:PORT",
        default=None,
        help="serve the root of a federated round: accept merged state "
        "pushes from --edge aggregators and print the federated "
        "estimate (in --serve's format) once --expect-users users are "
        "covered",
    )
    socket_mode.add_argument(
        "--edge",
        metavar="UPSTREAM",
        default=None,
        help="run one edge aggregator: serve clients on --listen (a "
        "full gateway, sharded per --shards), and push the merged "
        "state upstream to the --root at UPSTREAM (HOST:PORT) every "
        "--push-every accepted frames plus once at shutdown",
    )
    collection.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="edge mode: the local endpoint clients connect to "
        "(default 127.0.0.1:0 — an ephemeral port, see --port-file)",
    )
    collection.add_argument(
        "--push-every",
        type=int,
        default=None,
        metavar="N",
        help="edge mode: push the cumulative state upstream every N "
        "accepted frames (default 2); the shutdown push always happens",
    )
    collection.add_argument(
        "--edge-id",
        type=int,
        default=None,
        metavar="N",
        help="edge mode: deterministic edge identity — re-running the "
        "same N resumes the same push stream at the root (default 0)",
    )
    collection.add_argument(
        "--tls-cert",
        metavar="PEM",
        default=None,
        help="serve/root/edge modes: serve the listening socket over "
        "TLS with this certificate chain (requires --tls-key)",
    )
    collection.add_argument(
        "--tls-key",
        metavar="PEM",
        default=None,
        help="serve/root/edge modes: the private key of --tls-cert",
    )
    collection.add_argument(
        "--tls-ca",
        metavar="PEM",
        default=None,
        help="connect/edge modes: trust this CA bundle and speak TLS "
        "on the outbound hop (to a --tls-cert gateway or root)",
    )
    collection.add_argument(
        "--users",
        type=int,
        default=None,
        help="records per socket client (socket modes only; default 4000)",
    )
    collection.add_argument(
        "--batches",
        type=int,
        default=None,
        help="frames per socket client (socket modes only; default 6)",
    )
    collection.add_argument(
        "--expect-users",
        type=int,
        default=None,
        metavar="N",
        help="serve mode: finish the round after N accepted users "
        "(default: --users, i.e. one client)",
    )
    collection.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="serve mode: write the bound port to PATH once listening",
    )
    collection.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="socket modes: write the telemetry snapshot (counters, "
        "histograms, gauges) to PATH as JSON on "
        "exit — the serve-mode document matches what the live STATS "
        "socket request returns",
    )
    collection.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON events (one object per line, on "
        "stderr): handshakes, frame accept/reject, folds, checkpoint "
        "cuts, sender retries, recovery replays",
    )
    return parser


def _run_collection(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Run the ``collection`` artefact in the mode its flags select.

    Every flag the mode does not read (per :data:`COLLECTION_FLAGS`) is
    refused in one usage error; then the two pairing rules apply, and
    the ``--oneshot`` seeds and every endpoint are parsed, so a malformed
    one is a usage error naming its flag. A socket mode's ``run_*``
    function gets only the flags that were given, so its signature holds
    the one default of each.
    """
    mode = next(
        (name for name in SOCKET_MODES if getattr(args, name[2:])), IN_PROCESS
    )
    given = {}
    for flag in COLLECTION_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False:
            given[flag] = value
    misused = [flag for flag in given if mode not in COLLECTION_FLAGS[flag][0]]
    if misused:
        parser.error(
            "; ".join(
                "%s only applies to %s"
                % (flag, ", ".join(COLLECTION_FLAGS[flag][0]))
                for flag in misused
            )
        )
    if "--checkpoint-every" in given and "--checkpoint" not in given:
        parser.error("--checkpoint-every requires --checkpoint")
    if ("--tls-cert" in given) != ("--tls-key" in given):
        parser.error(
            "--tls-cert and --tls-key go together (a TLS listener needs "
            "both halves of its identity)"
        )
    target = None if mode == IN_PROCESS else getattr(args, mode[2:])
    if mode == "--oneshot":
        try:
            target = [int(part) for part in target.split(",") if part]
        except ValueError:
            parser.error(
                "--oneshot takes comma-separated integer seeds, got %r" % target
            )
    elif target is not None:
        from .socket_round import parse_endpoint

        for flag, endpoint in ((mode, target), ("--listen", args.listen)):
            if endpoint is None:
                continue
            try:
                parse_endpoint(endpoint)
            except ParameterError as error:
                parser.error("%s: %s" % (flag, error))
    if args.log_json:
        from ..telemetry import enable_json_logs

        enable_json_logs()

    if mode == IN_PROCESS:
        kwargs = dict(users=QUICK_USERS, repeats=QUICK_REPEATS) if args.quick else {}
        if args.shards is not None:
            kwargs["shards"] = args.shards
        result = run_session_collection(
            checkpoint=args.checkpoint,
            rng=args.seed if args.seed is not None else 0,
            **kwargs,
        )
        print(result.format())
        return

    from . import socket_round

    runners = {
        "--serve": socket_round.run_collection_gateway,
        "--connect": socket_round.run_collection_sender,
        "--oneshot": socket_round.run_oneshot_reference,
        "--root": socket_round.run_federation_root,
        "--edge": socket_round.run_federation_edge,
    }
    kwargs = {COLLECTION_FLAGS[flag][1]: value for flag, value in given.items()}
    if mode in SERVING:
        # a serving side waits for one client's --users unless told
        # otherwise by --expect-users
        users = kwargs.pop("users", None)
        if users is not None:
            kwargs.setdefault("expect_users", users)
    print(runners[mode](target, **kwargs))


def main(argv: Optional[List[str]] = None) -> int:
    """Run one artefact and print its result; returns a process code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    seed = args.seed if args.seed is not None else 0
    quick = args.quick

    if args.artefact == "table2":
        print(run_case_study().format())
    elif args.artefact == "fig2":
        kwargs = {}
        if quick:
            kwargs = dict(users=QUICK_USERS, repeats=QUICK_CLT_REPEATS)
        for result in run_fig2(rng=seed, **kwargs):
            print(result.format())
            print()
    elif args.artefact == "fig3":
        kwargs = dict(repeats=QUICK_CLT_REPEATS) if quick else {}
        for result in run_fig3(rng=seed, **kwargs):
            print(result.format())
            print()
    elif args.artefact == "fig4":
        kwargs = {}
        if quick:
            kwargs = dict(users=QUICK_USERS, repeats=QUICK_REPEATS)
        result = run_mse_sweep(
            dataset=args.dataset, mechanism=args.mechanism, rng=seed, **kwargs
        )
        print(result.format())
    elif args.artefact == "fig5":
        kwargs = {}
        if quick:
            kwargs = dict(
                users=QUICK_USERS,
                repeats=QUICK_REPEATS,
                dimension_grid=(50, 100, 200, 400),
            )
        result = run_dimensionality_sweep(
            mechanism=args.mechanism, rng=seed, **kwargs
        )
        print(result.format())
    elif args.artefact == "theorem2":
        print(worked_example().format())
        print()
        repeats = QUICK_CLT_REPEATS if quick else 0
        print(run_convergence(empirical_repeats=repeats, rng=seed).format())
    elif args.artefact == "prediction":
        from .prediction import run_mse_prediction

        kwargs = {}
        if quick:
            kwargs = dict(users=8_000, dimensions=30, repeats=3)
        print(run_mse_prediction(rng=seed, **kwargs).format())
    elif args.artefact == "ablation":
        users = QUICK_USERS if quick else 50_000
        print(run_confidence_ablation(users=users, rng=seed).format())
        print()
        print(run_harmful_regime(users=users, rng=seed).format())
        print()
        print(run_solver_equivalence(rng=seed).format())
    elif args.artefact == "frequency":
        kwargs = {}
        if quick:
            kwargs = dict(users=QUICK_USERS, repeats=QUICK_REPEATS)
        result = run_frequency_experiment(
            mechanism=args.mechanism, rng=seed, **kwargs
        )
        print(result.format())
    elif args.artefact == "collection":
        _run_collection(parser, args)
    else:  # pragma: no cover - argparse enforces choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
