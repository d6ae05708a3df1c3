"""Tests for the ``python -m repro.experiments`` CLI."""

from __future__ import annotations

import inspect

import pytest

from repro.experiments.cli import COLLECTION_FLAGS, main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "piecewise" in out
        assert "533.2" in out

    def test_requires_artefact(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_artefact(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_theorem2_without_quick(self, capsys):
        assert main(["theorem2"]) == 0
        out = capsys.readouterr().out
        assert "worked example" in out
        assert "bound" in out

    def test_fig4_choices_enforced(self):
        with pytest.raises(SystemExit):
            main(["fig4", "--dataset", "imagenet"])

    def test_seed_accepted(self, capsys):
        assert main(["table2", "--seed", "7"]) == 0

    def test_prediction_quick(self, capsys):
        assert main(["prediction", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "piecewise" in out


#: ``collection`` flag combinations the selected mode would ignore or
#: cannot honour, and the flags the error must name. Every case is
#: refused by the flag checks before any socket, store or round is
#: started, and every row of the flag table has a case of its own.
COLLECTION_MISUSE = [
    ("quick-serve", ["--quick", "--serve", "127.0.0.1:0"], "--quick"),
    ("seed-serve", ["--seed", "3", "--serve", "127.0.0.1:0"], "--seed"),
    ("seed-oneshot", ["--seed", "3", "--oneshot", "7,8"], "--seed"),
    ("shards-connect", ["--shards", "2", "--connect", "127.0.0.1:9"], "--shards"),
    ("shards-root", ["--shards", "2", "--root", "127.0.0.1:0"], "--shards"),
    ("checkpoint-connect", ["--checkpoint", "c.json", "--connect", "127.0.0.1:9"], "--checkpoint"),
    (
        "checkpoint-every-root",
        ["--checkpoint", "c.json", "--checkpoint-every", "2", "--root", "127.0.0.1:0"],
        "--checkpoint-every",
    ),
    # a retired flag is refused by name in every mode
    ("queue-depth-connect", ["--queue-depth", "4", "--connect", "127.0.0.1:9"], "--queue-depth"),
    ("expect-users-oneshot", ["--expect-users", "10", "--oneshot", "7"], "--expect-users"),
    ("port-file-connect", ["--port-file", "p.txt", "--connect", "127.0.0.1:9"], "--port-file"),
    (
        "tls-pair-connect",
        ["--tls-cert", "c.pem", "--tls-key", "k.pem", "--connect", "127.0.0.1:9"],
        ("--tls-cert", "--tls-key"),
    ),
    ("tls-ca-serve", ["--tls-ca", "ca.pem", "--serve", "127.0.0.1:0"], "--tls-ca"),
    ("retry-oneshot", ["--retry", "3", "--oneshot", "7,8"], "--retry"),
    ("batches-serve", ["--batches", "2", "--serve", "127.0.0.1:0"], "--batches"),
    ("push-every-serve", ["--push-every", "1", "--serve", "127.0.0.1:0"], "--push-every"),
    ("listen-root", ["--listen", "127.0.0.1:0", "--root", "127.0.0.1:0"], "--listen"),
    ("edge-id-serve", ["--edge-id", "1", "--serve", "127.0.0.1:0"], "--edge-id"),
    (
        "checkpoint-every-alone",
        ["--checkpoint-every", "5", "--serve", "127.0.0.1:0"],
        "--checkpoint-every",
    ),
    (
        "tls-cert-without-key",
        ["--tls-cert", "cert.pem", "--serve", "127.0.0.1:0"],
        "--tls-cert",
    ),
    ("metrics-in-process", ["--quick", "--metrics", "m.json"], "--metrics"),
    ("users-in-process", ["--quick", "--users", "10"], "--users"),
    ("oneshot-bad-seed", ["--oneshot", "7,x"], "--oneshot"),
    ("serve-bad-endpoint", ["--serve", "bad"], "--serve"),
    ("connect-bad-endpoint", ["--connect", "127.0.0.1:"], "--connect"),
    ("root-bad-endpoint", ["--root", "[::1]"], "--root"),
    ("edge-bad-endpoint", ["--edge", "host:port"], "--edge"),
    ("listen-bad-endpoint", ["--edge", "127.0.0.1:9", "--listen", ":::"], "--listen"),
    (
        "every-misuse-in-one-error",
        ["--batches", "2", "--retry", "3", "--serve", "127.0.0.1:0"],
        ("--batches", "--retry"),
    ),
]


def _named(offending):
    return (offending,) if isinstance(offending, str) else offending


@pytest.mark.parametrize(
    "flags, offending",
    [case[1:] for case in COLLECTION_MISUSE],
    ids=[case[0] for case in COLLECTION_MISUSE],
)
def test_collection_refuses_flag_misuse(flags, offending, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["collection"] + flags)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    for flag in _named(offending):
        assert flag in err


def test_every_flag_table_row_has_a_refused_case():
    refused = {flag for case in COLLECTION_MISUSE for flag in _named(case[2])}
    assert set(COLLECTION_FLAGS) <= refused


def _socket_runners():
    from repro.experiments import socket_round

    return {
        "--serve": socket_round.run_collection_gateway,
        "--connect": socket_round.run_collection_sender,
        "--oneshot": socket_round.run_oneshot_reference,
        "--root": socket_round.run_federation_root,
        "--edge": socket_round.run_federation_edge,
    }


def test_flag_table_names_parameters_the_runners_take():
    """A socket mode that reads a flag passes it as a parameter its
    ``run_*`` function has (``--users`` becomes a serving side's
    ``expect_users``)."""
    runners = _socket_runners()
    for flag, (modes, parameter) in COLLECTION_FLAGS.items():
        for mode in modes:
            if mode not in runners:
                continue
            name = parameter
            if flag == "--users" and mode in ("--serve", "--root", "--edge"):
                name = "expect_users"
            assert name in inspect.signature(runners[mode]).parameters, (flag, mode)


def test_runner_defaults_are_the_cli_defaults():
    """The values a CLI user gets without the flag, each written once."""
    runners = _socket_runners()
    expected = {
        "--serve": dict(shards=1, expect_users=4000),
        "--connect": dict(seed=0, users=4000, batches=6, retry=1),
        "--oneshot": dict(users=4000, batches=6),
        "--root": dict(expect_users=4000),
        "--edge": dict(
            listen="127.0.0.1:0",
            shards=1,
            expect_users=4000,
            push_every=2,
            edge_number=0,
            retry=1,
        ),
    }
    for mode, defaults in expected.items():
        parameters = inspect.signature(runners[mode]).parameters
        for name, value in defaults.items():
            assert parameters[name].default == value, (mode, name)


@pytest.mark.parametrize(
    "flags, runner, target, kwargs",
    [
        (
            ["--serve", "127.0.0.1:0", "--shards", "2", "--port-file", "p.txt"],
            "run_collection_gateway",
            "127.0.0.1:0",
            dict(shards=2, port_file="p.txt"),
        ),
        (
            ["--serve", "127.0.0.1:0", "--users", "10"],
            "run_collection_gateway",
            "127.0.0.1:0",
            dict(expect_users=10),
        ),
        (
            ["--root", "127.0.0.1:0", "--users", "10", "--expect-users", "30"],
            "run_federation_root",
            "127.0.0.1:0",
            dict(expect_users=30),
        ),
        (
            ["--connect", "127.0.0.1:9", "--seed", "7", "--retry", "30"],
            "run_collection_sender",
            "127.0.0.1:9",
            dict(seed=7, retry=30),
        ),
        (
            ["--oneshot", "7,8", "--users", "2000", "--metrics", "m.json"],
            "run_oneshot_reference",
            [7, 8],
            dict(users=2000, metrics_path="m.json"),
        ),
        (
            [
                "--edge", "127.0.0.1:9", "--edge-id", "0", "--checkpoint",
                "segments://e", "--checkpoint-every", "1", "--tls-ca", "ca.pem",
            ],
            "run_federation_edge",
            "127.0.0.1:9",
            dict(
                edge_number=0,
                checkpoint="segments://e",
                checkpoint_every=1,
                tls_ca="ca.pem",
            ),
        ),
    ],
    ids=["serve", "serve-users", "root-expect-users", "connect", "oneshot", "edge"],
)
def test_socket_modes_pass_exactly_the_given_flags(
    flags, runner, target, kwargs, monkeypatch, capsys
):
    from repro.experiments import socket_round

    calls = []

    def record(*args, **kw):
        calls.append((args, kw))
        return "ran"

    monkeypatch.setattr(socket_round, runner, record)
    assert main(["collection"] + flags) == 0
    assert calls == [((target,), kwargs)]
    assert capsys.readouterr().out == "ran\n"
