"""Tests for the ``python -m repro.experiments`` CLI."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main


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
#: cannot honour, and the flag the error must name. Every case is refused
#: by the flag checks before any socket, store or round is started.
COLLECTION_MISUSE = [
    ("quick-serve", ["--quick", "--serve", "127.0.0.1:0"], "--quick"),
    ("shards-connect", ["--shards", "2", "--connect", "127.0.0.1:9"], "--shards"),
    ("shards-root", ["--shards", "2", "--root", "127.0.0.1:0"], "--shards"),
    ("retry-oneshot", ["--retry", "3", "--oneshot", "7,8"], "--retry"),
    ("push-every-serve", ["--push-every", "1", "--serve", "127.0.0.1:0"], "--push-every"),
    ("tls-ca-serve", ["--tls-ca", "ca.pem", "--serve", "127.0.0.1:0"], "--tls-ca"),
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
]


@pytest.mark.parametrize(
    "flags, offending",
    [case[1:] for case in COLLECTION_MISUSE],
    ids=[case[0] for case in COLLECTION_MISUSE],
)
def test_collection_refuses_flag_misuse(flags, offending, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["collection"] + flags)
    assert exit_info.value.code == 2
    assert offending in capsys.readouterr().err
