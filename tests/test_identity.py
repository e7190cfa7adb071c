"""The output-identity harness runs, reproduces itself and covers every leaf subcommand."""

from identity import AUDITS, COMMANDS, run_commands
from test_cli import LEAF_COMMANDS

EXIT_CODES = {
    **{name: 0 for name in COMMANDS},
    "certify:annulus-c64": 4,
    "fail:certify-literal": 4,
    "fail:spectrum-closed": 2,
    "fail:spectrum-kind-mismatch": 2,
    "fail:certify-closed": 2,
    "fail:missing-mesh": 2,
    "fail:out-missing-dir": 2,
    "fail:mesh-nan": 2,
    "fail:oracle-cylinder-empty-lambdas": 2,
    "fail:obstruction-empty-range": 2,
    "x:bounds-empirical": 2,
    "x:bounds-junk": 2,
    "x:bounds-c-huge": 2,
    "x:bounds-c0": 2,
    "x:bounds-dball-inf": 2,
    "x:bounds-dball-0": 2,
    "x:bounds-m204": 3,
    "x:bounds-m205": 3,
    "x:bounds-m1e6": 3,
    "x:bounds-k-huge": 2,
    "x:bounds-vol-tiny": 3,
    "x:obstruction-1k": 2,
}


def leaf_command(text):
    """The leaf subcommand a command runs, e.g. "oracle disk"."""
    words = text.split()
    return " ".join(words[:2]) if words[0] in ("oracle", "experiment") else words[0]


def test_harness_runs_reproduce_and_cover_every_leaf(tmp_path):
    first = run_commands(tmp_path)
    second = run_commands(tmp_path)
    assert set(first) == set(COMMANDS) | set(AUDITS)
    assert {name: first[name]["parts"]["exit"] for name in COMMANDS} == EXIT_CODES
    assert first == second
    assert set(LEAF_COMMANDS) <= {leaf_command(text) for text in COMMANDS.values()}
