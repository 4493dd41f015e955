"""Golden CLI output: stdout digests recorded from the per-cycle projection.

Each run must print exactly the bytes the per-cycle implementation
printed, so any refactor of how diagrams are obtained, evaluated or
reduced keeps every record and every report identical.
"""

from __future__ import annotations

import hashlib

import pytest

from knotcensus import cli

GOLDEN = {
    ("verify", "--n", "7", "--kind", "moment", "--audit"): (
        6485, "b9d53cbdc047f54cd3ac771c7691074be7fb4a4ce907d510a71effa0f90423bd"),
    ("census", "--n", "7", "--kind", "polyline", "--seed", "0", "--threads", "1"): (
        443, "80f43777b385755830eb2bf4303e4173cb7257c0c298e7131b09d1923fd76d3e"),
    ("census", "--n", "7", "--kind", "polyline", "--seed", "0", "--threads", "2"): (
        443, "80f43777b385755830eb2bf4303e4173cb7257c0c298e7131b09d1923fd76d3e"),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == GOLDEN[argv]
