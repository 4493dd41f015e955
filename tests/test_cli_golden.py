"""Golden CLI output: stdout digests recorded before a refactor.

Each run must print exactly the bytes the earlier implementation
printed (the per-cycle projection for the first three, the hand-written
identity functions for the rest), so any refactor of how diagrams are
obtained, evaluated or reduced, or of how identities are evaluated,
keeps every record and every report identical.
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
    # Recorded from the hand-written identity functions, before the catalog.
    ("verify", "--n", "6", "--kind", "moment"): (
        1965, "edf6d1f5102fb817cf742ec24904c30a6434faa8d28d023862932e7cf5d04d67"),
    ("verify", "--n", "6", "--kind", "moment", "--format", "csv"): (
        211, "ef82a3260ff2d6d63c90d0e1d536ed0275a1465b7a272c64a22c1cdec7755f1e"),
    ("verify", "--n", "6", "--kind", "polyline", "--seed", "16", "--range", "30",
     "--bent-edges", "4"): (
        2964, "706e7c5751ccb7154c4edbc0690327bf5bc69327727c69db24dedec614d76035"),
    ("verify", "--graph", "k331", "--seed", "3"): (
        562, "a81340bcfec291dd5f05a75caa06d4a46d817cb1d64ea59ea192d1eabcbbfd19"),
    ("verify", "--n", "8", "--seed", "0"): (
        53051, "be979f4dca599743f6fc281460221c5715f709a43c4eca2384a6c286b128b478"),
    ("verify", "--n", "6", "--kind", "moment", "--identities", "k6-identity,mod2-parity"): (
        790, "62f633c0316ae141ce344e5e3b08fbbd0103f833667d796be93552ceb02e04e0"),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == GOLDEN[argv]
