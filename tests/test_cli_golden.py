"""Golden CLI output: stdout digests recorded before a refactor.

Each run must print exactly the bytes the earlier implementation
printed (the per-cycle projection for the first three, the hand-written
identity functions for the verify runs after them, the separate knot
and link entry points for the `invariant` runs), so any refactor of how
diagrams are obtained, evaluated or reduced, or of how identities are
evaluated, keeps every record and every report identical.
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
    # Recorded from the hand-written identity functions, before the catalog;
    # the three runs that print mod2-parity at n = 6 were re-recorded when
    # its value became S_lk2(3,3), the only bytes that changed.
    ("verify", "--n", "6", "--kind", "moment"): (
        1964, "3103207389e0966292e45405e4ed503a226f8d87ba3a4e8689583cde83111347"),
    ("verify", "--n", "6", "--kind", "moment", "--format", "csv"): (
        211, "ef82a3260ff2d6d63c90d0e1d536ed0275a1465b7a272c64a22c1cdec7755f1e"),
    ("verify", "--n", "6", "--kind", "polyline", "--seed", "16", "--range", "30",
     "--bent-edges", "4"): (
        2963, "fe0e86b6f044ee78ae12c6e5a764d694f03c25799503a16d4abe4801981dbf6c"),
    ("verify", "--graph", "k331", "--seed", "3"): (
        562, "a81340bcfec291dd5f05a75caa06d4a46d817cb1d64ea59ea192d1eabcbbfd19"),
    ("verify", "--n", "8", "--seed", "0"): (
        53051, "be979f4dca599743f6fc281460221c5715f709a43c4eca2384a6c286b128b478"),
    ("verify", "--n", "6", "--kind", "moment", "--identities", "k6-identity,mod2-parity"): (
        789, "5574514c7b446d5e262fbb90cba1e536e374ea2a157e980b6438cf13ab9a9fc1"),
    # Recorded from the separate knot and link entry points, before the
    # one curve entry point replaced them.  The csv run was re-recorded
    # when the cycle became one quoted cell ("1,3,5,7,2,4,6") instead of
    # an unquoted list that split the row into 12 fields under a
    # 6-column header; the other cells are unchanged.
    ("invariant", "--n", "7", "--kind", "moment", "--cycle", "1,3,5,7,2,4,6", "--audit"): (
        155, "2d3c1b3b5a27bd6dc51ea4b3b61e0c56b247d7c58e326003aa4e034639e3f7a2"),
    ("invariant", "--n", "7", "--kind", "moment", "--cycle", "1,3,5,7,2,4,6", "--audit",
     "--format", "csv"): (
        76, "90bbd2a132f8d9b9e1eb2ac288c8b9a9d35cb6f2b56d8aca11105e3aedbb2a8b"),
    ("invariant", "--n", "6", "--kind", "moment", "--pair", "1,3,5;2,4,6"): (
        185, "764d81fa496981a9dffba045d85d3ec5dbfcdaf9bae03cb821f7cb1ce23a2f50"),
    ("invariant", "--n", "7", "--kind", "polyline", "--seed", "2", "--cycle", "1,2,3,4,5,6,7",
     "--verify-frames", "3"): (
        156, "b65dbbeb2fea31cceab692c0f8667fc07505b77e35daf5bfc9458b72d2c84c94"),
    # Recorded from the record tuples, before reports read class
    # summaries: 1,020 positive knots, so the census lists 128 of them
    # and {"omitted": 892}, the one known run where the census cap binds.
    ("census", "--n", "9", "--seed", "0"): (
        20080, "18f2b8f060eb3c84c114ea4ac3b3355998ef48bf9a705b7323936e9a83a8c3be"),
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == GOLDEN[argv]
