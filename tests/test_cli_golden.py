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
    # Recorded while each command still branched on --format and wrote
    # its own document, before the one writer replaced those branches.
    ("embed", "--n", "6", "--seed", "5"): (
        310, "7f04cd2caedf05939025df2821222688c4ae44946edd73b1b6e1f23b934d8047"),
    ("embed", "--n", "7", "--kind", "polyline", "--seed", "0"): (
        763, "ad6d4c88c4810a0808466454153c4de8f98815f98938fc3c6d1d86b2d3987c2c"),
    ("embed", "--n", "6", "--kind", "moment", "--format", "csv"): (
        70, "811458a8085d573a7e19d0458df043b1ef8ac41098ae243d87185f14f79d4e63"),
    ("census", "--n", "7", "--kind", "moment", "--format", "csv"): (
        150, "b0c340212734262bd7b1d42d4ce6154e6c6eca1694ea416a0c1153faf8665287"),
    ("rn-table",): (
        427, "7549d21e795bc665caf98d96f48f207fabaa2cb08758a62e17dfaba376957ad8"),
    ("rn-table", "--format", "csv"): (
        71, "3ae8291d9cfb539a7707a3abc468df45f31886750890879ec0efbd5bedbb8656"),
}

# One run of each command; each is run in JSON and in CSV.
_COMMANDS = [
    ("embed", "--n", "6", "--kind", "moment"),
    ("verify", "--n", "6", "--kind", "moment"),
    ("census", "--n", "7", "--kind", "moment"),
    ("rn-table",),
    ("invariant", "--n", "7", "--kind", "moment", "--cycle", "1,3,5,7,2,4,6", "--audit"),
]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_matches_recorded_digest(argv, capsys):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == GOLDEN[argv]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", _COMMANDS, ids=lambda a: a[0])
def test_out_file_holds_exactly_the_stdout_bytes(argv, fmt, capsys, tmp_path):
    argv = [*argv, "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()
