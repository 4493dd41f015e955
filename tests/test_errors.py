"""Package errors read the same whatever the worker count."""

from __future__ import annotations

from knotcensus import cli
from knotcensus.geometry import write_embedding

from test_graph_projection import _non_generic_at_frame_0


def test_frame_exhaustion_message_does_not_depend_on_worker_count(tmp_path, capsys):
    path = tmp_path / "e.json"
    write_embedding(_non_generic_at_frame_0(), path)
    errs = []
    for threads in ("1", "2"):
        args = ["verify", str(path), "--frame-retries", "1", "--threads", threads]
        assert cli.main(args) == 3
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        "knotcensus: no generic projection frame after 1 attempts\n"
    )
