"""Package exceptions survive the pickle round trip from a shard process."""

from __future__ import annotations

import pickle

import pytest

from knotcensus import cli
from knotcensus.errors import (
    GenericityExhausted,
    GenericityFailure,
    IdentityViolation,
    SamplingExhausted,
)
from knotcensus.geometry import write_embedding
from knotcensus.theorems import IdentityReport

from test_graph_projection import _non_generic_at_frame_0


def _state(exc: Exception) -> tuple:
    fields = {
        k: _state(v) if isinstance(v, Exception) else v for k, v in vars(exc).items()
    }
    return type(exc), str(exc), exc.args, fields


@pytest.mark.parametrize(
    "exc",
    [
        SamplingExhausted(5, 10),
        GenericityFailure("vertex-on-segment", (6, 0)),
        GenericityFailure("triple-point"),
        GenericityExhausted(1),
        GenericityExhausted(3, GenericityFailure("vertex-coincide", (2, 4))),
        IdentityViolation(
            IdentityReport("k6-identity", 6, {"sum_a2_6": 0}, 0, 5, False),
            "bundle.json",
        ),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_pickle_round_trip_keeps_message_and_fields(exc):
    assert _state(pickle.loads(pickle.dumps(exc))) == _state(exc)


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
