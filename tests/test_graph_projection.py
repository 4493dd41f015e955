"""Whole-graph crossing tables: restriction against per-cycle projection.

An `EmbeddingAnalysis` reads every cycle's value from one crossing table
per accepted frame of the whole graph.  These tests hold it to the
per-cycle route: the same diagrams, the same values, the same crossing
count, frame index and audit flag wherever the whole graph is generic at
every frame the cycles' own scans accept, and one exhaustion per
embedding.  The `invariant` command reads the same whole-graph tables
and is held to the per-cycle route the same way.  Values read straight
from a table are held to the audit routes on its restricted diagrams.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import weakref
from fractions import Fraction
from itertools import islice
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from knotcensus import cli, projection
from knotcensus.errors import GenericityExhausted, InvariantContractError
from knotcensus.geometry import (
    SpatialEmbedding,
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
    validate_embedding,
    write_embedding,
)
from knotcensus.graphs import (
    canonical_cycle,
    enumerate_cycles,
    enumerate_disjoint_pairs,
    is_cycle_of,
)
from knotcensus.invariants import (
    AUDIT_CROSSING_LIMIT,
    one_sided_linking_number,
    shard_values,
)
from knotcensus.projection import (
    CrossingTable,
    GraphProjection,
    edge_code,
    frame_sequence,
)
from knotcensus.theorems import EmbeddingAnalysis

from oracle import (
    _a2,
    _knot_arrows,
    alexander_a2,
    arrows,
    coded_walk,
    curve_invariant,
    cycle_invariant,
    cycle_points_scaled,
    linking_total,
    project,
)


def _subjects(e: SpatialEmbedding, ks) -> list[tuple[tuple[int, ...], ...]]:
    out = [(c,) for k in ks for c in enumerate_cycles(e.graph, k)]
    for k, l in ((3, 3), (3, 4)):
        out += enumerate_disjoint_pairs(e.graph, k, l)
    return out


def _curves(e: SpatialEmbedding, subject) -> list[tuple]:
    return [cycle_points_scaled(e, vs) for vs in subject]


def _frame(seed, index: int):
    return next(islice(frame_sequence(seed), index, None))


def _per_cycle(e: SpatialEmbedding, subject, seed, audit=False):
    return curve_invariant(_curves(e, subject), seed, audit=audit)


def _fields(r) -> tuple:
    return (r.value, r.audited)


def _loop(tables, walks, audit=False) -> tuple[int, bool]:
    """(value, audited) of one walk or pair read by `shard_values`, as
    the reference `cycle_invariant` gives it."""
    memo = {} if audit else None
    (value,), audited = shard_values(tables, [walks[0] if len(walks) == 1 else walks], memo)
    return value, bool(audited[0])


ROUTES = (cycle_invariant, _loop)


def _analysis_records(a: EmbeddingAnalysis, ks) -> dict:
    out = {}
    for k in ks:
        for r in a.knot_records(k):
            out[(r.subject,)] = _fields(r)
    for k, l in ((3, 3), (3, 4)):
        for r in a.link_records(k, l):
            out[r.subject] = _fields(r)
    return out


embeddings = st.one_of(
    st.builds(lambda n, s: random_rectilinear_embedding(n, seed=s),
              st.sampled_from([6, 7]), st.integers(0, 10**6)),
    st.builds(lambda n, s, b: random_polyline_embedding(n, s, bent_edges=b),
              st.sampled_from([6, 7]), st.integers(0, 10**6), st.integers(1, 8)),
    st.builds(lambda s: random_k331_embedding(s), st.integers(0, 10**6)),
)


@settings(max_examples=12, deadline=None)
@given(embeddings, st.integers(0, 3), st.booleans())
def test_records_equal_per_cycle_invariants(e, frame_seed, audit):
    ks = (3, 5) if audit else tuple(range(3, e.n + 1))
    a = EmbeddingAnalysis(e, seed=frame_seed, audit=audit)
    got = _analysis_records(a, ks)
    assert got, "no cycles enumerated"
    frames = a.stats["graph_frames"]
    assert frames == [index for index, _ in a._projection.tables] and len(frames) == 2
    frame = _frame(frame_seed, frames[0])
    for subject, (value, audited) in got.items():
        per_cycle = _per_cycle(e, subject, frame_seed, audit)
        assert value == per_cycle[0], subject
        count = project(_curves(e, subject), frame).crossing_count
        assert audited == (audit and count <= AUDIT_CROSSING_LIMIT), subject
        if not a.stats["graph_frame_rejects"]:
            assert (value, count, frames[0], audited) == per_cycle, subject


@settings(max_examples=12, deadline=None)
@given(embeddings, st.integers(0, 3))
def test_restriction_equals_projection_at_every_generic_frame(e, frame_seed):
    g = GraphProjection(e, frame_seed, verify_frames=1, retry_limit=64)
    assert len(g.tables) == 2
    subjects = _subjects(e, range(3, e.n + 1))
    crossed = 0
    for index, table in g.tables:
        for subject in subjects:
            restricted = table.restrict(subject)
            projected = project(_curves(e, subject), _frame(frame_seed, index))
            assert restricted.passages == projected.passages, (subject, index)
            assert restricted.signs == projected.signs, (subject, index)
            crossed += restricted.crossing_count > 0
    assert crossed > 0


def _reversed_edge_crossings(table: CrossingTable, subject) -> int:
    """Crossings on the edges that the subject walks from the larger vertex."""
    edges = {(a, b) for vs in subject for a, b in zip(vs, vs[1:] + vs[:1]) if a > b}
    return sum(len(table.passes[edge_code(b, a)]) for a, b in edges)


def test_restriction_handles_reversed_edges_with_several_crossings():
    # Every canonical cycle walks its closing edge from the larger vertex
    # to the smaller one.  On this polyline K7 many cycles do so along
    # bent edges that carry several crossings.
    e = random_polyline_embedding(7, 3, bent_edges=8)
    g = GraphProjection(e, 0, verify_frames=1, retry_limit=64)
    index, table = g.tables[0]
    busy = 0
    for subject in _subjects(e, range(3, 8)):
        restricted = table.restrict(subject)
        projected = project(_curves(e, subject), _frame(0, index))
        assert (restricted.passages, restricted.signs) == (projected.passages, projected.signs)
        busy += _reversed_edge_crossings(table, subject) >= 2
    assert busy > 0


# ---------------------------------------------------------------------------
# Values read straight from the table against the audit routes on the restriction


def _assert_table_values_match_restriction(table: CrossingTable, subject) -> int:
    """Check one subject at one table against the audit routes on its
    restricted diagram; return its crossing count."""
    d = table.restrict(subject)
    value, _ = cycle_invariant([(0, table)], subject)
    assert _loop([(0, table)], subject) == (value, False), subject
    if len(subject) == 1:
        assert sorted(arrows(table, coded_walk(subject[0]))) == sorted(_knot_arrows(d)), subject
        assert value == alexander_a2(d), subject
    else:
        assert value == one_sided_linking_number(d), subject
    return d.crossing_count


@settings(max_examples=12, deadline=None)
@given(embeddings, st.integers(0, 3))
def test_table_values_equal_restricted_diagram_values(e, frame_seed):
    g = GraphProjection(e, frame_seed, verify_frames=1, retry_limit=64)
    subjects = _subjects(e, range(3, e.n + 1))
    crossed = 0
    for _, table in g.tables:
        for subject in subjects:
            crossed += _assert_table_values_match_restriction(table, subject) > 0
    assert crossed > 0


def test_unaudited_records_build_no_diagram_at_generic_frames(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was built")

    e = random_polyline_embedding(7, 0, bent_edges=8)
    assert GraphProjection(e, 0, verify_frames=1, retry_limit=64).rejects == {}
    monkeypatch.setattr(projection, "LinkDiagram", refuse)
    a = EmbeddingAnalysis(e, seed=0)
    assert _analysis_records(a, range(3, 8))
    with pytest.raises(AssertionError, match="a diagram was built"):
        EmbeddingAnalysis(e, seed=0, audit=True).knot_records(3)


def test_table_values_on_reversed_edges_with_several_crossings():
    # The fixture of test_restriction_handles_reversed_edges_with_several_crossings.
    e = random_polyline_embedding(7, 3, bent_edges=8)
    g = GraphProjection(e, 0, verify_frames=1, retry_limit=64)
    _, table = g.tables[0]
    busy = 0
    for subject in _subjects(e, range(3, 8)):
        _assert_table_values_match_restriction(table, subject)
        busy += _reversed_edge_crossings(table, subject) >= 2
    assert busy > 0


def test_table_values_with_an_edge_that_crosses_itself():
    # Edge 1-2 zig-zags through three waypoints, so its first and last
    # segments cross in the diagram at both generic frames: every cycle
    # through it has a crossing of one edge with itself.
    base = random_rectilinear_embedding(6, seed=0)
    path = ((58, -43, -86), (39, -39, -79), (-3, 84, 95))
    e = SpatialEmbedding(base.graph, base.vertex_positions, {(1, 2): path})
    assert validate_embedding(e)
    g = GraphProjection(e, 0, verify_frames=1, retry_limit=64)
    tables = [t for _, t in g.tables]
    assert len(tables) == 2
    for table in tables:
        assert edge_code(1, 2) in [other for _, other, _, _ in table.passes[edge_code(1, 2)]]
        for subject in _subjects(e, range(3, 7)):
            _assert_table_values_match_restriction(table, subject)


@pytest.mark.parametrize(
    "e",
    [moment_curve_embedding(7), random_rectilinear_embedding(7, seed=0),
     random_polyline_embedding(7, 0), random_k331_embedding(0)],
    ids=["moment", "random", "polyline", "k331"],
)
def test_one_walk_per_record_reads_every_table(e):
    # Every cycle and (3,3)/(3,4) pair: each accepted table alone gives
    # the audit routes' value on its restriction, and one walk read at
    # both tables gives that value.
    tables = GraphProjection(e, 0, verify_frames=1, retry_limit=64).tables
    subjects = _subjects(e, range(3, e.n + 1))
    for subject in subjects:
        value, _ = cycle_invariant(tables, subject)
        assert _loop(tables, subject) == (value, False), subject
        for index, table in tables:
            _assert_table_values_match_restriction(table, subject)
            assert cycle_invariant([(index, table)], subject) == (value, False), subject
            assert _loop([(index, table)], subject) == (value, False), subject
    # One call reads the whole list, each subject as the reference does.
    values, audited = shard_values(tables, [s[0] if len(s) == 1 else s for s in subjects])
    assert values == [cycle_invariant(tables, s)[0] for s in subjects]
    assert audited == bytearray(len(subjects))


def _loop_subjects(e: SpatialEmbedding) -> list:
    """Every cycle of length 3..n and every (3,3) and (3,4) pair, as
    `shard_values` takes them."""
    out = [c for k in range(3, e.n + 1) for c in enumerate_cycles(e.graph, k)]
    for k, l in ((3, 3), (3, 4)):
        out += enumerate_disjoint_pairs(e.graph, k, l)
    return out


def _reference_value(table: CrossingTable, subject) -> int:
    """The per-record reference at one table: `_a2` of the arrows, or
    half the linking total."""
    if type(subject[0]) is int:
        return _a2(arrows(table, coded_walk(subject)))
    total = linking_total(table, *map(coded_walk, subject))
    assert total % 2 == 0, subject
    return total // 2


loop_embeddings = st.one_of(
    st.builds(moment_curve_embedding, st.sampled_from([6, 7, 8])),
    st.builds(lambda n, s: random_rectilinear_embedding(n, seed=f"loop:{s}"),
              st.sampled_from([6, 7, 8]), st.integers(0, 10**6)),
    st.builds(lambda n, s: random_polyline_embedding(n, f"loop:{s}", bent_edges=n * (n - 1) // 2),
              st.sampled_from([6, 7, 8]), st.integers(0, 10**6)),
)


@settings(max_examples=8, deadline=None)
@given(loop_embeddings, st.integers(0, 3))
def test_loop_equals_the_per_record_reference(e, frame_seed):
    # Moment, random and fully bent polyline K6-K8: one call per table
    # and one over both tables give, for every subject, the reference's
    # value at each table and `cycle_invariant`'s over both.
    tables = GraphProjection(e, frame_seed, verify_frames=1, retry_limit=64).tables
    subjects = _loop_subjects(e)
    for index, table in tables:
        values, audited = shard_values([(index, table)], subjects)
        assert values == [_reference_value(table, s) for s in subjects]
        assert audited == bytearray(len(subjects))
    values, _ = shard_values(tables, subjects)
    assert values == [cycle_invariant(tables, (s,) if type(s[0]) is int else s)[0] for s in subjects]
    assert any(values)


@pytest.mark.parametrize(
    "e", [moment_curve_embedding(6), random_polyline_embedding(7, 3, bent_edges=8)],
    ids=["moment6", "polyline7"],
)
def test_a_subject_after_one_that_shares_no_edge_reads_only_its_own(e):
    # Each triangle (or pair) follows one with no edge in common, so a
    # factor left set by the subject before would keep crossings that
    # are not the subject's own.
    tables = GraphProjection(e, 0, verify_frames=1, retry_limit=64).tables
    pairs = enumerate_disjoint_pairs(e.graph, 3, 3)
    subjects = [c for pair in pairs for c in (pair[1], pair[0])]
    subjects += [s for pair in pairs for s in (pair, pair[::-1])]
    assert shard_values(tables, subjects)[0] == [shard_values(tables, [s])[0][0] for s in subjects]
    assert any(shard_values(tables, pairs)[0])


# A triangle (1, 2, 3), a disjoint triangle (4, 5, 6) and an edge 7-8
# on neither, with crossings entered by hand.
TRIANGLE, OTHER = (1, 2, 3), (4, 5, 6)


def _doctored(forward: dict) -> CrossingTable:
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (7, 8)]
    return CrossingTable({edge: tuple(forward.get(edge, ())) for edge in edges})


def test_crossing_passed_over_twice_is_refused():
    table = _doctored({(1, 2): [(0, (2, 3), 1, 1)], (2, 3): [(0, (1, 2), 1, 1)]})
    for route in ROUTES:
        with pytest.raises(ValueError, match="^every crossing must be passed once over and once under$"):
            route([(0, table)], (TRIANGLE,))
    with pytest.raises(ValueError, match="once over and once under"):
        _knot_arrows(table.restrict((TRIANGLE,)))


def test_crossing_passed_over_twice_is_refused_at_either_table():
    good = _doctored({(1, 2): [(0, (2, 3), 1, 1)], (2, 3): [(0, (1, 2), 0, 1)]})
    bad = _doctored({(1, 2): [(0, (2, 3), 1, 1)], (2, 3): [(0, (1, 2), 1, 1)]})
    for route in ROUTES:
        assert route([(0, good), (1, good)], (TRIANGLE,)) == (0, False)
        for tables in ([(0, bad), (1, good)], [(0, good), (1, bad)]):
            with pytest.raises(ValueError, match="^every crossing must be passed once over and once under$"):
                route(tables, (TRIANGLE,))


def _linked(sign: int) -> CrossingTable:
    """The triangles linked with lk = sign: edge 1-2 passes over 4-5 and
    1-3 under 4-6.  The walks run 1-3 and 4-6 backwards, so each
    crossing adds sign."""
    return _doctored({
        (1, 2): [(0, (4, 5), 1, sign)], (1, 3): [(1, (4, 6), 0, sign)],
        (4, 5): [(0, (1, 2), 0, sign)], (4, 6): [(1, (1, 3), 1, sign)],
    })


def test_a_second_table_that_disagrees_is_refused():
    pair = (TRIANGLE, OTHER)
    e = moment_curve_embedding(7)
    (i, table), (j, _) = GraphProjection(e, 0, 1, 64).tables
    bare = CrossingTable({edge: () for edge in e.graph.edges})
    for route in ROUTES:
        assert route([(0, _linked(1)), (5, _linked(1))], pair) == (1, False)
        with pytest.raises(InvariantContractError) as info:
            route([(0, _linked(1)), (5, _linked(-1))], pair)
        assert str(info.value) == "frame 5 disagrees: -1 != 1 (frame 0)"
        # The trefoil of moment K7 against a table with its crossings removed.
        with pytest.raises(InvariantContractError) as info:
            route([(i, table), (j, bare)], ((1, 3, 5, 7, 2, 4, 6),))
        assert str(info.value) == f"frame {j} disagrees: 0 != 1 (frame {i})"
        with pytest.raises(InvariantContractError) as info:
            route([(j, bare), (i, table)], ((1, 3, 5, 7, 2, 4, 6),))
        assert str(info.value) == f"frame {i} disagrees: 1 != 0 (frame {j})"


def test_odd_linking_total_is_refused_at_either_table():
    odd = _doctored({(1, 2): [(0, (4, 5), 1, 1)], (4, 5): [(0, (1, 2), 0, 1)]})
    for route in ROUTES:
        for tables in ([(0, odd), (1, _linked(1))], [(0, _linked(1)), (1, odd)]):
            with pytest.raises(InvariantContractError, match="^odd signed mutual-crossing total$"):
                route(tables, (TRIANGLE, OTHER))


def test_crossing_met_once_is_refused():
    table = _doctored({(1, 2): [(0, (2, 3), 1, 1)]})
    good = _doctored({(1, 2): [(0, (2, 3), 1, 1)], (2, 3): [(0, (1, 2), 0, 1)]})
    for route in ROUTES:
        for tables in ([(0, table)], [(0, table), (1, good)], [(0, good), (1, table)]):
            with pytest.raises(ValueError, match="^every crossing must be passed once over and once under$"):
                route(tables, (TRIANGLE,))


def test_odd_linking_total_is_refused():
    table = _doctored({(1, 2): [(0, (4, 5), 1, 1)], (4, 5): [(0, (1, 2), 0, 1)]})
    for route in ROUTES:
        with pytest.raises(InvariantContractError, match="odd"):
            route([(0, table)], (TRIANGLE, OTHER))


def test_linking_total_counts_only_crossings_between_the_pair():
    # Edge 1-2 of the first triangle crosses its own edge 2-3 (crossing
    # 0) and the other triangle's 4-5 (crossing 1); edge 1-3, walked
    # from 3, crosses 4-6, walked from 6 (crossing 2); edge 2-3 crosses
    # 7-8, on neither triangle (crossing 3).  Only crossings 1 and 2
    # link, each +1 once both orientation factors are applied.
    table = _doctored({
        (1, 2): [(0, (2, 3), 1, 1), (1, (4, 5), 1, 1)],
        (1, 3): [(2, (4, 6), 0, 1)],
        (2, 3): [(0, (1, 2), 0, 1), (3, (7, 8), 1, 1)],
        (4, 5): [(1, (1, 2), 0, 1)],
        (4, 6): [(2, (1, 3), 1, 1)],
        (7, 8): [(3, (2, 3), 0, 1)],
    })
    d = table.restrict((TRIANGLE, OTHER))
    assert d.crossing_count == 3
    a, b = coded_walk(TRIANGLE), coded_walk(OTHER)
    assert linking_total(table, a, b) == linking_total(table, b, a) == 2
    for route in ROUTES:
        assert route([(0, table)], (TRIANGLE, OTHER)) == (1, False)
        assert route([(0, table)], (OTHER, TRIANGLE)) == (1, False)


# ---------------------------------------------------------------------------
# A frame where the whole graph is not generic

W, A, B = 6, 1, 2


def _non_generic_at_frame_0() -> SpatialEmbedding:
    """Random K6 with vertex 6 moved to a + (b - a)/3 + d0/2.

    d0 is the view direction of frame 0 for frame seed 0, so vertex 6
    projects inside the non-incident edge 1-2 there, while staying off
    that edge in 3-space.
    """
    base = random_rectilinear_embedding(6, seed=0)
    d0 = next(frame_sequence(0)).direction
    a, b = base.vertex_positions[A], base.vertex_positions[B]
    w = tuple(a[k] + Fraction(1, 3) * (b[k] - a[k]) + Fraction(1, 2) * d0[k] for k in range(3))
    pos = dict(base.vertex_positions)
    pos[W] = w
    e = SpatialEmbedding(base.graph, pos)
    assert validate_embedding(e)
    return e


def _meets_w_and_ab(subject) -> bool:
    vertices = {v for vs in subject for v in vs}
    edges = {frozenset(p) for vs in subject for p in zip(vs, vs[1:] + vs[:1])}
    return W in vertices and frozenset((A, B)) in edges


NON_GENERIC_STATS = {
    "graph_frames": [1, 2],
    "graph_frames_tried": 3,
    "graph_frame_rejects": {"vertex-on-segment": 1},
}


def test_records_read_the_whole_graph_frames_where_frame_0_is_rejected():
    e = _non_generic_at_frame_0()
    a = EmbeddingAnalysis(e, seed=0)
    got = _analysis_records(a, range(3, 7))
    own_frame_0 = 0
    for subject, (value, _) in got.items():
        per_cycle = _per_cycle(e, subject, 0)
        assert value == per_cycle[0], subject
        # The cycles' own scan rejects frame 0 exactly where they meet
        # vertex 6 and edge 1-2.
        assert per_cycle[2] == (1 if _meets_w_and_ab(subject) else 0), subject
        own_frame_0 += per_cycle[2] == 0
    assert 0 < own_frame_0 < len(got)
    # Frame 0 is rejected for the whole graph; frames 1 and 2 are read.
    assert a.stats == NON_GENERIC_STATS


def test_whole_graph_exhaustion_is_raised_before_any_pool(monkeypatch):
    e = _non_generic_at_frame_0()
    with pytest.raises(GenericityExhausted) as info:
        GraphProjection(e, 0, verify_frames=1, retry_limit=1)
    assert info.value.attempts == 1
    assert info.value.last.condition == "vertex-on-segment"

    def refuse():
        raise AssertionError("a shard process was forked")

    monkeypatch.setattr(os, "fork", refuse)
    a = EmbeddingAnalysis(e, seed=0, threads=2, retry_limit=1)
    with pytest.raises(GenericityExhausted) as info:
        a.knot_records(6)
    assert info.value.attempts == 1
    assert info.value.last.condition == "vertex-on-segment"


def test_stats_do_not_depend_on_worker_count():
    e = _non_generic_at_frame_0()
    stats = []
    for threads in (1, 2):
        a = EmbeddingAnalysis(e, seed=0, threads=threads)
        a.knot_records(6)
        a.link_records(3, 3)
        stats.append(a.stats)
    assert stats[0] == stats[1] == NON_GENERIC_STATS


def test_frame_exhaustion_from_the_cli(tmp_path, capsys):
    path = tmp_path / "e.json"
    write_embedding(_non_generic_at_frame_0(), path)
    assert cli.main(["verify", str(path), "--frame-retries", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "knotcensus: no generic projection frame after 1 attempts\n"
    assert cli.main(["verify", str(path), "--frame-retries", "2"]) == 0
    out = capsys.readouterr().out
    # Digest recorded from the per-cycle implementation, then re-recorded
    # when mod2-parity's value became S_lk2(3,3): -1 became 3, the only
    # bytes that changed.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c9e7b13777eba41ea68bf9eb5a506a694210a1dd8c81ecf0cb23657d9325662b"
    )
    # `invariant` reads the same whole-graph frames.  The triangle 3-4-5
    # misses vertex 6 and edge 1-2, so its own scan accepts frame 0, but
    # the whole graph does not: one retry is exhausted, as for `verify`.
    e = _non_generic_at_frame_0()
    assert curve_invariant([cycle_points_scaled(e, (3, 4, 5))], 0)[2] == 0
    assert cli.main(["invariant", str(path), "--cycle", "3,4,5", "--frame-retries", "1"]) == 3
    assert capsys.readouterr() == ("", err)
    assert cli.main(["invariant", str(path), "--cycle", "3,4,5"]) == 0
    a = EmbeddingAnalysis(e, seed=0)
    a.knot_records(3)
    frame_index = json.loads(capsys.readouterr().out)["frame_index"]
    assert frame_index == a.stats["graph_frames"][0] == 1


def _random_subject(rng: Random, e: SpatialEmbedding, knot: bool) -> tuple:
    """A random cycle of e of length 3..n if `knot`, else a random
    disjoint pair of its cycles."""
    while True:
        if knot:
            subject = (canonical_cycle(rng.sample(e.graph.vertices, rng.randint(3, e.n))),)
        else:
            k = rng.randint(3, e.n - 3)
            vs = rng.sample(e.graph.vertices, rng.randint(k + 3, e.n))
            subject = (canonical_cycle(vs[:k]), canonical_cycle(vs[k:]))
        if all(is_cycle_of(e.graph, c) for c in subject):
            return subject


INVARIANT_EMBEDDINGS = {
    "moment7": (("--n", "7", "--kind", "moment"), lambda s: moment_curve_embedding(7)),
    "moment8": (("--n", "8", "--kind", "moment"), lambda s: moment_curve_embedding(8)),
    "random8": (("--n", "8"), lambda s: random_rectilinear_embedding(8, s)),
    "random9": (("--n", "9"), lambda s: random_rectilinear_embedding(9, s)),
    "polyline8": (("--n", "8", "--kind", "polyline", "--bent-edges", "6"),
                  lambda s: random_polyline_embedding(8, s, bent_edges=6)),
    "bent7": (("--n", "7", "--kind", "polyline", "--bent-edges", "21"),
              lambda s: random_polyline_embedding(7, s, bent_edges=21)),
    "k331": (("--graph", "k331"), lambda s: random_k331_embedding(s)),
}


@pytest.mark.parametrize("name", sorted(INVARIANT_EMBEDDINGS))
def test_invariant_command_equals_the_own_scan_reference(capsys, name):
    # Where the whole graph accepts frames 0 and 1, the cycle's own scan
    # accepts them too, so value, crossings, frame index and audit flag
    # must all agree with the reference scan of the subject's points.
    options, build = INVARIANT_EMBEDDINGS[name]
    rng = Random(f"invariant:{name}")
    seed = rng.randint(0, 10**6)
    e = build(seed)
    assert [index for index, _ in GraphProjection(e, seed, 1, 64).tables] == [0, 1]
    crossed = audited = 0
    for i in range(40):
        subject = _random_subject(rng, e, knot=i % 2 == 0)
        audit = i % 3 == 0
        argv = ["invariant", *options, "--seed", str(seed), *(["--audit"] if audit else [])]
        if len(subject) == 1:
            argv += ["--cycle", ",".join(map(str, subject[0]))]
        else:
            argv += ["--pair", ";".join(",".join(map(str, c)) for c in subject)]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        got = (doc["a2" if len(subject) == 1 else "lk"], doc["crossings"], doc["frame_index"],
               doc["audited"])
        assert got == _per_cycle(e, subject, seed, audit), argv
        crossed += doc["crossings"] > 0
        audited += doc["audited"]
    assert crossed and audited


# ---------------------------------------------------------------------------
# Lifetime


def test_tables_belong_to_one_analysis():
    e = random_rectilinear_embedding(6, seed=1)
    first = EmbeddingAnalysis(e, seed=0)
    second = EmbeddingAnalysis(e, seed=0)
    # nothing built before records
    assert first.stats == {"graph_frames": [], "graph_frames_tried": 0, "graph_frame_rejects": {}}
    first.knot_records(6)
    second.knot_records(6)
    assert first._projection is not second._projection
    assert all(
        x is not y
        for (_, x), (_, y) in zip(first._projection.tables, second._projection.tables)
    )
    tables = weakref.ref(first._projection)
    del first
    gc.collect()
    assert tables() is None
