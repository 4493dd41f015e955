"""Whole-graph crossing tables: restriction against per-cycle projection.

An `EmbeddingAnalysis` reads every cycle's value from one crossing table
per frame.  These tests hold it to the per-cycle route it replaced: the
same diagrams, the same records field by field, the same fallback where
the whole graph is not generic, the same exhaustion.  Values read
straight from a table are held to the values of its restricted diagrams.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotcensus import cli, projection
from knotcensus.errors import InvariantContractError
from knotcensus.geometry import (
    SpatialEmbedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
    validate_embedding,
    write_embedding,
)
from knotcensus.graphs import Cycle, enumerate_cycles, enumerate_disjoint_pairs
from knotcensus.invariants import (
    a2_from_table,
    a2_gauss_formula,
    knot_invariant,
    link_invariant,
    linking_number,
    linking_number_from_table,
)
from knotcensus.projection import (
    CrossingTable,
    GraphProjection,
    frame_sequence,
    gauss_diagram,
    project,
)
from knotcensus.theorems import EmbeddingAnalysis


def _subjects(e: SpatialEmbedding, ks) -> list[tuple[tuple[int, ...], ...]]:
    out = [(c.vertices,) for k in ks for c in enumerate_cycles(e.graph, k)]
    for k, l in ((3, 3), (3, 4)):
        out += [(p.first.vertices, p.second.vertices)
                for p in enumerate_disjoint_pairs(e.graph, k, l)]
    return out


def _per_cycle(e: SpatialEmbedding, subject, seed, audit=False):
    pts = [e.cycle_points_scaled(Cycle(vs)) for vs in subject]
    if len(pts) == 1:
        return knot_invariant(pts[0], seed, audit=audit)
    return link_invariant(pts[0], pts[1], seed, audit=audit)


def _fields(r) -> tuple:
    return (r.value, r.crossing_count, r.frame_index, r.audited)


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
    for subject, fields in got.items():
        assert fields == _per_cycle(e, subject, frame_seed, audit), subject


@settings(max_examples=12, deadline=None)
@given(embeddings, st.integers(0, 3))
def test_restriction_equals_projection_at_every_generic_frame(e, frame_seed):
    g = GraphProjection(e, frame_seed, verify_frames=1, retry_limit=64)
    assert sum(t is not None for t in g.tables) == 2
    subjects = _subjects(e, range(3, e.n + 1))
    crossed = 0
    for index, table in enumerate(g.tables):
        if table is None:
            continue
        for subject in subjects:
            restricted = table.restrict(subject)
            projected = project(g.curves(subject), g.frames[index])
            assert restricted.passages == projected.passages, (subject, index)
            assert restricted.signs == projected.signs, (subject, index)
            crossed += restricted.crossing_count > 0
    assert crossed > 0


def _reversed_edge_crossings(table: CrossingTable, subject) -> int:
    """Crossings on the edges that the subject walks from the larger vertex."""
    edges = {(a, b) for vs in subject for a, b in zip(vs, vs[1:] + vs[:1]) if a > b}
    return sum(len(table.forward[(b, a)]) for a, b in edges)


def test_restriction_handles_reversed_edges_with_several_crossings():
    # Every canonical cycle walks its closing edge from the larger vertex
    # to the smaller one.  On this polyline K7 many cycles do so along
    # bent edges that carry several crossings.
    e = random_polyline_embedding(7, 3, bent_edges=8)
    g = GraphProjection(e, 0, verify_frames=1, retry_limit=64)
    index = next(i for i, t in enumerate(g.tables) if t is not None)
    busy = 0
    for subject in _subjects(e, range(3, 8)):
        restricted = g.tables[index].restrict(subject)
        projected = project(g.curves(subject), g.frames[index])
        assert (restricted.passages, restricted.signs) == (projected.passages, projected.signs)
        busy += _reversed_edge_crossings(g.tables[index], subject) >= 2
    assert busy > 0


# ---------------------------------------------------------------------------
# Values read straight from the table against values of the restriction


def _assert_table_values_match_restriction(table: CrossingTable, subject) -> int:
    """Check one subject at one table; return its crossing count."""
    d = table.restrict(subject)
    if len(subject) == 1:
        assert sorted(table.arrows(subject[0])) == sorted(gauss_diagram(d).arrows), subject
        expected = a2_gauss_formula(gauss_diagram(d))
        assert a2_from_table(table, subject) == (expected, d.crossing_count), subject
    else:
        expected = linking_number(d)
        assert linking_number_from_table(table, subject) == (expected, d.crossing_count), subject
    return d.crossing_count


@settings(max_examples=12, deadline=None)
@given(embeddings, st.integers(0, 3))
def test_table_values_equal_restricted_diagram_values(e, frame_seed):
    g = GraphProjection(e, frame_seed, verify_frames=1, retry_limit=64)
    subjects = _subjects(e, range(3, e.n + 1))
    crossed = 0
    for table in g.tables:
        if table is not None:
            for subject in subjects:
                crossed += _assert_table_values_match_restriction(table, subject) > 0
    assert crossed > 0


def test_unaudited_records_build_no_diagram_at_generic_frames(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a diagram was built")

    e = random_polyline_embedding(7, 0, bent_edges=8)
    assert None not in GraphProjection(e, 0, verify_frames=1, retry_limit=64).tables
    monkeypatch.setattr(projection, "LinkDiagram", refuse)
    monkeypatch.setattr(projection, "GaussDiagram", refuse)
    a = EmbeddingAnalysis(e, seed=0)
    assert _analysis_records(a, range(3, 8))
    with pytest.raises(AssertionError, match="a diagram was built"):
        EmbeddingAnalysis(e, seed=0, audit=True).knot_records(3)


def test_table_values_on_reversed_edges_with_several_crossings():
    # The fixture of test_restriction_handles_reversed_edges_with_several_crossings.
    e = random_polyline_embedding(7, 3, bent_edges=8)
    g = GraphProjection(e, 0, verify_frames=1, retry_limit=64)
    table = next(t for t in g.tables if t is not None)
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
    tables = [t for t in g.tables if t is not None]
    assert len(tables) == 2
    for table in tables:
        assert (1, 2) in table.pairs[(1, 2)]
        for subject in _subjects(e, range(3, 7)):
            _assert_table_values_match_restriction(table, subject)


# A triangle (1, 2, 3) and a disjoint triangle (4, 5, 6), with crossings
# entered by hand.
TRIANGLE, OTHER = (1, 2, 3), (4, 5, 6)


def _doctored(forward: dict, pairs: dict | None = None) -> CrossingTable:
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    return CrossingTable(
        forward={edge: tuple(forward.get(edge, ())) for edge in edges}, pairs=pairs or {}
    )


def test_crossing_passed_over_twice_is_refused():
    table = _doctored({(1, 2): [(0, (2, 3), 1, 1)], (2, 3): [(0, (1, 2), 1, 1)]})
    with pytest.raises(ValueError, match="once over and once under"):
        a2_from_table(table, (TRIANGLE,))
    with pytest.raises(ValueError, match="once over and once under"):
        gauss_diagram(table.restrict((TRIANGLE,)))


def test_crossing_met_once_is_refused():
    table = _doctored({(1, 2): [(0, (2, 3), 1, 1)]})
    with pytest.raises(ValueError, match="once over and once under"):
        a2_from_table(table, (TRIANGLE,))


def test_odd_linking_total_is_refused():
    table = _doctored(
        {(1, 2): [(0, (4, 5), 1, 1)], (4, 5): [(0, (1, 2), 0, 1)]},
        {(1, 2): {(4, 5): (1, 1)}, (4, 5): {(1, 2): (1, 1)}},
    )
    with pytest.raises(InvariantContractError, match="odd"):
        linking_number_from_table(table, (TRIANGLE, OTHER))
    with pytest.raises(InvariantContractError, match="odd"):
        linking_number(table.restrict((TRIANGLE, OTHER)))


# ---------------------------------------------------------------------------
# Fallback where the whole graph is not generic

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


def test_fallback_keeps_frames_and_values_of_per_cycle_projection():
    e = _non_generic_at_frame_0()
    a = EmbeddingAnalysis(e, seed=0)
    got = _analysis_records(a, range(3, 7))
    moved = 0
    for subject, fields in got.items():
        assert fields == _per_cycle(e, subject, 0), subject
        expected_index = 1 if _meets_w_and_ab(subject) else 0
        assert fields[2] == expected_index, subject
        moved += expected_index
    assert 0 < moved < len(got)
    # Frame 0 is not whole-graph generic, so every record projected its
    # own cycles there; frames 1 and 2 are read from tables.
    assert a.stats == {
        "graph_frames_tried": 3,
        "graph_frame_rejects": {"vertex-on-segment": 1},
        "fallback_records": len(got),
    }


def test_stats_do_not_depend_on_worker_count():
    e = _non_generic_at_frame_0()
    stats = []
    for threads in (1, 2):
        a = EmbeddingAnalysis(e, seed=0, threads=threads)
        a.knot_records(6)
        a.link_records(3, 3)
        stats.append(a.stats)
    assert stats[0] == stats[1]
    assert stats[0]["fallback_records"] == 60 + 10


def test_frame_exhaustion_from_the_cli(tmp_path, capsys):
    path = tmp_path / "e.json"
    write_embedding(_non_generic_at_frame_0(), path)
    assert cli.main(["verify", str(path), "--frame-retries", "1"]) == 3
    err = capsys.readouterr().err
    assert err == "knotcensus: no generic projection frame after 1 attempts\n"
    assert cli.main(["verify", str(path), "--frame-retries", "2"]) == 0
    out = capsys.readouterr().out
    # Digest recorded from the per-cycle implementation.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "efa006a42819db47054dcc4d2ddacb00aab6764685967476896f2c53f9404202"
    )


# ---------------------------------------------------------------------------
# Lifetime


def test_tables_belong_to_one_analysis():
    e = random_rectilinear_embedding(6, seed=1)
    first = EmbeddingAnalysis(e, seed=0)
    second = EmbeddingAnalysis(e, seed=0)
    assert first.stats["graph_frames_tried"] == 0  # nothing built before records
    first.knot_records(6)
    second.knot_records(6)
    assert first._projection is not second._projection
    assert all(
        x is not y for x, y in zip(first._projection.tables, second._projection.tables)
    )
    tables = weakref.ref(first._projection)
    del first
    gc.collect()
    assert tables() is None
