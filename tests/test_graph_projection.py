"""Whole-graph crossing tables: restriction against per-cycle projection.

An `EmbeddingAnalysis` reads every cycle's diagram from one crossing
table per frame.  These tests hold it to the per-cycle route it
replaced: the same diagrams, the same records field by field, the same
fallback where the whole graph is not generic, the same exhaustion.
"""

from __future__ import annotations

import gc
import hashlib
import weakref
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from knotcensus import cli
from knotcensus.geometry import (
    SpatialEmbedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
    validate_embedding,
    write_embedding,
)
from knotcensus.graphs import Cycle, enumerate_cycles, enumerate_disjoint_pairs
from knotcensus.invariants import knot_invariant, link_invariant
from knotcensus.projection import GraphProjection, frame_sequence, project
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
            restricted = g.diagram(subject, index)
            projected = project(g.curves(subject), g.frames[index])
            assert restricted.passages == projected.passages, (subject, index)
            assert restricted.signs == projected.signs, (subject, index)
            crossed += restricted.crossing_count > 0
    assert crossed > 0


def test_restriction_handles_reversed_edges_with_several_crossings():
    # Every canonical cycle walks its closing edge from the larger vertex
    # to the smaller one.  On this polyline K7 many cycles do so along
    # bent edges that carry several crossings.
    e = random_polyline_embedding(7, 3, bent_edges=8)
    g = GraphProjection(e, 0, verify_frames=1, retry_limit=64)
    index = next(i for i, t in enumerate(g.tables) if t is not None)
    busy = 0
    for subject in _subjects(e, range(3, 8)):
        edges = {(a, b) for vs in subject for a, b in zip(vs, vs[1:] + vs[:1]) if a > b}
        crossings = sum(len(g.tables[index].forward[(b, a)]) for a, b in edges)
        restricted = g.diagram(subject, index)
        projected = project(g.curves(subject), g.frames[index])
        assert (restricted.passages, restricted.signs) == (projected.passages, projected.signs)
        busy += crossings >= 2
    assert busy > 0


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
