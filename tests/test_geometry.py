"""Embedding validity certificates, construction, and JSON round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knotcensus import geometry
from knotcensus.errors import SamplingExhausted
from knotcensus.geometry import (
    SpatialEmbedding,
    cycle_curve,
    dumps_canonical,
    embedding_from_json,
    embedding_to_json,
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
    rational_point,
    read_embedding,
    validate_embedding,
    write_embedding,
)
from knotcensus.graphs import canonical_cycle, complete_graph, k331_graph


def positions(*coords):
    return {i + 1: rational_point(*c) for i, c in enumerate(coords)}


@pytest.mark.parametrize("n", [3, 4, 6, 8, 9])
def test_moment_curve_is_valid(n):
    e = moment_curve_embedding(n)
    assert e.rectilinear
    assert e.scale == 1
    assert validate_embedding(e)
    assert e.vertex_positions[2] == (Fraction(2), Fraction(4), Fraction(8))


def test_random_rectilinear_is_valid_and_deterministic():
    a = random_rectilinear_embedding(7, seed="x")
    b = random_rectilinear_embedding(7, seed="x")
    assert a.vertex_positions == b.vertex_positions
    assert validate_embedding(a)
    c = random_rectilinear_embedding(7, seed="y")
    assert c.vertex_positions != a.vertex_positions


def test_random_polyline_bends_edges_and_validates():
    e = random_polyline_embedding(6, seed=1, bent_edges=3)
    assert not e.rectilinear
    assert sum(1 for p in e.edge_paths.values() if p) == 3
    assert validate_embedding(e)


def test_sampling_exhaustion_raises():
    with pytest.raises(SamplingExhausted):
        random_rectilinear_embedding(9, seed=0, coord_range=1)


def test_coincident_vertices_rejected():
    e = SpatialEmbedding(
        complete_graph(3),
        positions((0, 0, 0), (1, 1, 1), (0, 0, 0)),
    )
    cert = validate_embedding(e)
    assert not cert
    assert cert.violation == "coincident-points"


def test_collinear_vertices_rejected():
    e = SpatialEmbedding(
        complete_graph(3),
        positions((0, 0, 0), (1, 1, 1), (2, 2, 2)),
    )
    cert = validate_embedding(e)
    assert not cert
    assert cert.violation == "collinear-vertices"


def test_vertex_on_nonincident_edge_rejected():
    e = SpatialEmbedding(
        complete_graph(4),
        positions((0, 0, 0), (4, 0, 0), (2, 0, 1), (2, 0, 0)),
    )
    cert = validate_embedding(e)
    assert not cert
    assert cert.violation in ("point-on-segment", "collinear-vertices")


def test_crossing_edges_rejected():
    # Edges (1,2) and (3,4) meet at the origin interior to both.
    e = SpatialEmbedding(
        complete_graph(4),
        positions((-1, 0, 0), (1, 0, 0), (0, -1, 1), (0, 1, -1)),
    )
    cert = validate_embedding(e)
    assert not cert
    assert cert.violation == "segments-intersect"
    assert ((1, 2), 0) in cert.detail and ((3, 4), 0) in cert.detail


def test_waypoint_collision_rejected():
    g = complete_graph(3)
    pos = positions((0, 0, 0), (7, 0, 0), (3, 5, 0))
    # Bend edge (1, 2) so its waypoint lands on vertex 3.
    e = SpatialEmbedding(g, pos, {(1, 2): (rational_point(3, 5, 0),)})
    assert not validate_embedding(e)


def test_cycle_curve_is_closed_polygon_without_repeats():
    e = moment_curve_embedding(6)
    c = canonical_cycle((1, 3, 5, 2, 4, 6))
    pts = e.cycle_points_scaled(c)
    assert len(pts) == 6
    assert len(set(pts)) == 6
    curve = cycle_curve(e, c)
    assert curve[0] == e.vertex_positions[1]


def test_cycle_curve_includes_waypoints_in_order():
    e = random_polyline_embedding(6, seed=1, bent_edges=3)
    bent = next(edge for edge, p in e.edge_paths.items() if p)
    for c in [cy for cy in _cycles_through(e, bent)][:2]:
        pts = e.cycle_points_scaled(c)
        assert len(pts) > len(c)


def _cycles_through(e, edge):
    from knotcensus.graphs import SimpleGraph, enumerate_cycles, is_cycle_of

    without = SimpleGraph(e.n, e.graph.edges - {edge})
    return [c for c in enumerate_cycles(e.graph, 4) if not is_cycle_of(without, c)]


def test_fractional_positions_scale_consistently():
    g = complete_graph(3)
    pos = {
        1: rational_point(Fraction(1, 2), 0, 0),
        2: rational_point(0, Fraction(1, 3), 0),
        3: rational_point(0, 0, 1),
    }
    e = SpatialEmbedding(g, pos)
    assert e.scale == 6
    sp = e.scaled_positions
    assert sp[1] == (3, 0, 0)
    assert sp[2] == (0, 2, 0)
    assert sp[3] == (0, 0, 6)


def test_json_round_trip_rectilinear(tmp_path):
    e = random_rectilinear_embedding(6, seed=5)
    doc = embedding_to_json(e)
    back = embedding_from_json(json.loads(json.dumps(doc)))
    assert back.vertex_positions == e.vertex_positions
    assert back.graph == e.graph
    path = tmp_path / "e.json"
    write_embedding(e, path)
    assert read_embedding(path).vertex_positions == e.vertex_positions


def test_json_round_trip_polyline_and_tripartite(tmp_path):
    e = random_polyline_embedding(6, seed=1, bent_edges=2)
    back = embedding_from_json(embedding_to_json(e))
    assert back.edge_paths == e.edge_paths
    k = random_k331_embedding(seed=2)
    back = embedding_from_json(embedding_to_json(k))
    assert back.graph == k331_graph()
    assert back.vertex_positions == k.vertex_positions


embeddings = st.one_of(
    st.builds(
        lambda n, s: random_rectilinear_embedding(n, seed=s),
        st.integers(4, 8),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, s, b: random_polyline_embedding(n, seed=s, bent_edges=b),
        st.integers(5, 7),
        st.integers(0, 10**6),
        st.integers(1, 4),
    ),
    st.builds(moment_curve_embedding, st.integers(3, 9)),
    st.builds(random_k331_embedding, st.integers(0, 10**6)),
)


@settings(max_examples=30, deadline=None)
@given(embeddings)
def test_json_round_trip_is_the_identity(e):
    assert embedding_from_json(embedding_to_json(e)) == e
    assert embedding_from_json(json.loads(dumps_canonical(embedding_to_json(e)))) == e


def test_json_output_is_byte_stable():
    e = random_rectilinear_embedding(6, seed=5)
    assert dumps_canonical(embedding_to_json(e)) == dumps_canonical(
        embedding_to_json(e)
    )
    assert dumps_canonical(embedding_to_json(e)).endswith("\n")


def test_fraction_coordinates_survive_json():
    g = complete_graph(3)
    pos = {
        1: rational_point(Fraction(1, 2), 0, 0),
        2: rational_point(0, Fraction(-7, 3), 0),
        3: rational_point(1, 1, 1),
    }
    e = SpatialEmbedding(g, pos)
    back = embedding_from_json(embedding_to_json(e))
    assert back.vertex_positions[2][1] == Fraction(-7, 3)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("vertices"),
        lambda d: d.update(graph="hypercube"),
        lambda d: d["vertices"].append([0, 0, 0]),
        lambda d: d["vertices"].__setitem__(0, [0, 0]),
        lambda d: d["vertices"].__setitem__(0, [0, 0, "x"]),
        lambda d: d["vertices"].__setitem__(0, [0, 0, [1, 0]]),
        lambda d: d.update(edges={"1-99": [[0, 0, 0]]}),
        lambda d: d.update(edges={"zap": [[0, 0, 0]]}),
        lambda d: d.update(n="six"),
        lambda d: d.update(edges=[1, 2]),
        lambda d: d.update(edges=None),
        lambda d: d.update(edges={"1-2": 5}),
    ],
)
def test_corrupt_documents_rejected(mutate):
    doc = embedding_to_json(random_rectilinear_embedding(6, seed=5))
    mutate(doc)
    with pytest.raises(ValueError):
        embedding_from_json(doc)


def test_vertex_list_is_checked_before_the_graph_is_built(monkeypatch):
    # Building K_n takes time and memory quadratic in n, so a document
    # whose vertex list cannot match n is refused first.
    def refuse(n):
        raise AssertionError(f"complete_graph({n}) was built")

    monkeypatch.setattr(geometry, "complete_graph", refuse)
    with pytest.raises(ValueError, match="vertex list length"):
        embedding_from_json({"n": 1500, "vertices": [[1, 1, 1]]})


def test_invalid_geometry_rejected_on_load():
    doc = embedding_to_json(random_rectilinear_embedding(6, seed=5))
    doc["vertices"][1] = doc["vertices"][0]
    with pytest.raises(ValueError):
        embedding_from_json(doc)


def test_embedding_constructor_checks_coverage():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        SpatialEmbedding(g, positions((0, 0, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        SpatialEmbedding(
            g,
            positions((0, 0, 0), (1, 0, 0), (0, 1, 0)),
            {(1, 4): ()},
        )


def test_edge_polyline_orientation():
    e = random_polyline_embedding(6, seed=1, bent_edges=3)
    bent = next(edge for edge, p in e.edge_paths.items() if p)
    i, j = bent
    fwd = e.edge_polyline(i, j)
    rev = e.edge_polyline(j, i)
    assert fwd == tuple(reversed(rev))
