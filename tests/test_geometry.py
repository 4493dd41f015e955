"""Embedding validity certificates, construction, and JSON round-trips."""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from knotcensus import geometry
from knotcensus.errors import SamplingExhausted
from knotcensus.geometry import (
    SpatialEmbedding,
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
from oracle import cycle_curve, cycle_points_scaled, edge_polyline, reference_certificate


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
    # Collinear vertices are reported before a vertex on a segment; the
    # segment-pair test relies on that order.
    assert tuple(validate_embedding(e)) == (False, "collinear-vertices", (1, 2, 4))


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


_K5 = moment_curve_embedding(5).vertex_positions


def _mid(a, b):
    return tuple((x + y) / 2 for x, y in zip(a, b))


def _k5_bent(waypoint, moved=None):
    """K5 on the moment curve with edge (1, 2) bent through `waypoint`
    and each vertex in `moved` at its new place."""
    pos = {**_K5, **(moved or {})}
    return SpatialEmbedding(complete_graph(5), pos, {(1, 2): (waypoint,)})


@pytest.mark.parametrize(
    "e, expected",
    [
        # The waypoint of (1, 2) sits on vertex 3.
        (_k5_bent(_K5[3]), (False, "coincident-points", (("v", 3), ("w", (1, 2), 0)))),
        # Vertex 3 moves to the midpoint of that waypoint and vertex 2.
        (
            _k5_bent(_K5[3], {3: _mid(_K5[3], _K5[2])}),
            (False, "point-on-segment", (("v", 3), ((1, 2), 1))),
        ),
        # The waypoint sits at the midpoint of edge (3, 4).
        (
            _k5_bent(_mid(_K5[3], _K5[4])),
            (False, "point-on-segment", (("w", (1, 2), 0), ((3, 4), 0))),
        ),
        # The second segment of bent edge (1, 2) crosses edge (3, 4) at
        # the origin.
        (
            SpatialEmbedding(
                complete_graph(4),
                positions((-1, 5, 7), (1, 0, 0), (0, -1, 1), (0, 1, -1)),
                {(1, 2): (rational_point(-1, 0, 0),)},
            ),
            (False, "segments-intersect", (((1, 2), 1), ((3, 4), 0))),
        ),
        # A waypoint at the midpoint of its own edge: two collinear
        # segments that share only that corner.
        (_k5_bent(_mid(_K5[1], _K5[2])), (True, None, ())),
    ],
)
def test_witnesses_name_waypoints_and_later_segments(e, expected):
    assert tuple(validate_embedding(e)) == expected


def test_collinear_overlap_is_reported_at_its_end_corner():
    # The second segments of bent edges (1, 2) and (3, 4) share the
    # stretch from x = 11 to 12 of the x-axis.  Waypoint 1 of (1, 2) lies
    # inside that segment of (3, 4), which is reported before any two
    # segments are tested.
    e = SpatialEmbedding(
        complete_graph(4),
        moment_curve_embedding(4).vertex_positions,
        {
            (1, 2): (rational_point(10, 0, 0), rational_point(12, 0, 0)),
            (3, 4): (rational_point(11, 0, 0), rational_point(13, 0, 0)),
        },
    )
    expected = (False, "point-on-segment", (("w", (1, 2), 1), ((3, 4), 1)))
    assert tuple(validate_embedding(e)) == expected


def _random_embedding(rng):
    """K3-K6 on a small integer grid, 40% of its edges bent through one
    to three half-integer waypoints: small enough that every kind of
    violation is common."""
    g = complete_graph(rng.randint(3, 6))
    r = rng.randint(1, 5)
    pos = {v: rational_point(*(rng.randint(-r, r) for _ in range(3))) for v in g.vertices}
    paths = {
        edge: tuple(
            tuple(Fraction(rng.randint(-2 * r, 2 * r), 2) for _ in range(3))
            for _ in range(rng.randint(1, 3))
        )
        for edge in sorted(g.edges)
        if rng.random() < 0.4
    }
    return SpatialEmbedding(g, pos, paths)


def test_certificates_equal_the_general_intersector_reference():
    rng = Random("validity-sweep")
    kinds = Counter()
    for _ in range(3000):
        e = _random_embedding(rng)
        cert = validate_embedding(e)
        assert tuple(cert) == tuple(reference_certificate(e))
        kinds[cert.violation] += 1
    assert set(kinds) == {
        None,
        "coincident-points",
        "collinear-vertices",
        "point-on-segment",
        "segments-intersect",
    }


def test_cycle_curve_is_closed_polygon_without_repeats():
    e = moment_curve_embedding(6)
    c = canonical_cycle((1, 3, 5, 2, 4, 6))
    pts = cycle_points_scaled(e, c)
    assert len(pts) == 6
    assert len(set(pts)) == 6
    curve = cycle_curve(e, c)
    assert curve[0] == e.vertex_positions[1]


def test_cycle_curve_includes_waypoints_in_order():
    e = random_polyline_embedding(6, seed=1, bent_edges=3)
    bent = next(edge for edge, p in e.edge_paths.items() if p)
    for c in [cy for cy in _cycles_through(e, bent)][:2]:
        pts = cycle_points_scaled(e, c)
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
    points = e.corners[0]
    assert points[0] == (3, 0, 0)
    assert points[1] == (0, 2, 0)
    assert points[2] == (0, 0, 6)


def test_corners_number_vertices_then_waypoints_by_edge():
    e = random_polyline_embedding(6, seed=1, bent_edges=3)
    points, chains = e.corners
    bent = sorted(edge for edge, p in e.edge_paths.items() if p)
    rational = [e.vertex_positions[v] for v in range(1, 7)] + [e.edge_paths[b][0] for b in bent]
    assert [tuple(Fraction(c, e.scale) for c in p) for p in points] == rational
    assert list(chains) == sorted(e.graph.edges)
    for (i, j), chain in chains.items():
        inner = (6 + bent.index((i, j)),) if (i, j) in bent else ()
        assert chain == (i - 1, *inner, j - 1)


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


def _bend_1_2_at_its_midpoint(d):
    a, b = d["vertices"][:2]
    return [[[x + y, 2] for x, y in zip(a, b)]]


# Each case is (mutation, message); ids keep the case names stable.
_CORRUPTIONS = [
    (lambda d: d.pop("vertices"), "missing field"),
    (lambda d: d.update(graph="hypercube"), "unknown graph kind"),
    (lambda d: d["vertices"].append([0, 0, 0]), "vertex list length"),
    (lambda d: d["vertices"].__setitem__(0, [0, 0]), "expected 3 coordinates"),
    (lambda d: d["vertices"].__setitem__(0, [0, 0, "x"]), "bad coordinate"),
    (lambda d: d["vertices"].__setitem__(0, [0, 0, [1, 0]]), "bad coordinate"),
    (lambda d: d.update(edges={"1-99": [[0, 0, 0]]}), "edge key"),
    (lambda d: d.update(edges={"zap": [[0, 0, 0]]}), "edge key"),
    (lambda d: d.update(n="six"), "bad vertex count"),
    (lambda d: d.update(edges=[1, 2]), "edges must be an object"),
    (lambda d: d.update(edges=None), "edges must be an object"),
    (lambda d: d.update(edges={"1-2": 5}), "expected a list of waypoints"),
    # Edge keys must be spelled "i-j": the waypoint is valid on (1, 2).
    (lambda d: d.update(edges={"01-2": _bend_1_2_at_its_midpoint(d)}), "edge key"),
    (lambda d: d.update(edges={" 1-2": _bend_1_2_at_its_midpoint(d)}), "edge key"),
    (
        lambda d: d.update(
            edges={"1-2": _bend_1_2_at_its_midpoint(d), "01-2": _bend_1_2_at_its_midpoint(d)}
        ),
        "edge key",
    ),
]


@pytest.mark.parametrize(
    "mutate, match", _CORRUPTIONS, ids=[f"<lambda>{i}" for i in range(len(_CORRUPTIONS))]
)
def test_corrupt_documents_rejected(mutate, match):
    doc = embedding_to_json(random_rectilinear_embedding(6, seed=5))
    mutate(doc)
    with pytest.raises(ValueError, match=match):
        embedding_from_json(doc)


def test_empty_path_is_dropped_and_round_trips():
    doc = embedding_to_json(random_rectilinear_embedding(6, seed=5))
    doc["edges"] = {"1-2": []}
    e = embedding_from_json(doc)
    assert e.edge_paths == {} and e.rectilinear
    assert embedding_from_json(embedding_to_json(e)) == e


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
    fwd = edge_polyline(e, i, j)
    rev = edge_polyline(e, j, i)
    assert fwd == tuple(reversed(rev))
