"""Exact rational spatial embeddings of simple graphs.

Coordinates are `fractions.Fraction` triples at the API surface.  All
geometric decisions are made on a scaled integer model (one common
denominator for the whole embedding), so every predicate is an integer
sign computation with no rounding anywhere.

An embedding maps each vertex to a point and each edge to the straight
segment between its endpoints, optionally subdivided by interior
waypoints (a polyline edge).  Validity means the edge arcs form an
embedding of the graph: arcs are pairwise disjoint except for shared
endpoints at common vertices, no graph vertex lies in the interior of
any arc, and no three graph vertices are collinear.  `validate_embedding`
decides each fact by one exact predicate, in an order each relies on.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from random import Random
from typing import Mapping, NamedTuple

from .errors import InvariantContractError, SamplingExhausted
from .graphs import SimpleGraph, complete_graph, k331_graph

Point = tuple[Fraction, Fraction, Fraction]
IntPoint = tuple[int, int, int]

SAMPLING_ATTEMPTS = 64


def rational_point(x, y, z) -> Point:
    """Coerce three rational-valued numbers to an exact point."""
    return (Fraction(x), Fraction(y), Fraction(z))


def _sub(a: IntPoint, b: IntPoint) -> IntPoint:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: IntPoint, b: IntPoint) -> IntPoint:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: IntPoint, b: IntPoint) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _is_zero(a: IntPoint) -> bool:
    return a == (0, 0, 0)


def orient3d(a: IntPoint, b: IntPoint, c: IntPoint, d: IntPoint) -> int:
    """Sign of det(b-a, c-a, d-a): 0 exactly when the points are coplanar."""
    v = _dot(_cross(_sub(b, a), _sub(c, a)), _sub(d, a))
    return (v > 0) - (v < 0)


def collinear(a: IntPoint, b: IntPoint, c: IntPoint) -> bool:
    return _is_zero(_cross(_sub(b, a), _sub(c, a)))


def _strictly_inside(q: IntPoint, a: IntPoint, b: IntPoint) -> bool:
    """Exact test: q lies in the open segment (a, b)."""
    d = _sub(b, a)
    r = _sub(q, a)
    if not _is_zero(_cross(d, r)):
        return False
    t = _dot(r, d)
    return 0 < t < _dot(d, d)


def _segments_cross(p1: IntPoint, p2: IntPoint, p3: IntPoint, p4: IntPoint) -> bool:
    """Exact test: [p1,p2] and [p3,p4] are not parallel and meet at one
    point strictly inside both.  This decides whether they meet away from
    a shared corner only once `validate_embedding` has found no corner on
    a segment it does not end."""
    d1 = _sub(p2, p1)
    d2 = _sub(p4, p3)
    r = _sub(p3, p1)
    n = _cross(d1, d2)
    if _is_zero(n) or _dot(n, r) != 0:
        return False
    nn = _dot(n, n)
    return 0 < _dot(_cross(r, d2), n) < nn and 0 < _dot(_cross(r, d1), n) < nn


class EmbeddingCertificate(NamedTuple):
    """Outcome of a validity check, with a witness on failure."""

    valid: bool
    violation: str | None = None
    detail: tuple = ()

    def __bool__(self) -> bool:
        return self.valid


class SpatialEmbedding:
    """A graph with exact rational vertex positions and edge paths.

    `edge_paths` maps an edge (i, j) with i < j to the tuple of interior
    waypoints traversed from i to j; straight edges, and edges given an
    empty path, are absent.  An embedding with no waypoints anywhere is
    rectilinear.  Embeddings compare equal when their graph, positions
    and paths are equal.
    """

    def __init__(
        self,
        graph: SimpleGraph,
        vertex_positions: Mapping[int, Point],
        edge_paths: Mapping[tuple[int, int], tuple[Point, ...]] | None = None,
    ):
        self.graph = graph
        self.vertex_positions = vertex_positions
        paths = {} if edge_paths is None else edge_paths
        if set(vertex_positions) != set(graph.vertices):
            raise ValueError("positions must cover exactly the graph vertices")
        for e in paths:
            if e not in graph.edges:
                raise ValueError(f"waypoints given for non-edge {e}")
        self.edge_paths = {e: path for e, path in paths.items() if path}

    def _key(self) -> tuple:
        return (self.graph, self.vertex_positions, self.edge_paths)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is SpatialEmbedding else NotImplemented

    @property
    def n(self) -> int:
        return self.graph.vertex_count

    @property
    def rectilinear(self) -> bool:
        return not self.edge_paths

    @cached_property
    def scale(self) -> int:
        """Common denominator clearing every coordinate to an integer."""
        dens = [1]
        for p in self.vertex_positions.values():
            dens.extend(c.denominator for c in p)
        for path in self.edge_paths.values():
            for p in path:
                dens.extend(c.denominator for c in p)
        return lcm(*dens)

    @cached_property
    def corners(self) -> tuple[tuple[IntPoint, ...], dict[tuple[int, int], tuple[int, ...]]]:
        """The scaled integer model as `(points, chains)`, the one corner
        layout every reader of that model uses.

        Corner v - 1 is vertex v; each edge's waypoints follow, with the
        edges in sorted order.  `chains[(i, j)]`, i < j, lists the
        corners met walking edge (i, j) from i to j, both vertices
        included.
        """
        s = self.scale  # exact: s kills every denominator
        points = [tuple(int(c * s) for c in self.vertex_positions[v]) for v in self.graph.vertices]
        chains = {}
        for i, j in sorted(self.graph.edges):
            start = len(points)
            points.extend(tuple(int(c * s) for c in p) for p in self.edge_paths.get((i, j), ()))
            chains[(i, j)] = (i - 1, *range(start, len(points)), j - 1)
        return tuple(points), chains


def validate_embedding(e: SpatialEmbedding) -> EmbeddingCertificate:
    """Exact embedding-validity certificate.

    Checks, in order: distinct corners (vertices and waypoints), no three
    collinear graph vertices, no corner interior to a segment it does
    not end, and pairwise segment disjointness away from shared corners.
    Once the first three hold, two segments meet only at a shared corner
    or at one point inside both, so the last check is the strict
    crossing test `_segments_cross`, with no shared-corner test.
    The first violation found is reported with its witnesses: a corner
    is named ("v", vertex) or ("w", edge, index), and a segment
    (edge, index) by its place along its edge's chain in `e.corners`.
    """
    points, chains = e.corners
    names: list[tuple] = [("v", v) for v in e.graph.vertices]
    segs = []
    for edge, chain in chains.items():
        names.extend(("w", edge, k) for k in range(len(chain) - 2))
        segs.extend((edge, k, chain[k], chain[k + 1]) for k in range(len(chain) - 1))

    seen: dict[IntPoint, int] = {}
    for c, p in enumerate(points):
        if p in seen:
            return EmbeddingCertificate(False, "coincident-points", (names[seen[p]], names[c]))
        seen[p] = c

    for va, vb, vc in combinations(e.graph.vertices, 3):
        if collinear(points[va - 1], points[vb - 1], points[vc - 1]):
            return EmbeddingCertificate(False, "collinear-vertices", (va, vb, vc))

    for c, p in enumerate(points):
        for edge, k, a, b in segs:
            if c != a and c != b and _strictly_inside(p, points[a], points[b]):
                return EmbeddingCertificate(False, "point-on-segment", (names[c], (edge, k)))

    for (e1, k1, a1, b1), (e2, k2, a2, b2) in combinations(segs, 2):
        if _segments_cross(points[a1], points[b1], points[a2], points[b2]):
            return EmbeddingCertificate(False, "segments-intersect", ((e1, k1), (e2, k2)))
    return EmbeddingCertificate(True)


def moment_curve_embedding(n: int, graph: SimpleGraph | None = None) -> SpatialEmbedding:
    """Rectilinear embedding with vertex i at (i, i^2, i^3).

    Any four points of this curve span a nonzero Vandermonde determinant,
    so the points are in general position and the embedding is valid for
    every graph on 1..n.
    """
    g = graph if graph is not None else complete_graph(n)
    if g.vertex_count != n:
        raise ValueError("graph order does not match n")
    pos = {i: rational_point(i, i * i, i * i * i) for i in range(1, n + 1)}
    e = SpatialEmbedding(g, pos)
    _require_valid(e)
    return e


def _require_valid(e: SpatialEmbedding) -> None:
    cert = validate_embedding(e)
    if not cert:
        raise InvariantContractError(f"{cert.violation}: {cert.detail}")


def general_position_sample(
    n: int, seed, coord_range: int, attempts: int = SAMPLING_ATTEMPTS
) -> dict[int, IntPoint]:
    """Sample n integer points in general position, deterministically.

    Points are drawn uniformly from the cube [-coord_range, coord_range]^3
    and the whole set is redrawn until no three are collinear and no four
    are coplanar.  Such a set yields a valid rectilinear embedding of any
    graph on the points.
    """
    if coord_range < 1:
        raise ValueError("coordinate range must be at least 1")
    rng = Random(f"sample:{seed}:{n}:{coord_range}")
    for _ in range(attempts):
        pts = [
            tuple(rng.randint(-coord_range, coord_range) for _ in range(3))
            for _ in range(n)
        ]
        if (
            len(set(pts)) == n
            and not any(collinear(*t) for t in combinations(pts, 3))
            and all(orient3d(*q) for q in combinations(pts, 4))
        ):
            return {i + 1: pts[i] for i in range(n)}
    raise SamplingExhausted(attempts, coord_range)


def random_rectilinear_embedding(
    n: int, seed, coord_range: int = 50, graph: SimpleGraph | None = None
) -> SpatialEmbedding:
    """Random valid rectilinear embedding of K_n (or of the given graph)."""
    g = graph if graph is not None else complete_graph(n)
    if g.vertex_count != n:
        raise ValueError("graph order does not match n")
    pts = general_position_sample(n, seed, coord_range)
    pos = {v: rational_point(*pts[v]) for v in g.vertices}
    e = SpatialEmbedding(g, pos)
    _require_valid(e)
    return e


def random_polyline_embedding(
    n: int,
    seed,
    coord_range: int = 50,
    bent_edges: int = 3,
    graph: SimpleGraph | None = None,
) -> SpatialEmbedding:
    """Random valid embedding with a few single-waypoint polyline edges.

    Starts from a random rectilinear embedding, then replaces `bent_edges`
    randomly chosen edges by two-segment paths through a perturbed
    midpoint, revalidating after each attempt.
    """
    if bent_edges < 0:
        raise ValueError(f"bent_edges must be at least 0, got {bent_edges}")
    base = random_rectilinear_embedding(n, seed, coord_range, graph)
    g = base.graph
    rng = Random(f"bend:{seed}:{n}:{coord_range}:{bent_edges}")
    edges = sorted(g.edges)
    for _ in range(SAMPLING_ATTEMPTS):
        chosen = rng.sample(edges, min(bent_edges, len(edges)))
        paths = {}
        for i, j in chosen:
            a = base.vertex_positions[i]
            b = base.vertex_positions[j]
            mid = tuple(
                (a[k] + b[k]) / 2 + Fraction(rng.randint(-coord_range, coord_range), 2)
                for k in range(3)
            )
            paths[(i, j)] = (mid,)
        e = SpatialEmbedding(g, base.vertex_positions, paths)
        if validate_embedding(e):
            return e
    raise SamplingExhausted(SAMPLING_ATTEMPTS, coord_range)


def random_k331_embedding(seed, coord_range: int = 50) -> SpatialEmbedding:
    """Random valid rectilinear embedding of the tripartite graph."""
    return random_rectilinear_embedding(7, seed, coord_range, graph=k331_graph())


# ---------------------------------------------------------------------------
# JSON interchange


def _coord_to_json(c: Fraction):
    return int(c) if c.denominator == 1 else [c.numerator, c.denominator]


def _is_json_int(v) -> bool:
    # JSON true and false load as bool, which is an int subclass.
    return isinstance(v, int) and not isinstance(v, bool)


def _coord_from_json(v) -> Fraction:
    if _is_json_int(v):
        return Fraction(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        num, den = v
        if _is_json_int(num) and _is_json_int(den) and den != 0:
            return Fraction(num, den)
    raise ValueError(f"bad coordinate {v!r}")


def embedding_to_json(e: SpatialEmbedding) -> dict:
    """JSON-ready dict: graph kind, vertex coordinates, optional edge paths."""
    kind = "k331" if e.graph.tags else "complete"
    doc: dict = {
        "graph": kind,
        "n": e.n,
        "vertices": [
            [_coord_to_json(c) for c in e.vertex_positions[v]] for v in e.graph.vertices
        ],
    }
    paths = {
        f"{i}-{j}": [[_coord_to_json(c) for c in p] for p in path]
        for (i, j), path in sorted(e.edge_paths.items())
    }
    if paths:
        doc["edges"] = paths
    return doc


def embedding_from_json(doc: dict) -> SpatialEmbedding:
    """Parse and validate an embedding document; raises ValueError if bad."""
    if not isinstance(doc, dict):
        raise ValueError("embedding document must be an object")
    try:
        n = doc["n"]
        vertices = doc["vertices"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing field: {exc}") from None
    if not _is_json_int(n) or n < 3:
        raise ValueError(f"bad vertex count {n!r}")
    # Checked before the graph is built, which takes time and memory
    # quadratic in n.
    if not isinstance(vertices, list) or len(vertices) != n:
        raise ValueError("vertex list length does not match n")
    edges = doc.get("edges", {})
    if not isinstance(edges, dict):
        raise ValueError("edges must be an object mapping edge keys to waypoint lists")
    kind = doc.get("graph", "complete")
    if kind == "complete":
        g = complete_graph(n)
    elif kind == "k331":
        if n != 7:
            raise ValueError("tripartite graph requires n=7")
        g = k331_graph()
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    pos: dict[int, Point] = {}
    for idx, row in enumerate(vertices):
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError(f"vertex {idx + 1}: expected 3 coordinates")
        pos[idx + 1] = tuple(_coord_from_json(c) for c in row)
    # Only the canonical key names an edge, so no edge is named twice.
    keys = {f"{i}-{j}": (i, j) for i, j in g.edges} if edges else {}
    paths: dict[tuple[int, int], tuple[Point, ...]] = {}
    for key, rows in edges.items():
        if key not in keys:
            raise ValueError(f"edge key {key!r} is not the i-j key of an edge with i < j")
        if not isinstance(rows, list):
            raise ValueError(f"edge {key}: expected a list of waypoints")
        pts = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"edge {key}: expected 3 coordinates per waypoint")
            pts.append(tuple(_coord_from_json(c) for c in row))
        paths[keys[key]] = tuple(pts)
    e = SpatialEmbedding(g, pos, paths)
    cert = validate_embedding(e)
    if not cert:
        raise ValueError(f"embedding invalid: {cert.violation} {cert.detail}")
    return e


def dumps_canonical(doc) -> str:
    """Deterministic JSON text: sorted keys, 2-space indent, newline at end."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_embedding(e: SpatialEmbedding, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(embedding_to_json(e)))


def read_embedding(path) -> SpatialEmbedding:
    with open(path, "r", encoding="utf-8") as fh:
        return embedding_from_json(json.load(fh))
