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
any arc, and no three graph vertices are collinear.
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


def segment_intersection(p1: IntPoint, p2: IntPoint, p3: IntPoint, p4: IntPoint):
    """Exact intersection of closed 3-space segments [p1,p2] and [p3,p4].

    Returns one of:
      ("empty",)
      ("point", (xn, yn, zn), den)   a single point, coordinates xn/den ...
      ("overlap",)                   a nondegenerate shared subsegment
    """
    d1 = _sub(p2, p1)
    d2 = _sub(p4, p3)
    r = _sub(p3, p1)
    if _dot(_cross(d1, d2), r) != 0:
        return ("empty",)
    n = _cross(d1, d2)
    if not _is_zero(n):
        nn = _dot(n, n)
        t_num = _dot(_cross(r, d2), n)
        s_num = _dot(_cross(r, d1), n)
        if not (0 <= t_num <= nn and 0 <= s_num <= nn):
            return ("empty",)
        pt = tuple(p1[i] * nn + t_num * d1[i] for i in range(3))
        return ("point", pt, nn)
    # Parallel lines: either disjoint or collinear.
    if not _is_zero(_cross(d1, r)):
        return ("empty",)
    dd = _dot(d1, d1)
    if dd == 0:
        raise ValueError("degenerate segment")
    t3 = _dot(_sub(p3, p1), d1)
    t4 = _dot(_sub(p4, p1), d1)
    lo, hi = min(t3, t4), max(t3, t4)
    lo, hi = max(lo, 0), min(hi, dd)
    if lo > hi:
        return ("empty",)
    if lo == hi:
        pt = tuple(p1[i] * dd + lo * d1[i] for i in range(3))
        return ("point", pt, dd)
    return ("overlap",)


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
    waypoints traversed from i to j; straight edges are simply absent.
    An embedding with no waypoints anywhere is rectilinear.  Embeddings
    compare equal when their graph, positions and paths are equal.
    """

    def __init__(
        self,
        graph: SimpleGraph,
        vertex_positions: Mapping[int, Point],
        edge_paths: Mapping[tuple[int, int], tuple[Point, ...]] | None = None,
    ):
        self.graph = graph
        self.vertex_positions = vertex_positions
        self.edge_paths = {} if edge_paths is None else edge_paths
        if set(vertex_positions) != set(graph.vertices):
            raise ValueError("positions must cover exactly the graph vertices")
        for e in self.edge_paths:
            if e not in graph.edges:
                raise ValueError(f"waypoints given for non-edge {e}")

    def _key(self) -> tuple:
        return (self.graph, self.vertex_positions, self.edge_paths)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is SpatialEmbedding else NotImplemented

    @property
    def n(self) -> int:
        return self.graph.vertex_count

    @property
    def rectilinear(self) -> bool:
        return all(len(p) == 0 for p in self.edge_paths.values())

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

    def _scaled(self, p: Point) -> IntPoint:
        s = self.scale
        return tuple(int(c * s) for c in p)  # exact: s kills every denominator

    @cached_property
    def scaled_positions(self) -> dict[int, IntPoint]:
        return {v: self._scaled(p) for v, p in self.vertex_positions.items()}

    @cached_property
    def scaled_paths(self) -> dict[tuple[int, int], tuple[IntPoint, ...]]:
        return {
            e: tuple(self._scaled(p) for p in path)
            for e, path in self.edge_paths.items()
            if path
        }

    def edge_polyline(self, i: int, j: int) -> tuple[IntPoint, ...]:
        """Scaled points of edge i->j including both endpoints, oriented i->j."""
        key = (i, j) if i < j else (j, i)
        inner = self.scaled_paths.get(key, ())
        if i > j:
            inner = tuple(reversed(inner))
        return (self.scaled_positions[i],) + inner + (self.scaled_positions[j],)

    def cycle_points_scaled(self, vs: tuple[int, ...]) -> tuple[IntPoint, ...]:
        """Closed polygon of the cycle `vs` in the scaled integer model.

        Consecutive vertices contribute their edge polylines; the final
        point of each edge is dropped since the next edge repeats it, so
        the polygon closes implicitly from the last point to the first.
        """
        pts: list[IntPoint] = []
        for a, b in zip(vs, vs[1:] + vs[:1]):
            pts.extend(self.edge_polyline(a, b)[:-1])
        return tuple(pts)


def cycle_curve(e: SpatialEmbedding, vs: tuple[int, ...]) -> tuple[Point, ...]:
    """Closed polygon of the cycle `vs` as exact rational points."""
    s = Fraction(e.scale)
    return tuple(
        (Fraction(x) / s, Fraction(y) / s, Fraction(z) / s)
        for x, y, z in e.cycle_points_scaled(vs)
    )


def _segments_of(e: SpatialEmbedding):
    """All scaled segments with logical endpoint identities.

    A logical endpoint is ("v", vertex) for a graph vertex and
    ("w", edge, index) for an interior waypoint; segments may legally meet
    only at a shared logical endpoint.
    """
    segs = []
    for i, j in sorted(e.graph.edges):
        pts = e.edge_polyline(i, j)
        ids = (
            [("v", i)]
            + [("w", (i, j), k) for k in range(len(pts) - 2)]
            + [("v", j)]
        )
        for k in range(len(pts) - 1):
            segs.append(((i, j), k, pts[k], pts[k + 1], ids[k], ids[k + 1]))
    return segs


def validate_embedding(e: SpatialEmbedding) -> EmbeddingCertificate:
    """Exact embedding-validity certificate.

    Checks, in order: distinct points, no three collinear graph vertices,
    no graph vertex interior to a non-incident segment, and pairwise
    segment disjointness away from shared logical endpoints.  The first
    violation found is reported with its witnesses.
    """
    pos = e.scaled_positions
    verts = sorted(pos)
    points: list[tuple[tuple, IntPoint]] = [(("v", v), pos[v]) for v in verts]
    for edge in sorted(e.scaled_paths):
        for k, p in enumerate(e.scaled_paths[edge]):
            points.append((("w", edge, k), p))

    seen: dict[IntPoint, tuple] = {}
    for pid, p in points:
        if p in seen:
            return EmbeddingCertificate(False, "coincident-points", (seen[p], pid))
        seen[p] = pid

    for va, vb, vc in combinations(verts, 3):
        if collinear(pos[va], pos[vb], pos[vc]):
            return EmbeddingCertificate(False, "collinear-vertices", (va, vb, vc))

    segs = _segments_of(e)
    coord_of = dict(points)

    for pid, p in points:
        for edge, k, a, b, ia, ib in segs:
            if pid in (ia, ib):
                continue
            if _strictly_inside(p, a, b):
                return EmbeddingCertificate(False, "point-on-segment", (pid, (edge, k)))

    for x in range(len(segs)):
        e1, k1, a1, b1, ia1, ib1 = segs[x]
        for y in range(x + 1, len(segs)):
            e2, k2, a2, b2, ia2, ib2 = segs[y]
            hit = segment_intersection(a1, b1, a2, b2)
            if hit[0] == "empty":
                continue
            if hit[0] == "overlap":
                return EmbeddingCertificate(False, "segments-overlap", ((e1, k1), (e2, k2)))
            # A single-point intersection is legal only at a shared logical
            # endpoint (common vertex, or the waypoint joining consecutive
            # segments of one polyline edge).
            shared = {ia1, ib1} & {ia2, ib2}
            if not shared:
                return EmbeddingCertificate(False, "segments-intersect", ((e1, k1), (e2, k2)))
            sx, sy, sz = coord_of[next(iter(shared))]
            _, pt, den = hit
            if pt != (sx * den, sy * den, sz * den):
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
        if path
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
    paths: dict[tuple[int, int], tuple[Point, ...]] = {}
    for key, rows in edges.items():
        try:
            i, j = (int(t) for t in key.split("-"))
        except ValueError:
            raise ValueError(f"bad edge key {key!r}") from None
        if not g.has_edge(i, j) or i >= j:
            raise ValueError(f"edge key {key!r} is not an i<j edge of the graph")
        if not isinstance(rows, list):
            raise ValueError(f"edge {key}: expected a list of waypoints")
        pts = []
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(f"edge {key}: expected 3 coordinates per waypoint")
            pts.append(tuple(_coord_from_json(c) for c in row))
        paths[(i, j)] = tuple(pts)
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
