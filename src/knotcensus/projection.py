"""Certified-generic projections of spatial curves to link diagrams.

A projection frame is an integer right-handed triple (u, v, d): points
map to (u.p, v.p) in the diagram plane and d.p is the height used to
resolve over/under at each crossing.  A frame is accepted only if the
kernel's exactness checks all pass (no degenerate segment, no coincident
or incident corner projections, all crossings transverse, no two
crossings at the same point); otherwise the caller advances along a
deterministic frame sequence.

Every numeric decision in this pipeline is an integer sign test, so an
accepted diagram is certified correct, not approximately correct.

An embedded graph is projected once per frame (`crossing_table`): one
scan over all segments of all edges applies the same checks to the
whole graph.  Each check is a condition on a single segment, a pair of
corners, a corner against a segment, or the crossings of one segment, so
it can only gain violations as segments are added.  A frame that is
generic for the whole graph is therefore generic for every cycle and
cycle pair in it, and their diagrams are restrictions of the one table
(`CrossingTable.restrict`), identical to what `project` returns.  Where
the graph is not generic, cycles are projected on their own at that
frame (`GraphProjection.diagram`).

The table also answers what the invariants read without building a
diagram: a cycle's Gauss arrows (`CrossingTable.arrows`) and a cycle
pair's signed mutual-crossing total (`CrossingTable.linking_total`).
`restrict` is left to the audit and to tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random
from typing import Callable, Iterator, Sequence

from . import _pykernels, kernels
from .errors import GenericityExhausted, GenericityFailure
from .geometry import IntPoint, SpatialEmbedding, _cross, _dot, _is_zero
from .graphs import Cycle

FRAME_RETRY_LIMIT = 64

_FAIL_NAMES = {
    kernels.FAIL_DEGENERATE_SEGMENT: "degenerate-segment",
    kernels.FAIL_VERTEX_COINCIDE: "vertex-coincide",
    kernels.FAIL_VERTEX_ON_SEGMENT: "vertex-on-segment",
}


@dataclass(frozen=True)
class ProjectionFrame:
    """Right-handed integer frame: plane axes u, v and view direction d."""

    axis_u: IntPoint
    axis_v: IntPoint
    direction: IntPoint

    def __post_init__(self):
        d = _dot(_cross(self.axis_u, self.axis_v), self.direction)
        if d <= 0:
            raise ValueError("frame must be right-handed")


def _reduce(p: IntPoint) -> IntPoint:
    g = gcd(gcd(abs(p[0]), abs(p[1])), abs(p[2]))
    return p if g in (0, 1) else (p[0] // g, p[1] // g, p[2] // g)


def frame_from_direction(d: IntPoint) -> ProjectionFrame:
    """Complete a nonzero integer direction to a right-handed frame.

    u is d crossed with whichever coordinate axis is least aligned with
    d, and v = d x u; then det(u, v, d) = |u|^2 |d|^2 ... > 0.  Axes are
    gcd-reduced: rescaling u or v by a positive factor rescales one
    projected coordinate, which changes no sign test.
    """
    d = _reduce(d)
    if _is_zero(d):
        raise ValueError("direction must be nonzero")
    ax = min(range(3), key=lambda i: abs(d[i]))
    e = tuple(1 if i == ax else 0 for i in range(3))
    u = _reduce(_cross(e, d))
    v = _reduce(_cross(d, u))
    return ProjectionFrame(u, v, d)


def frame_sequence(seed) -> Iterator[ProjectionFrame]:
    """Deterministic infinite sequence of candidate frames.

    Directions are drawn from a seeded generator, small components first
    so the kernel's exact integers stay small; after a few dozen failures
    the pool widens.  The same seed always yields the same sequence, on
    every platform.
    """
    rng = Random(f"frames:{seed}")
    emitted = 0
    seen: set[IntPoint] = set()
    while True:
        bound = 9 if emitted < 32 else 99
        d = (rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))
        if d == (0, 0, 0):
            continue
        d = _reduce(d)
        if d in seen:
            continue
        seen.add(d)
        emitted += 1
        yield frame_from_direction(d)


Passage = tuple[int, int]  # (crossing id, 1 if passing over else 0)


@dataclass(frozen=True)
class LinkDiagram:
    """A regular diagram: oriented components with ordered passages.

    `passages[c]` lists, in traversal order from component c's basepoint,
    the crossings met along c with an over/under flag; `signs[i]` is the
    sign of crossing i.  Passages and signs are all any invariant, its
    audit, or the skein oracle reads.
    """

    passages: tuple[tuple[Passage, ...], ...]
    signs: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.passages)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)


def project(curves: Sequence[tuple[IntPoint, ...]], frame: ProjectionFrame) -> LinkDiagram:
    """Project closed integer polygons through a frame to a diagram.

    Raises GenericityFailure when the frame is not generic for these
    curves, and ValueError if the curves actually touch in 3-space.
    """
    polys = tuple(tuple(map(tuple, c)) for c in curves)
    if not 1 <= len(polys) <= 2:
        raise ValueError("expected one or two closed curves")
    for p in polys:
        if len(p) < 3:
            raise ValueError("a closed polygon needs at least 3 points")
    status, payload = kernels.find_crossings(
        polys, frame.axis_u, frame.axis_v, frame.direction
    )
    if status == kernels.FAIL_INTERSECT_3D:
        raise ValueError(f"curves intersect in 3-space near segments {payload}")
    if status != kernels.OK:
        raise GenericityFailure(_FAIL_NAMES[status], payload)
    return _assemble(polys, payload)


def _segment_orders(nseg: int, raw) -> list[list[int]]:
    """Indices of the raw crossings along each segment, in parameter order.

    The sort is exact; a tie is two crossings at one diagram point, which
    a generic frame must not produce.
    """
    on_segment: list[list[tuple[Fraction, int]]] = [[] for _ in range(nseg)]
    for idx, (si, sj, tn, sn, den, _, _) in enumerate(raw):
        on_segment[si].append((Fraction(tn, den), idx))
        on_segment[sj].append((Fraction(sn, den), idx))
    for s, items in enumerate(on_segment):
        items.sort()
        for (t1, a), (t2, b) in zip(items, items[1:]):
            if t1 == t2:
                raise GenericityFailure("triple-point", (s, a, b))
    return [[idx for _, idx in items] for items in on_segment]


def _assemble(polys, raw) -> LinkDiagram:
    orders = _segment_orders(sum(len(p) for p in polys), raw)

    seg_of_curve: list[range] = []
    base = 0
    for p in polys:
        seg_of_curve.append(range(base, base + len(p)))
        base += len(p)

    # Walk the components; relabel crossings by first encounter.
    relabel: dict[int, int] = {}
    passages: list[tuple[Passage, ...]] = []
    for ci, segs in enumerate(seg_of_curve):
        ps: list[Passage] = []
        for s in segs:
            for idx in orders[s]:
                cid = relabel.setdefault(idx, len(relabel))
                over = 1 if (raw[idx][5] == 1) == (raw[idx][0] == s) else 0
                ps.append((cid, over))
        passages.append(tuple(ps))

    signs = [0] * len(raw)
    for idx, crossing in enumerate(raw):
        signs[relabel[idx]] = crossing[6]

    diagram = LinkDiagram(passages=tuple(passages), signs=tuple(signs))
    if diagram.component_count == 2:
        mutual = sum(
            1
            for cid in range(diagram.crossing_count)
            if sum(any(c == cid for c, _ in ps) for ps in diagram.passages) == 2
        )
        if mutual % 2 != 0:
            raise AssertionError("odd number of mutual crossings in a closed-curve diagram")
    return diagram


def accepted_diagrams(
    diagram_at: Callable[[int], LinkDiagram], retry_limit: int = FRAME_RETRY_LIMIT
) -> Iterator[tuple[LinkDiagram, int]]:
    """Yield (diagram, frame_index) for each frame where `diagram_at` succeeds.

    `diagram_at(index)` gives the diagram at frame `index`, or whatever
    the caller reads there, or raises GenericityFailure;
    GenericityExhausted is raised once `retry_limit` frames have failed
    in total.
    """
    failures = 0
    index = 0
    while True:
        try:
            dia = diagram_at(index)
        except GenericityFailure as exc:
            failures += 1
            if failures >= retry_limit:
                raise GenericityExhausted(failures, exc) from exc
        else:
            yield dia, index
        index += 1


def curve_source(
    curves: Sequence[tuple[IntPoint, ...]], seed
) -> Callable[[int], LinkDiagram]:
    """Diagram of the curves at frame `index` of `frame_sequence(seed)`.

    The returned callable projects afresh on every call and raises
    GenericityFailure where that frame is not generic for the curves.
    """
    frames = frame_sequence(seed)
    seen: list[ProjectionFrame] = []

    def diagram_at(index: int) -> LinkDiagram:
        while len(seen) <= index:
            seen.append(next(frames))
        return project(curves, seen[index])

    return diagram_at


def diagram_for(
    curves: Sequence[tuple[IntPoint, ...]],
    seed,
    retry_limit: int = FRAME_RETRY_LIMIT,
) -> Iterator[tuple[LinkDiagram, int]]:
    """Yield certified diagrams of the curves along the frame sequence."""
    return accepted_diagrams(curve_source(curves, seed), retry_limit)


# ---------------------------------------------------------------------------
# Whole-graph crossing tables

Edge = tuple[int, int]
# (crossing id, other strand's edge, 1 if this strand passes over else 0,
#  sign with both edges oriented from the smaller vertex to the larger)
EdgePass = tuple[int, Edge, int, int]


Arrow = tuple[int, int, int]  # (over position, under position, sign)


def _oriented_edges(vs: tuple[int, ...]) -> list[tuple[Edge, int]]:
    """The edges of cycle `vs` in walk order, each with its orientation
    factor: +1 if the walk runs from the smaller vertex, else -1."""
    return [((a, b), 1) if a < b else ((b, a), -1) for a, b in zip(vs, vs[1:] + vs[:1])]


@dataclass(frozen=True)
class CrossingTable:
    """Every crossing of a whole embedded graph at one generic frame.

    `forward[edge]` lists the crossings met along edge (i, j), i < j,
    walked from i to j: its segments in order and each segment's
    crossings in parameter order; the walk from j to i meets them in
    reverse.  `pairs[e][f]` is (signed sum, count) of the crossings
    between edges e and f, stored under both orders (once if e == f),
    with signs as in `forward`; edge pairs that do not cross are absent.
    """

    forward: dict[Edge, tuple[EdgePass, ...]]
    pairs: dict[Edge, dict[Edge, tuple[int, int]]]

    def restrict(self, cycles: Sequence[tuple[int, ...]]) -> LinkDiagram:
        """The diagram of one cycle or a disjoint pair, as `project` builds it.

        Each cycle is walked from its first vertex along its vertex
        order, as `cycle_points_scaled` lists its points.  Only crossings
        between edges of the given cycles are kept, relabelled by first
        encounter.  Reversing a strand flips its direction in the sign's
        determinant, so a sign is the table's sign times the orientation
        factor (+1 or -1) of each of its two edges.
        """
        forward = self.forward
        walks = [_oriented_edges(vs) for vs in cycles]
        factor = {edge: f for edges in walks for edge, f in edges}
        relabel: dict[int, int] = {}
        signs: list[int] = []
        passages = []
        for edges in walks:
            ps: list[Passage] = []
            for edge, f in edges:
                for gid, other, over, sign in forward[edge] if f > 0 else reversed(forward[edge]):
                    g = factor.get(other)
                    if g is None:
                        continue
                    cid = relabel.get(gid)
                    if cid is None:
                        cid = relabel[gid] = len(signs)
                        signs.append(sign * f * g)
                    ps.append((cid, over))
            passages.append(tuple(ps))
        return LinkDiagram(tuple(passages), tuple(signs))

    def arrows(self, vs: tuple[int, ...]) -> list[Arrow]:
        """The Gauss-diagram arrows of one cycle, read without a diagram.

        The walk is `restrict`'s, so `gauss_diagram(self.restrict((vs,)))`
        has the same arrows, listed by first encounter there and by
        second here.  Raises ValueError, as `gauss_diagram` does, unless
        every kept crossing is passed once over and once under.
        """
        forward = self.forward
        edges = _oriented_edges(vs)
        factor = dict(edges)
        opened: dict[int, tuple[int, int, int]] = {}
        out: list[Arrow] = []
        pos = 0
        for edge, f in edges:
            for gid, other, over, sign in forward[edge] if f > 0 else reversed(forward[edge]):
                g = factor.get(other)
                if g is None:
                    continue
                first = opened.pop(gid, None)
                if first is None:
                    opened[gid] = (pos, over, sign * f * g)
                elif first[1] == over:
                    raise ValueError("every crossing must be passed once over and once under")
                else:
                    out.append((pos, first[0], first[2]) if over else (first[0], pos, first[2]))
                pos += 1
        if opened:
            raise ValueError("every crossing must be passed once over and once under")
        return out

    def linking_total(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int]:
        """(signed mutual-crossing total, crossing count) of a disjoint pair.

        The total is the sum `linking_number` takes over
        `self.restrict((a, b))`: each edge pair's signed sum times both
        edges' orientation factors.  The count is that diagram's
        `crossing_count`, so it includes each cycle's self-crossings.
        """
        pairs = self.pairs
        first, second = _oriented_edges(a), _oriented_edges(b)
        total = count = 0
        for e, f in first:
            row = pairs.get(e, {})
            for g, h in second:
                entry = row.get(g)
                if entry is not None:
                    total += entry[0] * f * h
                    count += entry[1]
        for side in (first, second):
            for i, (e, _) in enumerate(side):
                row = pairs.get(e, {})
                for g, _ in side[i:]:
                    entry = row.get(g)
                    if entry is not None:
                        count += entry[1]
        return total, count


def crossing_table(e: SpatialEmbedding, frame: ProjectionFrame) -> CrossingTable:
    """Scan every segment pair of the embedded graph through one frame.

    Runs the per-cycle kernel's scan (`_pykernels.scan_segments`) on all
    segments of all edges, each oriented from its smaller vertex, and
    raises GenericityFailure at the first check that fails.  Two
    segments that meet at a crossing's height raise the condition
    "intersect-3d" rather than ValueError: the frame is then only not
    whole-graph generic, and a per-cycle `project` reports the touch for
    the cycles that contain it.
    """
    vertices = sorted(e.scaled_positions)
    corner_of = {v: k for k, v in enumerate(vertices)}
    points = [e.scaled_positions[v] for v in vertices]
    seg_edge: list[Edge] = []
    seg_a: list[int] = []
    seg_b: list[int] = []
    for edge in sorted(e.graph.edges):
        chain = [corner_of[edge[0]]]
        for p in e.scaled_paths.get(edge, ()):
            chain.append(len(points))
            points.append(p)
        chain.append(corner_of[edge[1]])
        seg_edge.extend([edge] * (len(chain) - 1))
        seg_a.extend(chain[:-1])
        seg_b.extend(chain[1:])
    status, raw = _pykernels.scan_segments(
        points, seg_a, seg_b, frame.axis_u, frame.axis_v, frame.direction
    )
    if status != kernels.OK:
        raise GenericityFailure(_FAIL_NAMES.get(status, "intersect-3d"), raw)

    forward: dict[Edge, list[EdgePass]] = {edge: [] for edge in e.graph.edges}
    for s, order in enumerate(_segment_orders(len(seg_edge), raw)):
        passes = forward[seg_edge[s]]
        for gid in order:
            si, sj, _, _, _, i_over, sign = raw[gid]
            other, over = (sj, i_over) if si == s else (si, 1 - i_over)
            passes.append((gid, seg_edge[other], over, sign))
    pairs: dict[Edge, dict[Edge, tuple[int, int]]] = {}
    for si, sj, _, _, _, _, sign in raw:
        a, b = seg_edge[si], seg_edge[sj]
        for x, y in {(a, b), (b, a)}:
            row = pairs.setdefault(x, {})
            total, count = row.get(y, (0, 0))
            row[y] = (total + sign, count + 1)
    return CrossingTable(
        forward={edge: tuple(ps) for edge, ps in forward.items()}, pairs=pairs
    )


class GraphProjection:
    """Whole-graph crossing tables along one embedding's frame sequence.

    Holds the frames 0..last of `frame_sequence(seed)` and, per frame,
    its `CrossingTable`, or None where the graph is not generic.  The
    prefix stops at the (verify_frames + 1)-th generic frame, or once
    verify_frames + retry_limit frames have been tried: a record
    accepts at every generic frame and gives up after retry_limit
    failures, so no record can look past that prefix.
    """

    def __init__(self, e: SpatialEmbedding, seed, verify_frames: int, retry_limit: int):
        self.embedding = e
        self.frames: list[ProjectionFrame] = []
        self.tables: list[CrossingTable | None] = []
        self.rejects: dict[str, int] = {}
        wanted = verify_frames + 1
        budget = wanted + retry_limit - 1
        generic = 0
        for frame in frame_sequence(seed):
            try:
                table = crossing_table(e, frame)
                generic += 1
            except GenericityFailure as exc:
                table = None
                self.rejects[exc.condition] = self.rejects.get(exc.condition, 0) + 1
            self.frames.append(frame)
            self.tables.append(table)
            if generic >= wanted or len(self.frames) >= budget:
                break

    def curves(self, cycles: Sequence[tuple[int, ...]]) -> tuple[tuple[IntPoint, ...], ...]:
        return tuple(self.embedding.cycle_points_scaled(Cycle(vs)) for vs in cycles)

    def diagram(self, cycles: Sequence[tuple[int, ...]], index: int) -> LinkDiagram:
        """The cycles' diagram at frame `index`.

        At a whole-graph generic frame this is the table's restriction;
        elsewhere it is the per-cycle `project` at that same frame, which
        may raise GenericityFailure.
        """
        table = self.tables[index]
        if table is not None:
            return table.restrict(cycles)
        return project(self.curves(cycles), self.frames[index])


@dataclass(frozen=True)
class GaussDiagram:
    """Chord diagram of a knot diagram read from its basepoint.

    Arrow i is (over_pos, under_pos, sign): the two walk positions (in
    0..2c-1) at which crossing i is passed over and under.
    """

    arrows: tuple[tuple[int, int, int], ...]

    @property
    def length(self) -> int:
        return 2 * len(self.arrows)


def gauss_diagram(d: LinkDiagram) -> GaussDiagram:
    """Gauss diagram of a one-component diagram."""
    if d.component_count != 1:
        raise ValueError("gauss diagram needs a knot diagram (one component)")
    over_pos: dict[int, int] = {}
    under_pos: dict[int, int] = {}
    for pos, (cid, over) in enumerate(d.passages[0]):
        (over_pos if over else under_pos)[cid] = pos
    if set(over_pos) != set(under_pos):
        raise ValueError("every crossing must be passed once over and once under")
    arrows = tuple(
        (over_pos[c], under_pos[c], d.signs[c]) for c in sorted(over_pos)
    )
    return GaussDiagram(arrows)
