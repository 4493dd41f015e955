"""Certified-generic projections of spatial curves to link diagrams.

A projection frame is an integer right-handed triple (u, v, d): points
map to (u.p, v.p) in the diagram plane and d.p is the height used to
resolve over/under at each crossing.  A frame is generic for some
curves only if the kernel's exactness checks all pass (no degenerate
segment, no coincident or incident corner projections, all crossings
transverse, no two crossings at the same point).

Every numeric decision in this pipeline is an integer sign test, so an
accepted diagram is certified correct, not approximately correct.

One frame policy (`accepted_tables`): the accepted frames are the first
verify_frames + 1 frames of `frame_sequence(seed)` at which the scanned
curves are generic, and GenericityExhausted is raised once retry_limit
frames have failed.  An embedding applies it once, to its whole graph
(`GraphProjection`), and `verify`, `census` and `invariant` all read
every cycle and cycle pair at those frames.  Each genericity check is
a condition on a segment, a pair of corners, a corner against a
segment, or the crossings of one segment, so it can only gain
violations as segments are added: a frame generic for the whole graph
is generic for every cycle and cycle pair in it, and restricting the
graph's table to them gives the diagram of their own scan.  The
converse fails: a frame the whole graph rejects can be generic for one
cycle, so a cycle's values may be read at later frames than its own
scan would accept, and the whole graph may exhaust the retry budget
where the cycle alone would not.

Every diagram and every value comes from a `CrossingTable`: one scan
(`crossing_table`) of edge-labelled segments through one frame.  An
embedding's segments join the corners of `SpatialEmbedding.corners`,
the one numbering of its integer model.  Its
constructor lays the crossings out once for both walk directions of
every edge, in a list indexed by an integer code of the directed edge
(`edge_code`): each pass is (crossing id, code of the other edge, over
flag, sign times this direction's orientation factor).
`invariants.shard_values` reads a cycle's a2 and a cycle pair's linking
number straight from those passes, without a diagram.  The one way to a
`LinkDiagram` is `CrossingTable.restrict`, which only the audit and
the crossing count that `invariant` reports call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd
from random import Random
from typing import Callable, Iterator, NamedTuple, Sequence

from ._pykernels import scan_segments
from .errors import GenericityExhausted, GenericityFailure
from .geometry import IntPoint, SpatialEmbedding, _cross, _dot, _is_zero

FRAME_RETRY_LIMIT = 64


class ProjectionFrame:
    """Right-handed integer frame: plane axes u, v and view direction d."""

    __slots__ = ("axis_u", "axis_v", "direction")

    def __init__(self, axis_u: IntPoint, axis_v: IntPoint, direction: IntPoint):
        if _dot(_cross(axis_u, axis_v), direction) <= 0:
            raise ValueError("frame must be right-handed")
        self.axis_u, self.axis_v, self.direction = axis_u, axis_v, direction


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


class LinkDiagram(NamedTuple):
    """A regular diagram: oriented components with ordered passages.

    `passages[c]` lists, in traversal order from component c's basepoint,
    the crossings met along c with an over/under flag; `signs[i]` is the
    sign of crossing i.  Passages and signs are all the audit routes
    read.
    """

    passages: tuple[tuple[Passage, ...], ...]
    signs: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.passages)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)


# ---------------------------------------------------------------------------
# Crossing tables

Edge = tuple[int, int]
# (crossing id, other strand's edge, 1 if this strand passes over else 0,
#  sign with both edges oriented from the smaller vertex to the larger)
EdgePass = tuple[int, Edge, int, int]
# (crossing id, `edge_code` of the other strand's edge from its smaller
#  vertex, over flag, the EdgePass sign times this direction's orientation
#  factor)
Pass = tuple[int, int, int, int]


def edge_code(a: int, b: int) -> int:
    """The integer code of the edge walked from a to b: the Cantor pairing,
    one-to-one on pairs of non-negative integers.  Of an edge's two codes
    the one from its smaller vertex is the larger."""
    s = a + b
    return s * (s + 1) // 2 + b


class CrossingTable:
    """Every crossing of a whole embedded graph at one generic frame.

    It is built from `forward`, where `forward[edge]` lists the
    crossings met along edge (i, j), i < j, walked from i to j: its
    segments in order and each segment's crossings in parameter order;
    the walk from j to i meets them in reverse.  Each crossing is listed
    once under each of its two edges.  Only the layout below is kept.

    `passes[edge_code(a, b)]` lists the same crossings as met walking
    edge {a, b} from a to b, as `Pass`es; codes of no edge list none.
    The constructor lays them out for every table, scanned or built by
    hand.  A walk keeps a pass whose other edge is on the walked cycles,
    and the crossing's sign in their `restrict` is the pass's sign times
    that edge's orientation factor: +1 if walked from its smaller vertex,
    else -1.  `vertices` and `crossings` are one more than the largest
    vertex (or corner) and crossing id.
    """

    __slots__ = ("passes", "vertices", "crossings")

    def __init__(self, forward: dict[Edge, Sequence[EdgePass]]):
        self.vertices = 1 + max((j for _, j in forward), default=-1)
        self.crossings = 1 + max((p[0] for ps in forward.values() for p in ps), default=-1)
        self.passes: list[tuple[Pass, ...]] = [()] * (
            1 + max((edge_code(i, j) for i, j in forward), default=-1)
        )
        for (i, j), edge_passes in forward.items():
            ps = [(gid, edge_code(*other), over, sign) for gid, other, over, sign in edge_passes]
            self.passes[edge_code(i, j)] = tuple(ps)
            self.passes[edge_code(j, i)] = tuple((g, o, v, -s) for g, o, v, s in reversed(ps))

    def restrict(self, cycles: Sequence[tuple[int, ...]]) -> LinkDiagram:
        """The diagram of one cycle or a disjoint pair.

        Each cycle is a vertex tuple, walked from its first vertex in
        tuple order.  Only crossings between edges of the given cycles
        are kept, relabelled by first encounter.  Reversing a strand
        flips its direction in the sign's determinant, so a sign is the
        table's sign times the orientation factor (+1 or -1) of each of
        its two edges.
        """
        passes = self.passes
        walks: list[list[int]] = []
        factor: dict[int, int] = {}
        for vs in cycles:
            codes = []
            for a, b in zip(vs, vs[1:] + vs[:1]):
                t = (a + b) * (a + b + 1) // 2  # edge_code(a, b) - b = edge_code(b, a) - a
                codes.append(t + b)
                if a < b:
                    factor[t + b] = 1
                else:
                    factor[t + a] = -1
            walks.append(codes)
        relabel: dict[int, int] = {}
        signs: list[int] = []
        passages = []
        for codes in walks:
            ps: list[Passage] = []
            for code in codes:
                for gid, other, over, sign in passes[code]:
                    g = factor.get(other)
                    if g is None:
                        continue
                    cid = relabel.get(gid)
                    if cid is None:
                        cid = relabel[gid] = len(signs)
                        signs.append(sign * g)
                    ps.append((cid, over))
            passages.append(tuple(ps))
        return LinkDiagram(tuple(passages), tuple(signs))


def crossing_table(
    points: Sequence[IntPoint],
    seg_a: Sequence[int],
    seg_b: Sequence[int],
    seg_edge: Sequence[Edge],
    frame: ProjectionFrame,
) -> CrossingTable:
    """Scan edge-labelled segments through one frame into a crossing table.

    Segment s runs from corner `seg_a[s]` to corner `seg_b[s]` of
    `points` and lies on edge `seg_edge[s]`; an edge (i, j), i < j,
    lists its segments consecutively, in walk order from i to j.  The
    kernel `scan_segments` raises GenericityFailure at the first check
    that fails, with the condition "intersect-3d" where two segments
    touch in 3-space, which `validate_embedding` rules out for the
    segments of an embedding.  Crossings along a segment are sorted
    exactly; a tie is two crossings at one diagram point, the condition
    "triple-point".
    """
    raw = scan_segments(points, seg_a, seg_b, frame.axis_u, frame.axis_v, frame.direction)

    on_segment: list[list[tuple[Fraction, int]]] = [[] for _ in seg_edge]
    for gid, (si, sj, tn, sn, den, _, _) in enumerate(raw):
        on_segment[si].append((Fraction(tn, den), gid))
        on_segment[sj].append((Fraction(sn, den), gid))
    forward: dict[Edge, list[EdgePass]] = {}
    for s, items in enumerate(on_segment):
        items.sort()
        for (t1, a), (t2, b) in zip(items, items[1:]):
            if t1 == t2:
                raise GenericityFailure("triple-point", (s, a, b))
        passes = forward.setdefault(seg_edge[s], [])
        for _, gid in items:
            si, sj, _, _, _, i_over, sign = raw[gid]
            other, over = (sj, i_over) if si == s else (si, 1 - i_over)
            passes.append((gid, seg_edge[other], over, sign))
    return CrossingTable(forward)


# ---------------------------------------------------------------------------
# The frame policy


def check_frame_budget(verify_frames: int, retry_limit: int) -> None:
    """Raise ValueError unless verify_frames and retry_limit are integers
    of at least 1.

    Every value is reproduced on at least one further accepted frame.
    """
    for name, value in (("verify_frames", verify_frames), ("retry_limit", retry_limit)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


def accepted_tables(
    scan: Callable[[ProjectionFrame], CrossingTable],
    seed,
    verify_frames: int,
    retry_limit: int,
) -> tuple[list[tuple[int, CrossingTable]], dict[str, int], int]:
    """The accepted frames: the first verify_frames + 1 frames of
    `frame_sequence(seed)` at which `scan` succeeds.

    Returns their (frame index, table) pairs, the rejected frames
    counted by condition, and the number of frames tried.  Raises
    GenericityExhausted once `retry_limit` frames have failed in total.
    """
    check_frame_budget(verify_frames, retry_limit)
    tables: list[tuple[int, CrossingTable]] = []
    rejects: dict[str, int] = {}
    failures = 0
    for index, frame in enumerate(frame_sequence(seed)):
        try:
            tables.append((index, scan(frame)))
        except GenericityFailure as exc:
            rejects[exc.condition] = rejects.get(exc.condition, 0) + 1
            failures += 1
            if failures >= retry_limit:
                raise GenericityExhausted(failures, exc) from exc
            continue
        if len(tables) > verify_frames:
            return tables, rejects, index + 1


class GraphProjection:
    """An embedding's whole-graph crossing tables at its accepted frames.

    `tables` lists (frame index, table) as `accepted_tables` gives them
    for the graph scanned whole; `rejects` and `frames_tried` count the
    frames it looked at.  GenericityExhausted is raised here, once per
    embedding, when the whole graph exhausts the retry budget.  The
    scanned segments are the consecutive corners of each edge's chain
    in `e.corners`, edges in sorted order.
    """

    def __init__(self, e: SpatialEmbedding, seed, verify_frames: int, retry_limit: int):
        points, chains = e.corners
        seg_edge, seg_a, seg_b = zip(
            *((edge, a, b) for edge, chain in chains.items() for a, b in zip(chain, chain[1:]))
        )
        self.tables, self.rejects, self.frames_tried = accepted_tables(
            partial(crossing_table, points, seg_a, seg_b, seg_edge),
            seed, verify_frames, retry_limit,
        )
