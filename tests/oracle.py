"""The tests' reference: the Conway skein oracle, the whole Alexander
polynomial, the two-arrow calibration and the validity certificate.

None of this ships in the package.  The skein oracle
(`conway_skein_oracle`) computes the full Conway polynomial by
crossing-switch/smoothing recursion down to descending diagrams.  It is
exponential in the crossing number, so the audit does not run it; the
tests use it to anchor both audit routes and to calibrate the two-arrow
count that `knotcensus.invariants._a2` hard-codes.  `project` gives it
diagrams of loose curves at one frame.

`alexander_polynomial` is the whole Alexander polynomial Delta(t) of a
knot diagram: the same Fox-calculus minor that the package's audit
(`knotcensus.invariants.fox_a2`) expands at t = 1 + eps, taken instead
as one integer determinant at t = 2^(2n) for n crossings (Kronecker
substitution) by fraction-free Bareiss elimination (`_determinant`),
and read back as balanced base-2^(2n) digits (`_balanced_digits`).
Every coefficient of every minor is at most 4^(n-1) in absolute value,
so the digits are exact; Delta(1) = +-1, the symmetry of Delta and
every division are checked.  `alexander_a2` reads a2 = Delta''(1)/2 off
it, the reference the tests hold `fox_a2` to.

`curve_invariant` is the own-scan route: one cycle's or pair's points
scanned on their own, under their own frame search (`accepted_tables`).
The package's `invariant` command took it before it read the whole
graph's frames; the tests hold the whole-graph values to it.
`cycle_points_scaled` (through `edge_polyline`) lists a cycle's points
in the scaled integer model, `curve_walks` numbers the corners of one
or two closed polygons and `curve_table` scans them; `cycle_curve`
gives a cycle's points as exact rationals.

`cycle_invariant` is the per-record route the package read every value
by before `knotcensus.invariants.shard_values`: it codes one subject's
walk (`coded_walk`: its directed edge codes and each edge's orientation
factor in a dict), lists the Gauss arrows of a knot at each table
(`arrows`) and counts them by `_a2`, the calibrated pattern, or sums a
pair's signed mutual crossings (`linking_total`).  The tests hold the
loop to it.  `class_summary_of` folds its records into a `ClassSummary`, and
`diagram_table` lays any knot's Gauss code, realizable or virtual, out
as a crossing table the loop can read.

`reference_certificate` is the validity certificate with the general
3-space intersector `segment_intersection` as its last check: it
computes where two segments meet and refuses any point but a shared
corner.  The package decides that check by a strict crossing test that
is exact only after the earlier checks; the tests hold it to this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from collections import Counter

from knotcensus.errors import GenericityFailure, InvariantContractError, KnotCensusError
from knotcensus.geometry import (
    EmbeddingCertificate,
    IntPoint,
    Point,
    SpatialEmbedding,
    _cross,
    _dot,
    _is_zero,
    _strictly_inside,
    _sub,
    collinear,
)
from knotcensus.invariants import (
    AUDIT_CROSSING_LIMIT,
    fox_a2,
    one_sided_linking_number,
    shard_values,
)
from knotcensus.projection import (
    FRAME_RETRY_LIMIT,
    CrossingTable,
    Edge,
    LinkDiagram,
    Passage,
    ProjectionFrame,
    accepted_tables,
    crossing_table,
)
from knotcensus import theorems
from knotcensus.theorems import ClassSummary

ORACLE_CROSSING_LIMIT = 20

Arrow = tuple[int, int, int]  # (over position, under position, sign)
# (a cycle's directed edge codes in walk order, each edge's orientation
#  factor by its code from the smaller vertex: +1 if walked from there, else -1)
Walk = tuple[list[int], dict[int, int]]
Walks = tuple[tuple[int, ...], ...]  # one or two cycles' vertex (or corner) tuples


class OracleLimitExceeded(KnotCensusError):
    """The skein-recursion oracle refused a diagram above its crossing cap."""


# ---------------------------------------------------------------------------
# The own-scan route: one cycle's or pair's points under their own frames


def edge_polyline(e: SpatialEmbedding, i: int, j: int) -> tuple[IntPoint, ...]:
    """Scaled points of edge i->j including both endpoints, oriented i->j."""
    points, chains = e.corners
    chain = chains[(i, j)] if i < j else chains[(j, i)][::-1]
    return tuple(points[c] for c in chain)


def cycle_points_scaled(e: SpatialEmbedding, vs: tuple[int, ...]) -> tuple[IntPoint, ...]:
    """Closed polygon of the cycle `vs` in the scaled integer model.

    Consecutive vertices contribute their edge polylines; the final
    point of each edge is dropped since the next edge repeats it, so
    the polygon closes implicitly from the last point to the first.
    """
    pts: list[IntPoint] = []
    for a, b in zip(vs, vs[1:] + vs[:1]):
        pts.extend(edge_polyline(e, a, b)[:-1])
    return tuple(pts)


def cycle_curve(e: SpatialEmbedding, vs: tuple[int, ...]) -> tuple[Point, ...]:
    """Closed polygon of the cycle `vs` as exact rational points."""
    s = Fraction(e.scale)
    return tuple(
        (Fraction(x) / s, Fraction(y) / s, Fraction(z) / s)
        for x, y, z in cycle_points_scaled(e, vs)
    )


def curve_walks(curves: Sequence[tuple[IntPoint, ...]]) -> Walks:
    """The walks of one or two closed polygons in their `curve_table`.

    Corners are numbered through the curves in order, so a curve's walk
    is its run of corner numbers.
    """
    if not 1 <= len(curves) <= 2:
        raise ValueError("expected one or two closed curves")
    walks = []
    start = 0
    for curve in curves:
        if len(curve) < 3:
            raise ValueError("a closed polygon needs at least 3 points")
        walks.append(tuple(range(start, start + len(curve))))
        start += len(curve)
    return tuple(walks)


def curve_table(curves: Sequence[tuple[IntPoint, ...]], frame: ProjectionFrame) -> CrossingTable:
    """The crossing table of one or two closed polygons.

    Each segment is its own edge, named by its two corners (numbered as
    in `curve_walks`); the closing one is walked backwards.  Raises
    GenericityFailure when the frame is not generic for these curves,
    and ValueError if the curves actually touch in 3-space.
    """
    points = [p for curve in curves for p in curve]
    seg_edge: list[Edge] = []
    for walk in curve_walks(curves):
        seg_edge += zip(walk, walk[1:])
        seg_edge.append((walk[0], walk[-1]))
    seg_a, seg_b = zip(*seg_edge)
    try:
        return crossing_table(points, seg_a, seg_b, seg_edge, frame)
    except GenericityFailure as exc:
        if exc.condition == "intersect-3d":
            raise ValueError(f"curves intersect in 3-space near segments {exc.detail}") from None
        raise


def curve_invariant(
    curves: Sequence[tuple[IntPoint, ...]],
    seed,
    verify_frames: int = 1,
    retry_limit: int = FRAME_RETRY_LIMIT,
    audit: bool = False,
) -> tuple[int, int, int, bool]:
    """(value, crossing count, frame index, audited) of loose curves.

    One closed polygon gives its a2, two give their lk, read by
    `shard_values` at the accepted frames of the curves' own scan; the
    crossing count and frame index are the first accepted frame's.
    """
    walks = curve_walks(curves)
    tables, _, _ = accepted_tables(partial(curve_table, curves), seed, verify_frames, retry_limit)
    memo = {} if audit else None
    (value,), audited = shard_values(tables, [walks[0] if len(walks) == 1 else walks], memo)
    index, first = tables[0]
    return value, first.restrict(walks).crossing_count, index, bool(audited[0])


def project(curves: Sequence[tuple[IntPoint, ...]], frame: ProjectionFrame) -> LinkDiagram:
    """Project closed integer polygons through a frame to a diagram.

    Raises GenericityFailure when the frame is not generic for these
    curves, and ValueError if the curves actually touch in 3-space.
    """
    return curve_table(curves, frame).restrict(curve_walks(curves))


# ---------------------------------------------------------------------------
# Conway polynomial


class ConwayPolynomial(NamedTuple):
    """Polynomial in z with integer coefficients, constant term first."""

    coefficients: tuple[int, ...]

    def coefficient(self, k: int) -> int:
        return self.coefficients[k] if 0 <= k < len(self.coefficients) else 0

    @property
    def a1(self) -> int:
        return self.coefficient(1)

    @property
    def a2(self) -> int:
        return self.coefficient(2)

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c:
                terms.append(f"{c}" if k == 0 else f"{c}*z^{k}")
        return " + ".join(terms) if terms else "0"


def _poly_trim(cs: list[int]) -> tuple[int, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...], bsign: int) -> tuple[int, ...]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += bsign * c
    return _poly_trim(out)


def _poly_shift(a: tuple[int, ...]) -> tuple[int, ...]:
    return (0,) + a if a else ()


Comps = tuple[tuple[Passage, ...], ...]


def _canonical_code(comps: Comps, signs: dict[int, int]):
    """Relabel crossings by first encounter so equal diagrams share a key."""
    relabel: dict[int, int] = {}
    for ps in comps:
        for cid, _ in ps:
            if cid not in relabel:
                relabel[cid] = len(relabel)
    code = tuple(tuple((relabel[c], o) for c, o in ps) for ps in comps)
    sgn = tuple(s for _, s in sorted((relabel[c], s) for c, s in signs.items()))
    return (code, sgn)


def _first_ascending(comps: Comps):
    """First crossing met on its under-strand before its over-strand."""
    seen: set[int] = set()
    for ci, ps in enumerate(comps):
        for pi, (cid, over) in enumerate(ps):
            if cid in seen:
                continue
            seen.add(cid)
            if not over:
                return ci, pi, cid
    return None


def _locate(comps: Comps, cid: int) -> list[tuple[int, int]]:
    return [
        (ci, pi)
        for ci, ps in enumerate(comps)
        for pi, (c, _) in enumerate(ps)
        if c == cid
    ]


def _switch(comps: Comps, cid: int) -> Comps:
    return tuple(
        tuple((c, (1 - o) if c == cid else o) for c, o in ps) for ps in comps
    )


def _smooth(comps: Comps, cid: int) -> Comps:
    """Orientation-respecting smoothing: split one component or merge two."""
    (ci, pi), (cj, pj) = _locate(comps, cid)
    if ci == cj:
        ps = comps[ci]
        first = ps[pi + 1 : pj]
        second = ps[pj + 1 :] + ps[:pi]
        return comps[:ci] + (first, second) + comps[ci + 1 :]
    x, y = comps[ci], comps[cj]
    merged = x[:pi] + y[pj + 1 :] + y[:pj] + x[pi + 1 :]
    out = list(comps)
    out[ci] = merged
    del out[cj]
    return tuple(out)


def _conway(comps: Comps, signs: dict[int, int], memo: dict) -> tuple[int, ...]:
    key = _canonical_code(comps, signs)
    hit = memo.get(key)
    if hit is not None:
        return hit
    bad = _first_ascending(comps)
    if bad is None:
        # Descending diagram: an unknot, or a split unlink if several
        # components remain.
        value = (1,) if len(comps) == 1 else ()
    else:
        _, _, cid = bad
        eps = signs[cid]
        switched = _switch(comps, cid)
        sw_signs = dict(signs)
        sw_signs[cid] = -eps
        smoothed = _smooth(comps, cid)
        sm_signs = {c: s for c, s in signs.items() if c != cid}
        a = _conway(switched, sw_signs, memo)
        b = _poly_shift(_conway(smoothed, sm_signs, memo))
        value = _poly_add(a, b, eps)
    memo[key] = value
    return value


def conway_skein_oracle(
    d: LinkDiagram, limit: int = ORACLE_CROSSING_LIMIT
) -> ConwayPolynomial:
    """Full Conway polynomial of a diagram by skein recursion.

    Deliberately the slow, independent route: switch the first crossing
    met under-first (a step toward a descending diagram) and smooth it
    (one crossing fewer), recursing on both.  Intended for diagrams of
    at most `limit` crossings.  Subdiagrams are memoized on canonical
    codes for the length of one call only.
    """
    if d.crossing_count > limit:
        raise OracleLimitExceeded(
            f"{d.crossing_count} crossings exceeds oracle limit {limit}"
        )
    counts: dict[int, int] = {}
    for ps in d.passages:
        for cid, _ in ps:
            counts[cid] = counts.get(cid, 0) + 1
    if any(c != 2 for c in counts.values()) or len(counts) != d.crossing_count:
        raise ValueError("every crossing must be passed exactly twice")
    signs = {cid: d.signs[cid] for cid in range(d.crossing_count)}
    return ConwayPolynomial(_conway(d.passages, signs, {}))


# ---------------------------------------------------------------------------
# Alexander polynomial


def _determinant(m: list[list[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination.

    Each updated entry is a minor of the row-swapped input (Sylvester's
    identity), so each division by the previous pivot is exact, and a
    remainder raises InvariantContractError; rows are swapped when a
    pivot is zero.  `m` is overwritten.
    """
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1 :]:
            mik = row[k]
            for j in range(k + 1, n):
                row[j], rem = divmod(row[j] * pivot - mik * top[j], prev)
                if rem:
                    raise InvariantContractError(
                        f"Bareiss step {k} leaves remainder {rem} modulo {prev}"
                    )
        prev = pivot
    return sign * m[-1][-1]


def _balanced_digits(value: int, bits: int) -> list[int]:
    """Base-2**bits digits of `value`, lowest first, each in (-base/2, base/2]."""
    base = 1 << bits
    mask, half = base - 1, base >> 1
    digits = []
    while value:
        digit = value & mask
        if digit > half:
            digit -= base
        digits.append(digit)
        value = (value - digit) >> bits
    return digits


def alexander_polynomial(d: LinkDiagram) -> tuple[int, ...]:
    """Alexander polynomial of a knot diagram, constant term first.

    Arc m runs from the m-th under-passage of the traversal to the next
    one.  Crossing c, with over-arc k, incoming under-arc i and outgoing
    under-arc j, gives the Fox-calculus row (1-t) x_k + t x_i - x_j if
    positive and (1-t) x_k + t x_j - x_i if negative.  The determinant
    without the last row and column is Delta(t) up to a unit +-t^m; the
    result is shifted to start at t^0 and signed so Delta(1) = 1.
    Raises InvariantContractError if that is not a knot's Alexander
    polynomial: Delta(1) is not +-1, or Delta is not symmetric.

    The determinant is one integer determinant at t = T = 2^(2n), for n
    crossings (Kronecker substitution), read back as balanced base-T
    digits.  This is exact.  Each row's coefficients have absolute sum
    at most 4, so the coefficients of a k-minor, a sum over permutations
    of products of one entry per row, have absolute sum at most 4^k;
    with k <= n - 1 that is at most T/4.  A polynomial whose
    coefficients are below T/2 in absolute value is the only one with
    its value at T, so the digits decode uniquely, and it is 0 at T only
    if it is the zero polynomial.  Evaluation at T is a ring
    homomorphism, so every Bareiss entry is the corresponding Z[t] minor
    at T: pivots vanish, rows swap and divisions are exact exactly as
    they would over Z[t].
    """
    if d.component_count != 1:
        raise ValueError("the Alexander polynomial needs a one-component diagram")
    n = d.crossing_count
    (passages,) = d.passages
    if sorted(passages) != [(c, o) for c in range(n) for o in (0, 1)]:
        raise ValueError("every crossing must be passed once over and once under")
    if n == 0:
        return (1,)
    over_arc, arc_in, arc_out = [0] * n, [0] * n, [0] * n
    arc, starts = n - 1, 0
    for cid, over in passages:
        if over:
            over_arc[cid] = arc
        else:
            arc_in[cid], arc_out[cid] = arc, starts
            arc, starts = starts, starts + 1
    bits = 2 * n
    t = 1 << bits
    rows = []
    for cid in range(n - 1):
        row = [0] * n
        i, j = (arc_in[cid], arc_out[cid]) if d.signs[cid] > 0 else (arc_out[cid], arc_in[cid])
        row[over_arc[cid]] += 1 - t
        row[i] += t
        row[j] -= 1
        rows.append(row[: n - 1])
    det = _balanced_digits(_determinant(rows), bits)
    while det and det[0] == 0:
        det.pop(0)
    at_one = sum(det)
    if at_one not in (1, -1):
        raise InvariantContractError(f"Delta(1) = {at_one}, not +-1")
    det = [at_one * c for c in det]
    if det != det[::-1]:
        raise InvariantContractError(f"Alexander polynomial {det} is not symmetric")
    return tuple(det)


def alexander_a2(d: LinkDiagram) -> int:
    """Second Conway coefficient of a knot diagram, Delta''(1)/2.

    With Delta(t) = sum d_i t^i symmetric of degree D and t = e^{2u},
    z^2 = 4u^2 + O(u^4) and the u^2 coefficient gives
    a2 = sum (2i - D)^2 d_i / 8.
    """
    delta = alexander_polynomial(d)
    deg = len(delta) - 1
    total = sum((2 * i - deg) ** 2 * c for i, c in enumerate(delta))
    if total % 8:
        raise InvariantContractError(f"{total} / 8 from {delta} is not an integer")
    return total // 8


# ---------------------------------------------------------------------------
# Calibration of the two-arrow count

# A two-arrow pattern is (first_over, second_over): an interleaved arrow
# pair contributes when the earlier-starting arrow is first met on its
# over (resp. under) strand per first_over, and likewise for the later
# one; contributions are products of crossing signs, scaled by a sign.
# Calibration against the skein oracle leaves exactly the two mirror-dual
# patterns ((True, False), +1) and ((False, True), +1); the package's
# `_a2` hard-codes the first.
A2_PATTERN = (True, False)
A2_SIGN = 1

_ALL_PATTERNS = [
    ((f, s), g) for f in (False, True) for s in (False, True) for g in (1, -1)
]


def _a2_with_pattern(
    arrows: Sequence[Arrow], pattern: tuple[bool, bool], sign: int
) -> int:
    """The two-arrow count of `arrows` in one pattern, times `sign`.

    Each arrow is taken as a span (start, end, sign); `firsts` holds
    those whose first passage the pattern asks of the earlier-starting
    arrow, `seconds` those it asks of the later one.
    """
    firsts, seconds = [], []
    for o, u, s in arrows:
        first_over = o < u
        span = (o, u, s) if first_over else (u, o, s)
        if first_over == pattern[0]:
            firsts.append(span)
        if first_over == pattern[1]:
            seconds.append(span)
    total = 0
    for a1, a2, si in firsts:
        for b1, b2, sj in seconds:
            # arrows interleave with the first one starting first
            if a1 < b1 < a2 < b2:
                total += si * sj
    return sign * total


def _knot_arrows(d: LinkDiagram) -> list[Arrow]:
    """The Gauss arrows of a knot diagram, as `arrows` gives them,
    listed by crossing."""
    if d.component_count != 1:
        raise ValueError("gauss arrows need a knot diagram (one component)")
    over_pos: dict[int, int] = {}
    under_pos: dict[int, int] = {}
    for pos, (cid, over) in enumerate(d.passages[0]):
        (over_pos if over else under_pos)[cid] = pos
    if set(over_pos) != set(under_pos):
        raise ValueError("every crossing must be passed once over and once under")
    return [(over_pos[c], under_pos[c], d.signs[c]) for c in sorted(over_pos)]


def calibrate_a2_patterns(
    samples: Iterable[tuple[LinkDiagram, int]]
) -> list[tuple[tuple[bool, bool], int]]:
    """All two-arrow patterns reproducing the expected a2 on every knot diagram."""
    survivors = list(_ALL_PATTERNS)
    for d, expected in samples:
        arrows = _knot_arrows(d)
        survivors = [
            (p, s) for p, s in survivors if _a2_with_pattern(arrows, p, s) == expected
        ]
        if not survivors:
            break
    return survivors


# ---------------------------------------------------------------------------
# Embedding validity


def segment_intersection(p1: IntPoint, p2: IntPoint, p3: IntPoint, p4: IntPoint):
    """Exact intersection of closed 3-space segments [p1,p2] and [p3,p4].

    Returns one of:
      ("empty",)
      ("point", (xn, yn, zn), den)   a single point, coordinates xn/den ...
    Raises ValueError for a degenerate segment or a collinear overlap of
    positive length; `reference_certificate` reports either one earlier,
    as coincident points or a corner on a segment, and never passes it here.
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
    if lo < hi:
        raise ValueError("collinear segments overlap")
    pt = tuple(p1[i] * dd + lo * d1[i] for i in range(3))
    return ("point", pt, dd)


def reference_certificate(e: SpatialEmbedding) -> EmbeddingCertificate:
    """`validate_embedding`'s certificate, its segment pairs decided by
    `segment_intersection` and a shared-corner test."""
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
        hit = segment_intersection(points[a1], points[b1], points[a2], points[b2])
        if hit[0] == "empty":
            continue
        # A single-point intersection is legal only at a shared corner
        # (common vertex, or the waypoint joining consecutive segments of
        # one polyline edge).
        shared = {a1, b1} & {a2, b2}
        _, pt, den = hit
        if not shared or pt != tuple(x * den for x in points[shared.pop()]):
            return EmbeddingCertificate(False, "segments-intersect", ((e1, k1), (e2, k2)))
    return EmbeddingCertificate(True)


# ---------------------------------------------------------------------------
# The per-record route


def coded_walk(vs: tuple[int, ...]) -> Walk:
    """The `Walk` of cycle `vs`, from its first vertex along its order."""
    codes = []
    factor = {}
    for a, b in zip(vs, vs[1:] + vs[:1]):
        t = (a + b) * (a + b + 1) // 2  # edge_code(a, b) - b = edge_code(b, a) - a
        codes.append(t + b)
        if a < b:
            factor[t + b] = 1
        else:
            factor[t + a] = -1
    return codes, factor


def arrows(table: CrossingTable, walk: Walk) -> list[Arrow]:
    """The Gauss-diagram arrows of one cycle's walk, without a diagram.

    Arrow i is (over position, under position, sign): the two walk
    positions (in 0..2c-1 for c kept crossings) at which a crossing
    is passed over and under, and its sign in the cycle's
    `restrict`, whose walk this is.  Arrows are listed by second
    encounter.  Raises ValueError unless every kept crossing is
    passed once over and once under.
    """
    passes = table.passes
    codes, factor = walk
    opened: dict[int, tuple[int, int, int]] = {}
    out: list[Arrow] = []
    pos = 0
    for code in codes:
        for gid, other, over, sign in passes[code]:
            if other not in factor:
                continue
            first = opened.pop(gid, None)
            if first is None:
                opened[gid] = (pos, over, sign * factor[other])
            elif first[1] == over:
                raise ValueError("every crossing must be passed once over and once under")
            else:
                out.append((pos, first[0], first[2]) if over else (first[0], pos, first[2]))
            pos += 1
    if opened:
        raise ValueError("every crossing must be passed once over and once under")
    return out


def linking_total(table: CrossingTable, a: Walk, b: Walk) -> int:
    """Signed mutual-crossing total of a disjoint cycle pair's walks.

    Twice lk of the pair's `restrict`: walking `a`'s edges, each
    crossing with an edge of `b` adds its sign in that diagram.
    Each such crossing is listed once under its edge on `a`, so it
    is counted once.
    """
    passes = table.passes
    factor = b[1]
    total = 0
    for code in a[0]:
        for _, other, _, sign in passes[code]:
            g = factor.get(other)
            if g is not None:
                total += sign * g
    return total


def _a2(arrows: Sequence[Arrow]) -> int:
    """The calibrated two-arrow count of a knot's Gauss arrows: its a2.

    Each arrow is taken as a span (start, end, sign).  An interleaved
    pair of spans a1 < b1 < a2 < b2 adds the product of its signs when
    the earlier-starting arrow is first passed over and the later one
    first passed under; the total is taken with sign +1.  Of the eight
    (pattern, sign) choices only this one and its mirror dual give the
    skein oracle's a2 on every calibration diagram.
    """
    firsts, seconds = [], []
    for o, u, s in arrows:
        if o < u:
            firsts.append((o, u, s))
        else:
            seconds.append((u, o, s))
    total = 0
    for a1, a2, si in firsts:
        for b1, b2, sj in seconds:
            if a1 < b1 < a2 < b2:
                total += si * sj
    return total


def _audit_knot(d: LinkDiagram, value: int) -> None:
    expected = fox_a2(d)
    if expected != value:
        raise InvariantContractError(f"gauss-formula a2 {value} != Alexander a2 {expected}")


def _audit_link(d: LinkDiagram, value: int) -> None:
    expected = one_sided_linking_number(d)
    if expected != value:
        raise InvariantContractError(f"linking number {value} != one-sided count {expected}")


def cycle_invariant(
    tables: Sequence[tuple[int, CrossingTable]], walks: Walks, audit: bool = False
) -> tuple[int, bool]:
    """(value, audited) of one walk or a disjoint pair.

    `walks` is one cycle's walk (a2) or two disjoint ones (lk) in the
    accepted `tables`, (frame index, table) pairs from
    `accepted_tables`.  Each walk is coded once (`coded_walk`) and read
    at every table: a2 is the calibrated two-arrow count (`_a2`) of the
    table's arrows, lk half the signed mutual-crossing
    total, which must be even.  With `audit`, the diagram is restricted
    from the first table and, if it has at most AUDIT_CROSSING_LIMIT
    crossings, its value is checked by the independent route, run
    afresh for every subject (`_audit_knot`, `_audit_link`).  Every
    further table must give the first table's value, or
    InvariantContractError is raised.
    """
    knot = len(walks) == 1
    coded = list(map(coded_walk, walks))
    first_index = tables[0][0]
    audited = False
    for index, table in tables:
        if knot:
            v = _a2(arrows(table, coded[0]))
        else:
            total = linking_total(table, *coded)
            if total % 2:
                raise InvariantContractError("odd signed mutual-crossing total")
            v = total // 2
        if index == first_index:
            value = v
            if audit:
                d = table.restrict(walks)
                audited = d.crossing_count <= AUDIT_CROSSING_LIMIT
                if audited:
                    (_audit_knot if knot else _audit_link)(d, value)
        elif v != value:
            raise InvariantContractError(
                f"frame {index} disagrees: {v} != {value} (frame {first_index})"
            )
    return value, audited


def _subject_invariant(tables, audit: bool, subject: tuple) -> tuple[int, bool]:
    """`cycle_invariant` of a record subject: a cycle or a pair of cycles."""
    return cycle_invariant(tables, (subject,) if type(subject[0]) is int else subject, audit)


def class_summary_of(records) -> ClassSummary:
    """Fold a class's records, in canonical order, into its summary."""
    nonzero = [r for r in records if r.value]
    positive = [r for r in nonzero if r.value > 0]
    cap = theorems.WITNESS_CAP
    return ClassSummary(dict(Counter(r.value for r in records)), sum(r.audited for r in records),
                        *(tuple(r[:2] for r in rs[:cap]) for rs in (nonzero, positive)))


def diagram_table(d: LinkDiagram) -> tuple[CrossingTable, tuple[int, ...]]:
    """A crossing table and a cycle whose walk passes `d`'s crossings in
    order: the cycle (0, 1, ..., m - 1), at least a triangle, with the
    k-th passage of the knot diagram `d` on its k-th edge.

    Any Gauss code works, virtual ones too: each crossing is listed
    under the edges of its two passages, with the sign that makes its
    sign in the cycle's `restrict` the diagram's.
    """
    (passages,) = d.passages
    m = max(len(passages), 3)
    walked = [(k, (k + 1) % m) for k in range(m)]
    factor = [1 if a < b else -1 for a, b in walked]
    on: dict[int, list[int]] = {}
    for k, (cid, _) in enumerate(passages):
        on.setdefault(cid, []).append(k)
    forward: dict = {tuple(sorted(e)): [] for e in walked}
    for k, (cid, over) in enumerate(passages):
        (other,) = [j for j in on[cid] if j != k]
        sign = d.signs[cid] * factor[k] * factor[other]
        forward[tuple(sorted(walked[k]))].append((cid, tuple(sorted(walked[other])), int(over), sign))
    return CrossingTable(forward), tuple(range(m))
