"""Knot and link invariants computed exactly from certified diagrams.

Every value has a fast path and, with auditing on, an independent check
of that value on the first accepted diagram of at most
`AUDIT_CROSSING_LIMIT` (12) crossings:

* knots: the second Conway coefficient a2 by a two-arrow Gauss-diagram
  count (quadratic in the crossing number), checked against
  a2 = Delta''(1)/2, since Delta(t) = Nabla(t^1/2 - t^-1/2).  Delta(t)
  is a minor of the Fox-calculus matrix of the Wirtinger presentation;
  `fox_a2` expands it at t = 1 + eps to third order, from the traces of
  the first three powers of one small-integer matrix (also quadratic in
  the crossing number);
* links: the linking number as half the signed count of all mutual
  crossings, checked against the one-sided count of the crossings where
  the first component passes over the second.

A disagreement is an engine defect, raised as InvariantContractError.

Both fast paths read a crossing table, never a diagram.  One loop
(`cycle_invariant`) reads every value: it codes a record's walk once
(`projection.coded_walk`: its directed edge codes in walk order and
each edge's orientation factor) and reads that walk at every accepted
table of `projection.accepted_tables`, the one frame policy.  At each
table a knot's value is the two-arrow count of the table's Gauss arrows
(`CrossingTable.arrows`), a link's half the signed crossings met along
one cycle's edges with the other's (`CrossingTable.linking_total`).
An embedding's cycles are read at the frames where its whole graph is
generic, loose curves (`curve_invariant`) at the frames where the
curves' own scan is.  A `LinkDiagram` is restricted from the first
table only to be audited, or for the crossing count that
`curve_invariant` reports.

The two-arrow pattern `_a2` counts was calibrated against a Conway
skein oracle; that oracle, exponential in the crossing number, and the
whole Alexander polynomial that `fox_a2` is held to are the test
suite's reference and are not part of the package.
"""

from __future__ import annotations

from functools import partial
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InvariantContractError
from .geometry import IntPoint
from .projection import (
    FRAME_RETRY_LIMIT,
    Arrow,
    CrossingTable,
    LinkDiagram,
    Walks,
    accepted_tables,
    coded_walk,
    curve_table,
    curve_walks,
)

AUDIT_CROSSING_LIMIT = 12


# ---------------------------------------------------------------------------
# Second Conway coefficient from the Gauss diagram


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


# ---------------------------------------------------------------------------
# Audit routes: the Fox minor at t = 1 + eps and the one-sided linking number


def fox_a2(d: LinkDiagram) -> int:
    """Second Conway coefficient of a knot diagram, Delta''(1)/2, from
    the Fox-calculus minor of its Wirtinger presentation at t = 1 + eps.

    Arc m runs from the m-th under-passage of the traversal to the next
    one.  Crossing c, with over-arc k, incoming under-arc i and outgoing
    under-arc j, gives the Fox row (1-t) x_k + t x_i - x_j if positive
    and (1-t) x_k + t x_j - x_i if negative; the minor drops crossing
    n-1's row and arc n-1's column.  At t = 1 + eps the row is
    M0 + eps M1, with M0 = s_c (e_i - e_j) and M1 = +1 at the arc that
    carries t and -1 at the over-arc.  M0 is the incidence matrix of the
    path of under-arcs, so det M0 = +-1, and each row of M0^-1 R is its
    neighbour's row plus or minus a row of R: one walk both ways from
    arc n-1 (a zero row) to the dropped crossing.  Two walks give
    X = M0^-1 M1 and X^2 = M0^-1 (M1 X), whose right-hand row c is
    X[carry] - X[over]; then tr X^3 is the sum over b of row b of X^2
    times column b of X.  That is O(n^2) small-integer steps.

    The minor is +-t^m Delta(t) with Delta symmetric and Delta(1) = 1,
    so Delta'(1) = 0 and Delta'''(1) = -3 Delta''(1).  Matching
    det(I + eps X) against (1 + eps)^m Delta(1 + eps) term by term, with
    p_k = tr X^k, gives m = p1, a2 = (p1 - p2)/2 and, at eps^3,
    p1^3 - 3 p1 p2 + 2 p3 = m(m-1)(m-2) + 6(m-1) a2.  A diagram that
    breaks this last identity is no knot's (a virtual Gauss code, say):
    InvariantContractError.  The check is narrower than the symmetry of
    the whole polynomial.  Raises ValueError for a diagram of more than
    one component, or a crossing not passed once over and once under.
    """
    if d.component_count != 1:
        raise ValueError("the Alexander polynomial needs a one-component diagram")
    n = d.crossing_count
    (passages,) = d.passages
    if sorted(passages) != [(c, o) for c in range(n) for o in (0, 1)]:
        raise ValueError("every crossing must be passed once over and once under")
    # Under-passage k joins arc k - 1 to arc k; arc -1 is arc n - 1,
    # whose row of X and X^2 is the zero row at index n - 1.
    over_arc, under = [0] * n, []
    for cid, over in passages:
        if over:
            over_arc[cid] = len(under) - 1
        else:
            under.append(cid)
    # The walk from arc n - 1 both ways to the dropped crossing: row dst
    # is row src plus f times row c of the right-hand side, one step per
    # kept crossing c, with its carry arc and over-arc.
    drop = under.index(n - 1) if n else 0
    steps = []
    for k in [*range(drop), *range(n - 1, drop, -1)]:
        s = d.signs[under[k]]
        dst, src, f = (k, k - 1, -s) if k < drop else (k - 1, k, s)
        steps.append((dst, src, f, k - (s > 0), over_arc[under[k]]))
    # X = M0^-1 M1.  Column n - 1 stands for the dropped column: no kept
    # column reads it, and row n - 1 is zero, so no trace does either.
    # Rows are replaced, never changed in place, so they may share `zero`.
    zero = [0] * n
    x = [zero] * n
    for dst, src, f, carry, over in steps:
        row = x[src][:]
        row[carry] += f
        row[over] -= f
        x[dst] = row
    # X^2 = M0^-1 (M1 X), and row c of M1 X is X[carry] - X[over].
    x2 = [zero] * n
    for dst, src, f, carry, over in steps:
        x2[dst] = [a + f * (b - c) for a, b, c in zip(x2[src], x[carry], x[over])]
    # m = p1 = tr X, p2 = tr X^2 and p3 = tr X^3.
    m = p2 = p3 = 0
    for i, (row, row2, column) in enumerate(zip(x, x2, zip(*x))):
        m += row[i]
        p2 += row2[i]
        p3 += sum(map(mul, row2, column))
    a2 = (m - p2) // 2
    if m**3 - 3 * m * p2 + 2 * p3 != m * (m - 1) * (m - 2) + 6 * (m - 1) * a2:
        raise InvariantContractError(f"Fox minor traces {(m, p2, p3)} break the symmetry of Delta")
    return a2


def one_sided_linking_number(d: LinkDiagram) -> int:
    """Signed count of the crossings where component 0 passes over 1."""
    if d.component_count != 2:
        raise ValueError("linking number needs a two-component diagram")
    first, second = d.passages
    over_first = {cid for cid, over in first if over}
    under_second = {cid for cid, over in second if not over}
    return sum(d.signs[cid] for cid in over_first & under_second)


# ---------------------------------------------------------------------------
# Stick-number consequences


def stick_bound_a2(n: int) -> int:
    """Largest second Conway coefficient an n-stick polygon can carry."""
    if n < 6:
        raise ValueError("bound defined for n >= 6")
    return (n - 3) ** 2 * (n - 4) ** 2 // 32


def classify_triangle_triangle(lk_value: int, rectilinear: bool) -> str:
    """Classify a triangle-triangle pair by linking number.

    Six-stick pairs in a straight-edge embedding are trivial or Hopf, so
    |lk| >= 2 under the rectilinear flag is impossible and is reported as
    "other" for the caller to surface as a contract violation.
    """
    if lk_value == 0:
        return "trivial"
    if abs(lk_value) == 1:
        return "hopf"
    return "other" if rectilinear else "nontrivial"


# ---------------------------------------------------------------------------
# Frame-verified invariant records


class InvariantRecord(NamedTuple):
    """One cycle's (or pair's) invariant and whether it was audited.

    `value` was read at the first of the embedding's accepted frames
    (the first verify_frames + 1 frames at which its whole graph is
    generic, listed once in `EmbeddingAnalysis.stats["graph_frames"]`)
    and reproduced identically at the others.  `audited` marks diagrams
    of at most AUDIT_CROSSING_LIMIT crossings at that first frame, whose
    value the independent audit route then also gave: for a knot, a2 of
    the Fox minor at t = 1 + eps (`fox_a2`), for a link the one-sided
    crossing count.
    """

    subject: tuple
    value: int
    audited: bool


def _audit_knot(d: LinkDiagram, value: int) -> None:
    expected = fox_a2(d)
    if expected != value:
        raise InvariantContractError(
            f"gauss-formula a2 {value} != Alexander a2 {expected}"
        )


def _audit_link(d: LinkDiagram, value: int) -> None:
    expected = one_sided_linking_number(d)
    if expected != value:
        raise InvariantContractError(
            f"linking number {value} != one-sided count {expected}"
        )


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
    crossings, its value is checked by the independent route.  Every
    further table must give the first table's value, or
    InvariantContractError is raised.
    """
    knot = len(walks) == 1
    coded = list(map(coded_walk, walks))
    first_index = tables[0][0]
    audited = False
    for index, table in tables:
        if knot:
            v = _a2(table.arrows(coded[0]))
        else:
            total = table.linking_total(*coded)
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


def curve_invariant(
    curves: Sequence[tuple[IntPoint, ...]],
    seed,
    verify_frames: int = 1,
    retry_limit: int = FRAME_RETRY_LIMIT,
    audit: bool = False,
) -> tuple[int, int, int, bool]:
    """(value, crossing count, frame index, audited) of loose curves.

    One closed polygon gives its a2, two give their lk, as
    `cycle_invariant` decides by the number of walks.  The value is
    read at the accepted frames of the curves' own scan; the crossing
    count and frame index are the first accepted frame's.
    """
    walks = curve_walks(curves)
    tables, _, _ = accepted_tables(partial(curve_table, curves), seed, verify_frames, retry_limit)
    value, audited = cycle_invariant(tables, walks, audit)
    index, first = tables[0]
    return value, first.restrict(walks).crossing_count, index, audited
