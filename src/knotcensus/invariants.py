"""Knot and link invariants computed exactly from certified diagrams.

Every value has a fast path and, with auditing on, an independent check
of that value on the first accepted diagram of at most
`AUDIT_CROSSING_LIMIT` (12) crossings:

* knots: the second Conway coefficient a2 by a two-arrow Gauss-diagram
  count (quadratic in the crossing number), checked against a2 read off
  the Alexander polynomial.  Delta(t) is the determinant of a minor of
  the Fox-calculus matrix of the Wirtinger presentation, taken as one
  integer determinant at t = 2^(2n) for n crossings (fraction-free
  elimination) and read back digit by digit; since
  Delta(t) = Nabla(t^1/2 - t^-1/2), a2 = Delta''(1)/2 (polynomial in the
  crossing number);
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
skein oracle; that oracle, exponential in the crossing number, is the
test suite's reference and is not part of the package.
"""

from __future__ import annotations

from functools import partial
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
# Audit routes: the Alexander polynomial and the one-sided linking number


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
    value the independent audit route then also gave.
    """

    subject: tuple
    value: int
    audited: bool


def _audit_knot(d: LinkDiagram, value: int) -> None:
    expected = alexander_a2(d)
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
