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
Most audited knots share their diagram with another (on moment K7, the
1,031 audited knots of the 5-, 6- and 7-cycle classes have 151 distinct
diagrams), so `fox_a2`'s values are kept in a memo that lives as long
as the `theorems.EmbeddingAnalysis` that owns it, and the route runs
once per distinct diagram of the analysis; every subject's value is
still compared.  The memo is keyed from the walk that reads the value:
`_a2_at` lists the knot's Gauss arrows as they close, one int each, an
exact encoding at any crossing count (`_diagram_key`).  Only on a miss
is the knot restricted to a `LinkDiagram`, and that diagram's key must
equal the walk's; a hit relies on the walk's key alone.  A forked
shard inherits the memo as it stands at the fork, and its additions
are dropped with it.  Links are restricted and counted afresh: keying
a link costs more than its one-sided count.

Both fast paths read a crossing table, never a diagram.  One loop
(`shard_values`) reads every value: for each record subject, a cycle or
a disjoint pair, it codes the walk once and reads it at every accepted
table of `projection.accepted_tables`, the one frame policy.  Its flat
buffers are allocated once per call and reused by every subject: the
orientation factors of the subject's edges, indexed by edge code and
cleared again after it, the crossings opened along the walk, indexed
by crossing id, and the arrows closed so far.  At each table a knot's
value is its two-arrow count, taken as the Gauss arrows close
(`_a2_at`), a link's half the signed crossings met along one cycle's
edges with the other's (`_lk_at`).  Every value, the one subject of
the `invariant` command included, is read at the frames where the
embedding's whole graph is generic.  A `LinkDiagram` is restricted from
the first table only to be audited (a knot only on a memo miss), or for
the crossing count that `invariant` reports.

The two-arrow pattern `_a2_at` counts was calibrated against a Conway
skein oracle; that oracle, exponential in the crossing number, and the
whole Alexander polynomial that `fox_a2` is held to are the test
suite's reference and are not part of the package.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Sequence

from .errors import InvariantContractError
from .projection import CrossingTable, LinkDiagram, edge_code

AUDIT_CROSSING_LIMIT = 12


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
    crossing count.  A knot's route may have run on an equal diagram of
    an earlier subject of the same analysis, found by the key its walk
    built; the value was compared all the same.
    """

    subject: tuple
    value: int
    audited: bool


def _arrow_code(start: int, end: int, over: int, sign: int) -> int:
    """One Gauss arrow of a knot as one non-negative int: four times the
    Cantor pairing (`edge_code`) of the walk positions where it opens and
    closes, plus twice the over flag of its first pass, plus 1 if its
    sign is positive.  It is one-to-one at every crossing count."""
    return 4 * edge_code(start, end) + 2 * over + (sign > 0)


def _diagram_key(d: LinkDiagram) -> tuple[int, ...]:
    """The audit memo's key of a knot diagram: its arrows in closing
    order, each as `_arrow_code`.  The starts, in that order, number the
    crossings by first encounter, so the key reads back to `d`'s
    passages and signs: two knot diagrams share a key only if they are
    equal.  `_a2_at` builds the same key from the walk it reads.
    """
    (passages,) = d.passages
    opened: dict[int, tuple[int, int]] = {}
    key = []
    for pos, (cid, over) in enumerate(passages):
        first = opened.pop(cid, None)
        if first is None:
            opened[cid] = (pos, over)
        else:
            key.append(_arrow_code(first[0], pos, first[1], d.signs[cid]))
    return tuple(key)


def _audit_knot(
    memo: dict[tuple, int], table: CrossingTable, cycle: tuple, key: tuple, value: int
) -> None:
    """Check a knot's fast-path `value` against `fox_a2`.

    `key` is the `_diagram_key` its walk at `table` built.  On a hit the
    memo's value is compared, with no diagram built.  On a miss the
    cycle is restricted from `table`, its diagram's key must equal the
    walk's, and `fox_a2`'s value is kept for every later subject with
    that key.
    """
    expected = memo.get(key)
    if expected is None:
        d = table.restrict((cycle,))
        if _diagram_key(d) != key:
            raise InvariantContractError(
                f"the walk's diagram key of {cycle} != its restricted diagram's"
            )
        expected = memo[key] = fox_a2(d)
    if expected != value:
        raise InvariantContractError(f"gauss-formula a2 {value} != Alexander a2 {expected}")


def _audit_link(d: LinkDiagram, value: int) -> None:
    """Check a link's fast-path `value` against the one-sided count of `d`."""
    expected = one_sided_linking_number(d)
    if expected != value:
        raise InvariantContractError(f"linking number {value} != one-sided count {expected}")


def _a2_at(
    passes, walk: list[int], fac: list[int], opened: list, closed: list, arrows: list | None = None
) -> int:
    """The calibrated two-arrow count of one cycle at one table: its a2.

    `walk` lists the cycle's directed edge codes in walk order and `fac`
    the orientation factor of each of its edges (+1 or -1, by the code
    from its smaller vertex; 0 elsewhere), so a pass is kept when its
    other edge has a factor.  A kept crossing is an arrow spanning the
    walk positions (in 0..2c-1 for c kept crossings) at which it is
    first and second met, with its first pass's sign times that factor.
    An interleaved pair of spans a1 < b1 < a2 < b2 adds the product of
    its signs when the earlier-starting arrow is first passed over and
    the later one first passed under; of the eight (pattern, sign)
    choices only this one and its mirror dual give the skein oracle's
    a2 on every calibration diagram.  It is added as b closes: the
    over-first arrows closed since b opened that opened before it.
    `opened`, indexed by crossing id, is None throughout on entry and on
    return; `closed` lists (start, sign) of the over-first arrows in
    closing order, the first `shut` of its entries.  Both are as long as
    the table has crossings.  Given an `arrows` list, the walk appends
    each arrow as it closes, as `_arrow_code` of its start and end
    positions, first pass's over flag and sign: the audit memo's key of
    the cycle's diagram at this table (`_diagram_key`), whose length is
    its crossing count.  Raises ValueError unless every kept crossing is
    passed once over and once under.
    """
    pos = closes = total = shut = 0
    for code in walk:
        for gid, other, over, sign in passes[code]:
            if fac[other]:
                first = opened[gid]
                if first is None:
                    opened[gid] = (pos, over, sign * fac[other], shut)
                else:
                    opened[gid] = None
                    closes += 1
                    start, first_over, s, since = first
                    if first_over == over:
                        raise ValueError("every crossing must be passed once over and once under")
                    if arrows is not None:
                        arrows.append(_arrow_code(start, pos, first_over, s))
                    if first_over:
                        closed[shut] = (start, s)
                        shut += 1
                    elif since < shut:
                        for a1, sa in closed[since:shut]:
                            if a1 < start:
                                total += sa * s
                pos += 1
    if pos != 2 * closes:
        raise ValueError("every crossing must be passed once over and once under")
    return total


def _lk_at(passes, walk: list[int], fac: list[int], opened: list, closed: list) -> int:
    """lk of a disjoint cycle pair at one table: half the signed crossings
    met along the first cycle's `walk` with the edges `fac` gives a factor,
    the second cycle's.

    Each such crossing is listed once under its edge on the walked
    cycle, so it is counted once, with its sign in the pair's
    `restrict`.  Raises InvariantContractError if the total is odd.
    `opened` and `closed` are not read.
    """
    total = 0
    for code in walk:
        for _, other, _, sign in passes[code]:
            if fac[other]:
                total += sign * fac[other]
    if total % 2:
        raise InvariantContractError("odd signed mutual-crossing total")
    return total // 2


def shard_values(
    tables: Sequence[tuple[int, CrossingTable]],
    subjects: Sequence[tuple],
    audit: bool = False,
    memo: dict[tuple, int] | None = None,
) -> tuple[list[int], bytearray]:
    """The values of `subjects` in order, and a byte per subject: 1 if audited.

    A subject is a cycle's vertex tuple (its a2) or a disjoint pair of
    them (its lk), read in the accepted `tables`, (frame index, table)
    pairs from `accepted_tables`.  Its walk is coded once, from its
    first vertex, and read at every table.  With `audit`, a subject of
    at most AUDIT_CROSSING_LIMIT crossings at the first table has its
    value checked against the independent route's.  A knot's walk there
    builds its diagram's key and crossing count (`_a2_at`); `fox_a2`'s
    value is looked up in `memo` by that key, and only on a miss is the
    knot restricted, its diagram's key checked against the walk's and
    the route run (`_audit_knot`).  A memo hit relies on the walk's key.
    A link is restricted, and its one-sided count taken, every time.
    `memo` maps keys to `fox_a2` values; the caller passes the one it
    keeps for an analysis, and without one a memo lives as long as the
    call.  Every further table must give the first table's value, or
    InvariantContractError is raised.
    """
    (first_index, first), rest = tables[0], tables[1:]
    n = max(t.vertices for _, t in tables)
    # step[a][b]: the edge walked from a to b, as (edge_code(a, b), its
    # code from the smaller vertex, its orientation factor).
    step = [
        [(edge_code(a, b), edge_code(min(a, b), max(a, b)), 1 if a < b else -1) for b in range(n)]
        for a in range(n)
    ]
    fac = [0] * max(len(t.passes) for _, t in tables)
    opened = [None] * max(t.crossings for _, t in tables)
    closed = [None] * len(opened)
    values = []
    audited = bytearray(len(subjects))
    if memo is None:
        memo = {}
    for i, subject in enumerate(subjects):
        knot = type(subject[0]) is int
        walked, against = (subject, subject) if knot else subject
        a = against[-1]
        for b in against:
            _, code, f = step[a][b]
            fac[code] = f
            a = b
        a = walked[-1]
        walk = []
        for b in walked:
            walk.append(step[a][b][0])
            a = b
        walk.append(walk.pop(0))  # from the first vertex
        read = _a2_at if knot else _lk_at
        if knot:
            arrows = [] if audit else None
            value = read(first.passes, walk, fac, opened, closed, arrows)
            if audit and len(arrows) <= AUDIT_CROSSING_LIMIT:
                audited[i] = 1
                _audit_knot(memo, first, subject, tuple(arrows), value)
        else:
            value = read(first.passes, walk, fac, opened, closed)
            if audit:
                d = first.restrict(subject)
                if d.crossing_count <= AUDIT_CROSSING_LIMIT:
                    audited[i] = 1
                    _audit_link(d, value)
        for index, table in rest:
            v = read(table.passes, walk, fac, opened, closed)
            if v != value:
                raise InvariantContractError(
                    f"frame {index} disagrees: {v} != {value} (frame {first_index})"
                )
        a = against[-1]
        for b in against:
            fac[step[a][b][1]] = 0
            a = b
        values.append(value)
    return values, audited

