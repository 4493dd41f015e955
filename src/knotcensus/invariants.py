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

Both fast paths read a crossing table, never a diagram: the Gauss
arrows of a cycle's walk (`a2_from_table`) and per-edge-pair signed
sums (`linking_number_from_table`).  An embedding's cycles
(`cycle_invariant`) are read from the frame's whole-graph table, or,
at frames where the whole graph is not generic, from the cycles' own
table; loose curves (`knot_invariant`, `link_invariant`) from the
curves' own table.  A `LinkDiagram` is restricted from the table only
to be audited.

The skein oracle (`conway_skein_oracle`) computes the full Conway
polynomial by crossing-switch/smoothing recursion down to descending
diagrams.  It is exponential in the crossing number, so it is not used
on the audit path; it calibrates the two-arrow count (see the pattern
constants below) and anchors both routes in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import InvariantContractError, OracleLimitExceeded
from .geometry import IntPoint
from .projection import (
    FRAME_RETRY_LIMIT,
    Arrow,
    CrossingTable,
    GaussDiagram,
    GraphProjection,
    LinkDiagram,
    Passage,
    Walks,
    accepted_diagrams,
    curve_table,
    frame_sequence,
)

ORACLE_CROSSING_LIMIT = 20
AUDIT_CROSSING_LIMIT = 12


# ---------------------------------------------------------------------------
# Conway polynomial


@dataclass(frozen=True)
class ConwayPolynomial:
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
# Linking number


def _half(total: int) -> int:
    if total % 2 != 0:
        raise InvariantContractError("odd signed mutual-crossing total")
    return total // 2


def linking_number(d: LinkDiagram) -> int:
    """Half the signed count of crossings between the two components."""
    if d.component_count != 2:
        raise ValueError("linking number needs a two-component diagram")
    comps_of: dict[int, set[int]] = {}
    for ci, ps in enumerate(d.passages):
        for cid, _ in ps:
            comps_of.setdefault(cid, set()).add(ci)
    return _half(sum(d.signs[cid] for cid, cs in comps_of.items() if len(cs) == 2))


# ---------------------------------------------------------------------------
# Second Conway coefficient from the Gauss diagram

# A two-arrow pattern is (first_over, second_over): an interleaved arrow
# pair contributes when the earlier-starting arrow is first met on its
# over (resp. under) strand per first_over, and likewise for the later
# one; contributions are products of crossing signs, scaled by A2_SIGN.
# Calibration against the skein oracle on both chiralities of the (2,3),
# (2,5), (2,7) torus diagrams, a figure-eight polygon, and a randomized
# 120-polygon suite leaves exactly the two mirror-dual patterns
# ((True, False), +1) and ((False, True), +1); the first is fixed here
# and the tests lock the choice in.
A2_PATTERN = (True, False)
A2_SIGN = 1

_ALL_PATTERNS = [
    ((f, s), g) for f in (False, True) for s in (False, True) for g in (1, -1)
]


def _a2_with_pattern(
    arrows: Sequence[Arrow], pattern: tuple[bool, bool], sign: int
) -> int:
    """The two-arrow count of `arrows` in one pattern, times `sign`."""
    spans = [
        (o, u, o < u, s) if o < u else (u, o, o < u, s) for o, u, s in arrows
    ]
    total = 0
    for a1, a2, a_first_over, si in spans:
        if a_first_over != pattern[0]:
            continue
        for b1, b2, b_first_over, sj in spans:
            # arrows interleave with the first one starting first
            if a1 < b1 < a2 < b2 and b_first_over == pattern[1]:
                total += si * sj
    return sign * total


def a2_gauss_formula(g: GaussDiagram) -> int:
    """Second Conway coefficient by the calibrated two-arrow count.

    Quadratic in the number of crossings; evaluated at the diagram's
    stored basepoint.  Equality with the oracle's z^2 coefficient is
    asserted on every audited diagram rather than assumed.
    """
    return _a2_with_pattern(g.arrows, A2_PATTERN, A2_SIGN)


def calibrate_a2_patterns(
    samples: Iterable[tuple[GaussDiagram, int]]
) -> list[tuple[tuple[bool, bool], int]]:
    """All two-arrow patterns reproducing the expected value on every sample."""
    survivors = list(_ALL_PATTERNS)
    for g, expected in samples:
        survivors = [
            (p, s) for p, s in survivors if _a2_with_pattern(g.arrows, p, s) == expected
        ]
        if not survivors:
            break
    return survivors


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


@dataclass(frozen=True)
class InvariantRecord:
    """One cycle's (or pair's) invariant with its certification context.

    `value` was computed from the first accepted frame (index
    `frame_index` in the deterministic sequence) and reproduced
    identically on the further accepted frames the analysis asked for;
    `crossing_count` is from the first accepted diagram.  `audited` marks
    diagrams of at most AUDIT_CROSSING_LIMIT crossings, whose value the
    independent audit route then also gave.
    """

    subject: tuple
    value: int
    crossing_count: int
    frame_index: int
    audited: bool


def a2_from_table(table: CrossingTable, cycles: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """(a2, crossing count) of one cycle read straight from a crossing table.

    The same two-arrow count as `a2_gauss_formula` on the arrows of
    `table.restrict(cycles)`, with no diagram built.
    """
    arrows = table.arrows(cycles[0])
    return _a2_with_pattern(arrows, A2_PATTERN, A2_SIGN), len(arrows)


def linking_number_from_table(
    table: CrossingTable, cycles: tuple[tuple[int, ...], ...]
) -> tuple[int, int]:
    """(lk, crossing count) of a disjoint cycle pair from a crossing table.

    Equal to `linking_number(table.restrict(cycles))` and that diagram's
    crossing count, with no diagram built.
    """
    total, count = table.linking_total(*cycles)
    return _half(total), count


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


# What one accepted frame gives a record: the value, the crossing count,
# and a callable that builds the diagram, called only to audit it.
Reading = tuple[int, int, Callable[[], LinkDiagram]]


def check_frame_budget(verify_frames: int, retry_limit: int) -> None:
    """Raise ValueError unless verify_frames >= 0 and retry_limit >= 1."""
    if verify_frames < 0:
        raise ValueError(f"verify_frames must be at least 0, got {verify_frames}")
    if retry_limit < 1:
        raise ValueError(f"retry_limit must be at least 1, got {retry_limit}")


def _verified_value(
    read_at: Callable[[int], Reading],
    audit: Callable[[LinkDiagram, int], None] | None,
    verify_frames: int,
    retry_limit: int,
) -> tuple[int, int, int, bool]:
    """Evaluate on frames 0, 1, ... until `verify_frames` more agree.

    `read_at(index)` gives the reading at one frame or raises
    GenericityFailure; GenericityExhausted is raised once `retry_limit`
    frames have failed in total.
    """
    value = None
    first_count = 0
    first_index = 0
    audited = False
    accepted = 0
    for (v, count, diagram), index in accepted_diagrams(read_at, retry_limit):
        if value is None:
            value, first_count, first_index = v, count, index
            if audit is not None and count <= AUDIT_CROSSING_LIMIT:
                audit(diagram(), v)
                audited = True
        elif v != value:
            raise InvariantContractError(
                f"frame {index} disagrees: {v} != {value} (frame {first_index})"
            )
        accepted += 1
        if accepted > verify_frames:
            break
    return value, first_count, first_index, audited


def _read(table: CrossingTable, walks: Walks) -> Reading:
    """The reading of one cycle (a2) or a disjoint pair (lk) in a table."""
    from_table = a2_from_table if len(walks) == 1 else linking_number_from_table
    value, count = from_table(table, walks)
    return value, count, lambda: table.restrict(walks)


def _audit(components: int, audit: bool) -> Callable[[LinkDiagram, int], None] | None:
    if not audit:
        return None
    return _audit_knot if components == 1 else _audit_link


def cycle_invariant(
    graph: GraphProjection,
    cycles: tuple[tuple[int, ...], ...],
    verify_frames: int = 1,
    retry_limit: int = FRAME_RETRY_LIMIT,
    audit: bool = False,
) -> tuple[int, int, int, bool, bool]:
    """(value, crossing count, frame index, audited, fell back) for a cycle.

    `cycles` is one cycle's vertex tuple (a2) or two disjoint ones (lk).
    Each frame's value and crossing count are read from a crossing table
    (`a2_from_table`, `linking_number_from_table`), and a diagram is
    restricted from it only to be audited.  The table is the frame's
    whole-graph table where the graph is generic; elsewhere it is the
    cycles' own (`GraphProjection.curve_table`), and "fell back" is then
    true.  Every other field equals what `knot_invariant` /
    `link_invariant` return for the cycles' points with the frame seed
    of `graph`.
    """
    fell_back = False

    def read_at(index: int) -> Reading:
        nonlocal fell_back
        table = graph.tables[index]
        if table is None:
            fell_back = True
            return _read(*graph.curve_table(cycles, index))
        return _read(table, cycles)

    check = _audit(len(cycles), audit)
    return _verified_value(read_at, check, verify_frames, retry_limit) + (fell_back,)


def _curve_invariant(curves, seed, verify_frames, retry_limit, audit):
    check_frame_budget(verify_frames, retry_limit)
    frames = frame_sequence(seed)
    # `accepted_diagrams` reads frames 0, 1, 2, ... once each, in order.
    return _verified_value(
        lambda index: _read(*curve_table(curves, next(frames))), _audit(len(curves), audit),
        verify_frames, retry_limit,
    )


def knot_invariant(
    points: tuple[IntPoint, ...],
    seed,
    verify_frames: int = 1,
    retry_limit: int = FRAME_RETRY_LIMIT,
    audit: bool = False,
) -> tuple[int, int, int, bool]:
    """(a2, crossing count, frame index, audited) for one closed polygon."""
    return _curve_invariant((points,), seed, verify_frames, retry_limit, audit)


def link_invariant(
    points_a: tuple[IntPoint, ...],
    points_b: tuple[IntPoint, ...],
    seed,
    verify_frames: int = 1,
    retry_limit: int = FRAME_RETRY_LIMIT,
    audit: bool = False,
) -> tuple[int, int, int, bool]:
    """(lk, crossing count, frame index, audited) for a curve pair."""
    return _curve_invariant((points_a, points_b), seed, verify_frames, retry_limit, audit)
