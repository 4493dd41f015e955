"""Pure-Python exact segment-pair kernel.

Given one or two closed integer polygons (or, through `scan_segments`,
any segments between integer corners) and an integer projection frame,
finds every transverse crossing of the projected segments, with exact
rational crossing parameters, over/under resolution by exact height
comparison, and the crossing sign.  Also performs the genericity checks
that make the projection a regular diagram; any violation aborts the scan
with a status code so the caller can move to the next frame.

This module is the reference implementation; `_ckernels` is a compiled
twin restricted to 128-bit intermediates.  Both must return identical
results on every input the compiled one accepts.

Status codes (module constants):
  OK                      crossings found, diagram is regular so far
  FAIL_DEGENERATE_SEGMENT a segment projects to a point
  FAIL_VERTEX_COINCIDE    two corner points share a projection
  FAIL_VERTEX_ON_SEGMENT  a corner projects into a foreign segment
  FAIL_INTERSECT_3D       the curves themselves touch in 3-space
  FALLBACK_OVERFLOW       compiled kernel only: inputs too large, retry
                          with the pure kernel

A crossing is reported as (gi, gj, ti_num, tj_num, den, i_over, sign):
global segment indices gi < gj, exact parameters ti_num/den along segment
gi and tj_num/den along gj (den > 0, parameters strictly inside (0, 1)),
i_over = 1 when segment gi passes over, and the sign of the crossing.

Sign convention: the crossing is +1 exactly when rotating the over-strand
direction by a counterclockwise quarter turn in the (u, v) plane aligns
it with the under-strand direction, i.e. the sign is that of the 2x2
determinant det(d_over, d_under).  With right-handed frames
(det(u, v, d) > 0) this calibrates linking so a positively linked Hopf
pair (one curve crossing the other's spanning disk once, along its
orientation normal) gets linking number +1.
"""

from __future__ import annotations

OK = 0
FAIL_DEGENERATE_SEGMENT = 1
FAIL_VERTEX_COINCIDE = 2
FAIL_VERTEX_ON_SEGMENT = 3
FAIL_INTERSECT_3D = 4
FALLBACK_OVERFLOW = 5


def find_crossings(polys, u, v, d):
    """Scan the projected segment pairs of one or two closed polygons.

    Returns (status, payload): payload is the crossing list when status is
    OK, else a small witness tuple naming the violation.  Corners are
    numbered through the polygons in order, and segment s runs from
    corner s to the next corner of its polygon.
    """
    points: list = []
    curve_of: list[int] = []
    nxt: list[int] = []
    for ci, poly in enumerate(polys):
        base = len(points)
        m = len(poly)
        points.extend(poly)
        curve_of.extend([ci] * m)
        nxt.extend(base + (i + 1) % m for i in range(m))
    status, payload = scan_segments(points, range(len(points)), nxt, u, v, d)
    if status == FAIL_DEGENERATE_SEGMENT:
        return (status, (curve_of[payload], payload))
    return (status, payload)


def scan_segments(points, seg_a, seg_b, u, v, d):
    """Scan projected segments given by the indices of their corners.

    Segment s runs from corner seg_a[s] to corner seg_b[s]; segments may
    share corners, and two that do are never tested for a crossing.  This
    is the body of `find_crossings` and of the whole-graph scan in
    `projection.crossing_table`, so both apply exactly the same checks.
    Returns (status, payload) as `find_crossings` does, with segment
    indices in the crossings and witnesses; a degenerate segment's
    witness is its index alone.
    """
    ux, uy, uz = u
    vx, vy, vz = v
    dx, dy, dz = d

    # Projected corners (px, py) and heights h, as flat lists.
    px = [ux * x + uy * y + uz * z for x, y, z in points]
    py = [vx * x + vy * y + vz * z for x, y, z in points]
    ph = [dx * x + dy * y + dz * z for x, y, z in points]
    nv = len(px)
    ns = len(seg_b)

    for s in range(ns):
        a, b = seg_a[s], seg_b[s]
        if px[a] == px[b] and py[a] == py[b]:
            return (FAIL_DEGENERATE_SEGMENT, s)

    for a in range(nv):
        for b in range(a + 1, nv):
            if px[a] == px[b] and py[a] == py[b]:
                return (FAIL_VERTEX_COINCIDE, (a, b))

    for w in range(nv):
        wx, wy = px[w], py[w]
        for s in range(ns):
            a, b = seg_a[s], seg_b[s]
            if w == a or w == b:
                continue
            ax, ay, bx, by = px[a], py[a], px[b], py[b]
            ex, ey = bx - ax, by - ay
            rx, ry = wx - ax, wy - ay
            if ex * ry - ey * rx != 0:
                continue
            dot = ex * rx + ey * ry
            if 0 < dot < ex * ex + ey * ey:
                return (FAIL_VERTEX_ON_SEGMENT, (w, s))

    crossings = []
    for si in range(ns):
        a, b = seg_a[si], seg_b[si]
        ax, ay = px[a], py[a]
        e1x, e1y = px[b] - ax, py[b] - ay
        for sj in range(si + 1, ns):
            c, e = seg_a[sj], seg_b[sj]
            if c == a or c == b or e == a or e == b:
                continue  # segments sharing a corner never cross transversally
            cx, cy = px[c], py[c]
            e2x, e2y = px[e] - cx, py[e] - cy
            c1 = e1x * (cy - ay) - e1y * (cx - ax)
            c2 = e1x * (py[e] - ay) - e1y * (px[e] - ax)
            if (c1 > 0) == (c2 > 0) or c1 == 0 or c2 == 0:
                continue
            c3 = e2x * (ay - cy) - e2y * (ax - cx)
            c4 = e2x * (py[b] - cy) - e2y * (px[b] - cx)
            if (c3 > 0) == (c4 > 0) or c3 == 0 or c4 == 0:
                continue
            cr = e1x * e2y - e1y * e2x  # det(d_i, d_j); nonzero after the
            # strict sign flips above, which rule out parallel segments
            tnum = (cx - ax) * e2y - (cy - ay) * e2x
            snum = (cx - ax) * e1y - (cy - ay) * e1x
            den = cr
            if den < 0:
                den, tnum, snum = -den, -tnum, -snum
            hi = ph[a] * den + tnum * (ph[b] - ph[a])
            hj = ph[c] * den + snum * (ph[e] - ph[c])
            if hi == hj:
                return (FAIL_INTERSECT_3D, (si, sj))
            i_over = 1 if hi > hj else 0
            if i_over:
                sign = 1 if cr > 0 else -1
            else:
                sign = -1 if cr > 0 else 1
            crossings.append((si, sj, tnum, snum, den, i_over, sign))
    return (OK, crossings)
