"""Pure-Python exact segment-pair kernel.

Given segments between integer corners and an integer projection
frame, finds every transverse crossing of the projected segments, with
exact rational crossing parameters, over/under resolution by exact
height comparison, and the crossing sign.  Also performs the genericity
checks that make the projection a regular diagram; the first violation
raises GenericityFailure, so the caller can move to the next frame.

Conditions, with their witnesses (segment and corner indices):
  degenerate-segment  a segment projects to a point; the segment
  vertex-coincide     two corners share a projection; (corner, corner)
  vertex-on-segment   a corner projects into a foreign segment;
                      (corner, segment)
  intersect-3d        two segments touch in 3-space; (segment, segment)

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

from .errors import GenericityFailure


def scan_segments(points, seg_a, seg_b, u, v, d):
    """Scan projected segments given by the indices of their corners.

    Segment s runs from corner seg_a[s] to corner seg_b[s]; segments may
    share corners, and two that do are never tested for a crossing.
    `projection.crossing_table` is its one caller.  Returns the crossing
    list, or raises GenericityFailure at the first check that fails.
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
            raise GenericityFailure("degenerate-segment", s)

    for a in range(nv):
        for b in range(a + 1, nv):
            if px[a] == px[b] and py[a] == py[b]:
                raise GenericityFailure("vertex-coincide", (a, b))

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
                raise GenericityFailure("vertex-on-segment", (w, s))

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
                raise GenericityFailure("intersect-3d", (si, sj))
            i_over = 1 if hi > hj else 0
            if i_over:
                sign = 1 if cr > 0 else -1
            else:
                sign = -1 if cr > 0 else 1
            crossings.append((si, sj, tnum, snum, den, i_over, sign))
    return crossings
