"""The exact crossing kernel: failure statuses, scale invariance, determinism."""

from __future__ import annotations

from fractions import Fraction

from knotcensus import kernels
from knotcensus.geometry import moment_curve_embedding, random_rectilinear_embedding
from knotcensus.graphs import Cycle, enumerate_cycles
from knotcensus.kernels import (
    FAIL_DEGENERATE_SEGMENT,
    FAIL_INTERSECT_3D,
    FAIL_VERTEX_COINCIDE,
    FAIL_VERTEX_ON_SEGMENT,
    OK,
)
from knotcensus.projection import frame_sequence


def _frames(seed, count):
    gen = frame_sequence(seed)
    return [next(gen) for _ in range(count)]


def run_all(kernel, polys, frame):
    return kernel(polys, frame.axis_u, frame.axis_v, frame.direction)


def test_oversized_coordinates_keep_crossings():
    # 10**40 puts the kernel's intermediates far beyond any fixed-width
    # integer; the arithmetic must stay exact.
    e = moment_curve_embedding(6)
    c = Cycle.canonical((1, 3, 5, 2, 4, 6))
    small = e.cycle_points_scaled(c)
    big = tuple(tuple(x * 10**40 for x in p) for p in small)
    frame = _frames(0, 1)[0]
    st_small, rows_small = run_all(kernels.find_crossings, (small,), frame)
    st_big, rows_big = run_all(kernels.find_crossings, (big,), frame)
    assert st_small == st_big == OK
    assert len(rows_small) == 5
    # Scaling every coordinate uniformly cannot change which segment
    # pairs cross, where along them, nor over/under or sign.
    strip = lambda rows: [
        (r[0], r[1], Fraction(r[2], r[4]), Fraction(r[3], r[4]), r[5], r[6])
        for r in rows
    ]
    assert strip(rows_small) == strip(rows_big)


def test_failure_statuses_match():
    frame = _frames(7, 1)[0]
    u, v, d = frame.axis_u, frame.axis_v, frame.direction

    # A segment parallel to the viewing direction projects to a point.
    base = (0, 0, 0)
    tip = tuple(3 * c for c in d)
    off = (d[1] - 7 * d[2], d[2] + 11 * d[0], d[0] + 5 * d[1])
    status, payload = kernels.find_crossings(((base, tip, off),), u, v, d)
    assert status == FAIL_DEGENERATE_SEGMENT

    # Two corners on one viewing ray coincide in projection.
    shifted = tuple(c + 2 * w for c, w in zip(base, d))
    status, payload = kernels.find_crossings(
        ((base, (9, 1, 7), shifted, (-6, 5, 4)),), u, v, d
    )
    assert status == FAIL_VERTEX_COINCIDE


def test_vertex_on_segment_detected():
    frame = _frames(9, 1)[0]
    u, v, d = frame.axis_u, frame.axis_v, frame.direction
    # Place a corner of one triangle on the projected interior of
    # another's edge: work in frame coordinates by construction.
    a = (0, 0, 0)
    b = tuple(4 * uc for uc in u)
    mid = tuple(2 * uc + 3 * wc for uc, wc in zip(u, d))
    tri1 = (a, b, tuple(5 * vc for vc in v))
    tri2 = (mid, tuple(7 * vc + uc for vc, uc in zip(v, u)),
            tuple(-3 * uc + 2 * vc for uc, vc in zip(u, v)))
    status, payload = kernels.find_crossings((tri1, tri2), u, v, d)
    assert status == FAIL_VERTEX_ON_SEGMENT


def test_true_intersection_reported():
    frame = _frames(11, 1)[0]
    u, v, d = frame.axis_u, frame.axis_v, frame.direction
    # Two segments meeting at an interior point in 3-space: equal height
    # along the viewing direction at the shared point.
    p = lambda x, y, h: tuple(
        x * uc + y * vc + h * wc for uc, vc, wc in zip(u, v, d)
    )
    c1 = (p(-2, 0, 0), p(2, 0, 0), p(0, 5, 9))
    c2 = (p(0, -2, 0), p(0, 2, 0), p(5, 0, -7))
    status, payload = kernels.find_crossings((c1, c2), u, v, d)
    assert status == FAIL_INTERSECT_3D


def test_crossing_rows_are_deterministic():
    e = random_rectilinear_embedding(6, seed=6)
    c = enumerate_cycles(e.graph, 6)[0]
    frame = _frames(5, 1)[0]
    one = run_all(kernels.find_crossings, (e.cycle_points_scaled(c),), frame)
    two = run_all(kernels.find_crossings, (e.cycle_points_scaled(c),), frame)
    assert one == two
