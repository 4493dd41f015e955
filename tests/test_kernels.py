"""The exact crossing kernel: failure conditions, scale invariance, determinism.

Each case runs through the scan (`_pykernels.scan_segments`) and through
the tests' `oracle.project`, which reads the scan's crossing table.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from knotcensus._pykernels import scan_segments
from knotcensus.errors import GenericityFailure
from knotcensus.geometry import (
    moment_curve_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
)
from knotcensus.graphs import canonical_cycle, enumerate_cycles, enumerate_disjoint_pairs
from knotcensus.projection import frame_sequence

from oracle import cycle_points_scaled, project


def _frames(seed, count):
    gen = frame_sequence(seed)
    return [next(gen) for _ in range(count)]


def scan(polys, frame):
    """Scan closed polygons: corners numbered through them in order,
    segment s running from corner s to the next corner of its polygon."""
    points, nxt = [], []
    for poly in polys:
        base, m = len(points), len(poly)
        points.extend(poly)
        nxt.extend(base + (i + 1) % m for i in range(m))
    return scan_segments(
        points, range(len(points)), nxt, frame.axis_u, frame.axis_v, frame.direction
    )


def _failure(run, polys, frame) -> tuple:
    """(condition, witness) of the GenericityFailure `run(polys, frame)` raises."""
    with pytest.raises(GenericityFailure) as info:
        run(polys, frame)
    return info.value.condition, info.value.detail


def test_oversized_coordinates_keep_crossings():
    # 10**40 puts the kernel's intermediates far beyond any fixed-width
    # integer; the arithmetic must stay exact.
    e = moment_curve_embedding(6)
    c = canonical_cycle((1, 3, 5, 2, 4, 6))
    small = cycle_points_scaled(e, c)
    big = tuple(tuple(x * 10**40 for x in p) for p in small)
    frame = _frames(0, 1)[0]
    rows_small = scan((small,), frame)
    rows_big = scan((big,), frame)
    assert len(rows_small) == 5
    # Scaling every coordinate uniformly cannot change which segment
    # pairs cross, where along them, nor over/under or sign.
    strip = lambda rows: [
        (r[0], r[1], Fraction(r[2], r[4]), Fraction(r[3], r[4]), r[5], r[6])
        for r in rows
    ]
    assert strip(rows_small) == strip(rows_big)
    assert project((small,), frame) == project((big,), frame)
    assert project((small,), frame).crossing_count == 5


def test_failure_statuses_match():
    frame = _frames(7, 1)[0]
    d = frame.direction

    # A segment parallel to the viewing direction projects to a point.
    base = (0, 0, 0)
    tip = tuple(3 * c for c in d)
    off = (d[1] - 7 * d[2], d[2] + 11 * d[0], d[0] + 5 * d[1])
    degenerate = ((base, tip, off),)
    # The witness is the segment index alone.
    assert _failure(scan, degenerate, frame) == ("degenerate-segment", 0)
    assert _failure(project, degenerate, frame) == ("degenerate-segment", 0)

    # Two corners on one viewing ray coincide in projection.
    shifted = tuple(c + 2 * w for c, w in zip(base, d))
    coincide = ((base, (9, 1, 7), shifted, (-6, 5, 4)),)
    failure = _failure(scan, coincide, frame)
    assert failure[0] == "vertex-coincide"
    assert _failure(project, coincide, frame) == failure


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
    failure = _failure(scan, (tri1, tri2), frame)
    assert failure[0] == "vertex-on-segment"
    assert _failure(project, (tri1, tri2), frame) == failure


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
    assert _failure(scan, (c1, c2), frame)[0] == "intersect-3d"
    with pytest.raises(ValueError, match="intersect in 3-space"):
        project((c1, c2), frame)


def test_crossing_rows_are_deterministic():
    e = random_rectilinear_embedding(6, seed=6)
    c = enumerate_cycles(e.graph, 6)[0]
    frame = _frames(5, 1)[0]
    one = scan((cycle_points_scaled(e, c),), frame)
    two = scan((cycle_points_scaled(e, c),), frame)
    assert one == two
    assert project((cycle_points_scaled(e, c),), frame) == project(
        (cycle_points_scaled(e, c),), frame
    )


def test_project_output_is_pinned():
    # One digest over every diagram of the 5- and 7-cycles and (3,4)
    # pairs of seven K7 embeddings at the first three frames, recorded
    # from the per-curve assembler that the table route replaced.
    embeddings = [random_rectilinear_embedding(7, s) for s in range(3)]
    embeddings += [random_polyline_embedding(7, s) for s in range(3)]
    embeddings.append(moment_curve_embedding(7))
    frames = _frames(0, 3)
    digest = hashlib.sha256()
    count = 0
    for e in embeddings:
        subjects = [(c,) for k in (5, 7) for c in enumerate_cycles(e.graph, k)]
        subjects += enumerate_disjoint_pairs(e.graph, 3, 4)
        for subject in subjects:
            curves = tuple(cycle_points_scaled(e, c) for c in subject)
            for frame in frames:
                d = project(curves, frame)
                digest.update(repr((d.passages, d.signs)).encode())
                count += 1
    assert count == 15057
    assert digest.hexdigest() == (
        "78293563516d5ed6afb827b0147df79f2895d55683cdee87ecf2ce8ee671b324"
    )
