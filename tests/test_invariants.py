"""Invariant engine: oracle anchors, calibration lock, audit routes and
exactness laws.  The skein oracle and the calibration are the tests'
reference in `oracle.py`."""

from __future__ import annotations

import marshal
from itertools import combinations, permutations
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from knotcensus.errors import GenericityFailure, InvariantContractError
from knotcensus.geometry import (
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
)
from knotcensus.graphs import canonical_cycle, enumerate_cycles, enumerate_disjoint_pairs
from knotcensus import invariants
from knotcensus.invariants import (
    classify_triangle_triangle,
    fox_a2,
    one_sided_linking_number,
    shard_values,
    stick_bound_a2,
)
from knotcensus.theorems import EmbeddingAnalysis
from knotcensus.projection import (
    FRAME_RETRY_LIMIT,
    CrossingTable,
    GraphProjection,
    LinkDiagram,
    frame_sequence,
)

import oracle
from oracle import (
    A2_PATTERN,
    A2_SIGN,
    Arrow,
    ConwayPolynomial,
    OracleLimitExceeded,
    _a2,
    _a2_with_pattern,
    _determinant,
    _knot_arrows,
    alexander_a2,
    alexander_polynomial,
    arrows,
    calibrate_a2_patterns,
    conway_skein_oracle,
    coded_walk,
    curve_invariant,
    cycle_invariant,
    cycle_points_scaled,
    diagram_table,
    project,
)


def diagram_for(curves, seed):
    """Yield (diagram, frame index) of the curves at each generic frame."""
    for index, frame in enumerate(frame_sequence(seed)):
        try:
            dia = project(curves, frame)
        except GenericityFailure:
            continue
        yield dia, index


# ---------------------------------------------------------------------------
# Hand-checkable diagrams.  A (2, k) torus braid closure passes its k
# crossings in order, alternating over/under, then again with the roles
# exchanged; all crossings share one sign.


def torus_2k_diagram(k: int, sign: int) -> LinkDiagram:
    first = tuple((i, i % 2 == 0) for i in range(k))
    second = tuple((i, i % 2 == 1) for i in range(k))
    return LinkDiagram(passages=(first + second,), signs=(sign,) * k)


def hopf_diagram(sign: int) -> LinkDiagram:
    return LinkDiagram(
        passages=(((0, True), (1, False)), ((0, False), (1, True))),
        signs=(sign, sign),
    )


HOPF_WALKS = ((0, 1, 2), (3, 4, 5))


def hopf_forward(sign: int) -> dict:
    """The `CrossingTable` mapping of two triangles whose restriction is
    `hopf_diagram(sign)`: crossing 0 of edges 0-1 and 3-4, crossing 1 of
    edges 1-2 and 4-5."""
    return {
        (0, 1): ((0, (3, 4), 1, sign),), (1, 2): ((1, (4, 5), 0, sign),), (0, 2): (),
        (3, 4): ((0, (0, 1), 0, sign),), (4, 5): ((1, (1, 2), 1, sign),), (3, 5): (),
    }


UNKNOT = LinkDiagram(passages=((),), signs=())
UNLINK2 = LinkDiagram(passages=((), ()), signs=())


# Straight-line polygons whose knot types were pinned down by their full
# Conway polynomials: a hexagonal trefoil (nontrivial hexagons can only
# be trefoils), a heptagonal knot with polynomial 1 - z^2 (of the two
# knots realizable with seven sticks only the figure eight has it), and
# octagons with polynomials 1 + 3z^2 + z^4 and 1 + 2z^2 (the (2,5) torus
# knot and the twist knot with five crossings).
STICK_ANCHORS = {
    "trefoil_hexagon": (
        ((3, 5, 6), (9, 5, -9), (-9, -3, -3), (7, 6, 0), (0, 1, 4), (8, 6, -7)),
        1,
        (1, 0, 1),
    ),
    "figure_eight_heptagon": (
        ((-7, -5, 1), (-2, 7, 7), (9, -2, -5), (0, 0, 7), (-2, 2, -3), (7, -1, 0), (6, 6, -1)),
        -1,
        (1, 0, -1),
    ),
    "cinquefoil_octagon": (
        ((-8, 1, 7), (5, -1, -2), (1, 9, 3), (3, -7, 8), (-9, 5, 6), (1, -4, 6), (-6, 2, 1), (3, 3, 5)),
        3,
        (1, 0, 3, 0, 1),
    ),
    "twist_five_octagon": (
        ((-2, 1, 8), (-7, -3, -8), (6, 4, -4), (3, -5, -3), (-6, 0, 1), (-5, -7, 8), (-2, 4, -6), (2, -6, -7)),
        2,
        (1, 0, 2),
    ),
}

# The positive Hopf link with an explicit disk certificate: the second
# curve pierces the triangle's spanning disk once, upward.
HOPF_STICKS = (
    ((2, 0, 0), (-1, 2, 0), (-1, -2, 0)),
    ((0, 0, -1), (0, 0, 1), (4, 0, 1), (4, 0, -1)),
)


def test_oracle_on_trivial_diagrams():
    assert conway_skein_oracle(UNKNOT).coefficients == (1,)
    assert conway_skein_oracle(UNLINK2).coefficients == ()
    assert conway_skein_oracle(UNKNOT).a2 == 0


@pytest.mark.parametrize(
    "k,expected",
    [
        (3, (1, 0, 1)),
        (5, (1, 0, 3, 0, 1)),
        (7, (1, 0, 6, 0, 5, 0, 1)),
    ],
)
def test_oracle_on_torus_knots(k, expected):
    assert conway_skein_oracle(torus_2k_diagram(k, 1)).coefficients == expected
    # The mirror negates odd coefficients only, which are all zero here.
    assert conway_skein_oracle(torus_2k_diagram(k, -1)).coefficients == expected


def test_oracle_on_hopf_links():
    assert conway_skein_oracle(hopf_diagram(1)).coefficients == (0, 1)
    assert conway_skein_oracle(hopf_diagram(-1)).coefficients == (0, -1)


def test_oracle_rejects_oversized_and_malformed_diagrams():
    with pytest.raises(OracleLimitExceeded):
        conway_skein_oracle(torus_2k_diagram(21, 1))
    lopsided = LinkDiagram(passages=(((0, True),),), signs=(1,))
    with pytest.raises(ValueError):
        conway_skein_oracle(lopsided)


def test_linking_number_of_hopf_diagram():
    for sign in (1, -1):
        table = CrossingTable(hopf_forward(sign))
        assert table.restrict(HOPF_WALKS) == hopf_diagram(sign)
        assert cycle_invariant([(0, table)], HOPF_WALKS)[0] == sign
        assert shard_values([(0, table)], [HOPF_WALKS]) == ([sign], bytearray(1))
    # One mutual crossing alone leaves an odd total.
    odd = CrossingTable({**hopf_forward(1), (1, 2): (), (4, 5): ()})
    with pytest.raises(InvariantContractError):
        cycle_invariant([(0, odd)], HOPF_WALKS)
    with pytest.raises(InvariantContractError):
        shard_values([(0, odd)], [HOPF_WALKS])


def test_calibration_survivors_are_the_two_mirror_duals():
    samples = []
    for k, expected in ((3, 1), (5, 3), (7, 6)):
        for sign in (1, -1):
            d = torus_2k_diagram(k, sign)
            samples.append((d, expected))
    pts, a2, _ = STICK_ANCHORS["figure_eight_heptagon"]
    for dia, _ in diagram_for((pts,), seed=0):
        samples.append((dia, a2))
        break
    # Randomized widening: many hexagons, expected value from the oracle.
    made = 0
    seed = 0
    while made < 40:
        seed += 1
        e = random_rectilinear_embedding(6, seed=seed, coord_range=9)
        for c in enumerate_cycles(e.graph, 6)[:4]:
            for dia, _ in diagram_for((cycle_points_scaled(e, c),), seed=0):
                if dia.crossing_count <= 12:
                    samples.append((dia, conway_skein_oracle(dia).a2))
                    made += 1
                break
    survivors = calibrate_a2_patterns(samples)
    assert ((True, False), 1) in survivors
    assert ((False, True), 1) in survivors
    assert len(survivors) == 2
    assert (A2_PATTERN, A2_SIGN) in survivors
    # The reference `_a2` and the package's loop count that survivor.
    for d, _ in samples:
        arrows = _knot_arrows(d)
        assert _a2(arrows) == _a2_with_pattern(arrows, A2_PATTERN, A2_SIGN)
        table, cycle = diagram_table(d)
        assert shard_values([(0, table)], [cycle])[0] == [_a2(arrows)]


gauss_codes = st.integers(0, 8).flatmap(lambda c: st.tuples(
    st.permutations([(i, over) for i in range(c) for over in (True, False)]),
    st.lists(st.sampled_from([1, -1]), min_size=c, max_size=c),
))


@settings(max_examples=150, deadline=None)
@given(gauss_codes)
# Realizable by no knot: its calibrated count is 1, its mirror dual's 0.
@example((((0, True), (1, False), (0, False), (1, True)), [1, 1]))
def test_loop_counts_the_calibrated_pattern_on_any_gauss_code(code):
    # Only the calibrated pattern, not its mirror dual, which agrees
    # with it on every realizable code.
    passages, signs = code
    d = LinkDiagram((tuple(passages),), tuple(signs))
    table, cycle = diagram_table(d)
    # The table's cycle has the code's signs, relabelled by first encounter.
    first_met = dict.fromkeys(cid for cid, _ in passages)
    assert table.restrict((cycle,)).signs == tuple(signs[cid] for cid in first_met)
    expected = _a2_with_pattern(_knot_arrows(d), A2_PATTERN, A2_SIGN)
    assert shard_values([(0, table)], [cycle]) == ([expected], bytearray(1))


def test_frozen_pattern_matches_oracle_on_anchor_sticks():
    for name, (pts, a2, conway) in STICK_ANCHORS.items():
        value, ncross, _, _ = curve_invariant((pts,), seed=0, verify_frames=3)
        assert value == a2, name
        for dia, _ in diagram_for((pts,), seed=0):
            assert conway_skein_oracle(dia).coefficients == conway, name
            break


def test_audit_flag_reports_oracle_agreement():
    pts, a2, _ = STICK_ANCHORS["trefoil_hexagon"]
    value, ncross, frame_index, audited = curve_invariant((pts,), seed=0, audit=True)
    assert (value, audited) == (a2, True)
    assert ncross >= 3
    assert frame_index == 0


def test_positive_hopf_pair_has_linking_number_plus_one():
    lk, ncross, _, audited = curve_invariant(HOPF_STICKS, seed=0, audit=True)
    assert lk == 1
    assert audited
    assert ncross >= 2


def test_reversing_one_component_negates_lk():
    a, b = HOPF_STICKS
    lk_pp, *_ = curve_invariant((a, b), seed=0)
    lk_pr, *_ = curve_invariant((a, tuple(reversed(b))), seed=0)
    lk_rr, *_ = curve_invariant((tuple(reversed(a)), tuple(reversed(b))), seed=0)
    assert lk_pr == -lk_pp
    assert lk_rr == lk_pp


def test_reversing_orientation_preserves_a2():
    for name, (pts, a2, _) in STICK_ANCHORS.items():
        value, *_ = curve_invariant((tuple(reversed(pts)),), seed=0)
        assert value == a2, name


def test_mirror_image_preserves_a2():
    for name, (pts, a2, _) in STICK_ANCHORS.items():
        mirrored = tuple((x, y, -z) for x, y, z in pts)
        value, *_ = curve_invariant((mirrored,), seed=0)
        assert value == a2, name


def test_mirror_image_negates_lk():
    a, b = HOPF_STICKS
    ma = tuple((x, y, -z) for x, y, z in a)
    mb = tuple((x, y, -z) for x, y, z in b)
    lk, *_ = curve_invariant((ma, mb), seed=0)
    assert lk == -1


@pytest.mark.parametrize("seed", [2, 5, 8])
def test_values_are_frame_independent(seed):
    e = random_rectilinear_embedding(6, seed=seed)
    for c in enumerate_cycles(e.graph, 6)[:8]:
        pts = cycle_points_scaled(e, c)
        v1, *_ = curve_invariant((pts,), seed=0, verify_frames=4)
        v2, *_ = curve_invariant((pts,), seed="other-frames", verify_frames=2)
        assert v1 == v2


def _rotate(arrows: list[Arrow], shift: int) -> list[Arrow]:
    n = 2 * len(arrows)
    return [((o + shift) % n, (u + shift) % n, s) for o, u, s in arrows]


def test_a2_is_basepoint_independent_on_small_diagrams():
    diagrams = [torus_2k_diagram(k, s) for k in (3, 5, 7) for s in (1, -1)]
    pts, _, _ = STICK_ANCHORS["figure_eight_heptagon"]
    for dia, _ in diagram_for((pts,), seed=0):
        diagrams.append(dia)
        break
    for dia in diagrams:
        arrows = _knot_arrows(dia)
        base = _a2(arrows)
        for shift in range(1, 2 * len(arrows)):
            assert _a2(_rotate(arrows, shift)) == base


def test_rejected_patterns_fail_on_the_figure_eight():
    # The symmetric patterns and the negated sign all miss the figure
    # eight's a2 of -1, leaving only the two mirror-dual survivors.
    pts, a2, _ = STICK_ANCHORS["figure_eight_heptagon"]
    for dia, _ in diagram_for((pts,), seed=0):
        arrows = _knot_arrows(dia)
        break
    for pattern in ((True, True), (False, False)):
        for sign in (1, -1):
            assert _a2_with_pattern(arrows, pattern, sign) != a2
    assert _a2_with_pattern(arrows, A2_PATTERN, -A2_SIGN) != a2
    assert _a2_with_pattern(arrows, A2_PATTERN, A2_SIGN) == a2


def test_moment_trefoil_knot():
    e = moment_curve_embedding(7)
    c = canonical_cycle((1, 3, 5, 7, 2, 4, 6))
    value, ncross, _, audited = curve_invariant(
        (cycle_points_scaled(e, c),), seed=0, audit=True
    )
    assert value == 1
    assert audited


def test_conway_polynomial_accessors():
    p = ConwayPolynomial((1, 0, -1))
    assert p.a1 == 0
    assert p.a2 == -1
    assert p.coefficient(5) == 0
    assert str(p) == "1 + -1*z^2"
    assert str(ConwayPolynomial(())) == "0"


def test_stick_bound_values():
    assert [stick_bound_a2(n) for n in (6, 7, 8, 9)] == [1, 4, 12, 28]
    with pytest.raises(ValueError):
        stick_bound_a2(5)


def test_anchor_values_respect_stick_bounds():
    for name, (pts, a2, _) in STICK_ANCHORS.items():
        assert abs(a2) <= stick_bound_a2(len(pts)), name


def test_triangle_pair_classification():
    assert classify_triangle_triangle(0, True) == "trivial"
    assert classify_triangle_triangle(1, True) == "hopf"
    assert classify_triangle_triangle(-1, False) == "hopf"
    assert classify_triangle_triangle(2, True) == "other"
    assert classify_triangle_triangle(-3, False) == "nontrivial"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_hexagons_stay_within_stick_bound(seed):
    e = random_rectilinear_embedding(6, seed=f"hex:{seed}", coord_range=12)
    c = enumerate_cycles(e.graph, 6)[0]
    value, *_ = curve_invariant((cycle_points_scaled(e, c),), seed=0)
    assert abs(value) <= stick_bound_a2(6)


# ---------------------------------------------------------------------------
# The audit routes: Alexander polynomial (knots), one-sided count (links)


def _first_diagram(*curves) -> LinkDiagram:
    for dia, _ in diagram_for(curves, seed=0):
        return dia


@pytest.mark.parametrize(
    "diagram,delta",
    [
        (UNKNOT, (1,)),
        (torus_2k_diagram(3, 1), (1, -1, 1)),
        (torus_2k_diagram(3, -1), (1, -1, 1)),
        (torus_2k_diagram(5, 1), (1, -1, 1, -1, 1)),
        (torus_2k_diagram(5, -1), (1, -1, 1, -1, 1)),
        (torus_2k_diagram(7, 1), (1, -1, 1, -1, 1, -1, 1)),
        (torus_2k_diagram(7, -1), (1, -1, 1, -1, 1, -1, 1)),
        (_first_diagram(STICK_ANCHORS["trefoil_hexagon"][0]), (1, -1, 1)),
        (_first_diagram(STICK_ANCHORS["figure_eight_heptagon"][0]), (-1, 3, -1)),
    ],
)
def test_alexander_polynomial_of_anchor_diagrams(diagram, delta):
    assert alexander_polynomial(diagram) == delta
    assert alexander_a2(diagram) == conway_skein_oracle(diagram).a2
    assert fox_a2(diagram) == alexander_a2(diagram)


def test_alexander_route_rejects_what_is_not_a_knot():
    one_passage = LinkDiagram(passages=(((0, True),),), signs=(1,))
    # A Gauss code no closed curve in the plane realizes: its Fox matrix
    # gives 2 - t, which is not symmetric, and its traces at t = 1 + eps
    # break the eps^3 term that symmetry forces.
    virtual = LinkDiagram(
        passages=(((2, 0), (1, 1), (2, 1), (0, 0), (1, 0), (0, 1)),),
        signs=(-1, 1, 1),
    )
    for route in (alexander_polynomial, fox_a2):
        with pytest.raises(ValueError):
            route(hopf_diagram(1))
        with pytest.raises(ValueError):
            route(one_passage)
        with pytest.raises(InvariantContractError):
            route(virtual)


def _leibniz(m: list[list[int]]) -> int:
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total += (-1) ** inversions * prod(row[c] for row, c in zip(m, perm))
    return total


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
@example([[0, 1], [1, 0]])  # a zero pivot: rows swap
@example([[0, 2, 1], [0, 1, 3], [5, 1, 1]])  # the swap row is two rows down
@example([[0, 1], [0, 1]])  # a zero column: singular
@example([[1, 2, 3], [2, 4, 6], [1, 1, 1]])  # a zero pivot after a step: singular
def test_integer_determinant_equals_leibniz_expansion(m):
    assert _determinant([row[:] for row in m]) == _leibniz(m)


def test_bareiss_remainder_is_a_contract_violation(monkeypatch):
    # Sylvester's identity makes every Bareiss division exact on real
    # input, so the guard is reached only through a division that lies.
    monkeypatch.setattr(oracle, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(InvariantContractError, match="remainder"):
        alexander_polynomial(torus_2k_diagram(3, 1))


@pytest.mark.parametrize("k", [19, 21])
def test_alexander_polynomial_of_wide_torus_knots(k):
    # Past the oracle's limit: Delta = sum_{i<k} (-t)^i and a2 = (k^2-1)/8.
    for sign in (1, -1):
        d = torus_2k_diagram(k, sign)
        assert alexander_polynomial(d) == tuple((-1) ** i for i in range(k))
        assert alexander_a2(d) == fox_a2(d) == (k * k - 1) // 8


def test_alexander_a2_matches_gauss_formula_on_dense_k9_diagrams():
    # Up to five Hamiltonian knots of random K9 for each crossing count
    # from 13 to 21, where the digits of the integer determinant are widest.
    e = random_rectilinear_embedding(9, seed=0)
    index, table = GraphProjection(e, 0, 1, FRAME_RETRY_LIMIT).tables[0]
    assert index == 0
    per_count: dict[int, list[tuple[int, ...]]] = {}
    for c in enumerate_cycles(e.graph, 9):
        count = len(arrows(table, coded_walk(c)))
        if count >= 13 and len(per_count.setdefault(count, [])) < 5:
            per_count[count].append(c)
    walks = [(vs,) for vss in per_count.values() for vs in vss]
    assert sorted(per_count) == list(range(13, 22)) and len(walks) == 42
    for w in walks:
        d = table.restrict(w)
        assert alexander_a2(d) == fox_a2(d) == cycle_invariant([(0, table)], w)[0]
        assert shard_values([(0, table)], w)[0] == [fox_a2(d)]


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([6, 7, 8]), st.integers(0, 10**6), st.booleans())
@example(8, 0, True)
def test_fox_route_equals_the_whole_alexander_polynomial(n, seed, bent):
    # Every cycle of a random straight or fully bent polyline K_n, read
    # at the whole graph's first accepted table.
    if bent:
        e = random_polyline_embedding(n, f"fox:{seed}", coord_range=20, bent_edges=n * (n - 1) // 2)
    else:
        e = random_rectilinear_embedding(n, seed=f"fox:{seed}")
    _, table = GraphProjection(e, 0, 1, FRAME_RETRY_LIMIT).tables[0]
    for k in range(3, n + 1):
        for c in enumerate_cycles(e.graph, k):
            d = table.restrict((c,))
            assert fox_a2(d) == alexander_a2(d), c


def test_one_sided_count_of_hopf_diagrams():
    assert one_sided_linking_number(hopf_diagram(1)) == 1
    assert one_sided_linking_number(hopf_diagram(-1)) == -1
    assert one_sided_linking_number(UNLINK2) == 0
    with pytest.raises(ValueError):
        one_sided_linking_number(UNKNOT)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([6, 7]))
def test_audit_routes_match_the_skein_oracle(seed, n):
    e = random_rectilinear_embedding(n, seed=f"audit:{seed}", coord_range=12)
    for c in enumerate_cycles(e.graph, n)[:6]:
        dia = _first_diagram(cycle_points_scaled(e, c))
        if dia.crossing_count <= 12:
            assert alexander_a2(dia) == fox_a2(dia) == conway_skein_oracle(dia).a2
    for a, b in enumerate_disjoint_pairs(e.graph, 3, 3)[:6]:
        curves = (cycle_points_scaled(e, a), cycle_points_scaled(e, b))
        dia = _first_diagram(*curves)
        lk = one_sided_linking_number(dia)
        assert lk == conway_skein_oracle(dia).a1
        assert lk == curve_invariant(curves, seed=0, verify_frames=1)[0]


def _off_by(fn, step):
    def wrong(*args):
        return fn(*args) + step

    return wrong


def test_audit_catches_a_wrong_fast_path_value(monkeypatch):
    # Loose curves (curve_invariant) and embeddings
    # (EmbeddingAnalysis) read every value through the same per-table
    # two-arrow count and linking number of `shard_values`; both are
    # made wrong, a2 and lk by one.
    pts, _, _ = STICK_ANCHORS["trefoil_hexagon"]
    monkeypatch.setattr(invariants, "_a2_at", _off_by(invariants._a2_at, 1))
    monkeypatch.setattr(invariants, "_lk_at", _off_by(invariants._lk_at, 1))
    curve_invariant((pts,), seed=0)
    curve_invariant(HOPF_STICKS, seed=0)
    EmbeddingAnalysis(moment_curve_embedding(6)).knot_records(6)
    with pytest.raises(InvariantContractError, match="Alexander"):
        curve_invariant((pts,), seed=0, audit=True)
    with pytest.raises(InvariantContractError, match="one-sided"):
        curve_invariant(HOPF_STICKS, seed=0, audit=True)
    with pytest.raises(InvariantContractError, match="Alexander"):
        EmbeddingAnalysis(moment_curve_embedding(6), audit=True).knot_records(6)
    with pytest.raises(InvariantContractError, match="one-sided"):
        EmbeddingAnalysis(moment_curve_embedding(6), audit=True).link_records(3, 3)


def _audited_diagram(table: CrossingTable, subject: tuple) -> LinkDiagram | None:
    """The diagram of a cycle or pair at `table`, if the audit reads it."""
    d = table.restrict((subject,) if type(subject[0]) is int else subject)
    return d if d.crossing_count <= invariants.AUDIT_CROSSING_LIMIT else None


def _repeat_in_second_half(table: CrossingTable, subjects: list) -> tuple:
    """The first subject in the second half of `subjects` whose audited
    diagram at `table` an earlier subject of that half also has, and
    that diagram."""
    seen = set()
    for s in subjects[len(subjects) // 2:]:
        d = _audited_diagram(table, s)
        if d is not None:
            if d in seen:
                return s, d
            seen.add(d)
    raise AssertionError("no audited diagram repeats")


def _seen_in_first_half(table: CrossingTable, earlier: list, subjects: list) -> tuple:
    """The first of `subjects` with crossings whose audited diagram at
    `table` a subject of the first half of `earlier` also has, and that
    diagram."""
    seen = {_audited_diagram(table, s) for s in earlier[: len(earlier) // 2]}
    for s in subjects:
        d = _audited_diagram(table, s)
        if d is not None and d.crossing_count and d in seen:
            return s, d
    raise AssertionError("no audited diagram is shared")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", ["knot", "link", "cross-class"])
def test_audit_compares_a_value_whose_diagram_was_audited_before(monkeypatch, case, threads):
    # One value is made wrong by one: that of a subject whose diagram an
    # earlier subject of the same shard (the second of two) already had
    # audited, so the audit route's value comes from the memo.  Across
    # classes, the subject is a 7-cycle and the earlier one a 6-cycle of
    # the first shard, which the calling process evaluates: the memo
    # lives as long as the analysis, and a forked shard inherits it.
    e = moment_curve_embedding(7)
    tables = GraphProjection(e, 0, 1, FRAME_RETRY_LIMIT).tables
    knot = case != "link"
    sixes = enumerate_cycles(e.graph, 6)
    if case == "cross-class":
        target, d = _seen_in_first_half(tables[0][1], sixes, enumerate_cycles(e.graph, 7))
    else:
        subjects = sixes if knot else enumerate_disjoint_pairs(e.graph, 3, 3)
        target, d = _repeat_in_second_half(tables[0][1], subjects)
    walked, against = (target, target) if knot else target
    walk, factor = coded_walk(walked)[0], coded_walk(against)[1]
    name = "_a2_at" if knot else "_lk_at"
    read = getattr(invariants, name)

    def planted(passes, w, fac, *buffers):
        wrong = w == walk and all(fac[c] == f for c, f in factor.items())
        return read(passes, w, fac, *buffers) + wrong

    routed = []

    def recorded(diagram):
        routed.append(diagram)
        return fox_a2(diagram)

    monkeypatch.setattr(invariants, name, planted)
    monkeypatch.setattr(invariants, "fox_a2", recorded)
    a = EmbeddingAnalysis(e, seed=0, threads=threads, audit=True)
    if case == "cross-class":
        a.summary(("a2", 6))
        assert d in routed
        routed.clear()
    with pytest.raises(InvariantContractError) as info:
        a.summary(("a2", 7) if case == "cross-class" else ("a2", 6) if knot else ("lk2", 3, 3))
    if case == "cross-class":
        assert d not in routed
    if knot:
        value = fox_a2(d)
        assert str(info.value) == f"gauss-formula a2 {value + 1} != Alexander a2 {value}"
    else:
        value = one_sided_linking_number(d)
        assert str(info.value) == f"linking number {value + 1} != one-sided count {value}"


# ---------------------------------------------------------------------------
# The audit memo's key, built by the walk that reads a2


def _walk_codes(table: CrossingTable, cycle: tuple) -> list[int]:
    """The arrow codes `_a2_at` lists walking `cycle` at `table`, which
    the memo key is built from."""
    walk, factor = coded_walk(cycle)
    fac = [0] * len(table.passes)
    for code, f in factor.items():
        fac[code] = f
    codes: list[int] = []
    invariants._a2_at(table.passes, walk, fac, [None] * table.crossings,
                      [None] * table.crossings, codes)
    return codes


def _assert_walk_keys_equal_diagram_keys(table: CrossingTable, cycles) -> int:
    """Check every cycle's walk key at `table` against its restricted
    diagram's; return how many the audit reads."""
    audited = 0
    for c in cycles:
        d = table.restrict((c,))
        codes = _walk_codes(table, c)
        assert invariants._memo_key(codes) == invariants._diagram_key(d), c
        assert len(codes) == d.crossing_count, c
        audited += d.crossing_count <= invariants.AUDIT_CROSSING_LIMIT
    return audited


@pytest.mark.parametrize(
    "e",
    [moment_curve_embedding(6), moment_curve_embedding(7), moment_curve_embedding(8),
     random_rectilinear_embedding(7, seed=0), random_rectilinear_embedding(8, seed=0),
     random_polyline_embedding(7, 0), random_k331_embedding(1)],
    ids=["moment6", "moment7", "moment8", "random7", "random8", "polyline7", "k331"],
)
def test_walk_key_equals_the_restricted_diagrams_key(e):
    # Every knot of every length at the first accepted table: the walk's
    # key is the restricted diagram's, and its length the crossing count
    # the audit limit is read from.
    _, table = GraphProjection(e, 0, 1, FRAME_RETRY_LIMIT).tables[0]
    cycles = [c for k in range(3, e.n + 1) for c in enumerate_cycles(e.graph, k)]
    assert _assert_walk_keys_equal_diagram_keys(table, cycles) > 0


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([6, 7]), st.integers(0, 10**6), st.booleans(), st.integers(0, 3))
def test_walk_key_equals_the_restricted_diagrams_key_on_random_embeddings(n, seed, bent, frame_seed):
    # Random straight or fully bent polyline K6-K7, at both accepted tables.
    if bent:
        e = random_polyline_embedding(n, f"key:{seed}", bent_edges=n * (n - 1) // 2)
    else:
        e = random_rectilinear_embedding(n, seed=f"key:{seed}")
    cycles = [c for k in range(3, n + 1) for c in enumerate_cycles(e.graph, k)]
    for _, table in GraphProjection(e, frame_seed, 1, FRAME_RETRY_LIMIT).tables:
        _assert_walk_keys_equal_diagram_keys(table, cycles)


def _decoded(key: bytes) -> LinkDiagram:
    """The knot diagram that `key` encodes: its arrow codes unmarshalled,
    each arrow's two positions from the inverse Cantor pairing, crossings
    numbered by first pass."""
    arrows = []
    for x in marshal.loads(key):
        z = x >> 2
        w = (isqrt(8 * z + 1) - 1) // 2
        end = z - w * (w + 1) // 2
        arrows.append((w - end, end, x >> 1 & 1, 1 if x & 1 else -1))
    passages: list = [None] * (2 * len(arrows))
    signs = []
    for cid, (start, end, over, sign) in enumerate(sorted(arrows)):
        passages[start], passages[end] = (cid, over), (cid, 1 - over)
        signs.append(sign)
    return LinkDiagram((tuple(passages),), tuple(signs))


def test_diagram_key_is_exact_above_127_crossings():
    # The (2, 131) torus knot, with one crossing's sign flipped and,
    # separately, one crossing's over and under exchanged: each key reads
    # back to its own diagram, and the walk of its laid-out table builds it.
    d = torus_2k_diagram(131, 1)
    (passages,) = d.passages
    flipped = d._replace(signs=(-1,) + d.signs[1:])
    swapped = d._replace(passages=((passages[131], *passages[1:131], passages[0],
                                    *passages[132:]),))
    keys = set()
    for diagram in (d, flipped, swapped):
        key = invariants._diagram_key(diagram)
        assert len(marshal.loads(key)) == diagram.crossing_count == 131
        assert _decoded(key) == diagram
        table, cycle = diagram_table(diagram)
        assert invariants._memo_key(_walk_codes(table, cycle)) == key
        keys.add(key)
    assert len(keys) == 3


def test_equal_code_lists_of_distinct_int_objects_share_a_key():
    # Marshal's default version writes an int object met twice as a
    # reference to the first; the key must not depend on which objects
    # the codes are, only on their values, however large.
    big = 2**70 + 5
    same = [5000, 5000, big, big]
    assert same[0] is same[1] and same[2] is same[3]
    distinct = [int(str(x)) for x in same]
    assert distinct == same and distinct[0] is not distinct[1] and distinct[2] is not distinct[3]
    key = invariants._memo_key(same)
    assert invariants._memo_key(distinct) == key
    assert marshal.loads(key) == tuple(same)


def test_the_memo_is_the_one_audit_argument():
    # A dict audits and keeps `fox_a2`'s value of each audited knot
    # diagram; no memo reads the same values and audits nothing; an
    # unaudited analysis keeps no memo.
    e = moment_curve_embedding(7)
    tables = GraphProjection(e, 0, 1, FRAME_RETRY_LIMIT).tables
    first = tables[0][1]
    subjects = enumerate_cycles(e.graph, 6) + enumerate_disjoint_pairs(e.graph, 3, 3)
    memo = {}
    values, audited = shard_values(tables, subjects, memo)
    assert 0 < audited.count(1)
    knots = {first.restrict((s,)) for s, flag in zip(subjects, audited) if flag and len(s) == 6}
    assert memo == {invariants._diagram_key(d): fox_a2(d) for d in knots}
    assert any(flag for s, flag in zip(subjects, audited) if len(s) == 2)
    assert shard_values(tables, subjects) == (values, bytearray(len(subjects)))
    assert EmbeddingAnalysis(e)._audit_memo is None
    assert EmbeddingAnalysis(e, audit=True)._audit_memo == {}


def test_a_corrupt_walk_key_is_refused_on_a_memo_miss(monkeypatch):
    # The walk flips the sign of its first arrow: unaudited reads never
    # see it, and the first audited miss with a crossing refuses it.
    read = invariants._a2_at

    def corrupt(passes, walk, fac, opened, closed, arrows=None):
        value = read(passes, walk, fac, opened, closed, arrows)
        if arrows:
            arrows[0] ^= 1
        return value

    monkeypatch.setattr(invariants, "_a2_at", corrupt)
    e = moment_curve_embedding(7)
    EmbeddingAnalysis(e).knot_records(7)
    with pytest.raises(InvariantContractError, match="walk's diagram key of .* != its restricted"):
        EmbeddingAnalysis(e, audit=True).knot_records(7)


@pytest.mark.parametrize(
    "verify_frames,retry_limit",
    [(-1, FRAME_RETRY_LIMIT), (0, FRAME_RETRY_LIMIT), (1, 0), (1, -4),
     (1.5, FRAME_RETRY_LIMIT), (2.0, FRAME_RETRY_LIMIT), (1, 1.5), (1, 2.0),
     (True, FRAME_RETRY_LIMIT), (False, FRAME_RETRY_LIMIT), (1, True), (1, False)],
)
def test_bad_frame_budget_is_refused(verify_frames, retry_limit):
    budget = {"verify_frames": verify_frames, "retry_limit": retry_limit}
    with pytest.raises(ValueError):
        EmbeddingAnalysis(moment_curve_embedding(6), **budget)
    a, b = HOPF_STICKS
    with pytest.raises(ValueError):
        curve_invariant((a,), seed=0, **budget)
    with pytest.raises(ValueError):
        curve_invariant((a, b), seed=0, **budget)
