"""End-to-end acceptance: each numbered criterion prints one line.

Criteria run in order and share an audit tally (criterion 6 checks that
the audit routes agreed on every small diagram the earlier criteria
produced).
All comparisons are exact; runtime budgets are asserted, not advisory.
"""

from __future__ import annotations

import os
import time

from knotcensus.geometry import (
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
)
from knotcensus.graphs import enumerate_cycles, enumerate_disjoint_pairs
from knotcensus.invariants import curve_invariant
from knotcensus.theorems import (
    EmbeddingAnalysis,
    census,
    r_n,
    verify_embedding,
    verify_identity,
)

AUDIT_TALLY = {"knots": 0, "links": 0}


def _criterion(num: int, budget: float, label: str, fn):
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num}: FAIL after {elapsed:.2f}s - {label}")
        raise
    elapsed = time.perf_counter() - start
    line = f"criterion {num}: PASS in {elapsed:.2f}s (budget {budget:.0f}s) - {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _tally(analysis: EmbeddingAnalysis) -> None:
    AUDIT_TALLY["knots"] += analysis.audited_knots
    AUDIT_TALLY["links"] += analysis.audited_links


def test_criterion_1_moment_k6():
    def body():
        e = moment_curve_embedding(6)
        a = EmbeddingAnalysis(e, seed=0, audit=True)
        reports, a = verify_embedding(e, analysis=a)
        assert len(reports) == 7
        assert all(r.passed for r in reports)
        assert a.sum_lk_sq(3, 3) == 1
        _tally(a)
        return f"{len(reports)} identities"

    _criterion(1, 1.0, "moment-curve K6, every applicable identity", body)


def test_criterion_2_moment_k7():
    def body():
        e = moment_curve_embedding(7)
        a = EmbeddingAnalysis(e, seed=0, audit=True)
        reports, a = verify_embedding(e, analysis=a)
        assert all(r.passed for r in reports)
        ham = a.knot_records(7)
        knotted = [r for r in ham if r.value != 0]
        assert len(knotted) == 1
        assert knotted[0].subject == (1, 3, 5, 7, 2, 4, 6)
        assert knotted[0].value == 1
        _tally(a)
        return "unique trefoil (1,3,5,7,2,4,6)"

    _criterion(2, 5.0, "moment-curve K7, identities plus the lone knot", body)


def test_criterion_3_moment_k8():
    def body():
        e = moment_curve_embedding(8)
        a = EmbeddingAnalysis(e, seed=0, audit=True)
        reports, a = verify_embedding(e, analysis=a)
        assert all(r.passed for r in reports)
        assert a.sum_lk_sq(3, 3) == 28
        rep = census(e, analysis=a)
        assert rep.a2_histogram == {0: 2499, 1: 21}
        assert rep.positive_a2_count == 21
        cong = next(r for r in reports if r.identity_id == "residue-congruence")
        assert cong.extra["modulus"] == 6 and cong.sums["value"] % 6 == 3
        bounds = next(r for r in reports if r.identity_id == "a2-bounds")
        assert bounds.rhs == 21 <= a.sum_a2(8) <= bounds.extra["upper"] == 189
        _tally(a)
        return "28 squared links, 21 trefoils, residue 3 mod 6"

    _criterion(3, 60.0, "moment-curve K8, census and congruence", body)


def test_criterion_4_random_embeddings():
    picks = (
        [("rect", 6, s) for s in range(8)]
        + [("rect", 7, s) for s in range(7)]
        + [("rect", 8, s) for s in range(5)]
        + [("poly", 6, s) for s in (0, 16, 24)]
        + [("poly", 7, s) for s in (17, 19)]
    )

    def body():
        checked = 0
        knotted_pentagons = 0
        for kind, n, seed in picks:
            if kind == "rect":
                e = random_rectilinear_embedding(n, seed=seed)
            else:
                e = random_polyline_embedding(n, seed, coord_range=30, bent_edges=4)
            a = EmbeddingAnalysis(e, seed=0, audit=True)
            reports, a = verify_embedding(e, analysis=a)
            assert all(r.passed for r in reports), (kind, n, seed)
            checked += len(reports)
            if kind == "poly" and a.sum_a2(5) != 0:
                knotted_pentagons += 1
            _tally(a)
        assert knotted_pentagons == 4  # the 5-cycle term is genuinely exercised
        return f"25 embeddings, {checked} reports, {knotted_pentagons} with knotted pentagons"

    _criterion(
        4, 600.0, "20 random straight + 5 polyline embeddings, all identities", body
    )


def test_criterion_5_random_tripartite():
    def body():
        for seed in range(10):
            e = random_k331_embedding(seed=seed)
            a = EmbeddingAnalysis(e, seed=0, audit=True)
            rep = verify_identity("k331-identity", analysis=a)
            assert rep.passed, seed
            _tally(a)
        return "10 embeddings"

    _criterion(5, 60.0, "tripartite apex identity on 10 random embeddings", body)


def test_criterion_6_oracle_agreement():
    def body():
        knots, links = AUDIT_TALLY["knots"], AUDIT_TALLY["links"]
        # Every audited diagram (at most 12 crossings) was checked at
        # compute time by the independent route: a2 from the Alexander
        # polynomial for knots, the one-sided crossing count for links.
        # A disagreement would have raised InvariantContractError inside
        # criteria 1-5.  Here we check the audits actually happened at
        # scale.
        assert knots > 5000, knots
        assert links > 2000, links
        return f"{knots} knot and {links} link diagrams agreed"

    _criterion(
        6, 1.0, "Alexander a2 and one-sided lk agreed on all small diagrams above", body
    )


def test_criterion_7_frame_independence():
    def body():
        e = random_rectilinear_embedding(7, seed=77)
        cycles = enumerate_cycles(e.graph, 7)[:15]
        pairs = enumerate_disjoint_pairs(e.graph, 3, 3)[:10]
        subjects = [(c,) for c in cycles] + list(pairs)
        for subject in subjects:
            curves = tuple(e.cycle_points_scaled(c) for c in subject)
            curve_invariant(curves, seed=0, verify_frames=4)
        return "15 knots + 10 links, 5 frames each"

    _criterion(
        7, 60.0, "25 subjects agree across five independent frames", body
    )


def test_criterion_8_guaranteed_count_table():
    def body():
        got = [r_n(n) for n in range(7, 16)]
        expected = [1, 2, 12, 92, 772, 7187, 73628, 823680, 10015889]
        assert got == expected
        return "r_7..r_15 " + ",".join(map(str, got))

    _criterion(8, 1.0, "guaranteed positive-knot counts for n=7..15", body)


def test_criterion_9_random_k9():
    def body():
        e = random_rectilinear_embedding(9, seed=3)
        a = EmbeddingAnalysis(e, seed=0, threads=os.cpu_count() or 1)
        reports, a = verify_embedding(e, analysis=a)
        assert all(r.passed for r in reports)
        ids = {r.identity_id for r in reports}
        assert {"main-identity", "hexagon-lemma", "square-lemma",
                "residue-congruence", "a2-bounds"} <= ids
        return f"{len(reports)} identities at n=9"

    _criterion(9, 900.0, "full verification of a random straight K9", body)
