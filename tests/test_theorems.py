"""Identity reports, congruences, bounds, and the census."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from knotcensus.errors import IdentityViolation, ScaleLimitExceeded
from knotcensus.geometry import (
    SpatialEmbedding,
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
)
from knotcensus.theorems import (
    EmbeddingAnalysis,
    applicable_identities,
    census,
    check_bounds,
    check_congruence,
    check_mod2,
    expected_residue,
    lower_bound_value,
    r_n,
    sum_a2,
    sum_lk_sq,
    upper_bound_value,
    verify_embedding,
    verify_k6_identity,
    verify_k7_identity,
    verify_k331_identity,
    verify_lemma21_1,
    verify_lemma21_2,
    verify_main_identity,
)

R_TABLE = {
    7: 1,
    8: 2,
    9: 12,
    10: 92,
    11: 772,
    12: 7187,
    13: 73628,
    14: 823680,
    15: 10015889,
}


def test_moment_k6_sums_and_identities():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    assert a.sum_a2(6) == 0
    assert a.sum_a2(5) == 0
    assert a.sum_lk_sq(3, 3) == 1
    assert a.sum_lk(3, 3) in (1, -1)
    reports, _ = verify_embedding(e, analysis=a)
    assert {r.identity_id for r in reports} == set(applicable_identities(e))
    assert all(r.passed for r in reports)


def test_moment_k7_sums_and_identities():
    e = moment_curve_embedding(7)
    a = EmbeddingAnalysis(e, seed=0)
    assert a.sum_lk_sq(3, 3) == 7
    assert a.sum_lk_sq(3, 4) == 14
    assert a.sum_a2(7) == 1
    assert a.sum_a2(5) == 0
    reports, _ = verify_embedding(e, analysis=a)
    assert all(r.passed for r in reports)
    main = next(r for r in reports if r.identity_id == "main-identity")
    assert main.lhs == 1
    assert main.witnesses == ({"cycle": [1, 3, 5, 7, 2, 4, 6], "a2": 1},)


def test_moment_k8_census_values():
    e = moment_curve_embedding(8)
    a = EmbeddingAnalysis(e, seed=0)
    reports, _ = verify_embedding(e, analysis=a)
    assert all(r.passed for r in reports)
    assert a.sum_lk_sq(3, 3) == 28
    rep = census(e, analysis=a)
    assert rep.hopf_count == 28
    assert rep.positive_a2_count == 21
    assert rep.a2_histogram == {0: 2499, 1: 21}
    assert rep.passed
    cong = next(r for r in reports if r.identity_id == "residue-congruence")
    assert (cong.modulus, cong.value % cong.modulus) == (6, 3)


@pytest.mark.parametrize("n,attained", [(6, 0), (7, 1), (8, 21), (9, 336)])
def test_moment_curve_attains_the_lower_bound(n, attained):
    e = moment_curve_embedding(n)
    rep = check_bounds(e, seed=0)
    assert rep.lower == lower_bound_value(n) == attained
    assert rep.value == attained
    assert rep.passed
    assert rep.upper == upper_bound_value(n)
    assert rep.rectilinear


def test_hexagon_lemma_reduces_to_k6_identity_at_n6():
    e = random_rectilinear_embedding(6, seed=9)
    a = EmbeddingAnalysis(e, seed=0)
    lemma = verify_lemma21_1(analysis=a)
    k6 = verify_k6_identity(analysis=a)
    assert (lemma.lhs, lemma.rhs) == (k6.lhs, k6.rhs)
    assert lemma.passed and k6.passed


@pytest.mark.parametrize("n,seed", [(6, 1), (7, 2), (8, 11)])
def test_pair_square_sum_parity(n, seed):
    # The hexagon count identity forces the 3,3 square sum to share the
    # parity of C(n, 6) whenever the 5-cycle term vanishes.
    e = random_rectilinear_embedding(n, seed=seed)
    a = EmbeddingAnalysis(e, seed=0)
    assert (a.sum_lk_sq(3, 3) - comb(n, 6)) % 2 == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tripartite_identity_on_random_embeddings(seed):
    e = random_k331_embedding(seed=seed)
    rep = verify_k331_identity(e, seed=0)
    assert rep.passed
    assert rep.sums["sum_lk_sq_34"] % 2 == 1  # rhs parity forced by lhs


def test_polyline_embeddings_with_knotted_pentagons():
    e = random_polyline_embedding(6, seed=16, coord_range=30, bent_edges=4)
    a = EmbeddingAnalysis(e, seed=0)
    assert a.sum_a2(5) == 1
    reports, _ = verify_embedding(e, analysis=a)
    assert all(r.passed for r in reports)
    assert "pentagon-triviality" not in {r.identity_id for r in reports}


def test_applicability_selection():
    assert "k6-identity" in applicable_identities(moment_curve_embedding(6))
    ids7 = applicable_identities(moment_curve_embedding(7))
    assert "k7-identity" in ids7 and "k6-identity" not in ids7
    assert "square-lemma" not in applicable_identities(moment_curve_embedding(6))
    k331 = random_k331_embedding(seed=0)
    assert applicable_identities(k331) == ("k331-identity",)
    bent = random_polyline_embedding(6, seed=1)
    assert "rectilinear-degeneration" not in applicable_identities(bent)


def test_identity_requires_matching_graph():
    e7 = moment_curve_embedding(7)
    with pytest.raises(ValueError):
        verify_k6_identity(e7, seed=0)
    e6 = moment_curve_embedding(6)
    with pytest.raises(ValueError):
        verify_k7_identity(e6, seed=0)
    with pytest.raises(ValueError):
        verify_lemma21_2(e6, seed=0)
    with pytest.raises(ValueError):
        check_congruence(e6, seed=0)
    with pytest.raises(ValueError):
        verify_k331_identity(e6, seed=0)
    with pytest.raises(ValueError):
        check_mod2(moment_curve_embedding(8), seed=0)
    with pytest.raises(ValueError):
        census(random_k331_embedding(seed=0), seed=0)


def test_violation_raised_when_sums_are_corrupted():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    real = a.sum_a2

    def corrupted(k, subgraph=None, tag=""):
        return real(k, subgraph, tag) + (1 if k == 6 else 0)

    a.sum_a2 = corrupted
    with pytest.raises(IdentityViolation) as info:
        verify_k6_identity(analysis=a)
    assert info.value.report.identity_id == "k6-identity"
    rep = verify_k6_identity(analysis=a, raise_on_fail=False)
    assert not rep.passed
    assert rep.to_json()["pass"] is False


def test_non_integral_rhs_cannot_pass():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    a.sum_lk_sq = lambda k, l: 2  # even total makes rhs = 1/2
    rep = verify_main_identity(analysis=a, raise_on_fail=False)
    assert not rep.passed
    assert rep.rhs == Fraction(1, 2)
    assert rep.to_json()["rhs"] == [1, 2]


def test_hamiltonian_ceiling():
    e = moment_curve_embedding(11)
    a = EmbeddingAnalysis(e, seed=0)
    with pytest.raises(ScaleLimitExceeded):
        a.knot_records(11)
    # Non-Hamiltonian classes stay available below the ceiling.
    assert len(a.link_records(3, 3)) == comb(11, 3) * comb(8, 3) // 2


def test_expected_residue_branches():
    assert expected_residue(7) == (2, 1)
    assert expected_residue(8) == (6, 3)
    assert expected_residue(9) == (24, 0)
    assert expected_residue(10) == (120, 0)
    assert expected_residue(15) == (3628800, 1814400)
    assert expected_residue(16) == (39916800, 19958400)
    with pytest.raises(ValueError):
        expected_residue(6)


def test_bound_values():
    assert [lower_bound_value(n) for n in (6, 7, 8, 9, 10)] == [0, 1, 21, 336, 5040]
    assert [upper_bound_value(n) for n in (6, 7, 8, 9, 10)] == [1, 15, 189, 2352, 30240]
    with pytest.raises(ValueError):
        lower_bound_value(5)


def test_guaranteed_positive_count_table():
    for n, expected in R_TABLE.items():
        assert r_n(n) == expected
    with pytest.raises(ValueError):
        r_n(6)


def test_census_on_k6_and_witnesses():
    e = moment_curve_embedding(6)
    rep = census(e, seed=0)
    assert rep.hopf_count == 1
    assert rep.positive_a2_count == 0
    assert rep.a2_histogram == {0: 60}
    assert rep.lk_histogram in ({1: 1, 0: 9}, {-1: 1, 0: 9})
    assert rep.witnesses == ()
    assert rep.min_positive_expected is None
    doc = rep.to_json()
    assert doc["pass"] and doc["n"] == 6


def test_census_positive_count_meets_guarantee():
    e = moment_curve_embedding(7)
    rep = census(e, seed=0)
    assert rep.min_positive_expected == 1
    assert rep.positive_a2_count >= rep.min_positive_expected
    checks = {c["check"] for c in rep.bound_checks}
    assert "positive-count-at-least-guaranteed" in checks
    assert "hopf-count-at-least-choose-6" in checks


def test_analysis_caches_and_reuses_records():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    first = a.knot_records(6)
    assert a.knot_records(6) is first
    assert a.link_records(3, 3) is a.link_records(3, 3)


def test_parallel_and_serial_sums_agree():
    e = random_rectilinear_embedding(6, seed=4)
    serial = EmbeddingAnalysis(e, seed=0, threads=1)
    parallel = EmbeddingAnalysis(e, seed=0, threads=2)
    assert serial.sum_a2(6) == parallel.sum_a2(6)
    assert serial.sum_lk_sq(3, 3) == parallel.sum_lk_sq(3, 3)
    assert [r.value for r in serial.knot_records(6)] == [
        r.value for r in parallel.knot_records(6)
    ]


def test_module_level_sum_helpers():
    e = moment_curve_embedding(6)
    assert sum_a2(e, 6, seed=0) == 0
    assert sum_lk_sq(e, 3, 3, seed=0) == 1


def test_report_json_shapes():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    rep = verify_k6_identity(analysis=a).to_json()
    assert set(rep) == {"identity_id", "n", "sums", "lhs", "rhs", "pass", "witnesses"}
    cong = check_mod2(analysis=a).to_json()
    assert cong["identity_id"] == "mod2-parity"
    assert cong["modulus"] == 2
    bounds = check_bounds(analysis=a).to_json()
    assert bounds["rectilinear"] is True
    assert bounds["upper"] == 1


# ---------------------------------------------------------------------------
# Rigid motions and mirroring, through the whole pipeline


def _record_values(e: SpatialEmbedding) -> tuple[dict, dict]:
    a = EmbeddingAnalysis(e, seed=0, threads=1)
    knots = {r.subject: r.value for k in range(3, e.n + 1) for r in a.knot_records(k)}
    links = {
        r.subject: r.value
        for k, l in ((3, 3), (3, 4))
        if k + l <= e.n
        for r in a.link_records(k, l)
    }
    return knots, links


def _moved(e: SpatialEmbedding, move) -> SpatialEmbedding:
    return SpatialEmbedding(e.graph, {v: move(p) for v, p in e.vertex_positions.items()})


rectilinear = st.builds(
    lambda n, s: random_rectilinear_embedding(n, seed=s),
    st.sampled_from([6, 7]),
    st.integers(0, 10**6),
)


@settings(max_examples=10, deadline=None)
@given(rectilinear, st.tuples(*[st.integers(-10**6, 10**6)] * 3))
def test_integer_translation_keeps_every_record_value(e, shift):
    moved = _moved(e, lambda p: tuple(c + t for c, t in zip(p, shift)))
    assert _record_values(moved) == _record_values(e)


@settings(max_examples=10, deadline=None)
@given(rectilinear)
def test_mirroring_negates_lk_and_keeps_a2(e):
    knots, links = _record_values(e)
    m_knots, m_links = _record_values(_moved(e, lambda p: (-p[0], p[1], p[2])))
    assert m_knots == knots
    assert m_links == {subject: -value for subject, value in links.items()}
    assert any(links.values())
