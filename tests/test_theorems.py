"""Identity reports, congruences, bounds, and the census."""

from __future__ import annotations

import gc
import os
import re
import signal
import sys
import types
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from knotcensus import cli, invariants, theorems
from knotcensus.errors import IdentityViolation, InvariantContractError, ScaleLimitExceeded
from knotcensus.graphs import (
    canonical_cycle,
    enumerate_cycles,
    enumerate_disjoint_pairs,
    k331_h_subgraph,
)
from knotcensus.invariants import (
    AUDIT_CROSSING_LIMIT,
    InvariantRecord,
    _diagram_key,
    stick_bound_a2,
)
from knotcensus.geometry import (
    SpatialEmbedding,
    embedding_from_json,
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
)
from knotcensus.projection import CrossingTable
from knotcensus.theorems import (
    CATALOG,
    ClassSummary,
    EmbeddingAnalysis,
    applicable_identities,
    census,
    expected_residue,
    lower_bound_value,
    r_n,
    upper_bound_value,
    verify_embedding,
    verify_identity,
)

from oracle import _subject_invariant, class_summary_of

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
    assert a.class_sum(("a2", 6)) == 0
    assert a.class_sum(("a2", 5)) == 0
    assert a.class_sum(("lk2", 3, 3)) == 1
    reports, _ = verify_embedding(e, analysis=a)
    assert {r.identity_id for r in reports} == set(applicable_identities(e))
    assert all(r.passed for r in reports)
    mod2 = next(r for r in reports if r.identity_id == "mod2-parity")
    assert mod2.sums == {"value": 1}


def test_moment_k7_sums_and_identities():
    e = moment_curve_embedding(7)
    a = EmbeddingAnalysis(e, seed=0)
    assert a.class_sum(("lk2", 3, 3)) == 7
    assert a.class_sum(("lk2", 3, 4)) == 14
    assert a.class_sum(("a2", 7)) == 1
    assert a.class_sum(("a2", 5)) == 0
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
    assert a.class_sum(("lk2", 3, 3)) == 28
    rep = census(e, analysis=a)
    assert rep.hopf_count == 28
    assert rep.positive_a2_count == 21
    assert rep.a2_histogram == {0: 2499, 1: 21}
    assert rep.passed
    cong = next(r for r in reports if r.identity_id == "residue-congruence")
    assert (cong.extra["modulus"], cong.sums["value"] % cong.extra["modulus"]) == (6, 3)


@pytest.mark.parametrize("n,attained", [(6, 0), (7, 1), (8, 21), (9, 336)])
def test_moment_curve_attains_the_lower_bound(n, attained):
    e = moment_curve_embedding(n)
    rep = verify_identity("a2-bounds", e, seed=0)
    assert rep.rhs == lower_bound_value(n) == attained
    assert rep.sums["value"] == attained
    assert rep.passed
    assert rep.extra["upper"] == upper_bound_value(n)
    assert rep.extra["rectilinear"]


def test_hexagon_lemma_reduces_to_k6_identity_at_n6():
    e = random_rectilinear_embedding(6, seed=9)
    a = EmbeddingAnalysis(e, seed=0)
    lemma = verify_identity("hexagon-lemma", analysis=a)
    k6 = verify_identity("k6-identity", analysis=a)
    assert (lemma.lhs, lemma.rhs) == (k6.lhs, k6.rhs)
    assert lemma.passed and k6.passed


@pytest.mark.parametrize("n,seed", [(6, 1), (7, 2), (8, 11)])
def test_pair_square_sum_parity(n, seed):
    # The hexagon count identity forces the 3,3 square sum to share the
    # parity of C(n, 6) whenever the 5-cycle term vanishes.
    e = random_rectilinear_embedding(n, seed=seed)
    a = EmbeddingAnalysis(e, seed=0)
    assert (a.class_sum(("lk2", 3, 3)) - comb(n, 6)) % 2 == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tripartite_identity_on_random_embeddings(seed):
    e = random_k331_embedding(seed=seed)
    rep = verify_identity("k331-identity", e, seed=0)
    assert rep.passed
    assert rep.sums["sum_lk_sq_34"] % 2 == 1  # rhs parity forced by lhs


def test_polyline_embeddings_with_knotted_pentagons():
    e = random_polyline_embedding(6, seed=16, coord_range=30, bent_edges=4)
    a = EmbeddingAnalysis(e, seed=0)
    assert a.class_sum(("a2", 5)) == 1
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
        verify_identity("k6-identity", e7, seed=0)
    e6 = moment_curve_embedding(6)
    with pytest.raises(ValueError):
        verify_identity("k7-identity", e6, seed=0)
    with pytest.raises(ValueError):
        verify_identity("square-lemma", e6, seed=0)
    with pytest.raises(ValueError):
        verify_identity("residue-congruence", e6, seed=0)
    with pytest.raises(ValueError):
        verify_identity("k331-identity", e6, seed=0)
    with pytest.raises(ValueError):
        verify_identity("mod2-parity", moment_curve_embedding(8), seed=0)
    with pytest.raises(ValueError):
        census(random_k331_embedding(seed=0), seed=0)


ALL_IDS = (
    "k6-identity",
    "main-identity",
    "hexagon-lemma",
    "square-lemma",
    "k7-identity",
    "k7-ratio",
    "k7-combined",
    "k331-identity",
    "pentagon-triviality",
    "rectilinear-degeneration",
    "mod2-parity",
    "residue-congruence",
    "a2-bounds",
)

_K5_DOC = {"n": 5, "vertices": [[t, t * t, t**3] for t in range(1, 6)]}

# Selections recorded from the hand-written identity functions.
APPLICABLE = {
    "moment-6": (
        lambda: moment_curve_embedding(6),
        ("k6-identity", "main-identity", "hexagon-lemma", "pentagon-triviality",
         "rectilinear-degeneration", "mod2-parity", "a2-bounds"),
    ),
    "moment-7": (
        lambda: moment_curve_embedding(7),
        ("main-identity", "hexagon-lemma", "square-lemma", "k7-identity", "k7-ratio",
         "k7-combined", "pentagon-triviality", "rectilinear-degeneration", "mod2-parity",
         "residue-congruence", "a2-bounds"),
    ),
    "moment-8": (
        lambda: moment_curve_embedding(8),
        ("main-identity", "hexagon-lemma", "square-lemma", "pentagon-triviality",
         "rectilinear-degeneration", "residue-congruence", "a2-bounds"),
    ),
    "polyline-6": (
        lambda: random_polyline_embedding(6, seed=1),
        ("k6-identity", "main-identity", "hexagon-lemma", "mod2-parity", "a2-bounds"),
    ),
    "k331": (lambda: random_k331_embedding(seed=0), ("k331-identity",)),
    "complete-5": (lambda: embedding_from_json(_K5_DOC), ()),
}


def test_catalog_holds_every_identity_in_report_order():
    assert tuple(CATALOG) == ALL_IDS


@pytest.mark.parametrize("name", list(APPLICABLE))
def test_applicability_is_pinned_and_others_are_refused(name):
    build, expected = APPLICABLE[name]
    e = build()
    assert applicable_identities(e) == expected
    a = EmbeddingAnalysis(e, seed=0)
    for identity_id in ALL_IDS:
        if identity_id not in expected:
            with pytest.raises(ValueError):
                verify_identity(identity_id, analysis=a)
    assert a.stats["graph_frames_tried"] == 0  # refused before any projection


def test_unknown_identity_is_refused():
    e = moment_curve_embedding(6)
    with pytest.raises(ValueError, match="unknown"):
        verify_identity("k5-identity", e, seed=0)
    with pytest.raises(ValueError, match="unknown"):
        verify_embedding(e, identities=("k6-identity", "k5-identity"), seed=0)


# Each equation row and check row, an embedding it applies to, the start of
# the name of the report sum that moves, and the `class_sum` argument (a
# class key) its lhs reads to shift by one.  Moment curves meet a2-bounds
# with equality.
EQUATION_ROWS = [
    ("k6-identity", 6, "sum_a2", ("a2", 6)),
    ("main-identity", 6, "sum_a2", ("a2", 6)),
    ("hexagon-lemma", 6, "sum_a2", ("a2", 6)),
    ("pentagon-triviality", 6, "sum_a2", ("a2", 5)),
    ("rectilinear-degeneration", 6, "sum_a2", ("a2", 6)),
    ("square-lemma", 7, "sum_lk_sq", ("lk2", 3, 4)),
    ("k7-identity", 7, "sum_a2", ("a2", 7)),
    ("k7-ratio", 7, "sum_lk_sq", ("lk2", 3, 4)),
    ("k7-combined", 7, "sum_a2", ("a2", 7)),
    ("k331-identity", "k331", "sum_a2", ("a2", 7)),
    ("mod2-parity", 6, "value", ("lk2", 3, 3)),
    ("residue-congruence", 7, "value", ("a2", 7)),
    ("a2-bounds", 6, "value", ("a2", 5)),
]


@pytest.mark.parametrize("identity_id,graph,moved,args", EQUATION_ROWS)
def test_shifting_an_lhs_sum_fails_each_equation_row(identity_id, graph, moved, args):
    e = random_k331_embedding(seed=0) if graph == "k331" else moment_curve_embedding(graph)
    a = EmbeddingAnalysis(e, seed=0)
    passed = verify_identity(identity_id, analysis=a)
    assert passed.passed
    real, shifted = a.class_sum, a._resolve(args)
    a.class_sum = lambda key: real(key) + (a._resolve(key) == shifted)
    rep = verify_identity(identity_id, analysis=a, raise_on_fail=False)
    assert not rep.passed
    changed = [name for name, value in rep.sums.items() if value != passed.sums[name]]
    assert len(changed) == 1 and changed[0].startswith(moved)
    with pytest.raises(IdentityViolation) as info:
        verify_identity(identity_id, analysis=a)
    assert info.value.report.identity_id == identity_id


def test_violation_raised_when_sums_are_corrupted():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    real = a.class_sum

    def corrupted(key):
        return real(key) + (1 if key == ("a2", 6) else 0)

    a.class_sum = corrupted
    with pytest.raises(IdentityViolation) as info:
        verify_identity("k6-identity", analysis=a)
    assert info.value.report.identity_id == "k6-identity"
    rep = verify_identity("k6-identity", analysis=a, raise_on_fail=False)
    assert not rep.passed
    assert rep.to_json()["pass"] is False


def test_non_integral_rhs_cannot_pass():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    real = a.class_sum
    a.class_sum = lambda key: 2 if key[0] == "lk2" else real(key)  # rhs = 1/2
    rep = verify_identity("main-identity", analysis=a, raise_on_fail=False)
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


@pytest.mark.parametrize(
    "call",
    ["main-identity", "rectilinear-degeneration", "residue-congruence", "a2-bounds", "census"],
)
def test_the_ceiling_is_decided_before_any_frame_is_scanned(call):
    # Every row that reads S_a2(n) on K11 stops at the one class builder,
    # before the whole-graph frame search.
    e = moment_curve_embedding(11)
    a = EmbeddingAnalysis(e, seed=0)
    with pytest.raises(ScaleLimitExceeded):
        census(e, analysis=a) if call == "census" else verify_identity(call, analysis=a)
    assert a.stats["graph_frames_tried"] == 0
    # A row that reads no Hamiltonian sum still evaluates.
    assert verify_identity("square-lemma", analysis=a).passed


def test_a_call_without_embedding_or_analysis_is_refused():
    for call in (lambda: verify_identity("k6-identity"), lambda: verify_embedding(None),
                 lambda: census(None)):
        with pytest.raises(ValueError, match="no embedding given"):
            call()


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


def test_a_class_is_evaluated_once(monkeypatch):
    # `calls` lists every subject that reaches the loop.
    calls = []
    real = theorems.shard_values

    def counted(tables, subjects, memo=None):
        calls.extend(subjects)
        return real(tables, subjects, memo)

    monkeypatch.setattr(theorems, "shard_values", counted)
    e = moment_curve_embedding(7)
    a = EmbeddingAnalysis(e, seed=0)
    sixes = len(enumerate_cycles(e.graph, 6))
    assert a.class_sum(("a2", 6)) == a.class_sum(("a2", 6))
    assert len(calls) == sixes
    assert a.summary(("a2", 6)) is a.summary(("a2", 6))
    verify_embedding(e, analysis=a)
    evaluated = len(calls)
    # S_a2(7) is S_a2(n) at n = 7: one summary, read once.
    sevens = len(enumerate_cycles(e.graph, 7))
    assert sum(1 for s in calls if len(s) == 7 and type(s[0]) is int) == sevens
    assert a.summary(("a2", 7)) is a.summary(("a2", None)) is a.summary(("a2", 7, e.graph))
    census(e, analysis=a)
    a.class_sum(("a2", 6))
    a.class_sum(("lk2", 4, 3))
    assert len(calls) == evaluated
    # Records are built on each request; only the summary is kept.
    assert len(a.knot_records(6)) == sixes
    assert len(calls) == evaluated + sixes


def test_no_record_outlives_its_class():
    # Moment K8: 2,520 Hamiltonian cycles and every smaller class behind
    # the seven identities, all summarised.
    e = moment_curve_embedding(8)
    _, a = verify_embedding(e, analysis=EmbeddingAnalysis(e, seed=0))
    classes = [("a2", 5), ("a2", 6), ("a2", 8), ("lk2", 3, 3), ("lk2", 3, 4)]
    assert set(a._summaries) == {a._resolve(key) for key in classes}
    assert len(a._summaries) == 5
    seen, stack = set(), [a]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, InvariantRecord), obj
        stack.extend(gc.get_referents(obj))
    assert len(seen) > 1000


# Every class a catalog row reads, by its `theorems.SUM_KEYS` name.
_CLASS_RECORDS = {
    "sum_a2_5": lambda a: a.knot_records(5),
    "sum_a2_6": lambda a: a.knot_records(6),
    "sum_a2_7": lambda a: a.knot_records(7),
    "sum_a2_hamiltonian": lambda a: a.knot_records(a.n),
    "sum_a2_6_h": lambda a: a.knot_records(6, k331_h_subgraph(a.graph)),
    "sum_lk_sq_33": lambda a: a.link_records(3, 3),
    "sum_lk_sq_34": lambda a: a.link_records(3, 4),
}


def _log_audits(monkeypatch, log) -> None:
    """Make every `shard_values` call, here or in a forked shard, write
    one line to the unbuffered file `log`: its pid, the `fox_a2` calls it
    made, the distinct audited knot diagrams among its subjects that the
    analysis's memo did not hold when it began, and whether the memo
    gained exactly their keys."""
    real_fox, real_values = invariants.fox_a2, theorems.shard_values
    calls = [0]

    def counted(d):
        calls[0] += 1
        return real_fox(d)

    def logged(tables, subjects, memo=None):
        calls[0] = 0
        before = set(memo)
        out = real_values(tables, subjects, memo)
        first = tables[0][1]
        knots = {first.restrict((s,)) for s in subjects if type(s[0]) is int}
        new = {_diagram_key(d) for d in knots if d.crossing_count <= AUDIT_CROSSING_LIMIT} - before
        gained = set(memo) - before == new
        log.write(f"{os.getpid()} {calls[0]} {len(new)} {int(gained)}\n".encode())
        return out

    monkeypatch.setattr(invariants, "fox_a2", counted)
    monkeypatch.setattr(theorems, "shard_values", logged)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize(
    "e",
    [moment_curve_embedding(7), moment_curve_embedding(8), random_polyline_embedding(7, 0),
     random_k331_embedding(1)],
    ids=["moment", "moment8", "polyline", "K331"],
)
def test_summaries_equal_a_fold_of_the_records(e, threads, monkeypatch, tmp_path):
    # Audited, so each record's value and flag must also be the
    # unmemoized per-record reference's, and each `shard_values` call, in
    # whichever process, must run `fox_a2` once per distinct audited knot
    # diagram that the analysis's memo, as that process holds it, lacks.
    # Serially, that is once per distinct diagram of the whole analysis.
    path = tmp_path / "audits.log"
    with open(path, "ab", buffering=0) as log:
        _log_audits(monkeypatch, log)
        a = EmbeddingAnalysis(e, seed=0, threads=threads, audit=True)
        names = {name for i in applicable_identities(e) for name in CATALOG[i].terms(e.n)}
        assert set(theorems.SUM_KEYS) == set(_CLASS_RECORDS) >= names
        assert ("sum_a2_6_h" in names) == bool(e.graph.tags)
        audited = {}
        for name in sorted(names):
            records = _CLASS_RECORDS[name](a)
            histogram = {}
            for r in records:
                histogram[r.value] = histogram.get(r.value, 0) + 1
            nonzero = [(r.subject, r.value) for r in records if r.value != 0]
            positive = [(r.subject, r.value) for r in records if r.value > 0]
            summary = a.summary(theorems.SUM_KEYS[name])
            assert type(summary) is ClassSummary
            assert summary == class_summary_of(records)
            assert summary.histogram == histogram
            assert summary.audited == sum(1 for r in records if r.audited)
            assert list(summary.nonzero) == nonzero[: theorems.WITNESS_CAP]
            assert list(summary.positive) == positive[: theorems.WITNESS_CAP]
            assert all(type(w) is tuple for w in summary.nonzero + summary.positive)
            square = name.startswith("sum_lk_sq")
            assert a.class_sum(theorems.SUM_KEYS[name]) == sum(
                r.value * r.value if square else r.value for r in records
            )
            audited[id(summary)] = summary.audited  # S_a2(7) is S_a2(n) at n = 7
            tables = a._projection.tables
            assert [r[1:] for r in records] == [
                _subject_invariant(tables, True, r.subject) for r in records
            ]
        assert sum(audited.values()) == a.audited_knots + a.audited_links > 0
    lines = [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    assert [calls for _, calls, _, _ in lines] == [new for _, _, new, _ in lines]
    assert all(gained for *_, gained in lines)
    assert sum(new for _, _, new, _ in lines) > 0
    assert (len({pid for pid, *_ in lines}) > 1) == (threads > 1)
    if threads == 1:
        assert sum(calls for _, calls, _, _ in lines) == len(a._audit_memo)


def test_knots_are_restricted_only_on_a_memo_miss(monkeypatch):
    # Serial audited moment K7: the 1,031 audited knots of the 5-, 6- and
    # 7-cycle classes have 151 distinct diagrams.  Each is restricted,
    # keyed against its walk and routed once for the whole analysis;
    # every audited link is restricted.
    counts = Counter()

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    real_restrict = CrossingTable.restrict

    def restrict(table, cycles):
        counts[f"restrict{len(cycles)}"] += 1
        return real_restrict(table, cycles)

    monkeypatch.setattr(CrossingTable, "restrict", restrict)
    monkeypatch.setattr(invariants, "_diagram_key", counted("key", invariants._diagram_key))
    monkeypatch.setattr(invariants, "fox_a2", counted("fox", invariants.fox_a2))
    e = moment_curve_embedding(7)
    _, a = verify_embedding(e, analysis=EmbeddingAnalysis(e, seed=0, audit=True))
    assert (a.audited_knots, a.audited_links) == (1031, 175)
    assert counts == {"restrict1": 151, "key": 151, "fox": 151, "restrict2": 175}
    assert len(a._audit_memo) == 151


def _witness(r) -> dict:
    if isinstance(r.subject[0], tuple):
        return {"pair": [list(r.subject[0]), list(r.subject[1])], "lk": r.value}
    return {"cycle": list(r.subject), "a2": r.value}


def _capped(records: list, cap: int) -> tuple:
    out = [_witness(r) for r in records[:cap]]
    return tuple(out + ([{"omitted": len(records) - cap}] if len(records) > cap else []))


@pytest.mark.parametrize("cap", range(1, 9))
def test_witness_cap_binds_across_classes(monkeypatch, cap):
    # This K6 has four positive 6-cycles and three linked triangle pairs,
    # so caps 5 and 6 stop k6-identity's witnesses inside its second
    # class, and caps 1-3 stop the census's positive knots.
    monkeypatch.setattr(theorems, "WITNESS_CAP", cap)
    e = random_polyline_embedding(6, 33)
    a = EmbeddingAnalysis(e, seed=0)
    knots = [r for r in a.knot_records(6) if r.value != 0]
    pairs = [r for r in a.link_records(3, 3) if r.value != 0]
    assert (len(knots), len(pairs)) == (4, 3)
    rep = verify_identity("k6-identity", analysis=a)
    assert rep.witnesses == _capped(knots + pairs, cap)
    positive = [r for r in knots if r.value > 0]
    assert census(e, analysis=a).witnesses == _capped(positive, cap)


@pytest.mark.parametrize(
    "e", [moment_curve_embedding(7), random_k331_embedding(0)], ids=["K7", "K331"]
)
def test_record_subjects_are_the_enumeration(e):
    # A record's subject is the enumerated cycle or pair itself, in order.
    a = EmbeddingAnalysis(e, seed=0)
    g = e.graph
    for k in range(3, 8):
        assert [r.subject for r in a.knot_records(k)] == list(enumerate_cycles(g, k))
    for k, l in ((3, 3), (3, 4)):
        assert [r.subject for r in a.link_records(k, l)] == list(
            enumerate_disjoint_pairs(g, k, l)
        )
    if g.tags:
        h = k331_h_subgraph(g)
        assert [r.subject for r in a.knot_records(6, h)] == list(enumerate_cycles(h, 6))


def test_parallel_and_serial_sums_agree():
    e = random_rectilinear_embedding(6, seed=4)
    serial = EmbeddingAnalysis(e, seed=0, threads=1)
    parallel = EmbeddingAnalysis(e, seed=0, threads=2)
    for key in (("a2", 6), ("lk2", 3, 3)):
        assert serial.class_sum(key) == parallel.class_sum(key)
    assert [r.value for r in serial.knot_records(6)] == [
        r.value for r in parallel.knot_records(6)
    ]


@pytest.mark.parametrize(
    "e",
    [moment_curve_embedding(7), random_polyline_embedding(7, 0)],
    ids=["moment", "polyline"],
)
def test_records_do_not_depend_on_process_count(e, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    seventeen = enumerate_cycles(e.graph, 5)[:17]
    seen = []
    for threads in (1, 2, 3):
        a = EmbeddingAnalysis(e, seed=0, threads=threads)
        seen.append((
            a.knot_records(7),
            a.link_records(3, 4),
            a._records(seventeen, None),
        ))
    assert seen[0] == seen[1] == seen[2]
    assert [len(records) for records in seen[0]] == [360, 105, 17]
    # N processes evaluate a class: the caller and N - 1 forked children.
    assert len(forks) == 3 * (1 + 2)


# Random K_{3,3,1} (seed 3) read with the audit on: the apex identity
# and every class it sums, H's hexagons included.
K331_REPORT = {
    "identity_id": "k331-identity", "n": 7,
    "sums": {"sum_a2_5": 0, "sum_a2_6_h": 0, "sum_a2_7": 1, "sum_lk_sq_34": 3},
    "lhs": 2, "rhs": 2, "pass": True, "witnesses": [{"cycle": [1, 2, 3, 4, 7, 5, 6], "a2": 1}],
}
K331_SUMMARIES = [
    ClassSummary({0: 36}, 36, (), ()),
    ClassSummary({0: 6}, 6, (), ()),
    ClassSummary({0: 35, 1: 1}, 36, (((1, 2, 3, 4, 7, 5, 6), 1),), (((1, 2, 3, 4, 7, 5, 6), 1),)),
    ClassSummary(
        {0: 6, 1: 2, -1: 1}, 9,
        ((((3, 4, 7), (1, 2, 5, 6)), 1), (((4, 5, 7), (1, 2, 3, 6)), -1),
         (((5, 6, 7), (1, 2, 3, 4)), 1)),
        ((((3, 4, 7), (1, 2, 5, 6)), 1), (((5, 6, 7), (1, 2, 3, 4)), 1)),
    ),
]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_k331_identity_and_its_classes_are_pinned(threads):
    e = random_k331_embedding(3)
    reports, a = verify_embedding(e, analysis=EmbeddingAnalysis(e, seed=0, audit=True, threads=threads))
    assert [r.to_json() for r in reports] == [K331_REPORT]
    keys = [("a2", 5), ("a2", 6, "h"), ("a2", 7), ("lk2", 3, 4)]
    assert [a.summary(key) for key in keys] == K331_SUMMARIES
    assert a.summary(("a2", 6, k331_h_subgraph(e.graph))) is a.summary(("a2", 6, "h"))
    assert (a.audited_knots, a.audited_links) == (78, 9)


@pytest.mark.parametrize("count", [17, 18, 100, 2520])
def test_shards_are_never_empty(count):
    # The bounds alone, so no process starts whatever the thread count:
    # 40 threads on a 17-subject class and 3,000 on the 2,520
    # Hamiltonian cycles of K8 give one subject per shard.
    for threads in (1, 2, 3, 16, count - 1, count, count + 1, 40, 3000, 10**6):
        bounds = theorems._shard_bounds(count, threads)
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert bounds[0] == 0 and bounds[-1] == count
        assert len(sizes) == min(threads, count)
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def _planted(monkeypatch, subject, fail):
    """Make `fail(subject)` happen when the loop reaches `subject`; what
    it returns, when not None, is read as the (value, audited) there.

    `subject` is given as the reference `cycle_invariant` takes it: a
    one-cycle tuple or a pair.
    """
    real = theorems.shard_values

    def values(tables, subjects, memo=None):
        out, audited = [], bytearray()
        for s in subjects:
            walks = (s,) if type(s[0]) is int else s
            if walks == subject and (planted := fail(walks)) is not None:
                value, flag = planted
            else:
                (value,), (flag,) = real(tables, [s], memo)
            out.append(value)
            audited.append(flag)
        return out, audited

    monkeypatch.setattr(theorems, "shard_values", values)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# Three processes split the 360 Hamiltonian cycles of K7 at 120 and
# 240: the caller's shard, a child with a child after it, the last child.
@pytest.mark.parametrize("index", [0, 120, 359], ids=["caller", "middle", "last"])
def test_shard_error_reaches_the_caller_and_no_child_is_left(monkeypatch, index):
    e = moment_curve_embedding(7)
    subject = (enumerate_cycles(e.graph, 7)[index],)

    def fail(walks):
        raise InvariantContractError(f"planted at {walks}")

    _planted(monkeypatch, subject, fail)
    a = EmbeddingAnalysis(e, seed=0, threads=3)
    with pytest.raises(InvariantContractError, match=re.escape(f"planted at {subject}")) as info:
        a.knot_records(7)
    assert type(info.value) is InvariantContractError
    _assert_no_child_left()


_DEATHS = {
    "exit": lambda: os._exit(5),
    "sigkill": lambda: os.kill(os.getpid(), signal.SIGKILL),
}


def _child_death(die, reached):
    """A planted failure that ends a forked child and, in the calling
    process, notes in `reached` that the subject was evaluated there."""
    caller = os.getpid()
    return lambda walks: die() if os.getpid() != caller else reached.append(walks)


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("death", _DEATHS)
def test_a_dead_shard_child_costs_time_not_the_run(monkeypatch, death, threads):
    # Hamiltonian cycle 200 of K7 is in the last child's shard at two
    # processes and the middle one's at three.
    e = moment_curve_embedding(7)
    serial = EmbeddingAnalysis(e, seed=0).knot_records(7)
    subject = (enumerate_cycles(e.graph, 7)[200],)
    reached = []
    _planted(monkeypatch, subject, _child_death(_DEATHS[death], reached))
    assert EmbeddingAnalysis(e, seed=0, threads=threads).knot_records(7) == serial
    assert reached == [subject]
    _assert_no_child_left()


def test_census_with_a_killed_shard_child_prints_the_serial_bytes(monkeypatch, capsys):
    argv = ["census", "--n", "7", "--kind", "moment", "--threads"]
    assert cli.main(argv + ["1"]) == 0
    serial = capsys.readouterr().out
    subject = (enumerate_cycles(moment_curve_embedding(7).graph, 7)[200],)
    reached = []
    _planted(monkeypatch, subject, _child_death(_DEATHS["sigkill"], reached))
    assert cli.main(argv + ["2"]) == 0
    assert capsys.readouterr().out == serial
    assert reached == [subject]
    _assert_no_child_left()


# One impossible value per straight-edge contract check: moment K7 must
# refuse it, and bent edges (polyline K7) make it possible.
_IMPOSSIBLE = [
    ((1, 2, 3, 5, 4), 1, "straight 5-gon (1, 2, 3, 5, 4) got nonzero a2 1"),
    ((1, 2, 3, 4, 7, 6), stick_bound_a2(6) + 1,
     "6-stick knot (1, 2, 3, 4, 7, 6) exceeds a2 bound: 2"),
    (((1, 2, 3), (4, 6, 7)), 2,
     "triangle pair ((1, 2, 3), (4, 6, 7)) has |lk| >= 2 in a straight-edge embedding"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "subject,value,message", _IMPOSSIBLE, ids=["pentagon", "hexagon", "triangle-pair"]
)
def test_straight_edge_contract_refuses_an_impossible_value(
    monkeypatch, subject, value, message, threads
):
    knot = type(subject[0]) is int
    _planted(monkeypatch, (subject,) if knot else subject, lambda walks: (value, False))

    def records(e):
        a = EmbeddingAnalysis(e, seed=0, threads=threads)
        return a.knot_records(len(subject)) if knot else a.link_records(3, 3)

    with pytest.raises(InvariantContractError, match=re.escape(message)):
        records(moment_curve_embedding(7))
    assert InvariantRecord(subject, value, False) in records(random_polyline_embedding(7, 0))


def test_verify_exits_1_on_an_impossible_straight_edge_value(monkeypatch, capsys):
    subject, value, message = _IMPOSSIBLE[0]
    _planted(monkeypatch, (subject,), lambda walks: (value, False))
    assert cli.main(["verify", "--n", "7", "--kind", "moment"]) == 1
    assert capsys.readouterr().err == f"knotcensus: {message}\n"


def test_threads_above_one_need_fork(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        EmbeddingAnalysis(moment_curve_embedding(6), threads=2)
    assert EmbeddingAnalysis(moment_curve_embedding(6), threads=1).threads == 1
    assert cli.main(["census", "--n", "6", "--kind", "moment", "--threads", "2"]) == 2
    assert "os.fork" in capsys.readouterr().err


@pytest.mark.parametrize("threads", [0, -3, 1.5, 2.0, True, False])
def test_thread_count_below_one_is_refused(threads):
    with pytest.raises(ValueError, match="threads"):
        EmbeddingAnalysis(moment_curve_embedding(6), threads=threads)


def _module_container_sizes() -> dict[str, int]:
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if name == "knotcensus" or name.startswith("knotcensus."):
            for attr, value in vars(mod).items():
                if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_audited_analysis_leaves_module_level_containers_unchanged():
    # Memory stays bounded only if nothing an analysis computes outlives
    # it: no module-level dict, list or set may grow during a run.
    before = _module_container_sizes()
    e = moment_curve_embedding(7)
    _, a = verify_embedding(e, analysis=EmbeddingAnalysis(e, audit=True))
    assert a.audited_knots > 1000 and a.audited_links > 0
    after = _module_container_sizes()
    grown = {k: (before.get(k, 0), v) for k, v in after.items() if v > before.get(k, 0)}
    assert grown == {}


def test_report_json_shapes():
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    rep = verify_identity("k6-identity", analysis=a).to_json()
    assert set(rep) == {"identity_id", "n", "sums", "lhs", "rhs", "pass", "witnesses"}
    cong = verify_identity("mod2-parity", analysis=a).to_json()
    assert cong["identity_id"] == "mod2-parity"
    assert cong["modulus"] == 2
    bounds = verify_identity("a2-bounds", analysis=a).to_json()
    assert bounds["rectilinear"] is True
    assert bounds["upper"] == 1


# ---------------------------------------------------------------------------
# Rigid motions, mirroring and frame seeds, through the whole pipeline


def _record_values(e: SpatialEmbedding, seed=0) -> tuple[dict, dict]:
    a = EmbeddingAnalysis(e, seed=seed, threads=1)
    knots = {r.subject: r.value for k in range(3, e.n + 1) for r in a.knot_records(k)}
    links = {
        r.subject: r.value
        for k, l in ((3, 3), (3, 4))
        if k + l <= e.n
        for r in a.link_records(k, l)
    }
    return knots, links


def _moved(e: SpatialEmbedding, move) -> SpatialEmbedding:
    return SpatialEmbedding(
        e.graph,
        {v: move(p) for v, p in e.vertex_positions.items()},
        {edge: tuple(map(move, path)) for edge, path in e.edge_paths.items()},
    )


rectilinear = st.builds(
    lambda n, s: random_rectilinear_embedding(n, seed=s),
    st.sampled_from([6, 7]),
    st.integers(0, 10**6),
)
polyline = st.builds(
    lambda n, s: random_polyline_embedding(n, seed=s, bent_edges=3),
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


def _records(e: SpatialEmbedding) -> list:
    a = EmbeddingAnalysis(e, seed=0, threads=1)
    records = [a.knot_records(k) for k in range(3, e.n + 1)]
    return records + [a.link_records(k, l) for k, l in ((3, 3), (3, 4)) if k + l <= e.n]


@settings(max_examples=10, deadline=None)
@given(
    st.one_of(rectilinear, polyline),
    st.sampled_from([Fraction(3, 7), Fraction(1, 2), Fraction(5), Fraction(11, 4)]),
)
def test_rational_scaling_keeps_every_record(e, factor):
    scaled = _moved(e, lambda p: tuple(c * factor for c in p))
    assert _records(scaled) == _records(e)


# The rotation of the quaternion (1, 2, 3, 4), whose squared norm is 30.
ROTATION = tuple(
    tuple(Fraction(c, 30) for c in row) for row in ((-20, 4, 22), (20, -10, 20), (10, 28, 4))
)


@settings(max_examples=8, deadline=None)
@given(st.one_of(rectilinear, polyline))
def test_rational_rotation_keeps_every_record(e):
    r = ROTATION
    assert all(
        sum(r[i][k] * r[j][k] for k in range(3)) == (i == j) for i in range(3) for j in range(3)
    )
    det = sum(
        r[0][i] * (r[1][(i + 1) % 3] * r[2][(i + 2) % 3] - r[1][(i + 2) % 3] * r[2][(i + 1) % 3])
        for i in range(3)
    )
    assert det == 1
    rotated = _moved(e, lambda p: tuple(sum(a * c for a, c in zip(row, p)) for row in r))
    assert _record_values(rotated) == _record_values(e)


@settings(max_examples=10, deadline=None)
@given(rectilinear)
def test_frame_seed_keeps_every_record_value(e):
    # Another seed projects through other frames, so every value is
    # read from other crossing tables.
    assert _record_values(e, seed=7) == _record_values(e, seed=0)


def _relabelled(e: SpatialEmbedding, label: dict[int, int]) -> SpatialEmbedding:
    """The same curves with vertex v renamed label[v]."""
    paths = {}
    for (i, j), path in e.edge_paths.items():
        if label[i] < label[j]:
            paths[(label[i], label[j])] = path
        else:
            paths[(label[j], label[i])] = tuple(reversed(path))
    positions = {label[v]: p for v, p in e.vertex_positions.items()}
    return SpatialEmbedding(e.graph, positions, paths)


def _image(cycle: tuple[int, ...], label: dict[int, int]) -> tuple[tuple[int, ...], int]:
    """The canonical image of a cycle, and -1 if it runs the other way."""
    walk = tuple(label[v] for v in cycle)
    image = canonical_cycle(walk)
    i = walk.index(image[0])
    return image, 1 if walk[i:] + walk[:i] == image else -1


@settings(max_examples=10, deadline=None)
@given(
    st.one_of(rectilinear, polyline).flatmap(
        lambda e: st.tuples(st.just(e), st.permutations(range(1, e.n + 1)))
    )
)
def test_relabelling_moves_every_record_to_its_image(case):
    e, order = case
    label = dict(zip(e.graph.vertices, order))
    moved = _relabelled(e, label)
    knots, links = _record_values(e)
    m_knots, m_links = _record_values(moved)
    assert m_knots == {_image(c, label)[0]: v for c, v in knots.items()}
    expected = {}
    for (c1, c2), value in links.items():
        (a, sa), (b, sb) = _image(c1, label), _image(c2, label)
        pair = (a, b) if (len(a), a) < (len(b), b) else (b, a)
        expected[pair] = sa * sb * value
    assert m_links == expected
    reports, _ = verify_embedding(e)
    m_reports, _ = verify_embedding(moved)
    # Every sum is of a2 or lk^2, so none takes the signs above.
    assert [r.sums for r in m_reports] == [r.sums for r in reports]
    assert [(r.lhs, r.rhs, r.passed) for r in m_reports] == [
        (r.lhs, r.rhs, r.passed) for r in reports
    ]


def test_analysis_keywords_with_an_analysis_are_refused():
    # They would configure an analysis that is not built: the given one
    # was configured when it was made.
    e = moment_curve_embedding(6)
    a = EmbeddingAnalysis(e, seed=0)
    with pytest.raises(ValueError, match="keywords"):
        verify_embedding(e, analysis=a, audit=True)
    with pytest.raises(ValueError, match="keywords"):
        verify_identity("k6-identity", analysis=a, verify_frames=-5)
    with pytest.raises(ValueError, match="keywords"):
        census(e, analysis=a, seed=1)
    assert a.stats["graph_frames"] == []
    assert verify_identity("k6-identity", analysis=a).passed


def test_an_analysis_of_another_embedding_is_refused():
    moment = moment_curve_embedding(6)
    a = EmbeddingAnalysis(random_polyline_embedding(6, seed=16, bent_edges=3), seed=0)
    with pytest.raises(ValueError, match="another embedding"):
        census(moment, analysis=a)
    with pytest.raises(ValueError, match="another embedding"):
        verify_embedding(moment, analysis=a)
    with pytest.raises(ValueError, match="another embedding"):
        verify_identity("k6-identity", moment, analysis=a)
    rep = census(a.embedding, analysis=a)
    assert rep.rectilinear is False and rep.hopf_count is None
    reports, _ = verify_embedding(a.embedding, analysis=a)
    assert "pentagon-triviality" not in {r.identity_id for r in reports}
