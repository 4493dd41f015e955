"""Exact evaluation of the integer identities a spatial embedding satisfies.

Every aggregate here is assembled from per-cycle invariant records (each
frame-verified, optionally oracle-audited), so a report can name the
cycles behind its numbers.  All arithmetic is exact: sums are Python
integers, the one halved coefficient is checked for integrality rather
than rounded, and pass means lhs equals rhs, nothing weaker.

The identity catalog, for an embedding of K_n (H below is the bipartite
subgraph of the tripartite graph, apex removed):

  k6-identity        n=6:  2 S_a2(6) - 2 S_a2(5) = S_lk2(3,3) - 1
  main-identity      n>=6: S_a2(n) - (n-5)! S_a2(5)
                             = ((n-5)!/2) (S_lk2(3,3) - C(n-1,5))
  hexagon-lemma      n>=6: 2 S_a2(6) - 2(n-5) S_a2(5) = S_lk2(3,3) - C(n,6)
  square-lemma       n>=7: S_lk2(3,4) = 2(n-6) S_lk2(3,3)
  k7-identity        n=7:  7 S_a2(7) - 6 S_a2(6) - 2 S_a2(5)
                             = 2 S_lk2(3,4) - 21
  k7-ratio           n=7:  S_lk2(3,4) = 2 S_lk2(3,3)
  k7-combined        n=7:  7 S_a2(7) - 2 S_a2(6) - 10 S_a2(5)
                             = 3 S_lk2(3,4) - 35   (redundant cross-check)
  k331-identity      tripartite: 2 S_a2(7) - 4 S_a2(6 in H) - 2 S_a2(5)
                             = S_lk2(3,4) - 1
  pentagon-triviality     rectilinear: S_a2(5) = 0
  rectilinear-degeneration rectilinear: main-identity with the S_a2(5)
                             term dropped agrees literally
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb, factorial
from multiprocessing import Pool

from .errors import InvariantContractError, IdentityViolation, ScaleLimitExceeded
from .geometry import SpatialEmbedding
from .graphs import (
    Cycle,
    DisjointCyclePair,
    SimpleGraph,
    enumerate_cycles,
    enumerate_disjoint_pairs,
    k331_h_subgraph,
)
from .invariants import (
    InvariantRecord,
    classify_triangle_triangle,
    cycle_invariant,
    stick_bound_a2,
)
from .projection import FRAME_RETRY_LIMIT, GraphProjection

HAMILTONIAN_CEILING = 10
WITNESS_CAP = 128


def default_threads() -> int:
    env = os.environ.get("KNOTCENSUS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


# Set in each pool worker by its initializer: the record function with
# the analysis's whole-graph tables bound in, shipped once per worker.
_worker_record = None


def _init_worker(record) -> None:
    global _worker_record
    _worker_record = record


def _record_task(cycles):
    return _worker_record(cycles)


class EmbeddingAnalysis:
    """Cached per-class invariant records for one embedding.

    Records are computed once per cycle class and shared by every
    identity that needs them.  Work is data-parallel over cycles with a
    deterministic reduction order (sorted canonical keys), so sums do
    not depend on the worker count.

    Diagrams are read from whole-graph crossing tables, one per frame,
    built on the first request for records and freed with the analysis.
    """

    def __init__(
        self,
        embedding: SpatialEmbedding,
        seed=0,
        threads: int | None = None,
        verify_frames: int = 1,
        retry_limit: int = FRAME_RETRY_LIMIT,
        audit: bool = False,
        allow_large: bool = False,
    ):
        self.embedding = embedding
        self.seed = seed
        self.threads = default_threads() if threads is None else max(1, threads)
        self.verify_frames = verify_frames
        self.retry_limit = retry_limit
        self.audit = audit
        self.allow_large = allow_large
        self._knots: dict[tuple, tuple[InvariantRecord, ...]] = {}
        self._links: dict[tuple, tuple[InvariantRecord, ...]] = {}
        self.audited_knots = 0
        self.audited_links = 0
        self._projection: GraphProjection | None = None
        self._fallback_records = 0

    @property
    def n(self) -> int:
        return self.embedding.n

    @property
    def graph(self) -> SimpleGraph:
        return self.embedding.graph

    @property
    def stats(self) -> dict:
        """Whole-graph frames tried and rejected, and per-cycle fallbacks.

        Counts only, the same for every worker count; they never enter
        the reports.
        """
        g = self._projection
        return {
            "graph_frames_tried": 0 if g is None else len(g.frames),
            "graph_frame_rejects": {} if g is None else dict(sorted(g.rejects.items())),
            "fallback_records": self._fallback_records,
        }

    def _invariants(self, subjects: list[tuple[tuple[int, ...], ...]]):
        """`cycle_invariant` of each subject, counting fallbacks in the stats."""
        if self._projection is None:
            self._projection = GraphProjection(
                self.embedding, self.seed, self.verify_frames, self.retry_limit
            )
        record = partial(
            cycle_invariant,
            self._projection,
            verify_frames=self.verify_frames,
            retry_limit=self.retry_limit,
            audit=self.audit,
        )
        if self.threads > 1 and len(subjects) > 16:
            chunk = max(1, len(subjects) // (self.threads * 8))
            with Pool(self.threads, initializer=_init_worker, initargs=(record,)) as pool:
                results = pool.map(_record_task, subjects, chunksize=chunk)
        else:
            results = [record(s) for s in subjects]
        self._fallback_records += sum(r[4] for r in results)
        return results

    def knot_records(
        self, k: int, subgraph: SimpleGraph | None = None, tag: str = ""
    ) -> tuple[InvariantRecord, ...]:
        """Frame-verified a2 records for all k-cycles, sorted canonically."""
        g = subgraph if subgraph is not None else self.graph
        key = (k, tag, None if subgraph is None else subgraph.edges)
        if key in self._knots:
            return self._knots[key]
        if k == self.n and self.n > HAMILTONIAN_CEILING and not self.allow_large:
            raise ScaleLimitExceeded(
                f"Hamiltonian sums above n={HAMILTONIAN_CEILING} need the override"
            )
        cycles = enumerate_cycles(g, k)
        out = []
        for c, (value, ncross, fidx, audited, _) in zip(
            cycles, self._invariants([(c.vertices,) for c in cycles])
        ):
            self.audited_knots += 1 if audited else 0
            rec = InvariantRecord(
                subject=c.vertices,
                value=value,
                crossing_count=ncross,
                frame_index=fidx,
                verified_frames=self.verify_frames,
                audited=audited,
            )
            self._check_knot_contract(k, rec)
            out.append(rec)
        self._knots[key] = tuple(out)
        return self._knots[key]

    def _check_knot_contract(self, k: int, rec: InvariantRecord) -> None:
        if not self.embedding.rectilinear:
            return
        # A k-cycle with straight edges is a k-stick polygon: below six
        # sticks only the unknot is possible, and in general its second
        # Conway coefficient cannot exceed the k-stick bound.
        if k <= 5 and rec.value != 0:
            raise InvariantContractError(
                f"straight {k}-gon {rec.subject} got nonzero a2 {rec.value}"
            )
        if k >= 6 and rec.value > stick_bound_a2(k):
            raise InvariantContractError(
                f"{k}-stick knot {rec.subject} exceeds a2 bound: {rec.value}"
            )

    def link_records(self, k: int, l: int) -> tuple[InvariantRecord, ...]:
        """Frame-verified lk records for all disjoint (k, l) cycle pairs."""
        key = (k, l) if k <= l else (l, k)
        if key in self._links:
            return self._links[key]
        pairs = enumerate_disjoint_pairs(self.graph, *key)
        out = []
        rectilinear = self.embedding.rectilinear
        for p, (value, ncross, fidx, audited, _) in zip(
            pairs, self._invariants([(p.first.vertices, p.second.vertices) for p in pairs])
        ):
            self.audited_links += 1 if audited else 0
            rec = InvariantRecord(
                subject=(p.first.vertices, p.second.vertices),
                value=value,
                crossing_count=ncross,
                frame_index=fidx,
                verified_frames=self.verify_frames,
                audited=audited,
            )
            if key == (3, 3):
                cls = classify_triangle_triangle(value, rectilinear)
                if cls == "other":
                    raise InvariantContractError(
                        f"triangle pair {rec.subject} has |lk| >= 2 "
                        f"in a straight-edge embedding"
                    )
            out.append(rec)
        self._links[key] = tuple(out)
        return self._links[key]

    # -- aggregates -----------------------------------------------------

    def sum_a2(self, k: int, subgraph: SimpleGraph | None = None, tag: str = "") -> int:
        return sum(r.value for r in self.knot_records(k, subgraph, tag))

    def sum_lk(self, k: int, l: int) -> int:
        return sum(r.value for r in self.link_records(k, l))

    def sum_lk_sq(self, k: int, l: int) -> int:
        return sum(r.value * r.value for r in self.link_records(k, l))

    def sum_a2_h6(self) -> int:
        """Sum of a2 over the 6-cycles of the tripartite graph's H subgraph."""
        return self.sum_a2(6, k331_h_subgraph(self.graph), tag="h")


# ---------------------------------------------------------------------------
# Reports


def _json_value(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else [v.numerator, v.denominator]
    return v


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of one identity, with the sums that built them."""

    identity_id: str
    n: int
    sums: dict[str, int]
    lhs: int
    rhs: int | Fraction
    passed: bool
    witnesses: tuple[dict, ...] = ()

    def to_json(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "n": self.n,
            "sums": dict(sorted(self.sums.items())),
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
            "pass": self.passed,
            "witnesses": list(self.witnesses),
        }


@dataclass(frozen=True)
class CongruenceReport:
    """A residue check: value must be `expected` modulo `modulus`."""

    check_id: str
    n: int
    modulus: int
    value: int
    expected_residue: int
    passed: bool

    @property
    def identity_id(self) -> str:
        return self.check_id

    @property
    def lhs(self) -> int:
        return self.value % self.modulus

    @property
    def rhs(self) -> int:
        return self.expected_residue

    def to_json(self) -> dict:
        return {
            "identity_id": self.check_id,
            "n": self.n,
            "modulus": self.modulus,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "sums": {"value": self.value},
            "pass": self.passed,
            "witnesses": [],
        }


@dataclass(frozen=True)
class BoundsReport:
    """Lower (and, when rectilinear, upper) bound check on the a2 total."""

    check_id: str
    n: int
    rectilinear: bool
    lower: int
    value: int
    upper: int | None
    passed: bool

    @property
    def identity_id(self) -> str:
        return self.check_id

    @property
    def lhs(self) -> int:
        return self.value

    @property
    def rhs(self) -> int:
        return self.lower

    def to_json(self) -> dict:
        return {
            "identity_id": self.check_id,
            "n": self.n,
            "rectilinear": self.rectilinear,
            "lhs": self.value,
            "rhs": self.lower,
            "upper": self.upper,
            "sums": {"lower": self.lower, "value": self.value},
            "pass": self.passed,
            "witnesses": [],
        }


@dataclass(frozen=True)
class CensusReport:
    """Counts, histograms, and bound checks for one embedding."""

    n: int
    rectilinear: bool
    hopf_count: int | None
    positive_a2_count: int
    a2_histogram: dict[int, int]
    lk_histogram: dict[int, int]
    bound_checks: tuple[dict, ...]
    min_positive_expected: int | None
    refined_min_note: str | None
    witnesses: tuple[dict, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rectilinear": self.rectilinear,
            "hopf_count": self.hopf_count,
            "positive_a2_count": self.positive_a2_count,
            "a2_histogram": {str(k): v for k, v in sorted(self.a2_histogram.items())},
            "lk_histogram": {str(k): v for k, v in sorted(self.lk_histogram.items())},
            "bound_checks": list(self.bound_checks),
            "min_positive_expected": self.min_positive_expected,
            "refined_min_note": self.refined_min_note,
            "witnesses": list(self.witnesses),
            "pass": self.passed,
        }


def _witnesses_from(*record_sets) -> tuple[dict, ...]:
    out = []
    omitted = 0
    for records in record_sets:
        for r in records:
            if r.value == 0:
                continue
            if len(out) >= WITNESS_CAP:
                omitted += 1
                continue
            if isinstance(r.subject[0], tuple):
                out.append(
                    {
                        "pair": [list(r.subject[0]), list(r.subject[1])],
                        "lk": r.value,
                    }
                )
            else:
                out.append({"cycle": list(r.subject), "a2": r.value})
    if omitted:
        out.append({"omitted": omitted})
    return tuple(out)


def _report(identity_id, analysis, sums, lhs, rhs, witnesses=(), raise_on_fail=True):
    passed = Fraction(lhs) == Fraction(rhs)
    rep = IdentityReport(
        identity_id=identity_id,
        n=analysis.n,
        sums=sums,
        lhs=lhs,
        rhs=rhs if isinstance(rhs, int) else rhs,
        passed=passed,
        witnesses=witnesses,
    )
    if raise_on_fail and not passed:
        raise IdentityViolation(rep)
    return rep


def _analysis_for(e, analysis, **kw) -> EmbeddingAnalysis:
    if analysis is not None:
        return analysis
    return EmbeddingAnalysis(e, **kw)


def _require_complete(a: EmbeddingAnalysis, minimum: int, what: str) -> None:
    if a.graph.tags or a.graph.edge_count != comb(a.n, 2):
        raise ValueError(f"{what} needs a complete graph")
    if a.n < minimum:
        raise ValueError(f"{what} needs n >= {minimum}")


def verify_k6_identity(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """2 S_a2(6) - 2 S_a2(5) = S_lk2(3,3) - 1, for embeddings of K_6."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the K6 identity")
    if a.n != 6:
        raise ValueError("the K6 identity is specific to n = 6")
    s6, s5 = a.sum_a2(6), a.sum_a2(5)
    s33 = a.sum_lk_sq(3, 3)
    return _report(
        "k6-identity",
        a,
        {"sum_a2_6": s6, "sum_a2_5": s5, "sum_lk_sq_33": s33},
        2 * s6 - 2 * s5,
        s33 - 1,
        _witnesses_from(a.knot_records(6), a.link_records(3, 3)),
        raise_on_fail,
    )


def verify_main_identity(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """S_a2(n) - (n-5)! S_a2(5) = ((n-5)!/2)(S_lk2(3,3) - C(n-1,5))."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the Hamiltonian identity")
    n = a.n
    f = factorial(n - 5)
    sn, s5 = a.sum_a2(n), a.sum_a2(5)
    s33 = a.sum_lk_sq(3, 3)
    lhs = sn - f * s5
    rhs = Fraction(f, 2) * (s33 - comb(n - 1, 5))
    return _report(
        "main-identity",
        a,
        {"sum_a2_hamiltonian": sn, "sum_a2_5": s5, "sum_lk_sq_33": s33},
        lhs,
        int(rhs) if rhs.denominator == 1 else rhs,
        _witnesses_from(a.knot_records(n)),
        raise_on_fail,
    )


def verify_lemma21_1(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """2 S_a2(6) - 2(n-5) S_a2(5) = S_lk2(3,3) - C(n,6), n >= 6."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the hexagon lemma")
    n = a.n
    s6, s5 = a.sum_a2(6), a.sum_a2(5)
    s33 = a.sum_lk_sq(3, 3)
    return _report(
        "hexagon-lemma",
        a,
        {"sum_a2_6": s6, "sum_a2_5": s5, "sum_lk_sq_33": s33},
        2 * s6 - 2 * (n - 5) * s5,
        s33 - comb(n, 6),
        _witnesses_from(a.knot_records(6)),
        raise_on_fail,
    )


def verify_lemma21_2(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """S_lk2(3,4) = 2(n-6) S_lk2(3,3), n >= 7."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 7, "the square lemma")
    n = a.n
    s34 = a.sum_lk_sq(3, 4)
    s33 = a.sum_lk_sq(3, 3)
    return _report(
        "square-lemma",
        a,
        {"sum_lk_sq_34": s34, "sum_lk_sq_33": s33},
        s34,
        2 * (n - 6) * s33,
        _witnesses_from(a.link_records(3, 4)),
        raise_on_fail,
    )


def verify_k7_identity(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """7 S_a2(7) - 6 S_a2(6) - 2 S_a2(5) = 2 S_lk2(3,4) - 21, for K_7."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 7, "the K7 identity")
    if a.n != 7:
        raise ValueError("the K7 identity is specific to n = 7")
    s7, s6, s5 = a.sum_a2(7), a.sum_a2(6), a.sum_a2(5)
    s34 = a.sum_lk_sq(3, 4)
    return _report(
        "k7-identity",
        a,
        {"sum_a2_7": s7, "sum_a2_6": s6, "sum_a2_5": s5, "sum_lk_sq_34": s34},
        7 * s7 - 6 * s6 - 2 * s5,
        2 * s34 - 21,
        _witnesses_from(a.knot_records(7)),
        raise_on_fail,
    )


def verify_k7_combined(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """7 S_a2(7) - 2 S_a2(6) - 10 S_a2(5) = 3 S_lk2(3,4) - 35 (redundant)."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 7, "the combined K7 check")
    if a.n != 7:
        raise ValueError("the combined K7 check is specific to n = 7")
    s7, s6, s5 = a.sum_a2(7), a.sum_a2(6), a.sum_a2(5)
    s34 = a.sum_lk_sq(3, 4)
    return _report(
        "k7-combined",
        a,
        {"sum_a2_7": s7, "sum_a2_6": s6, "sum_a2_5": s5, "sum_lk_sq_34": s34},
        7 * s7 - 2 * s6 - 10 * s5,
        3 * s34 - 35,
        (),
        raise_on_fail,
    )


def verify_lk34(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """S_lk2(3,4) = 2 S_lk2(3,3), for K_7."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 7, "the K7 pair-class ratio")
    if a.n != 7:
        raise ValueError("the K7 pair-class ratio is specific to n = 7")
    s34 = a.sum_lk_sq(3, 4)
    s33 = a.sum_lk_sq(3, 3)
    return _report(
        "k7-ratio",
        a,
        {"sum_lk_sq_34": s34, "sum_lk_sq_33": s33},
        s34,
        2 * s33,
        (),
        raise_on_fail,
    )


def verify_k331_identity(e=None, analysis=None, raise_on_fail=True, **kw) -> IdentityReport:
    """2 S_a2(7) - 4 S_a2(6 in H) - 2 S_a2(5) = S_lk2(3,4) - 1."""
    a = _analysis_for(e, analysis, **kw)
    if not a.graph.tags:
        raise ValueError("the tripartite identity needs the apexed graph")
    s7 = a.sum_a2(7)
    s6h = a.sum_a2_h6()
    s5 = a.sum_a2(5)
    s34 = a.sum_lk_sq(3, 4)
    return _report(
        "k331-identity",
        a,
        {"sum_a2_7": s7, "sum_a2_6_h": s6h, "sum_a2_5": s5, "sum_lk_sq_34": s34},
        2 * s7 - 4 * s6h - 2 * s5,
        s34 - 1,
        _witnesses_from(a.knot_records(7)),
        raise_on_fail,
    )


def verify_rectilinear_degeneration(
    e=None, analysis=None, raise_on_fail=True, **kw
) -> IdentityReport:
    """For straight-edge embeddings the 5-cycle term vanishes identically.

    Checks S_a2(5) = 0 and that the Hamiltonian identity evaluated
    without its 5-cycle term reproduces the full report literally.
    """
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the rectilinear degeneration")
    if not a.embedding.rectilinear:
        raise ValueError("degeneration check applies to rectilinear embeddings")
    full = verify_main_identity(analysis=a, raise_on_fail=False)
    n = a.n
    s5 = a.sum_a2(5)
    sn = a.sum_a2(n)
    s33 = a.sum_lk_sq(3, 3)
    rhs = Fraction(factorial(n - 5), 2) * (s33 - comb(n - 1, 5))
    degenerate_lhs = sn
    passed = (
        s5 == 0
        and full.passed
        and degenerate_lhs == full.lhs
        and Fraction(degenerate_lhs) == Fraction(rhs)
    )
    rep = IdentityReport(
        identity_id="rectilinear-degeneration",
        n=n,
        sums={"sum_a2_hamiltonian": sn, "sum_a2_5": s5, "sum_lk_sq_33": s33},
        lhs=degenerate_lhs,
        rhs=int(rhs) if rhs.denominator == 1 else rhs,
        passed=passed,
        witnesses=(),
    )
    if raise_on_fail and not passed:
        raise IdentityViolation(rep)
    return rep


def check_mod2(e=None, analysis=None, raise_on_fail=True, **kw) -> CongruenceReport:
    """Parity laws: n=6, S_lk(3,3) is odd; n=7, S_a2(n) is odd."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the parity check")
    if a.n == 6:
        value = a.sum_lk(3, 3)
    elif a.n == 7:
        value = a.sum_a2(7)
    else:
        raise ValueError("parity laws are specific to n = 6 and n = 7")
    rep = CongruenceReport(
        check_id="mod2-parity",
        n=a.n,
        modulus=2,
        value=value,
        expected_residue=1,
        passed=value % 2 == 1,
    )
    if raise_on_fail and not rep.passed:
        raise IdentityViolation(rep)
    return rep


def expected_residue(n: int) -> tuple[int, int]:
    """(modulus, expected residue) for the Hamiltonian a2 total, n >= 7."""
    if n < 7:
        raise ValueError("residue law starts at n = 7")
    m = factorial(n - 5)
    if n % 8 == 0:
        r = (-(m // 2) * comb(n - 1, 5)) % m
    elif n % 8 == 7:
        r = ((m // 2) * comb(n, 6)) % m
    else:
        r = 0
    return m, r


def check_congruence(e=None, analysis=None, raise_on_fail=True, **kw) -> CongruenceReport:
    """The Hamiltonian a2 total matches its forced residue mod (n-5)!."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 7, "the residue check")
    m, r = expected_residue(a.n)
    value = a.sum_a2(a.n)
    rep = CongruenceReport(
        check_id="residue-congruence",
        n=a.n,
        modulus=m,
        value=value,
        expected_residue=r,
        passed=(value - r) % m == 0,
    )
    if raise_on_fail and not rep.passed:
        raise IdentityViolation(rep)
    return rep


def lower_bound_value(n: int) -> int:
    """(n-5)(n-6)(n-1)!/1440, exact."""
    if n < 6:
        raise ValueError("bound defined for n >= 6")
    num = (n - 5) * (n - 6) * factorial(n - 1)
    if num % 1440:
        raise InvariantContractError("lower bound is not integral")
    return num // 1440


def upper_bound_value(n: int) -> int:
    """3(n-2)(n-5)(n-1)!/1440, exact; binds rectilinear embeddings only."""
    if n < 6:
        raise ValueError("bound defined for n >= 6")
    num = 3 * (n - 2) * (n - 5) * factorial(n - 1)
    if num % 1440:
        raise InvariantContractError("upper bound is not integral")
    return num // 1440


def check_bounds(e=None, analysis=None, raise_on_fail=True, **kw) -> BoundsReport:
    """Lower bound on the Hamiltonian identity total; sandwich if straight."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the bounds check")
    n = a.n
    value = a.sum_a2(n) - factorial(n - 5) * a.sum_a2(5)
    lower = lower_bound_value(n)
    rectilinear = a.embedding.rectilinear
    upper = upper_bound_value(n) if rectilinear else None
    ok = value >= lower and (upper is None or a.sum_a2(n) <= upper)
    rep = BoundsReport(
        check_id="a2-bounds",
        n=n,
        rectilinear=rectilinear,
        lower=lower,
        value=value,
        upper=upper,
        passed=ok,
    )
    if raise_on_fail and not ok:
        raise IdentityViolation(rep)
    return rep


def r_n(n: int) -> int:
    """Guaranteed count of positive-a2 Hamiltonian knots in straight K_n.

    The ceiling of the lower bound divided by the largest a2 an n-stick
    knot can have.
    """
    if n < 7:
        raise ValueError("defined for n >= 7")
    lower = (n - 5) * (n - 6) * factorial(n - 1)  # 1440 * lower_bound_value(n)
    cap = stick_bound_a2(n)
    return -((-lower) // (1440 * cap))


# ---------------------------------------------------------------------------
# Orchestration


def sum_a2(e: SpatialEmbedding, k: int, **kw) -> int:
    """Sum of a2 over all k-cycles, each term frame-verified."""
    return EmbeddingAnalysis(e, **kw).sum_a2(k)


def sum_lk_sq(e: SpatialEmbedding, k: int, l: int, **kw) -> int:
    """Sum of lk^2 over all disjoint (k, l) cycle pairs."""
    return EmbeddingAnalysis(e, **kw).sum_lk_sq(k, l)


IDENTITY_ORDER = (
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


def applicable_identities(e: SpatialEmbedding) -> tuple[str, ...]:
    """Identity ids that apply to this embedding's graph and shape."""
    g = e.graph
    n = g.vertex_count
    if g.tags:
        return ("k331-identity",)
    if g.edge_count != comb(n, 2) or n < 6:
        return ()
    out = ["main-identity", "hexagon-lemma", "a2-bounds"]
    if n == 6:
        out += ["k6-identity", "mod2-parity"]
    if n >= 7:
        out += ["square-lemma", "residue-congruence"]
    if n == 7:
        out += ["k7-identity", "k7-ratio", "k7-combined", "mod2-parity"]
    if e.rectilinear:
        out += ["pentagon-triviality", "rectilinear-degeneration"]
    return tuple(i for i in IDENTITY_ORDER if i in out)


def verify_pentagon_triviality(
    e=None, analysis=None, raise_on_fail=True, **kw
) -> IdentityReport:
    """S_a2(5) = 0 for straight-edge embeddings (5-stick knots are trivial)."""
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "pentagon triviality")
    if not a.embedding.rectilinear:
        raise ValueError("pentagon triviality applies to rectilinear embeddings")
    s5 = a.sum_a2(5)
    return _report(
        "pentagon-triviality",
        a,
        {"sum_a2_5": s5},
        s5,
        0,
        (),
        raise_on_fail,
    )


_VERIFIERS = {
    "k6-identity": verify_k6_identity,
    "main-identity": verify_main_identity,
    "hexagon-lemma": verify_lemma21_1,
    "square-lemma": verify_lemma21_2,
    "k7-identity": verify_k7_identity,
    "k7-ratio": verify_lk34,
    "k7-combined": verify_k7_combined,
    "k331-identity": verify_k331_identity,
    "pentagon-triviality": verify_pentagon_triviality,
    "rectilinear-degeneration": verify_rectilinear_degeneration,
    "mod2-parity": check_mod2,
    "residue-congruence": check_congruence,
    "a2-bounds": check_bounds,
}


def verify_embedding(
    e: SpatialEmbedding,
    identities: tuple[str, ...] | None = None,
    analysis: EmbeddingAnalysis | None = None,
    raise_on_fail: bool = False,
    **kw,
):
    """Run the selected (default: all applicable) checks; return reports."""
    a = _analysis_for(e, analysis, **kw)
    selection = applicable_identities(e) if identities is None else identities
    unknown = [i for i in selection if i not in _VERIFIERS]
    if unknown:
        raise ValueError(f"unknown identities: {unknown}")
    reports = []
    for ident in selection:
        reports.append(_VERIFIERS[ident](analysis=a, raise_on_fail=raise_on_fail))
    return reports, a


def census(e: SpatialEmbedding, analysis: EmbeddingAnalysis | None = None, **kw) -> CensusReport:
    """Knot and link census of a complete-graph embedding.

    Counts Hopf pairs and positive-a2 Hamiltonian knots, with histograms
    and the unconditional bound checks on those counts.
    """
    a = _analysis_for(e, analysis, **kw)
    _require_complete(a, 6, "the census")
    n = a.n
    ham = a.knot_records(n)
    pairs = a.link_records(3, 3)
    a2_hist: dict[int, int] = {}
    for r in ham:
        a2_hist[r.value] = a2_hist.get(r.value, 0) + 1
    lk_hist: dict[int, int] = {}
    for r in pairs:
        lk_hist[r.value] = lk_hist.get(r.value, 0) + 1
    positive = sum(1 for r in ham if r.value > 0)
    rectilinear = e.rectilinear
    checks: list[dict] = []
    ok = True
    if rectilinear:
        hopf = sum(1 for r in pairs if abs(r.value) == 1)
        s33 = a.sum_lk_sq(3, 3)
        c_ok = hopf == s33
        checks.append(
            {"check": "hopf-count-equals-lk-square-sum", "lhs": hopf, "rhs": s33, "pass": c_ok}
        )
        ok &= c_ok
        c_ok = hopf >= comb(n, 6)
        checks.append(
            {"check": "hopf-count-at-least-choose-6", "lhs": hopf, "rhs": comb(n, 6), "pass": c_ok}
        )
        ok &= c_ok
    else:
        hopf = None
    expected_min = r_n(n) if n >= 7 else None
    if rectilinear and expected_min is not None:
        c_ok = positive >= expected_min
        checks.append(
            {
                "check": "positive-count-at-least-guaranteed",
                "lhs": positive,
                "rhs": expected_min,
                "pass": c_ok,
            }
        )
        ok &= c_ok
    note = None
    if n == 8:
        # Known refinement for eight vertices: at least eight positive
        # Hamiltonian knots in every straight-edge embedding
        # (informational; not gated here).
        note = "literature refinement for n=8: at least 8 positive knots expected"
    witnesses = _witnesses_from(tuple(r for r in ham if r.value > 0))
    return CensusReport(
        n=n,
        rectilinear=rectilinear,
        hopf_count=hopf,
        positive_a2_count=positive,
        a2_histogram=a2_hist,
        lk_histogram=lk_hist,
        bound_checks=tuple(checks),
        min_positive_expected=expected_min,
        refined_min_note=note,
        witnesses=witnesses,
        passed=ok,
    )
