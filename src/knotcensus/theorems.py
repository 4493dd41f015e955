"""Exact evaluation of the integer identities a spatial embedding satisfies.

Every aggregate here is read from one `ClassSummary` per cycle class,
folded straight from the class's values as `invariants.shard_values`
reads them (each frame-verified, optionally audited), with no record
built: a value histogram, an audited count and the first nonzero and
positive (subject, value) pairs, so a report can name the cycles behind
its numbers.  A class is named by a key, and `SUM_KEYS` maps each report
sum to one; `EmbeddingAnalysis.summary(key)` and `class_sum(key)` are the
one route every row and the census read a class through.
All arithmetic is exact: sums are Python integers, the one halved
coefficient is checked for integrality rather than rounded, and pass
means lhs equals rhs, nothing weaker.

`CATALOG` has one row per identity below, for K_n with straight or bent
edges unless marked (H is the bipartite subgraph of the tripartite
graph, apex removed).  The first ten are equations; the last three are
checks.  Every row reports through one `IdentityReport`:

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
  pentagon-triviality      straight, n>=6: S_a2(5) = 0
  rectilinear-degeneration straight, n>=6: main-identity without its
                             S_a2(5) term,
                             S_a2(n) = ((n-5)!/2) (S_lk2(3,3) - C(n-1,5))
  mod2-parity        n=6: S_lk2(3,3) is odd; n=7: S_a2(7) is odd
  residue-congruence n>=7: S_a2(n) = expected_residue(n) mod (n-5)!
  a2-bounds          n>=6: S_a2(n) - (n-5)! S_a2(5) >= (n-5)(n-6)(n-1)!/1440;
                             if straight, S_a2(n) <= 3(n-2)(n-5)(n-1)!/1440
"""

from __future__ import annotations

import marshal
import os
from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import islice
from math import comb, factorial, inf
from typing import NamedTuple

from .errors import InvariantContractError, IdentityViolation, ScaleLimitExceeded
from .geometry import SpatialEmbedding
from .graphs import (
    SimpleGraph,
    enumerate_cycles,
    enumerate_disjoint_pairs,
    k331_h_subgraph,
)
from .invariants import (
    InvariantRecord,
    classify_triangle_triangle,
    shard_values,
    stick_bound_a2,
)
from .projection import FRAME_RETRY_LIMIT, GraphProjection, check_frame_budget

HAMILTONIAN_CEILING = 10
WITNESS_CAP = 128


def _run_shard(evaluate, shard, fd: int) -> None:
    """Child side: write the marshal of `evaluate(shard)` to `fd`, and exit.

    The child exits 0 once its results are written; on any failure it
    writes nothing and exits 1, and the caller evaluates the shard
    again.  It always leaves through `os._exit`, so it never flushes the
    parent's buffers, runs its atexit handlers or returns into the
    caller.
    """
    code = 1
    try:
        data = marshal.dumps(evaluate(shard))
        with open(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _fork_shard(evaluate, shard):
    """Fork a child evaluating `shard`; return its pid and the reader of its results."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _run_shard(evaluate, shard, write_fd)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _shard_bounds(count: int, threads: int) -> list[int]:
    """Bounds of min(threads, count) contiguous shards of `count`
    subjects, near-equal in size and none empty."""
    shards = max(1, min(threads, count))
    return [count * i // shards for i in range(shards + 1)]


def _evaluate(evaluate, subjects: list, threads: int) -> tuple[list[int], bytearray]:
    """`evaluate(subjects)`, split over `threads` processes.

    `evaluate` maps a list of subjects to their values and audit flags,
    as `shard_values` does.  Sixteen subjects or fewer are evaluated
    here; more are cut into `_shard_bounds` shards, at most one per
    subject.  The calling process evaluates the first and a forked child
    each of the others; a child inherits the whole-graph tables bound
    into `evaluate`, so nothing is sent to it.  Results are joined in
    shard order, so they equal the serial ones for every process count.
    A shard whose child did not exit 0 is evaluated again here, so an
    error is raised as the serial run raises it, and a child killed from
    outside costs time, not the run.  On any failure every child still
    running is killed and reaped first.
    """
    if threads == 1 or len(subjects) <= 16:
        return evaluate(subjects)
    bounds = _shard_bounds(len(subjects), threads)
    shards = [subjects[lo:hi] for lo, hi in zip(bounds[1:-1], bounds[2:])]
    children = []
    try:
        for shard in shards:
            children.append(_fork_shard(evaluate, shard))
        values, audited = evaluate(subjects[: bounds[1]])
        for shard in shards:
            pid, reader = children[0]
            data = reader.read()
            reader.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            more, flags = marshal.loads(data) if status == 0 else evaluate(shard)
            values += more
            audited += flags
    finally:
        if children:
            import signal
        for pid, reader in children:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return values, audited


def _stick_knot(k: int, subject, value: int) -> str | None:
    """The contract violation of a straight k-cycle's a2, if any.

    A k-cycle with straight edges is a k-stick polygon: below six sticks
    only the unknot is possible, and in general its second Conway
    coefficient cannot exceed the k-stick bound.
    """
    if k <= 5 and value != 0:
        return f"straight {k}-gon {subject} got nonzero a2 {value}"
    if k >= 6 and value > stick_bound_a2(k):
        return f"{k}-stick knot {subject} exceeds a2 bound: {value}"
    return None


def _triangle_pair(subject, value: int) -> str | None:
    """The contract violation of a straight triangle pair's lk, if any."""
    if classify_triangle_triangle(value, True) == "other":
        return f"triangle pair {subject} has |lk| >= 2 in a straight-edge embedding"
    return None


class ClassSummary(NamedTuple):
    """What the reports read of one class; its records are never built.

    `histogram` maps each value to its subject count and `audited` counts
    the audited subjects.  `nonzero` and `positive` hold (subject, value)
    for the first `WITNESS_CAP` subjects, in canonical order, whose
    value is nonzero or positive: the witnesses a report can list.
    """

    histogram: dict[int, int]
    audited: int
    nonzero: tuple[tuple[tuple, int], ...]
    positive: tuple[tuple[tuple, int], ...]


class EmbeddingAnalysis:
    """Cached per-class summaries of the invariant values of one embedding.

    A class's values are read once, folded into a `ClassSummary` that
    every identity and the census read, and dropped, so an analysis holds
    O(classes x WITNESS_CAP) values, not O(subjects).  With `threads`
    above 1 a class is split into contiguous shards, one per process (see
    `_evaluate`), and joined back in canonical order, so values, sums
    and witnesses do not depend on the process count.

    Values are read from whole-graph crossing tables at the embedding's
    accepted frames, built on the first request for records and freed
    with the analysis.  With `audit`, the audit route's value of each
    distinct knot diagram is kept in one memo for the analysis's
    lifetime (see `shard_values`), shared by all its classes.  Forked
    shard processes inherit the tables and the memo as it stands at the
    fork; what a shard adds to its copy is dropped when it exits.
    """

    def __init__(
        self,
        embedding: SpatialEmbedding,
        seed=0,
        threads: int = 1,
        verify_frames: int = 1,
        retry_limit: int = FRAME_RETRY_LIMIT,
        audit: bool = False,
        allow_large: bool = False,
    ):
        if not isinstance(threads, int) or threads < 1:
            raise ValueError(f"threads must be an integer of at least 1, got {threads!r}")
        if threads > 1 and not hasattr(os, "fork"):
            raise ValueError("threads above 1 need os.fork, which this platform lacks")
        check_frame_budget(verify_frames, retry_limit)
        self.embedding = embedding
        self.seed = seed
        self.threads = threads
        self.verify_frames = verify_frames
        self.retry_limit = retry_limit
        self.audit = audit
        self.allow_large = allow_large
        self._summaries: dict[tuple, ClassSummary] = {}
        self._projection: GraphProjection | None = None
        self._audit_memo: dict[tuple, int] = {}

    @property
    def n(self) -> int:
        return self.embedding.n

    @property
    def graph(self) -> SimpleGraph:
        return self.embedding.graph

    @property
    def audited_knots(self) -> int:
        return sum(s.audited for key, s in self._summaries.items() if key[0] == "a2")

    @property
    def audited_links(self) -> int:
        return sum(s.audited for key, s in self._summaries.items() if key[0] == "lk2")

    @property
    def stats(self) -> dict:
        """The whole-graph frame search, empty until records are built.

        `graph_frames` lists the accepted frame indices every record was
        read at, `graph_frames_tried` counts the frames scanned, accepted
        or not, and `graph_frame_rejects` counts the rejected ones by
        condition.  They are the same for every worker count and never
        enter the reports.
        """
        g = self._projection
        return {
            "graph_frames": [] if g is None else [index for index, _ in g.tables],
            "graph_frames_tried": 0 if g is None else g.frames_tried,
            "graph_frame_rejects": {} if g is None else dict(sorted(g.rejects.items())),
        }

    def _values(self, subjects, check) -> tuple[list[int], bytearray, Counter]:
        """The values of `subjects` in order, their audit flags and histogram.

        `subjects` is the `enumerate_cycles` (a2) or
        `enumerate_disjoint_pairs` (lk) output.  `check`, when not None,
        gives the contract violation of a (subject, value) or None; it is
        tried on the histogram's distinct values, and only on a violation
        are the subjects scanned, in canonical order, for the first one
        to raise.  Nothing is cached here but the audit memo's additions.
        """
        if self._projection is None:
            self._projection = GraphProjection(
                self.embedding, self.seed, self.verify_frames, self.retry_limit
            )
        evaluate = partial(
            shard_values, self._projection.tables, audit=self.audit, memo=self._audit_memo
        )
        values, audited = _evaluate(evaluate, subjects, self.threads)
        histogram = Counter(values)
        if check is not None and any(check(None, v) for v in histogram):
            raise InvariantContractError(next(filter(None, map(check, subjects, values))))
        return values, audited, histogram

    def _records(self, subjects, check) -> tuple[InvariantRecord, ...]:
        """The records of `subjects`, in order, through `check` as `_values` runs it."""
        values, audited, _ = self._values(subjects, check)
        return tuple(map(InvariantRecord, subjects, values, map(bool, audited)))

    def _resolve(self, key: tuple) -> tuple:
        """`key` as the cache holds it: n filled in, H as its graph, pair lengths sorted."""
        kind, k, *rest = key
        if kind == "lk2":
            return (kind, *sorted((k, *rest)))
        g = rest[0] if rest else None
        g = k331_h_subgraph(self.graph) if g == "h" else g if g is not None else self.graph
        return kind, self.n if k is None else k, g

    def _class(self, key: tuple):
        """The subjects of class `key`, canonically sorted, and their straight-edge check."""
        kind, k, other = self._resolve(key)
        straight = self.embedding.rectilinear
        if kind == "lk2":
            check = _triangle_pair if (k, other) == (3, 3) and straight else None
            return enumerate_disjoint_pairs(self.graph, k, other), check
        if k == self.n and self.n > HAMILTONIAN_CEILING and not self.allow_large:
            raise ScaleLimitExceeded(
                f"Hamiltonian sums above n={HAMILTONIAN_CEILING} need the override"
            )
        return enumerate_cycles(other, k), partial(_stick_knot, k) if straight else None

    def knot_records(
        self, k: int, subgraph: SimpleGraph | None = None
    ) -> tuple[InvariantRecord, ...]:
        """Frame-verified a2 records for all k-cycles, sorted canonically."""
        return self._records(*self._class(("a2", k, subgraph)))

    def link_records(self, k: int, l: int) -> tuple[InvariantRecord, ...]:
        """Frame-verified lk records for all disjoint (k, l) cycle pairs."""
        return self._records(*self._class(("lk2", k, l)))

    def summary(self, key: tuple) -> ClassSummary:
        """The summary of class `key` (see `SUM_KEYS`), folded on the first request."""
        key = self._resolve(key)
        if key not in self._summaries:
            subjects, check = self._class(key)
            values, audited, histogram = self._values(subjects, check)
            nonzero = islice(((s, v) for s, v in zip(subjects, values) if v), WITNESS_CAP)
            positive = islice(((s, v) for s, v in zip(subjects, values) if v > 0), WITNESS_CAP)
            self._summaries[key] = ClassSummary(
                dict(histogram), audited.count(1), tuple(nonzero), tuple(positive)
            )
        return self._summaries[key]

    def class_sum(self, key: tuple) -> int:
        """Sum of v * c over class `key`'s histogram, of v * v * c for an lk2 key."""
        power = 2 if key[0] == "lk2" else 1
        return sum(v**power * c for v, c in self.summary(key).histogram.items())


# ---------------------------------------------------------------------------
# Reports


def _json_value(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else [v.numerator, v.denominator]
    return v


class IdentityReport(NamedTuple):
    """Both sides of one identity, with the sums that built them.

    `extra` holds the keys a check row adds to its JSON: `modulus` for a
    congruence, `rectilinear` and `upper` for the a2 bounds; it is None
    for an equation row.
    """

    identity_id: str
    n: int
    sums: dict[str, int]
    lhs: int
    rhs: int | Fraction
    passed: bool
    witnesses: tuple[dict, ...] = ()
    extra: dict | None = None

    def to_json(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "n": self.n,
            "sums": dict(sorted(self.sums.items())),
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
            "pass": self.passed,
            "witnesses": list(self.witnesses),
            **(self.extra or {}),
        }


class CensusReport(NamedTuple):
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


def _witnesses_from(prefixes, count: int) -> tuple[dict, ...]:
    """The first `WITNESS_CAP` (subject, value) pairs of the joined
    `prefixes` as witnesses, then the rest of `count` as omitted."""
    out = [
        {"pair": [list(s[0]), list(s[1])], "lk": v} if isinstance(s[0], tuple)
        else {"cycle": list(s), "a2": v}
        for s, v in [w for prefix in prefixes for w in prefix][:WITNESS_CAP]
    ]
    if count > len(out):
        out.append({"omitted": count - len(out)})
    return tuple(out)


def _analysis_for(e, analysis, **kw) -> EmbeddingAnalysis:
    if analysis is None:
        if e is None:
            raise ValueError("no embedding given, and no analysis to read one from")
        return EmbeddingAnalysis(e, **kw)
    if kw:
        raise ValueError(f"analysis keywords {sorted(kw)} given with an analysis")
    if e is not None and e is not analysis.embedding:
        raise ValueError("the analysis belongs to another embedding")
    return analysis


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
# The catalog


def _complete(low: int, high: float = inf, straight: bool = False):
    """Applies to K_n for low <= n <= high, with straight edges if asked."""

    def applies(e: SpatialEmbedding) -> bool:
        g = e.graph
        n = g.vertex_count
        return (
            not g.tags
            and g.edge_count == comb(n, 2)
            and low <= n <= high
            and (e.rectilinear or not straight)
        )

    return applies


# The class sums an equation can read: report name -> the key of the class
# it adds up, for `EmbeddingAnalysis.class_sum` and `summary`.  ("a2", k)
# is the k-cycles, k None meaning n; ("a2", k, "h") the k-cycles of H;
# ("lk2", k, l) the disjoint (k, l) cycle pairs.
SUM_KEYS = {
    "sum_a2_5": ("a2", 5),
    "sum_a2_6": ("a2", 6),
    "sum_a2_7": ("a2", 7),
    "sum_a2_hamiltonian": ("a2", None),
    "sum_a2_6_h": ("a2", 6, "h"),
    "sum_lk_sq_33": ("lk2", 3, 3),
    "sum_lk_sq_34": ("lk2", 3, 4),
}


class Identity(NamedTuple):
    """One catalog row: an identity id and the embeddings it applies to.

    An equation row states, over the class sums s its `terms(n)` name,
    sum of l*s = scale(n) * (sum of r*s + constant(n)) for the integer
    pair (l, r) each sum maps to; its witnesses are the nonzero records
    behind the sums named in `witnesses`.  A check row sets `evaluate`,
    which builds the row's `IdentityReport` with its check-only JSON keys
    in `extra`.
    """

    id: str
    applies: Callable[[SpatialEmbedding], bool]
    terms: Callable[[int], dict[str, tuple[int, int]]] = lambda n: {}
    constant: Callable[[int], int] = lambda n: 0
    scale: Callable[[int], Fraction] | None = None
    witnesses: tuple[str, ...] = ()
    evaluate: Callable[[EmbeddingAnalysis], IdentityReport] | None = None


def _congruence(identity_id: str, n: int, value: int, modulus: int, residue: int) -> IdentityReport:
    lhs = value % modulus
    return IdentityReport(
        identity_id, n, {"value": value}, lhs, residue, lhs == residue,
        extra={"modulus": modulus},
    )


def _mod2(a: EmbeddingAnalysis) -> IdentityReport:
    """The parity row: S_lk2(3,3) odd at n = 6, S_a2(7) odd at n = 7.

    lk^2 has the parity of lk, so S_lk2(3,3) has the parity of the
    signed lk sum that Conway-Gordon's mod-2 theorem is about.
    """
    value = a.class_sum(("lk2", 3, 3) if a.n == 6 else ("a2", 7))
    return _congruence("mod2-parity", a.n, value, 2, 1)


def _residue(a: EmbeddingAnalysis) -> IdentityReport:
    value = a.class_sum(("a2", None))
    return _congruence("residue-congruence", a.n, value, *expected_residue(a.n))


def _bounds(a: EmbeddingAnalysis) -> IdentityReport:
    n = a.n
    sn = a.class_sum(("a2", None))
    value = sn - factorial(n - 5) * a.class_sum(("a2", 5))
    lower = lower_bound_value(n)
    rectilinear = a.embedding.rectilinear
    upper = upper_bound_value(n) if rectilinear else None
    ok = value >= lower and (upper is None or sn <= upper)
    return IdentityReport(
        "a2-bounds", n, {"lower": lower, "value": value}, value, lower, ok,
        extra={"rectilinear": rectilinear, "upper": upper},
    )


CATALOG = {
    row.id: row
    for row in (
        Identity("k6-identity", _complete(6, 6),
                 lambda n: {"sum_a2_6": (2, 0), "sum_a2_5": (-2, 0), "sum_lk_sq_33": (0, 1)},
                 constant=lambda n: -1, witnesses=("sum_a2_6", "sum_lk_sq_33")),
        Identity("main-identity", _complete(6),
                 lambda n: {"sum_a2_hamiltonian": (1, 0), "sum_a2_5": (-factorial(n - 5), 0),
                            "sum_lk_sq_33": (0, 1)},
                 constant=lambda n: -comb(n - 1, 5),
                 scale=lambda n: Fraction(factorial(n - 5), 2),
                 witnesses=("sum_a2_hamiltonian",)),
        Identity("hexagon-lemma", _complete(6),
                 lambda n: {"sum_a2_6": (2, 0), "sum_a2_5": (-2 * (n - 5), 0),
                            "sum_lk_sq_33": (0, 1)},
                 constant=lambda n: -comb(n, 6), witnesses=("sum_a2_6",)),
        Identity("square-lemma", _complete(7),
                 lambda n: {"sum_lk_sq_34": (1, 0), "sum_lk_sq_33": (0, 2 * (n - 6))},
                 witnesses=("sum_lk_sq_34",)),
        Identity("k7-identity", _complete(7, 7),
                 lambda n: {"sum_a2_7": (7, 0), "sum_a2_6": (-6, 0), "sum_a2_5": (-2, 0),
                            "sum_lk_sq_34": (0, 2)},
                 constant=lambda n: -21, witnesses=("sum_a2_7",)),
        Identity("k7-ratio", _complete(7, 7),
                 lambda n: {"sum_lk_sq_34": (1, 0), "sum_lk_sq_33": (0, 2)}),
        Identity("k7-combined", _complete(7, 7),
                 lambda n: {"sum_a2_7": (7, 0), "sum_a2_6": (-2, 0), "sum_a2_5": (-10, 0),
                            "sum_lk_sq_34": (0, 3)},
                 constant=lambda n: -35),
        Identity("k331-identity", lambda e: bool(e.graph.tags),
                 lambda n: {"sum_a2_7": (2, 0), "sum_a2_6_h": (-4, 0), "sum_a2_5": (-2, 0),
                            "sum_lk_sq_34": (0, 1)},
                 constant=lambda n: -1, witnesses=("sum_a2_7",)),
        Identity("pentagon-triviality", _complete(6, straight=True),
                 lambda n: {"sum_a2_5": (1, 0)}),
        Identity("rectilinear-degeneration", _complete(6, straight=True),
                 lambda n: {"sum_a2_hamiltonian": (1, 0), "sum_a2_5": (0, 0),
                            "sum_lk_sq_33": (0, 1)},
                 constant=lambda n: -comb(n - 1, 5),
                 scale=lambda n: Fraction(factorial(n - 5), 2)),
        Identity("mod2-parity", _complete(6, 7), evaluate=_mod2),
        Identity("residue-congruence", _complete(7), evaluate=_residue),
        Identity("a2-bounds", _complete(6), evaluate=_bounds),
    )
}


def applicable_identities(e: SpatialEmbedding) -> tuple[str, ...]:
    """Identity ids that apply to this embedding's graph and shape."""
    return tuple(row.id for row in CATALOG.values() if row.applies(e))


def verify_identity(identity_id: str, e=None, analysis=None, raise_on_fail=True, **kw):
    """Evaluate one catalog row; raise `IdentityViolation` on failure if asked.

    Raises ValueError for an unknown id or one that does not apply to the
    embedding.  Extra keywords configure the analysis built when none is
    given; given with an analysis, they raise ValueError.
    """
    row = CATALOG.get(identity_id)
    if row is None:
        raise ValueError(f"unknown identity {identity_id!r}")
    a = _analysis_for(e, analysis, **kw)
    if not row.applies(a.embedding):
        raise ValueError(f"{identity_id} does not apply to this embedding")
    if row.evaluate is not None:
        rep = row.evaluate(a)
    else:
        n = a.n
        terms = row.terms(n)
        sums = {name: a.class_sum(SUM_KEYS[name]) for name in terms}
        lhs = sum(l * sums[name] for name, (l, _) in terms.items())
        rhs = sum(r * sums[name] for name, (_, r) in terms.items()) + row.constant(n)
        if row.scale is not None:
            rhs = row.scale(n) * rhs
            rhs = int(rhs) if rhs.denominator == 1 else rhs
        named = [a.summary(SUM_KEYS[name]) for name in row.witnesses]
        nonzero = sum(c for s in named for v, c in s.histogram.items() if v)
        witnesses = _witnesses_from([s.nonzero for s in named], nonzero)
        rep = IdentityReport(identity_id, n, sums, lhs, rhs, lhs == rhs, witnesses)
    if raise_on_fail and not rep.passed:
        raise IdentityViolation(rep)
    return rep


def verify_embedding(
    e: SpatialEmbedding,
    identities: tuple[str, ...] | None = None,
    analysis: EmbeddingAnalysis | None = None,
    raise_on_fail: bool = False,
    **kw,
):
    """Run the selected (default: all applicable) checks; return reports.

    Raises ValueError when nothing is selected, so a run that checks
    nothing never reports a pass, and when the selection names an
    unknown identity or one identity twice.
    """
    a = _analysis_for(e, analysis, **kw)
    selection = applicable_identities(a.embedding) if identities is None else identities
    if not selection:
        raise ValueError(
            "no identity applies to this embedding" if identities is None
            else "no identities selected"
        )
    unknown = [i for i in selection if i not in CATALOG]
    if unknown:
        raise ValueError(f"unknown identities: {unknown}")
    repeated = sorted({i for i in selection if selection.count(i) > 1})
    if repeated:
        raise ValueError(f"repeated identities: {repeated}")
    reports = [verify_identity(i, analysis=a, raise_on_fail=raise_on_fail) for i in selection]
    return reports, a


def census(e: SpatialEmbedding, analysis: EmbeddingAnalysis | None = None, **kw) -> CensusReport:
    """Knot and link census of a complete-graph embedding.

    Counts Hopf pairs and positive-a2 Hamiltonian knots, with histograms
    and the unconditional bound checks on those counts.
    """
    a = _analysis_for(e, analysis, **kw)
    if not _complete(6)(a.embedding):
        raise ValueError("the census needs a complete graph with n >= 6")
    n = a.n
    ham = a.summary(("a2", None))
    pairs = a.summary(("lk2", 3, 3)).histogram
    positive = sum(c for v, c in ham.histogram.items() if v > 0)
    rectilinear = a.embedding.rectilinear
    checks: list[dict] = []

    def check(name: str, lhs: int, rhs: int, passed: bool) -> None:
        checks.append({"check": name, "lhs": lhs, "rhs": rhs, "pass": passed})

    hopf = None
    if rectilinear:
        hopf = pairs.get(1, 0) + pairs.get(-1, 0)
        s33 = a.class_sum(("lk2", 3, 3))
        check("hopf-count-equals-lk-square-sum", hopf, s33, hopf == s33)
        check("hopf-count-at-least-choose-6", hopf, comb(n, 6), hopf >= comb(n, 6))
    expected_min = r_n(n) if n >= 7 else None
    if rectilinear and expected_min is not None:
        check("positive-count-at-least-guaranteed", positive, expected_min,
              positive >= expected_min)
    note = None
    if n == 8:
        # Known refinement for eight vertices: at least eight positive
        # Hamiltonian knots in every straight-edge embedding
        # (informational; not gated here).
        note = "literature refinement for n=8: at least 8 positive knots expected"
    witnesses = _witnesses_from([ham.positive], positive)
    return CensusReport(
        n=n,
        rectilinear=rectilinear,
        hopf_count=hopf,
        positive_a2_count=positive,
        a2_histogram=dict(ham.histogram),
        lk_histogram=dict(pairs),
        bound_checks=tuple(checks),
        min_positive_expected=expected_min,
        refined_min_note=note,
        witnesses=witnesses,
        passed=all(c["pass"] for c in checks),
    )
