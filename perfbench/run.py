"""End-to-end and per-layer benchmark of the knotcensus CLI.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --workload all       # every workload in turn
  python3 perfbench/run.py --smoke              # seconds; self-test
  python3 perfbench/run.py --update-references  # after an intended output change

Every timed run is a fresh process of `knotcensus.cli.main` (through
`perfbench/probe.py`), spawned, timed and reaped by this harness.  A
reused process would hide the process-global `_CONWAY_MEMO` in
`invariants`: it is never cleared, so every audited run after the first
would get faster and the memory growth would not show.  The harness
first builds the package in place with the repository's own
`setup.py build_ext`, so a checkout that gains a compiled kernel is
measured with it (the backend is printed with every result).

Workloads (one closed loop: one process at a time, at most 2 pool
workers, since the reference machine has 2 cores):

  verify-rand8          verify K8 --seed 0, serial, unaudited.
      The fast path only: frames, crossing kernel, diagram assembly and
      a2/lk; 5,992 records, 11,984 kernel scans, up to 16 crossings, no
      oracle.  Whole-graph diagrams, dead-path removal and kernel
      changes show here.
  verify-audit-moment7  verify M7 --seed 0 --audit, serial.
      The skein oracle is about 60% of the wall time (1,206 of 1,207
      diagrams audited; one knot has more than 12 crossings) and its
      memo raises peak RSS from about 20 to 50 MB.  A faster or bounded
      audit shows here; a fast-path gain should barely move it.
  census-poly8-t2       census P8 --seed 0 --threads 2.
      Polylines with waypoints and scaled integers, the non-rectilinear
      branches, only Hamiltonian and triangle-pair records (2,800), and
      a 2-worker multiprocessing pool: a serial-only gain that costs
      pickling or the parallel reduction shows here as worse wall_s or
      cpu_s.

K8 is `knotcensus embed --n 8 --seed 0`, M7 `embed --n 7 --kind moment`
and P8 `embed --n 8 --kind polyline --seed 0`, stored in
`perfbench/inputs/`.  The benchmark's --seed translates the embedding by
an integer vector drawn from that seed, so each seed is a different
input on which the program does the same work and must print the same
bytes: every run's stdout is checked byte for byte against the
workload's reference (`references.json`), and the run must exit 0.
Neither the embedding nor the CLI's frame seed varies with --seed,
because the cost depends strongly on both.  On random K9, CLI seeds 0-4
took 10.0 to 13.0 s.  With the random K8 embedding fixed and --audit,
frame seeds 0, 10 and 11 took 5.2, 14.6 and 22.0 s and 151, 415 and
657 MB.  That is a property of the program worth its own issue; as
run-to-run noise it would swamp every bound.

The sizes are one step below random K9, audited random K8 and polyline
K9 (9-11 s, 5-6 s and 4-5 s a process), which were tried first.  A
36-second run holds only 3 to 7 processes of that length, whole runs
fell into the machine's slow phases (below), and over 10 seeds the
quartile spread of the runs' best times reached 0.17 to 0.39 of the
median.  At 1-2 s a process a run holds 18 to 25 of them.

Left out: moment K8 audited (tens of seconds and about 800 MB per
process), the tripartite graph (24 ms, too short to time) and K10
(needs --allow-large and runs for minutes).

End-to-end metrics (--trace 0).  A run spawns full processes until
--seconds have passed (at least 3), each after one set-up probe:

  wall_s         spawn until the process exits with its output written;
                 the fastest process of the run
  setup_s        spawn until the embedding is built and exactly validated
                 (interpreter start, import with kernel backend load,
                 reading and validating the embedding); the median over
                 the full processes and the probes, which stop there
  records_per_s  certified knot and link records per second of wall_s
  cpu_s          user + system CPU of the process and its pool workers;
                 the least of the run
  peak_rss_mb    highest peak RSS of the process and its pool workers;
                 the median of the run

Timings take the run's best process, not its median, because the
reference machine (a 2-vCPU guest on a shared host) runs at one of two
speeds about 1.5x apart, in phases of a few seconds to a minute, and
CPU time moves with wall time.  Interference only ever slows a
deterministic CPU-bound process, so the best of a run is steady where
its median flips between the two speeds.  Each result line still
prints the median, quartiles and sample count beside the value.

Runs that exit non-zero or print other bytes are counted in `failed` of
the result line and make `correct` false; they are never dropped.

Per-layer metrics (--trace 1) come from one traced process per run, after
untraced ones.  The probe wraps each layer's public functions where the
caller looks them up; self time is a span minus its child spans.  Which
end-to-end metric each layer should move, and where:

  geometry.sample_s (load + validation)           setup_s, all workloads
  geometry.points_s, .points_calls                wall_s, verify-rand8
  graphs.enumerate_s, .cycles, .pairs             small; fix the records base
  projection.frames_s, .frames_tried,
    .frame_rejects.<reason>, .frame_accept_ratio  wall_s, verify-rand8
  kernels.scan_s, .scans, .scans_pure,
    .scans_compiled, .crossings, .scan_accept_ratio
                                                  wall_s, records_per_s on
                                                  verify-rand8 and census
  projection.project_s, .diagrams,
    .crossings_mean, .crossings_max               wall_s, verify-rand8
  projection.gauss_s, invariants.a2_s, .lk_s,
    .verify_s                                     wall_s, verify-rand8
  invariants.oracle_s, .oracle_calls, .audited_knots, .audited_links,
    .audit_coverage                               wall_s, peak_rss_mb on
                                                  verify-audit-moment7; zero
                                                  elsewhere
  theorems.records_s, theorems.reports_s          wall_s, cpu_s on census
  cli.emit_s                                      wall_s (small), all

On census-poly8-t2 the records are computed in pool workers, which the
probe cannot see from outside: only parent-side spans are reported, and
`theorems.records_s` there includes the wait for the pool.  The trace
run also reports its own wall time beside the untraced median
(trace.wall_s, trace.untraced_wall_s) and the share of traced wall time
no named layer covers (trace.uncovered_share).

First baseline: pure backend, Python 3.11.7, 2 vCPUs (Intel Xeon, 2.1
GHz nominal).  Median over 10 seeds of each run's value, [quartiles]:

  workload              wall_s                setup_s   records_per_s
  verify-rand8          1.523 [1.434, 1.665]  0.145     3942
  verify-audit-moment7  1.116 [1.097, 1.148]  0.150     1081
  census-poly8-t2       0.676 [0.626, 0.736]  0.154     4143

  workload              cpu_s                 peak_rss_mb
  verify-rand8          1.504 [1.421, 1.643]  22.2
  verify-audit-moment7  1.108 [1.086, 1.137]  50.7
  census-poly8-t2       1.089 [0.981, 1.196]  21.6

The quartile spread of wall_s and cpu_s was 0.15 and 0.15 of the median
on verify-rand8, 0.05 and 0.05 on verify-audit-moment7 and 0.16 and
0.20 on census-poly8-t2; peak_rss_mb stayed within 0.003.  Traced runs
of verify-rand8: 11,984 scans, all on the pure kernel, no frame
rejected, 3.0 crossings a diagram on average and 16 at most; tracing
added about 8% to wall time and left 8% of it (process start and
import, mostly) in no named layer.  On random K9 the same trace covered
98% of wall time: kernel scan 3.3 s, projection 3.3 s, frame generation
1.1 s, a2 0.4 s and Gauss diagrams 0.3 s of 10.1 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from random import Random
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
PROBE = os.path.join(HERE, "probe.py")
REFERENCES = os.path.join(HERE, "references.json")

DEFAULT_SEED = 0
DEFAULT_SECONDS = 36
MIN_RUNS = 3          # full processes per run, however long each takes
SETUP_PROBES = 1      # processes before each full one that stop after set-up
RUN_DEADLINE_S = 170  # a run never outlives this, hung children included
TRANSLATION = 100     # --seed translates by a vector in [-T, T]^3


def _cycles(k: int) -> int:
    return factorial(k - 1) // 2


def knots(n: int, k: int) -> int:
    """Number of k-cycles of K_n."""
    return comb(n, k) * _cycles(k)


def pairs(n: int, k: int, l: int) -> int:
    """Number of disjoint (k, l) cycle pairs of K_n."""
    count = comb(n, k) * comb(n - k, l) * _cycles(k) * _cycles(l)
    return count // 2 if k == l else count


def _verify_records(n: int) -> int:
    # Hamiltonian, hexagon and pentagon knots; (3,3) and (3,4) links (n >= 7).
    return knots(n, n) + knots(n, 5) + knots(n, 6) + pairs(n, 3, 3) + pairs(n, 3, 4)


def _census_records(n: int) -> int:
    return knots(n, n) + pairs(n, 3, 3)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # CLI subcommand; the embedding file follows it
    flags: tuple[str, ...]     # CLI options after the embedding file
    embedding: str             # file under perfbench/inputs
    smoke_embedding: str       # reduced-n input for --smoke
    records: Callable[[int], int]

    def input_path(self, smoke: bool) -> str:
        return os.path.join(HERE, "inputs", self.smoke_embedding if smoke else self.embedding)

    def reference_key(self, smoke: bool) -> str:
        return f"{self.name}/smoke" if smoke else self.name


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-rand8", "verify", ("--seed", "0"),
                 "k8-random-s0.json", "k7-random-s0.json", _verify_records),
        Workload("verify-audit-moment7", "verify", ("--seed", "0", "--audit"),
                 "k7-moment.json", "k7-random-s0.json", _verify_records),
        Workload("census-poly8-t2", "census", ("--seed", "0", "--threads", "2"),
                 "k8-polyline-s0.json", "k7-polyline-s0.json", _census_records),
    )
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Interference on a shared host only ever slows a deterministic CPU-bound
# process, and this one runs at one of two speeds 1.5x apart in phases
# of 10-60 s; a run's fastest process is the steady estimate of the time.
BEST_OF_RUN = {"wall_s": min, "cpu_s": min, "records_per_s": max}

REJECT_REASONS = ("degenerate-segment", "vertex-coincide", "vertex-on-segment", "triple-point")


def _now() -> float:
    # CLOCK_MONOTONIC is shared by every process, so the probe's set-up
    # stamp and this process's spawn time can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Inputs


def _coord(v) -> Fraction:
    return Fraction(v[0], v[1]) if isinstance(v, list) else Fraction(v)


def _coord_json(c: Fraction):
    return c.numerator if c.denominator == 1 else [c.numerator, c.denominator]


def translated(doc: dict, seed: int) -> dict:
    """The embedding moved by an integer vector drawn from `seed`.

    Translation changes no sign test of the exact pipeline, so the CLI's
    output must not change by a single byte.
    """
    rng = Random(f"perfbench-translate:{seed}")
    t = [rng.randint(-TRANSLATION, TRANSLATION) for _ in range(3)]

    def move(p):
        return [_coord_json(_coord(c) + d) for c, d in zip(p, t)]

    out = dict(doc)
    out["vertices"] = [move(p) for p in doc["vertices"]]
    if "edges" in doc:
        out["edges"] = {k: [move(p) for p in ps] for k, ps in doc["edges"].items()}
    return out


def write_input(w: Workload, seed: int | None, smoke: bool) -> tuple[str, int]:
    """Write the run's embedding file; return its path and vertex count."""
    with open(w.input_path(smoke), encoding="utf-8") as fh:
        doc = json.load(fh)
    if seed is not None:
        doc = translated(doc, seed)
    tag = "base" if seed is None else f"seed{seed}"
    path = os.path.join(WORK, f"{w.reference_key(smoke).replace('/', '-')}-{tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
    return path, doc["n"]


# ---------------------------------------------------------------------------
# Processes


@dataclass
class Proc:
    returncode: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    events: dict


class Runner:
    """Spawns probe processes one at a time, under one run deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, cli_args: list[str]) -> Proc:
        self.count += 1
        tag = os.path.join(WORK, f"p{os.getpid()}-{self.count}")
        events_path = tag + ".events.json"
        env = dict(os.environ)
        env.pop("KNOTCENSUS_THREADS", None)  # workloads state their own pool size
        env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
        with open(tag + ".out", "wb") as out, open(tag + ".err", "wb") as err:
            start = _now()
            p = subprocess.Popen(
                [sys.executable, PROBE, events_path, mode, *cli_args],
                stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True,
            )
            # A hung child would break the run's time limit: kill its
            # whole session (pool workers included) at the deadline.
            timer = threading.Timer(max(1.0, self.deadline - start), _kill_group, (p.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(p.pid, 0)
            finally:
                timer.cancel()
            end = _now()
            p.returncode = os.waitstatus_to_exitcode(status)
        events = {}
        if os.path.exists(events_path):
            with open(events_path, encoding="utf-8") as fh:
                events = json.load(fh)
        with open(tag + ".out", "rb") as fh:
            stdout = fh.read()
        with open(tag + ".err", "rb") as fh:
            stderr = fh.read()
        for suffix in (".out", ".err", ".events.json"):
            if os.path.exists(tag + suffix):
                os.remove(tag + suffix)
        setup_done = events.get("setup_done")
        return Proc(
            returncode=p.returncode,
            wall_s=end - start,
            setup_s=None if setup_done is None else setup_done - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
            stdout=stdout,
            stderr=stderr,
            events=events,
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, 9)
    except ProcessLookupError:
        pass


def build() -> None:
    """Build the package in place, as its setup.py declares."""
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(WORK, "build.log")
    with open(log, "wb") as fh:
        rc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
             "--build-temp", os.path.join(".bench_build", "setup")],
            cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
        ).returncode
    if rc != 0:
        with open(log, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise SystemExit(f"perfbench: build failed (exit {rc}); log in {log}")


# ---------------------------------------------------------------------------
# Checks


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(p: Proc, reference: dict) -> str | None:
    """None if the process exited 0 and printed the reference bytes."""
    if p.returncode != 0:
        tail = p.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return f"exit {p.returncode} {' '.join(tail)}"
    digest = hashlib.sha256(p.stdout).hexdigest()
    if digest == reference["sha256"]:
        return None
    try:
        passed = json.loads(p.stdout).get("pass")
    except ValueError:
        passed = "unparsable"
    return (f"stdout differs from the reference ({len(p.stdout)} bytes, "
            f"sha256 {digest[:12]}, pass={passed})")


# ---------------------------------------------------------------------------
# Metrics


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from a traced process's totals."""
    s = trace.get("self_s", {})
    c = trace.get("counts", {})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    frames = c.get("projection.frames.items", 0)
    diagrams = c.get("projection.diagrams", 0)
    records = c.get("invariants.knots", 0) + c.get("invariants.links", 0)
    audited = c.get("invariants.audited_knots", 0) + c.get("invariants.audited_links", 0)
    out = {
        "geometry.sample_s": s.get("geometry.sample", 0.0),
        "geometry.points_s": s.get("geometry.points", 0.0),
        "geometry.points_calls": c.get("geometry.points_calls", 0),
        "graphs.enumerate_s": s.get("graphs.enumerate", 0.0),
        "graphs.cycles": c.get("graphs.cycles", 0),
        "graphs.pairs": c.get("graphs.pairs", 0),
        "projection.frames_s": s.get("projection.frames", 0.0),
        "projection.frames_tried": frames,
    }
    for reason in REJECT_REASONS:
        key = f"projection.frame_rejects.{reason}"
        out[key] = c.get(key, 0)
    out.update({
        "projection.frame_accept_ratio": ratio(diagrams, frames),
        "kernels.scan_s": s.get("kernels.scan", 0.0),
        "kernels.scans": c.get("kernels.scans", 0),
        "kernels.scans_pure": c.get("kernels.scans_pure", 0),
        "kernels.scans_compiled": c.get("kernels.scans_compiled", 0),
        "kernels.crossings": c.get("kernels.crossings", 0),
        "kernels.scan_accept_ratio": ratio(c.get("kernels.scans_ok", 0), c.get("kernels.scans", 0)),
        "projection.project_s": s.get("projection.project", 0.0),
        "projection.diagrams": diagrams,
        "projection.crossings_mean": ratio(c.get("projection.crossings", 0), diagrams),
        "projection.crossings_max": c.get("projection.crossings_max", 0),
        "projection.gauss_s": s.get("projection.gauss", 0.0),
        "invariants.a2_s": s.get("invariants.a2", 0.0),
        "invariants.lk_s": s.get("invariants.lk", 0.0),
        "invariants.verify_s": s.get("invariants.verify", 0.0),
        "invariants.oracle_s": s.get("invariants.oracle", 0.0),
        "invariants.oracle_calls": c.get("invariants.oracle_calls", 0),
        "invariants.audited_knots": c.get("invariants.audited_knots", 0),
        "invariants.audited_links": c.get("invariants.audited_links", 0),
        "invariants.audit_coverage": ratio(audited, records),
        "theorems.records_s": s.get("theorems.records", 0.0),
        "theorems.reports_s": s.get("theorems.reports", 0.0),
        "cli.emit_s": s.get("cli.emit", 0.0),
    })
    return out


LAYER_UNITS = {
    "_s": "s",
    "_ratio": "share",
    "_coverage": "share",
    "_share": "share",
    "_mean": "count",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# One run


@dataclass
class Result:
    workload: str
    metrics: dict
    attempted: int
    failed: int
    lines: list[str]
    env: dict


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
                 references: dict) -> Result:
    run_start = _now()
    runner = Runner(run_start + RUN_DEADLINE_S)
    path, n = write_input(w, seed, smoke)
    reference = references[w.reference_key(smoke)]
    records = w.records(n)
    cli_args = [w.command, path, *w.flags]
    lines: list[str] = []
    attempted = failed = 0

    def checked(p: Proc, what: str, reference: dict | None) -> bool:
        nonlocal attempted, failed
        attempted += 1
        problem = check_output(p, reference) if reference else (
            None if p.returncode == 0 else f"exit {p.returncode}")
        if problem:
            failed += 1
            lines.append(f"FAILED {w.name} seed {seed} ({what}): {problem}")
        return problem is None

    # Untimed warm-up: writes bytecode caches and warms the page cache.
    warm = runner.spawn("setup", cli_args)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "backends": warm.events.get("backends"),
        "backend": warm.events.get("backend"),
    }
    setups: list[float] = []
    full: list[Proc] = []
    budget = seconds / 2 if trace else seconds
    min_runs = 1 if (smoke or trace) else MIN_RUNS
    while len(full) < min_runs or _now() - run_start < budget:
        # Set-up probes go between full runs, so they sample the same
        # stretch of machine time.
        for _ in range(0 if trace else 1 if smoke else SETUP_PROBES):
            p = runner.spawn("setup", cli_args)
            if checked(p, "setup probe", None) and p.setup_s is not None:
                setups.append(p.setup_s)
        p = runner.spawn("run", cli_args)
        if checked(p, "run", reference):
            full.append(p)
            if p.setup_s is not None:
                setups.append(p.setup_s)
        if _now() > runner.deadline - 2 * (p.wall_s + 1) or (failed and not full):
            break

    metrics: dict = {}
    if not full:
        lines.append(f"FAILED {w.name}: no run completed")
        return Result(w.name, metrics, max(attempted, 1), max(failed, 1), lines, env)

    walls = [p.wall_s for p in full]
    lines.insert(0, f"{w.name} seed {seed}: {records} records per process, "
                    f"{len(full)} untraced processes")
    if trace:
        traced = runner.spawn("trace", cli_args)
        if checked(traced, "traced run", reference):
            tr = traced.events.get("trace", {})
            layers = layer_metrics(tr)
            untraced = statistics.median(walls)
            covered = sum(tr.get("self_s", {}).values())
            layers["trace.wall_s"] = traced.wall_s
            layers["trace.untraced_wall_s"] = untraced
            layers["trace.uncovered_share"] = max(0.0, 1 - covered / traced.wall_s)
            for name, value in layers.items():
                metrics[name] = _metric(value, _layer_unit(name))
            seen = layers["graphs.cycles"] + layers["graphs.pairs"]
            if seen != records:
                attempted += 1
                failed += 1
                lines.append(f"FAILED {w.name}: traced run enumerated {seen} records, "
                             f"the workload states {records}")
            lines.append(
                f"trace {w.name}: traced wall {traced.wall_s:.3f} s beside untraced "
                f"median {untraced:.3f} s of {len(walls)} "
                f"(overhead {traced.wall_s / untraced - 1:+.1%}); "
                f"{layers['trace.uncovered_share']:.1%} of traced wall in no named layer")
            if tr.get("missing"):
                lines.append(f"trace {w.name}: names not found, not traced: {tr['missing']}")
            if "--threads" in w.flags:
                lines.append(f"trace {w.name}: records are computed in pool workers, "
                             "which are not traced; only parent-side spans are reported "
                             "and theorems.records_s includes the wait for the pool")
            for name in sorted(layers):
                lines.append(f"  {name:44s} {layers[name]:14.6g} {_layer_unit(name)}")
        return Result(w.name, metrics, attempted, failed, lines, env)

    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "records_per_s": [records / x for x in walls],
        "cpu_s": [p.cpu_s for p in full],
        "peak_rss_mb": [p.peak_rss_mb for p in full],
    }
    for name, unit in END_TO_END.items():
        q1, med, q3 = _quartiles(samples[name])
        if name in BEST_OF_RUN:
            value, how = BEST_OF_RUN[name](samples[name]), "best"
        else:
            value, how = med, "median"
        metrics[name] = _metric(value, unit)
        spread = f"[q1 {q1:.4f}, q3 {q3:.4f}]"
        if how == "best":
            spread = f"median {med:.4f} {spread}"
        lines.append(f"  {name:14s} {value:12.4f} {unit:4s} {how} of {len(samples[name]):2d}  {spread}")
    lines.append(f"  failed_share   {failed}/{attempted} processes")
    return Result(w.name, metrics, attempted, failed, lines, env)


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------
# Entry points


def update_references() -> int:
    """Record each workload's output on its stored embedding."""
    refs = {}
    runner = Runner(_now() + 900)
    for smoke in (False, True):
        for w in WORKLOADS.values():
            path, _ = write_input(w, None, smoke)
            p = runner.spawn("run", [w.command, path, *w.flags])
            if p.returncode != 0 or json.loads(p.stdout).get("pass") is not True:
                raise SystemExit(f"perfbench: {w.name} did not pass: exit {p.returncode}")
            refs[w.reference_key(smoke)] = {
                "sha256": hashlib.sha256(p.stdout).hexdigest(),
                "bytes": len(p.stdout),
            }
            print(f"{w.reference_key(smoke)}: {len(p.stdout)} bytes in {p.wall_s:.2f} s")
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _benchmark_names() -> tuple[set[str], set[str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="each workload once at reduced n, traced and untraced")
    ap.add_argument("--update-references", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "knotcensus", "cli.py")):
        print(f"perfbench: no knotcensus sources under {SRC}", file=sys.stderr)
        return 2
    build()
    if args.update_references:
        return update_references()
    references = load_references()
    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    modes = (False, True) if args.smoke else (bool(args.trace),)

    results: list[Result] = []
    for name in names:
        for trace in modes:
            r = run_workload(WORKLOADS[name], args.seed, 0 if args.smoke else args.seconds,
                             trace, args.smoke, references)
            print("\n".join(r.lines))
            print(f"env {json.dumps(r.env, sort_keys=True)}", flush=True)
            results.append(r)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if len(results) == 1:
        metrics = results[0].metrics
    else:
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics.items()}
    if args.smoke:
        e2e, layers = _benchmark_names()
        for r, trace in zip(results, modes * len(names)):
            want = layers if trace else e2e
            lost = sorted(want - set(r.metrics))
            if lost:
                failed += 1
                attempted += 1
                print(f"FAILED smoke {r.workload}: metrics not emitted: {lost}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
