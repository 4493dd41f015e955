"""Child process of the end-to-end benchmark: one knotcensus CLI run.

Usage: python3 perfbench/probe.py EVENTS MODE CLI-ARG...

Runs `knotcensus.cli.main(CLI-ARGS)` exactly as the `knotcensus` entry
point does and exits with its code.  MODE is one of

  run    untraced; only `cli._load_embedding` is wrapped, to stamp the
         moment the embedding is built and exactly validated;
  setup  as run, but stop (exit 0) right after that stamp;
  trace  additionally wrap each layer's public functions where their
         caller looks them up, and total each layer's self time.

On exit the process writes one JSON object to the file EVENTS: the
set-up stamp (CLOCK_MONOTONIC, which every process on the machine
shares, so the parent can subtract its spawn time), the kernel backends
and, when traced, the per-layer totals.  Nothing is written to stdout,
which belongs to the CLI.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _SetupDone(Exception):
    """Raised through the CLI in setup mode once the embedding is ready."""


class Tracer:
    """Per-layer self time, from spans nested on one stack.

    Each open span keeps the total duration of its finished child spans;
    on close it adds (own duration - children) to its layer's self time
    and its own duration to its parent's child total.  Spans are folded
    into these totals as they close, so memory stays constant however
    many calls are traced.
    """

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[float] = []

    def span(self, layer: str, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def span_generator(self, layer: str, fn):
        """Time each step of the generators `fn` returns as one span."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        counts = self.counts

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    self_s[layer] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                counts[f"{layer}.items"] += 1
                yield item

        return traced

    def patch(self, owner, name: str, make) -> None:
        """Replace `owner.name` by `make(original)`; note it if absent."""
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{name}")
            return
        setattr(owner, name, make(original))

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def install_trace(tracer: Tracer) -> None:
    """Wrap every traced layer where its caller looks the name up."""
    from knotcensus import _pykernels, cli, geometry, invariants, kernels, projection, theorems
    from knotcensus.errors import GenericityFailure

    t = tracer
    counts = t.counts

    def spanned(layer):
        return lambda fn: t.span(layer, fn)

    def counted(layer, on_result):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(result)
                return result

            return t.span(layer, wrapper) if layer else wrapper

        return make

    def on_scan(result):
        status, payload = result
        counts["kernels.scans"] += 1
        if status == kernels.OK:
            counts["kernels.scans_ok"] += 1
            counts["kernels.crossings"] += len(payload)

    def on_cycles(result):
        counts["graphs.cycles"] += len(result)

    def on_pairs(result):
        counts["graphs.pairs"] += len(result)

    def on_knot(result):
        counts["invariants.knots"] += 1
        counts["invariants.audited_knots"] += 1 if result[3] else 0

    def on_link(result):
        counts["invariants.links"] += 1
        counts["invariants.audited_links"] += 1 if result[3] else 0

    def on_points(result):
        counts["geometry.points_calls"] += 1

    def on_oracle(result):
        counts["invariants.oracle_calls"] += 1

    def on_pure(result):
        counts["kernels.scans_pure"] += 1

    def on_compiled(result):
        counts["kernels.scans_compiled"] += 1

    def make_project(fn):
        def project(curves, frame):
            try:
                d = fn(curves, frame)
            except GenericityFailure as exc:
                counts[f"projection.frame_rejects.{exc.condition}"] += 1
                raise
            n = d.crossing_count
            counts["projection.diagrams"] += 1
            counts["projection.crossings"] += n
            if n > counts["projection.crossings_max"]:
                counts["projection.crossings_max"] = n
            return d

        return t.span("projection.project", project)

    t.patch(cli, "_load_embedding", spanned("geometry.sample"))
    t.patch(geometry.SpatialEmbedding, "cycle_points_scaled",
            counted("geometry.points", on_points))
    t.patch(theorems, "enumerate_cycles", counted("graphs.enumerate", on_cycles))
    t.patch(theorems, "enumerate_disjoint_pairs", counted("graphs.enumerate", on_pairs))
    t.patch(projection, "frame_sequence",
            lambda fn: t.span_generator("projection.frames", fn))
    t.patch(kernels, "find_crossings", counted("kernels.scan", on_scan))
    t.patch(_pykernels, "find_crossings",
            counted(None, on_pure))
    if getattr(kernels, "_compiled", None) is not None:
        t.patch(kernels._compiled, "find_crossings",
                counted(None, on_compiled))
    t.patch(projection, "project", make_project)
    t.patch(invariants, "gauss_diagram", spanned("projection.gauss"))
    t.patch(invariants, "a2_gauss_formula", spanned("invariants.a2"))
    t.patch(invariants, "linking_number", spanned("invariants.lk"))
    t.patch(invariants, "conway_skein_oracle", counted("invariants.oracle", on_oracle))
    t.patch(theorems, "knot_invariant", counted("invariants.verify", on_knot))
    t.patch(theorems, "link_invariant", counted("invariants.verify", on_link))
    t.patch(theorems.EmbeddingAnalysis, "knot_records", spanned("theorems.records"))
    t.patch(theorems.EmbeddingAnalysis, "link_records", spanned("theorems.records"))
    t.patch(cli, "verify_embedding", spanned("theorems.reports"))
    t.patch(cli, "census", spanned("theorems.reports"))
    t.patch(cli, "dumps_canonical", spanned("cli.emit"))
    t.patch(cli, "_emit", spanned("cli.emit"))


def main(argv: list[str]) -> int:
    events_path, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("run", "setup", "trace"):
        raise SystemExit(f"probe: unknown mode {mode!r}")
    from knotcensus import cli, kernels

    events: dict = {
        "backends": sorted(kernels.backends()),
        "backend": kernels.backend_name(),
    }
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_trace(tracer)

    load = cli._load_embedding

    def stamped_load(args):
        e = load(args)
        events["setup_done"] = _now()
        if mode == "setup":
            raise _SetupDone
        return e

    cli._load_embedding = stamped_load
    try:
        code = cli.main(cli_args)
    except _SetupDone:
        code = 0
    sys.stdout.flush()
    if tracer is not None:
        events["trace"] = tracer.summary()
    with open(events_path, "w", encoding="utf-8") as fh:
        json.dump(events, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
