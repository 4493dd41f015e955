"""Timing comparison of the pure-Python and compiled crossing kernels.

Benchmarks the kernel layer only: the same per-cycle projection scans
run through every available backend, reporting per-call time and
relative speedup.  Representative inputs: Hamiltonian cycles of random
straight-line K_n for a few n, plus triangle pairs.

`verify` and `census` read their diagrams from one whole-graph crossing
table per frame, so this kernel runs there only on frames where the
whole graph is not generic; the `invariant` subcommand still runs it on
every frame.  Speed claims about those commands come from the
end-to-end benchmark, `perfbench/run.py`.

Usage: python benchmarks/bench_kernels.py [--repeat 200] [--sizes 6,7,8,9]
"""

from __future__ import annotations

import argparse
import time

from knotcensus.geometry import random_rectilinear_embedding
from knotcensus.graphs import enumerate_cycles, enumerate_disjoint_pairs
from knotcensus.kernels import backends
from knotcensus.projection import frame_sequence


def take_frames(seed, count):
    gen = frame_sequence(seed)
    return [next(gen) for _ in range(count)]


def workloads(sizes):
    out = []
    for n in sizes:
        e = random_rectilinear_embedding(n, seed=1)
        cycles = enumerate_cycles(e.graph, n)[:40]
        polys = [(e.cycle_points_scaled(c),) for c in cycles]
        out.append((f"hamiltonian n={n}", polys))
    e = random_rectilinear_embedding(max(sizes), seed=1)
    pairs = enumerate_disjoint_pairs(e.graph, 3, 3)[:40]
    out.append(
        (
            f"triangle pairs n={max(sizes)}",
            [
                (e.cycle_points_scaled(p.first), e.cycle_points_scaled(p.second))
                for p in pairs
            ],
        )
    )
    return out


def bench(kernel, polys_list, frames, repeat):
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        for polys in polys_list:
            for frame in frames:
                kernel(polys, frame.axis_u, frame.axis_v, frame.direction)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / (len(polys_list) * len(frames))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=20,
                    help="timing repetitions, best-of (default 20)")
    ap.add_argument("--sizes", default="6,7,8,9",
                    help="comma-separated vertex counts (default 6,7,8,9)")
    ap.add_argument("--frames", type=int, default=4,
                    help="projection frames per subject (default 4)")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    frames = take_frames(0, args.frames)
    impls = backends()
    names = sorted(impls)
    print(f"backends: {', '.join(names)}")
    header = f"{'workload':<24}" + "".join(f"{n:>14}" for n in names)
    if len(names) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for label, polys_list in workloads(sizes):
        per = {n: bench(impls[n], polys_list, frames, args.repeat) for n in names}
        row = f"{label:<24}" + "".join(f"{per[n] * 1e6:>11.1f} us" for n in names)
        if len(names) == 2:
            row += f"{per['pure'] / per['compiled']:>9.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
