"""Command-line interface.

Subcommands: `embed` samples or constructs an embedding and writes it as
JSON; `verify` runs the identity checks on an embedding; `census` counts
knots and links; `rn-table` prints the guaranteed positive-knot counts;
`invariant` computes a2 or lk for one cycle or pair, read at the frames
where the whole graph is generic, as `verify` and `census` read it.

Output is byte-deterministic for a fixed command line (sorted JSON keys,
no timestamps unless --timestamps is given; it stamps JSON only, and
with --format csv it is a usage error).  Exit codes: 0 all checks
passed, 1 an identity or contract check failed, 2 usage error, 3 random
sampling or projection retries were exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    GenericityExhausted,
    KnotCensusError,
    SamplingExhausted,
    ScaleLimitExceeded,
)
from .geometry import (
    dumps_canonical,
    embedding_to_json,
    moment_curve_embedding,
    random_k331_embedding,
    random_polyline_embedding,
    random_rectilinear_embedding,
    read_embedding,
)
from .graphs import canonical_cycle, is_cycle_of, k331_graph
from .invariants import AUDIT_CROSSING_LIMIT, shard_values
from .projection import FRAME_RETRY_LIMIT, GraphProjection
from .theorems import (
    EmbeddingAnalysis,
    census,
    r_n,
    verify_embedding,
)

USAGE_ERROR = 2
EXHAUSTION_ERROR = 3


def _add_generation_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("embedding", nargs="?", help="embedding JSON file (omit to generate)")
    p.add_argument("--n", type=int, help="vertex count when generating")
    p.add_argument(
        "--kind",
        choices=("moment", "random", "polyline"),
        default="random",
        help="generated embedding shape (default: random rectilinear)",
    )
    p.add_argument(
        "--graph",
        choices=("complete", "k331"),
        default="complete",
        help="underlying graph (k331 fixes n to 7)",
    )
    p.add_argument("--seed", default="0", help="deterministic sampling seed")
    p.add_argument("--range", type=int, default=50, dest="coord_range",
                   help="coordinate range for random sampling (default 50)")
    p.add_argument("--bent-edges", type=int, default=3,
                   help="edges given a waypoint when --kind polyline")


def _add_frame_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--verify-frames", type=int, default=1,
                   help="extra frames each invariant must agree on (default 1, at least 1)")
    p.add_argument("--frame-retries", type=int, default=FRAME_RETRY_LIMIT,
                   help="frames that may fail the genericity check before giving up")
    p.add_argument("--audit", action="store_true",
                   help=f"check diagrams of at most {AUDIT_CROSSING_LIMIT} crossings "
                        "by an independent route (Alexander polynomial, one-sided lk)")


def _add_analysis_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="processes evaluating each record class (default 1)")
    _add_frame_options(p)
    p.add_argument("--allow-large", action="store_true",
                   help="lift the Hamiltonian size ceiling")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write to this file instead of stdout")
    p.add_argument("--timestamps", action="store_true",
                   help="stamp the output with the generation time")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="knotcensus",
        description="Exact knot and link invariants of spatial graph embeddings.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="construct an embedding and print it as JSON")
    _add_generation_options(p)
    _add_output_options(p)

    p = sub.add_parser("verify", help="check every applicable identity")
    _add_generation_options(p)
    _add_analysis_options(p)
    _add_output_options(p)
    p.add_argument("--identities", help="comma-separated subset to run")
    p.add_argument("--witness-bundle",
                   help="on failure, write reports and embedding here")

    p = sub.add_parser("census", help="count knots and links of an embedding")
    _add_generation_options(p)
    _add_analysis_options(p)
    _add_output_options(p)

    p = sub.add_parser("rn-table", help="guaranteed positive-knot counts")
    p.add_argument("--start", type=int, default=7)
    p.add_argument("--stop", type=int, default=15, help="inclusive upper end")
    _add_output_options(p)

    p = sub.add_parser("invariant", help="a2 of one cycle or lk of one pair")
    _add_generation_options(p)
    _add_frame_options(p)
    _add_output_options(p)
    p.add_argument("--cycle", help="comma-separated vertices of a cycle")
    p.add_argument("--pair", help="two comma-separated cycles joined by ';'")

    return ap


def _load_embedding(args):
    if args.embedding is not None:
        if args.n is not None:
            raise ValueError("give an embedding file or --n, not both")
        return read_embedding(args.embedding)
    if args.graph == "k331":
        if args.n not in (None, 7):
            raise ValueError("the tripartite graph has exactly 7 vertices")
        if args.kind == "moment":
            raise ValueError("the moment construction applies to complete graphs")
        if args.kind == "polyline":
            return random_polyline_embedding(
                7, args.seed, args.coord_range, args.bent_edges, graph=k331_graph()
            )
        return random_k331_embedding(args.seed, args.coord_range)
    if args.n is None:
        raise ValueError("need an embedding file or --n")
    if args.kind == "moment":
        return moment_curve_embedding(args.n)
    if args.kind == "polyline":
        return random_polyline_embedding(
            args.n, args.seed, args.coord_range, args.bent_edges
        )
    return random_rectilinear_embedding(args.n, args.seed, args.coord_range)


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _stamp(args, doc: dict) -> dict:
    if args.timestamps:
        from datetime import datetime, timezone

        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return doc


def _csv_cell(v) -> str:
    if isinstance(v, list):
        # A cycle or a pair, one quoted cell in --cycle/--pair syntax.
        cycles = v if isinstance(v[0], list) else [v]
        return '"' + ";".join(",".join(map(str, c)) for c in cycles) + '"'
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, bool):
        return "true" if v else "false"
    return "" if v is None else str(v)


def _csv_lines(rows: list[dict], columns: list[str]) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_csv_cell(row.get(c)) for c in columns))
    return "\n".join(out) + "\n"


def _analysis(e, args) -> EmbeddingAnalysis:
    return EmbeddingAnalysis(
        e,
        seed=args.seed,
        threads=args.threads,
        verify_frames=args.verify_frames,
        retry_limit=args.frame_retries,
        audit=args.audit,
        allow_large=args.allow_large,
    )


def _cmd_embed(args) -> int:
    e = _load_embedding(args)
    doc = _stamp(args, embedding_to_json(e))
    if args.format == "csv":
        if not e.rectilinear:
            raise ValueError("csv lists vertices only and would drop the edge waypoints; "
                             "use --format json")
        if e.graph.tags:
            raise ValueError("csv lists vertices only and would drop the tripartite graph; "
                             "use --format json")
        rows = [
            {"vertex": v, "x": x, "y": y, "z": z}
            for v, (x, y, z) in sorted(e.vertex_positions.items())
        ]
        _emit(args, _csv_lines(rows, ["vertex", "x", "y", "z"]))
    else:
        _emit(args, dumps_canonical(doc))
    return 0


def _cmd_verify(args) -> int:
    e = _load_embedding(args)
    wanted = None
    if args.identities is not None:
        wanted = tuple(s.strip() for s in args.identities.split(",") if s.strip())
    a = _analysis(e, args)
    reports, a = verify_embedding(e, identities=wanted, analysis=a)
    docs = [r.to_json() for r in reports]
    all_passed = all(r.passed for r in reports)
    if not all_passed and args.witness_bundle:
        bundle = {
            "embedding": embedding_to_json(e),
            "reports": docs,
            "seed": str(args.seed),
        }
        with open(args.witness_bundle, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(bundle))
    if args.format == "csv":
        rows = [
            {"identity_id": r.identity_id, "n": r.n, "lhs": r.lhs, "rhs": r.rhs, "pass": r.passed}
            for r in reports
        ]
        _emit(args, _csv_lines(rows, ["identity_id", "n", "lhs", "rhs", "pass"]))
    else:
        doc = _stamp(args, {
            "n": e.n,
            "rectilinear": e.rectilinear,
            "identities": docs,
            "audited_knots": a.audited_knots,
            "audited_links": a.audited_links,
            "pass": all_passed,
        })
        _emit(args, dumps_canonical(doc))
    return 0 if all_passed else 1


def _cmd_census(args) -> int:
    e = _load_embedding(args)
    a = _analysis(e, args)
    rep = census(e, analysis=a)
    doc = rep.to_json()
    if args.format == "csv":
        rows = [{"key": "n", "value": rep.n},
                {"key": "rectilinear", "value": rep.rectilinear},
                {"key": "hopf_count", "value": rep.hopf_count},
                {"key": "positive_a2_count", "value": rep.positive_a2_count}]
        rows += [
            {"key": f"a2_histogram[{k}]", "value": v}
            for k, v in sorted(rep.a2_histogram.items())
        ]
        rows += [
            {"key": f"lk_histogram[{k}]", "value": v}
            for k, v in sorted(rep.lk_histogram.items())
        ]
        rows.append({"key": "pass", "value": rep.passed})
        _emit(args, _csv_lines(rows, ["key", "value"]))
    else:
        _emit(args, dumps_canonical(_stamp(args, doc)))
    return 0 if rep.passed else 1


def _cmd_rn_table(args) -> int:
    if args.start < 7 or args.stop < args.start:
        raise ValueError("need 7 <= start <= stop")
    rows = [{"n": n, "r_n": r_n(n)} for n in range(args.start, args.stop + 1)]
    if args.format == "csv":
        _emit(args, _csv_lines(rows, ["n", "r_n"]))
    else:
        doc = _stamp(args, {"table": rows})
        _emit(args, dumps_canonical(doc))
    return 0


def _parse_cycle(text: str) -> tuple[int, ...]:
    try:
        verts = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad cycle {text!r}") from exc
    return canonical_cycle(verts)


def _cmd_invariant(args) -> int:
    if bool(args.cycle) == bool(args.pair):
        raise ValueError("give exactly one of --cycle or --pair")
    e = _load_embedding(args)
    if args.cycle:
        cycles = (_parse_cycle(args.cycle),)
    else:
        parts = args.pair.split(";")
        if len(parts) != 2:
            raise ValueError("a pair is two cycles joined by ';'")
        cycles = tuple(_parse_cycle(p) for p in parts)
        if set(cycles[0]) & set(cycles[1]):
            raise ValueError("pair cycles must be disjoint")
    for c in cycles:
        if not is_cycle_of(e.graph, c):
            raise ValueError(f"cycle {c} is not in the graph")
    g = GraphProjection(e, args.seed, args.verify_frames, args.frame_retries)
    (value,), audited = shard_values(g.tables, [cycles[0] if args.cycle else cycles], args.audit)
    fidx, first = g.tables[0]
    if args.cycle:
        doc = {"kind": "knot", "cycle": list(cycles[0]), "a2": value}
    else:
        doc = {"kind": "link", "pair": [list(c) for c in cycles], "lk": value}
    doc.update({"crossings": first.restrict(cycles).crossing_count, "frame_index": fidx,
                "audited": bool(audited[0])})
    if args.format == "csv":
        _emit(args, _csv_lines([doc], list(doc.keys())))
    else:
        _emit(args, dumps_canonical(_stamp(args, doc)))
    return 0


_HANDLERS = {
    "embed": _cmd_embed,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "rn-table": _cmd_rn_table,
    "invariant": _cmd_invariant,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.timestamps and args.format == "csv":
            raise ValueError("--timestamps cannot be combined with --format csv: "
                             "csv output has no field for the stamp")
        return _HANDLERS[args.command](args)
    except (SamplingExhausted, GenericityExhausted) as exc:
        print(f"knotcensus: {exc}", file=sys.stderr)
        return EXHAUSTION_ERROR
    except (ValueError, OSError, json.JSONDecodeError, ScaleLimitExceeded) as exc:
        print(f"knotcensus: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KnotCensusError as exc:
        print(f"knotcensus: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
