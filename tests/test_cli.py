"""CLI behaviour: determinism, exit codes, formats, file round-trips."""

from __future__ import annotations

import csv
import json
import os
import re
import subprocess
import sys
import types

import pytest

import knotcensus
from knotcensus import cli
from knotcensus.geometry import (
    embedding_to_json,
    moment_curve_embedding,
    random_rectilinear_embedding,
    write_embedding,
)
from knotcensus.theorems import IdentityReport, verify_embedding


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_leaves_pool_and_clock_modules_unloaded():
    # Nothing imports multiprocessing, and only `--timestamps` needs
    # datetime; a run without it pays for neither.
    src = os.path.dirname(os.path.dirname(knotcensus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, knotcensus.cli; print(sorted({'multiprocessing', 'datetime'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_import_loads_neither_dataclasses_nor_inspect():
    # Records, reports and the other value classes are NamedTuples or
    # plain classes, so start-up pays for neither module.
    src = os.path.dirname(os.path.dirname(knotcensus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, knotcensus.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


PUBLIC_NAMES = [
    "CATALOG", "CensusReport", "ClassSummary", "EmbeddingAnalysis", "GenericityExhausted",
    "GenericityFailure", "IdentityReport", "IdentityViolation", "InvariantContractError",
    "InvariantRecord", "KnotCensusError", "LinkDiagram", "ProjectionFrame",
    "SamplingExhausted", "ScaleLimitExceeded", "SimpleGraph", "SpatialEmbedding",
    "applicable_identities", "canonical_cycle", "census", "classify_triangle_triangle",
    "complete_graph", "embedding_from_json", "embedding_to_json", "enumerate_cycles",
    "enumerate_disjoint_pairs", "expected_residue", "frame_from_direction",
    "frame_sequence", "k331_graph", "k331_h_subgraph", "lower_bound_value",
    "moment_curve_embedding", "r_n", "random_k331_embedding", "random_polyline_embedding",
    "random_rectilinear_embedding", "read_embedding", "stick_bound_a2", "upper_bound_value",
    "validate_embedding", "verify_embedding", "verify_identity", "write_embedding",
]


def test_public_api_is_pinned():
    # The skein oracle, its polynomial type and limit error, `project`
    # and the own-scan route (`curve_invariant`, `cycle_curve`) are the
    # tests' reference, not the package's.
    assert sorted(knotcensus.__all__) == PUBLIC_NAMES
    # A star import binds the exports only: no submodule, no
    # `annotations` feature flag.
    ns: dict = {}
    exec("from knotcensus import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == PUBLIC_NAMES
    assert not [name for name, v in ns.items() if isinstance(v, types.ModuleType)]


def test_parallel_census_imports_no_multiprocessing():
    # `--threads 2` forks shard processes itself; warnings are errors, so
    # a fork with threads running (a DeprecationWarning on 3.12) fails.
    src = os.path.dirname(os.path.dirname(knotcensus.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys\n"
        "from knotcensus import cli\n"
        "code = cli.main(['census', '--n', '7', '--kind', 'polyline', '--seed', '0',"
        " '--threads', '2'])\n"
        "print(code, 'multiprocessing' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == "0 False\n"
    assert json.loads(done.stdout)["pass"] is True


def test_verify_moment_k6_passes(capsys):
    code, out, err = run(capsys, "verify", "--n", "6", "--kind", "moment")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert {r["identity_id"] for r in doc["identities"]} >= {
        "k6-identity",
        "main-identity",
        "mod2-parity",
    }


def test_output_is_byte_deterministic(capsys):
    args = ("verify", "--n", "6", "--kind", "moment", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert (code1, code2) == (0, 0)
    assert out1 == out2
    assert "generated_at" not in out1


def test_timestamps_are_opt_in(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "6", "--kind", "moment", "--timestamps"
    )
    assert code == 0
    assert "generated_at" in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "--n", "6", "--kind", "moment"),
        ("verify", "--n", "6", "--kind", "moment"),
        ("census", "--n", "6", "--kind", "moment"),
        ("rn-table", "--start", "7", "--stop", "8"),
        ("invariant", "--n", "6", "--kind", "moment", "--cycle", "1,2,3"),
    ],
    ids=lambda argv: argv[0],
)
def test_timestamps_with_csv_is_usage_error(capsys, argv):
    # csv has no field for the stamp, so the pair is refused, not dropped.
    code, out, err = run(capsys, *argv, "--format", "csv", "--timestamps")
    assert code == 2
    assert out == ""
    assert err == ("knotcensus: --timestamps cannot be combined with --format csv: "
                   "csv output has no field for the stamp\n")


def test_embed_then_verify_file_round_trip(tmp_path, capsys):
    path = tmp_path / "e.json"
    code, out, _ = run(
        capsys, "embed", "--n", "6", "--seed", "5", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    lib = random_rectilinear_embedding(6, seed=5)
    stored = json.loads(path.read_text())
    assert stored["n"] == 6
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["rectilinear"] is True
    # The CLI seed "5" reproduces the library's embedding for seed 5.
    assert stored["vertices"][0][0] == int(lib.vertex_positions[1][0])


def test_embed_csv_lists_vertices(capsys):
    code, out, _ = run(capsys, "embed", "--n", "6", "--kind", "moment", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "vertex,x,y,z"
    assert lines[1] == "1,1,1,1"
    assert len(lines) == 7


def test_embed_csv_refuses_waypoints(capsys):
    code, out, err = run(capsys, "embed", "--n", "6", "--kind", "polyline", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err.startswith("knotcensus: csv lists vertices only") and err.count("\n") == 1
    # Without waypoints a polyline embedding is rectilinear, and csv holds all of it.
    code, out, _ = run(capsys, "embed", "--n", "6", "--kind", "polyline", "--bent-edges", "0",
                       "--format", "csv")
    assert code == 0
    assert len(out.strip().split("\n")) == 7


def test_embed_csv_refuses_the_tripartite_graph(capsys):
    # csv has no column for the graph, so K_{3,3,1} would read as K7.
    code, out, err = run(capsys, "embed", "--graph", "k331", "--seed", "3", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == ("knotcensus: csv lists vertices only and would drop the tripartite "
                   "graph; use --format json\n")


def test_verify_csv_format(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "6", "--kind", "moment", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "identity_id,n,lhs,rhs,pass"
    assert all(line.endswith(",true") for line in lines[1:])


def test_identity_subset_selection(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "6", "--kind", "moment",
        "--identities", "k6-identity,mod2-parity",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["identity_id"] for r in doc["identities"]] == [
        "k6-identity",
        "mod2-parity",
    ]


def test_unknown_identity_is_usage_error(capsys):
    code, _, err = run(
        capsys, "verify", "--n", "6", "--kind", "moment", "--identities", "zorp"
    )
    assert code == 2
    assert "zorp" in err


def test_repeated_identity_is_usage_error(capsys):
    # One report per identity: a selection naming one twice is refused,
    # as an unknown name is, before any class is read.
    code, out, err = run(
        capsys, "verify", "--n", "6", "--kind", "moment",
        "--identities", "main-identity,k6-identity,main-identity",
    )
    assert (code, out) == (2, "")
    assert err == "knotcensus: repeated identities: ['main-identity']\n"
    e = moment_curve_embedding(6)
    with pytest.raises(ValueError, match=re.escape("repeated identities: ['mod2-parity']")):
        verify_embedding(e, identities=("mod2-parity", "mod2-parity"))


@pytest.mark.parametrize("argv,message", [
    (("--n", "5"), "no identity applies to this embedding"),
    (("--n", "6", "--identities", ","), "no identities selected"),
    (("--n", "6", "--identities", ""), "no identities selected"),
])
def test_empty_identity_selection_is_usage_error(capsys, argv, message):
    # A run that checks nothing must not report a pass.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"knotcensus: {message}\n"


def test_sampling_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "verify", "--n", "9", "--range", "1")
    assert code == 3
    assert "attempts" in err


def test_embed_sampling_exhaustion_message(capsys):
    # Every one of the 64 sampled K9 configurations with coordinates in
    # [-1, 1] fails validation.
    code, out, err = run(capsys, "embed", "--n", "9", "--range", "1")
    assert code == 3
    assert out == ""
    assert err == (
        "knotcensus: no general-position configuration after 64 attempts "
        "(coordinate range 1)\n"
    )


def test_corrupt_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 6}')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("pensive clouds")
    code, _, _ = run(capsys, "verify", str(notjson))
    assert code == 2
    code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def test_file_and_n_together_is_usage_error(tmp_path, capsys):
    path = tmp_path / "e.json"
    write_embedding(moment_curve_embedding(6), path)
    code, _, err = run(capsys, "verify", str(path), "--n", "6")
    assert code == 2


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "--n" in err


def test_moment_on_tripartite_is_usage_error(capsys):
    code, _, _ = run(capsys, "embed", "--graph", "k331", "--kind", "moment")
    assert code == 2


def test_tripartite_verify(capsys):
    code, out, _ = run(capsys, "verify", "--graph", "k331", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert [r["identity_id"] for r in doc["identities"]] == ["k331-identity"]


def test_census_subcommand(capsys):
    code, out, _ = run(capsys, "census", "--n", "7", "--kind", "moment")
    assert code == 0
    doc = json.loads(out)
    assert doc["hopf_count"] == 7
    assert doc["positive_a2_count"] == 1
    code, out, _ = run(
        capsys, "census", "--n", "6", "--kind", "moment", "--format", "csv"
    )
    assert code == 0
    assert out.startswith("key,value\nn,6\n")


def test_census_on_tripartite_is_usage_error(capsys):
    code, _, _ = run(capsys, "census", "--graph", "k331")
    assert code == 2


def test_rn_table(capsys):
    code, out, _ = run(capsys, "rn-table", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,r_n"
    assert lines[1] == "7,1"
    assert lines[-1] == "15,10015889"
    code, out, _ = run(capsys, "rn-table", "--start", "8", "--stop", "9")
    assert code == 0
    assert json.loads(out)["table"] == [{"n": 8, "r_n": 2}, {"n": 9, "r_n": 12}]
    code, _, _ = run(capsys, "rn-table", "--start", "6")
    assert code == 2


def test_invariant_knot_and_link(capsys):
    code, out, _ = run(
        capsys,
        "invariant", "--n", "7", "--kind", "moment",
        "--cycle", "1,3,5,7,2,4,6", "--audit",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "knot"
    assert doc["a2"] == 1
    assert doc["audited"] is True
    code, out, _ = run(
        capsys,
        "invariant", "--n", "6", "--kind", "moment",
        "--pair", "1,3,5;2,4,6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "link"
    assert abs(doc["lk"]) == 1


@pytest.mark.parametrize(
    "subject,cell,value",
    [("--cycle", "1,3,5,7,2,4,6", "1"), ("--pair", "1,3,5;2,4,6", "-1")],
)
def test_invariant_csv_row_has_one_cell_per_column(capsys, subject, cell, value):
    code, out, _ = run(capsys, "invariant", "--n", "7", "--kind", "moment",
                       subject, cell, "--format", "csv")
    assert code == 0
    header, row = csv.reader(out.splitlines())
    assert len(row) == len(header) == 6
    doc = dict(zip(header, row))
    # The cycle or pair reads back in the syntax the option takes.
    assert doc[subject[2:]] == cell
    assert doc["a2" if subject == "--cycle" else "lk"] == value


def test_invariant_usage_errors(capsys):
    code, _, _ = run(capsys, "invariant", "--n", "6", "--kind", "moment")
    assert code == 2
    code, _, _ = run(
        capsys,
        "invariant", "--n", "6", "--kind", "moment",
        "--cycle", "1,2,3", "--pair", "1,2,3;4,5,6",
    )
    assert code == 2
    # (1, 3) joins two vertices of the same part: not an edge.
    code, _, err = run(
        capsys, "invariant", "--graph", "k331", "--cycle", "1,3,5"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "invariant", "--n", "6", "--kind", "moment", "--pair", "1,2,3;3,4,5"
    )
    assert code == 2
    code, _, _ = run(
        capsys, "invariant", "--n", "6", "--kind", "moment", "--cycle", "1,2,x"
    )
    assert code == 2


@pytest.mark.parametrize("extra", [("--threads", "0"), ("--allow-large",)])
def test_invariant_refuses_analysis_options(capsys, extra):
    # `invariant` runs no pool and no Hamiltonian sum, so it has neither
    # option: argparse exits 2 before anything is computed.
    with pytest.raises(SystemExit) as info:
        cli.main(["invariant", "--n", "6", "--kind", "moment", "--cycle", "1,2,3", *extra])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_failing_report_exit_code_and_witness_bundle(tmp_path, capsys, monkeypatch):
    bundle = tmp_path / "bundle.json"
    fake = IdentityReport(
        identity_id="k6-identity",
        n=6,
        sums={"sum_a2_6": 0},
        lhs=0,
        rhs=5,
        passed=False,
        witnesses=(),
    )

    def fake_verify(e, identities=None, analysis=None, raise_on_fail=False):
        return [fake], analysis

    monkeypatch.setattr(cli, "verify_embedding", fake_verify)
    code, out, _ = run(
        capsys,
        "verify", "--n", "6", "--kind", "moment",
        "--witness-bundle", str(bundle),
    )
    assert code == 1
    assert json.loads(out)["pass"] is False
    stored = json.loads(bundle.read_text())
    assert stored["reports"][0]["identity_id"] == "k6-identity"
    assert stored["embedding"]["n"] == 6


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_allow_large_flag_is_wired(capsys):
    code, _, err = run(capsys, "census", "--n", "11", "--kind", "moment")
    assert code == 2
    assert "override" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_thread_count_below_one_is_usage_error(capsys, count):
    code, out, err = run(
        capsys, "verify", "--n", "6", "--kind", "moment", "--threads", count
    )
    assert code == 2
    assert out == ""
    assert "threads" in err


@pytest.mark.parametrize(
    "flag,value,name",
    [("--verify-frames", "-1", "verify_frames"),
     ("--verify-frames", "0", "verify_frames"),
     ("--frame-retries", "0", "retry_limit"),
     ("--frame-retries", "-4", "retry_limit")],
)
@pytest.mark.parametrize(
    "argv",
    [("verify",), ("census",), ("invariant", "--cycle", "1,2,3"),
     ("invariant", "--pair", "1,2,3;4,5,6")],
)
def test_bad_frame_budget_is_usage_error(capsys, argv, flag, value, name):
    code, out, err = run(capsys, *argv, "--n", "6", "--kind", "moment", flag, value)
    assert code == 2
    assert out == ""
    assert name in err


@pytest.mark.parametrize("coordinate", [True, [True, 1], [1, True]])
def test_boolean_coordinate_is_usage_error(tmp_path, capsys, coordinate):
    # The first moment-curve vertex is (1, 1, 1), so reading true as 1
    # would load a valid embedding.
    doc = embedding_to_json(moment_curve_embedding(6))
    doc["vertices"][0][0] = coordinate
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "embed", str(path))
    assert code == 2
    assert out == ""
    assert "bad coordinate" in err


@pytest.mark.parametrize("edges", [[1, 2], {"1-2": 5}])
def test_malformed_edges_are_usage_errors(tmp_path, capsys, edges):
    doc = embedding_to_json(moment_curve_embedding(6))
    doc["edges"] = edges
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("knotcensus: ") and err.count("\n") == 1


def test_negative_bent_edges_is_usage_error(capsys):
    code, out, err = run(capsys, "embed", "--n", "6", "--kind", "polyline", "--bent-edges", "-1")
    assert code == 2
    assert out == ""
    assert err == "knotcensus: bent_edges must be at least 0, got -1\n"
