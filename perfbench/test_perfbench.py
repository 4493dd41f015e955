"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

RUN = os.path.join(run.HERE, "run.py")


def _proc(returncode=0, stdout=b"{}\n"):
    return run.Proc(returncode, 1.0, 0.1, 1.0, 30.0, stdout, b"", {})


def test_smoke_runs_every_workload_and_emits_every_metric():
    r = subprocess.run([sys.executable, RUN, "--smoke"], cwd=run.ROOT,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stdout[-3000:] + r.stderr[-3000:]
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * len(run.WORKLOADS)


def test_check_output_accepts_only_the_reference_bytes():
    out = b'{"pass": true}\n'
    ref = {"sha256": run.hashlib.sha256(out).hexdigest()}
    assert run.check_output(_proc(stdout=out), ref) is None
    assert "differs" in run.check_output(_proc(stdout=out + b" "), ref)
    assert "exit 1" in run.check_output(_proc(returncode=1, stdout=out), ref)


def test_translation_is_seeded_and_keeps_denominators():
    doc = {"n": 3, "vertices": [[0, 1, 2], [[1, 2], 0, 0], [3, 3, 3]],
           "edges": {"1-2": [[[1, 2], [3, 2], 5]]}}
    a, b, c = run.translated(doc, 1), run.translated(doc, 1), run.translated(doc, 2)
    assert a == b and a != c
    moved = a["vertices"][1][0]
    assert isinstance(moved, list) and moved[1] == 2


def test_record_counts_match_the_stated_workload_sizes():
    assert run.WORKLOADS["verify-rand8"].records(8) == 5992
    assert run.WORKLOADS["verify-audit-moment7"].records(7) == 1207
    assert run.WORKLOADS["census-poly8-t2"].records(8) == 2800
    # Counts measured on random K9 by a traced run.
    assert run.WORKLOADS["verify-rand8"].records(9) == 31332
    assert run.WORKLOADS["census-poly8-t2"].records(9) == 21000


def test_benchmark_json_lists_every_metric_the_harness_emits():
    e2e, layers = run._benchmark_names()
    assert e2e == set(run.END_TO_END)
    assert layers == set(run.layer_metrics({})) | {
        "trace.wall_s", "trace.untraced_wall_s", "trace.uncovered_share"}
