"""Tests of the benchmark itself: references, inputs, tracing, failure modes.

    python3 -m pytest perfbench -q

The count test runs every workload traced twice and takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import coarsehom as ch  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT, env=None, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("group", ["z2", "z3"])
@pytest.mark.parametrize("field", [ch.QQ, ch.GF(7)], ids=["Q", "F7"])
def test_nerve_reference_rule_matches_bar_oracle(group, field):
    g = ch.named_group(group)
    oracle = ch.bar_complex(g.table, 4, field)
    hh, hc = workloads.nerve_reference(g, 4)
    assert [oracle.hh(n) for n in range(4)] == hh
    assert [oracle.hc(n) for n in range(4)] == hc


def test_nerve_s3_reference_from_conjugacy_classes():
    s3 = ch.named_group("s3")
    assert len(s3.conjugacy_classes()) == 3
    assert workloads.nerve_reference(s3, 4) == workloads.NERVE_S3
    assert len(ch.named_group("z4").conjugacy_classes()) == 4


@pytest.mark.parametrize("seed", [0, 7])
def test_fuzz_items_reproduce_fuzz_suite(seed):
    got = [item.run() for item in workloads.fuzz_items(seed)]
    want = [
        (r.name, r.ok, list(r.details))
        for r in ch.fuzz_suite(seed, workloads.FUZZ_UNITS, workloads.FUZZ_DEGREE)
    ]
    assert got == want


def test_fuzz_workload_is_the_corpus_in_seeded_order():
    corpus = [item.name for item in workloads.fuzz_items(workloads.FUZZ_CORPUS_SEED)]
    first = [item.name for item in workloads.build("fuzz", 1)]
    assert sorted(first) == sorted(corpus)
    assert first == [item.name for item in workloads.build("fuzz", 1)]
    assert first != [item.name for item in workloads.build("fuzz", 2)]


def test_every_entry_point_resolves():
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
    finally:
        t.remove()
    assert ch.linalg.Matrix.__matmul__.__name__ == "__matmul__"
    assert not hasattr(ch.rank, "__wrapped__")


def test_benchmark_json_names_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = tracer.Tracer().metrics(1.0, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)


def test_missing_entry_point_reads_as_missing_not_zero():
    t = tracer.Tracer(tuple(
        (span, module, "no_such_function" if span == "linalg.snf" else attribute)
        for span, module, attribute in tracer.ENTRY_POINTS
    ))
    t.install()
    try:
        ch.ordinary_profile(ch.g_can_min(ch.named_group("z2")), 2, ch.ZZ)
    finally:
        t.remove()
    assert t.missing == ["linalg.no_such_function"]
    out = t.metrics(1.0, 1.0, 1.0)
    assert out["linalg.snf_s"] is None and out["linalg.snf_calls"] is None
    assert out["linalg.rank_calls"] > 0


def test_traced_times_add_up():
    t = tracer.Tracer()
    t.install()
    try:
        ch.nerve_profiles(ch.g_can_min(ch.named_group("z2")), 3, ch.QQ)
    finally:
        t.remove()
    out = t.metrics(10.0, 1.0, 1.0)
    stages = sum(out[name] for name in tracer.STAGES)
    assert 0 < stages < 10.0
    assert out["stage.other_s"] == pytest.approx(10.0 - stages)
    assert out["linalg.rank_calls"] > 0 and out["linalg.rank.Q_s"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_under_different_hash_seeds(workload):
    counts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1"], env=env)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"] for name in tracer.COUNT_METRICS})
    assert counts[0] == counts[1]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "nerve-s3", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
