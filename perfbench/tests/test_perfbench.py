"""The benchmark's own tests, at tiny sizes."""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fsmcap import fixtures, pfa
from perfbench import reference, tracing, workloads, worker
from perfbench.run import END_TO_END_UNITS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=1, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_and_record(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return json.loads(lines[-1]), record


@pytest.fixture(scope="module")
def runs():
    return {(w, t): result_and_record(bench(w, t))
            for w in workloads.WORKLOADS for t in (0, 1)}


def test_benchmark_json_names_what_the_benchmark_emits():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END_UNITS)
    assert all(m["unit"] == END_TO_END_UNITS[m["name"]] for m in BENCHMARK["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        tracing.layer_metric_specs()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted(runs, workload):
    result, record = runs[(workload, 0)]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for name, m in result["metrics"].items():
        assert m["unit"] == END_TO_END_UNITS[name] and m["value"] > 0, name
    env = record["environment"]
    assert env["seed"] == 1 and env["jobs"] == result["attempted"]
    assert {"python", "numpy", "nproc", "blas_threads_cap", "src_sha256"} <= set(env)
    assert record["tail"]["samples"] == result["attempted"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_layer_metric_is_emitted_or_marked_not_applicable(runs, workload):
    result, record = runs[(workload, 1)]
    assert result["correct"]
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert list(result["metrics"]) == names
    not_applicable = record["trace"]["not_applicable"]
    for name in names:
        if not result["metrics"][name]["value"] and name != "trace.overhead_s":
            assert name in not_applicable, name
    assert (ROOT / record["spans"]).is_file()


def test_each_workload_reaches_its_own_layers(runs):
    def calls(w, layer):
        return runs[(w, 1)][0]["metrics"][f"{layer}.calls"]["value"]
    assert calls("search", "pfa.brute_force_value") and calls("search", "gadgets.build_family_member")
    assert calls("channel", "capacity.converse_check") and calls("channel", "fsmc.build_V")
    assert calls("cli", "cli.main") and calls("cli", "formats.parse_pfa")
    assert runs[("cli", 1)][1]["trace"]["search_inputs"]


def test_corrupted_result_counts_as_failed():
    wl = workloads.search_workload(1, "tiny")
    refs = [job.reference() for job in wl.jobs]
    job = wl.jobs[0]
    run = job.run

    def corrupted():
        res = run()
        return pfa.SearchResult(best_word=res.best_word, best_value=res.best_value + 1)
    job.run = corrupted
    out = worker.run_jobs(wl.jobs, refs, 0, single_pass=True)
    assert len(out["failures"]) == 1 and "best word/value" in out["failures"][0]

    def broken():
        raise RuntimeError("boom")
    job.run = broken
    out = worker.run_jobs(wl.jobs, refs, 0, single_pass=True)
    assert len(out["failures"]) == 1 and "boom" in out["failures"][0]


def test_seed_changes_inputs_not_metric_names(runs):
    keys = {s: [reference.pfa_key(p) for _, p, _, _ in workloads.search_inputs(s, "tiny")]
            for s in (1, 2)}
    assert keys[1] != keys[2]
    assert keys[1] == [reference.pfa_key(p) for _, p, _, _ in workloads.search_inputs(1, "tiny")]
    assert workloads.channel_workload(1, "tiny").inputs != workloads.channel_workload(2, "tiny").inputs
    result, _ = result_and_record(bench("search", 0, seed=2))
    assert list(result["metrics"]) == list(runs[("search", 0)][0]["metrics"])


def test_dedup_walk_matches_full_enumeration():
    fam = fixtures.family3()
    walk = reference.dedup_walk(fam, 4)
    res = pfa.brute_force_value(fam, 4)
    assert walk.best() == (res.best_word, res.best_value)
    assert walk.words_covered == pfa.count_words(len(fam.alphabet), 4)
    assert walk.distinct < walk.words_covered
    y = Fraction(1, 4)
    assert walk.first_above(y) == pfa.emptiness_semidecide(fam, y, 4)
    assert reference.accept_value(fixtures.example1(), "baa") == Fraction(1, 4)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("search", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    patterns = [p for entry in layer_map["layers"] for p in entry["metrics"]]
    end_to_end = set(END_TO_END_UNITS)
    for entry in layer_map["layers"]:
        for workload, metrics in entry["moves"].items():
            assert workload in workloads.WORKLOADS and set(metrics) <= end_to_end
    for m in BENCHMARK["per_layer"]:
        name = m["name"]
        assert any(name == p or (p.endswith(".*") and name.rsplit(".", 1)[0] == p[:-2])
                   for p in patterns), name
