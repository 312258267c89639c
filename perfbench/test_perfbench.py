"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bench_jobs
import bench_oracle
import run

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_same_seed_gives_byte_identical_files(tmp_path):
    first = bench_jobs.write_dense_pool(3, 0, tmp_path / "a")
    second = bench_jobs.write_dense_pool(3, 0, tmp_path / "b")
    other = bench_jobs.write_dense_pool(4, 0, tmp_path / "c")
    assert [p.read_bytes() for p, *_ in first] == \
        [p.read_bytes() for p, *_ in second]
    assert [p.read_bytes() for p, *_ in first] != \
        [p.read_bytes() for p, *_ in other]


@pytest.mark.parametrize("name", bench_jobs.WORKLOADS)
def test_same_seed_gives_same_jobs(name, tmp_path):
    def argvs(seed, r):
        jobs = bench_jobs.Workload(name, seed, tmp_path).round(r)
        return [job.argv for job in jobs]
    assert argvs(1, 2) == argvs(1, 2)
    assert argvs(1, 2) != argvs(2, 2)


def test_dense_files_are_dense_and_half_mutated(tmp_path):
    pool = bench_jobs.write_dense_pool(9, 1, tmp_path)
    for path, iid, dim, nnz, ok in pool:
        doc = json.loads(path.read_text())
        assert doc["payload"]["dim"] == dim and len(doc["payload"]["xi"]) == nnz
        assert 10 * nnz >= 8 * dim ** 3
    assert sum(not ok for *_, ok in pool) == len(pool) // 2


def test_oracle_passes_catalog_products():
    for iid, (dim, table) in bench_jobs.PRELIE_PRODUCTS.items():
        assert bench_oracle.is_left_symmetric(table, dim), iid
        bracket = bench_oracle.antisymmetrize(table)
        assert bench_oracle.is_lie_bracket(bracket, dim), iid


def test_oracle_fails_hand_made_mutants():
    dim, b4 = bench_jobs.PRELIE_PRODUCTS["b4"]
    mutant = dict(b4)
    mutant[(1, 1, 1)] = (Fraction(-3), Fraction(0))     # t o t = -3t
    assert not bench_oracle.is_left_symmetric(mutant, dim)
    # [e0, e1] = e0, [e0, e2] = e0, [e1, e2] = e1 breaks Jacobi
    one = (Fraction(1), Fraction(0))
    minus = (Fraction(-1), Fraction(0))
    bracket = {(0, 1, 0): one, (1, 0, 0): minus, (0, 2, 0): one,
               (2, 0, 0): minus, (1, 2, 1): one, (2, 1, 1): minus}
    assert not bench_oracle.is_lie_bracket(bracket, 3)


def test_wrong_expected_answer_counts_as_mismatch():
    cli = run.load_cli()
    client = run.Client(cli.main)
    good = bench_jobs.Job("check b4", ("check", "--instance", "b4", "--json"),
                          bench_jobs._all_true("b4", bench_jobs._CHECK_FIELDS[
                              "prelie2"]))
    wrong = bench_jobs.Job("check b4", good.argv,
                           bench_jobs._exact(1, {"b4": {}}))
    raises = bench_jobs.Job("bad flag", ("check", "--no-such-flag"),
                            bench_jobs._exact(0, {}))
    for job in (good, wrong, raises):
        client.run(job)
    assert (client.attempted, client.failed) == (3, 2)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", bench_jobs.WORKLOADS)
def test_smoke_run(name, trace):
    """One round of each workload: every verdict matches, and the
    metrics printed are exactly the ones BENCHMARK.json declares."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
         "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"]:
        assert f"\n{metric} " in proc.stdout


def test_missing_library_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "axioms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
