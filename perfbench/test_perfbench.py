"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the worker and run.py as subprocesses, as the benchmark does, and
take about a minute.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracer import METRICS  # noqa: E402


def _worker(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--spawned-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digests_repeat_for_a_seed(workload):
    first, second = _worker(workload, 7), _worker(workload, 7)
    counts = [name for name, unit in METRICS if unit == "count"]
    assert {k: first["layers"][k] for k in counts} == \
        {k: second["layers"][k] for k in counts}
    assert first["ops_digest"] == second["ops_digest"]
    assert first["results_digest"] == second["results_digest"]
    assert first["hashes"] == second["hashes"]


def test_seeds_change_the_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    for name in WORKLOADS:
        labels = [[op.label for op in workloads.build(name, seed)] for seed in (1, 2)]
        assert len(labels[0]) == len(labels[1]) and labels[0] != labels[1], name


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in METRICS]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _run("--workload", "gluing-pipelines", "--seed", "3", "--seconds", "1",
                   "--trace", str(trace))
        assert res.returncode == 0, res.stderr
        last = json.loads(res.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert {name: m["unit"] for name, m in last["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[key]}


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = _run("--workload", "implicit-norms", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


def _subsets(N):
    return itertools.chain.from_iterable(
        itertools.combinations(range(1, N + 1), r) for r in range(1, N + 1))


@pytest.mark.parametrize("alpha", [1, 2])
def test_max_member_size_against_enumeration(alpha):
    for N in range(1, 11):
        best = max(len(F) for F in _subsets(N) if oracles.in_schreier(alpha, F))
        assert oracles.max_member_size(alpha, N) == best, N


def test_subset_recursion_on_known_norms():
    t1 = [(oracles.member_fn(1), Fraction(1, 2))]
    quarter = Fraction(1, 4)
    assert oracles.implicit_norm(t1, [(i, quarter) for i in (4, 5, 6, 7)]) == Fraction(1, 2)
    # {2,...,7} is not in S_1; its best admissible part is {4,...,7}: 4/2
    assert oracles.implicit_norm(t1, [(i, 1) for i in range(2, 8)]) == 2
    assert oracles.max_s1_mass(dict(oracles.repeated_average(2, 5))) == Fraction(1, 5)
    assert len(oracles.repeated_average(2, 5)) == 155
