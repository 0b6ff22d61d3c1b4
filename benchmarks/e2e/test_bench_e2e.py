"""Checks of the benchmark itself, run explicitly::

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_bench_e2e.py

(tier-1 ``testpaths`` stays ``tests/``).  One tiny suite run at
``--scale 0.02`` feeds the report, span and schema checks.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import catalog
import schema
from spans import self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
SCALE = "0.02"


def _run(*args, cwd=ROOT, script=RUN, env=None):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def report():
    done = _run("--scale", SCALE, "--repeats", "1", "--trace")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(HERE, "out", "report.json"),
              encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_benchmark_json_matches_the_schema_and_the_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    # Names, units, the 8 / 16 / 128 limits and agreement with catalog.py.
    assert schema.validate_benchmark(doc) == []


def test_every_per_layer_metric_names_what_it_moves():
    assert schema.validate_moves() == []


def test_report_matches_the_schema(report):
    document, stdout = report
    assert schema.validate_report(document) == []
    for name, entry in document["workloads"].items():
        assert "per_layer" in entry, name
        # Every metric is printed by name with its unit.
        for metric, row in {**entry["end_to_end"],
                            **entry["per_layer"]}.items():
            assert metric in stdout and row["unit"] in stdout


def test_span_parents_resolve_and_self_times_sum_to_the_root(report):
    for name in catalog.WORKLOADS:
        path = os.path.join(HERE, "out", f"spans-{name}.jsonl")
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        ids = {span["id"] for span in spans}
        roots = [span for span in spans if span["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == f"bench.{name}"
        for span in spans:
            assert span["workload"] == name
            assert span["parent"] is None or span["parent"] in ids
            assert span["end_ns"] >= span["start_ns"]
        own = self_times(spans)
        assert min(own.values()) >= 0
        total = roots[0]["end_ns"] - roots[0]["start_ns"]
        assert abs(sum(own.values()) - total) <= 0.01 * total


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_mode_prints_the_contract_line(trace):
    done = _run("--workload", "svc_parity_rw", "--seed", "7",
                "--seconds", "1", "--trace", trace, "--scale", SCALE)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    doc = catalog.benchmark_json()
    rows = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert list(result["metrics"]) == [row["name"] for row in rows]
    for row in rows:
        assert result["metrics"][row["name"]]["unit"] == row["unit"]
    if trace == "0":
        assert all(row["value"] > 0 for row in result["metrics"].values())


def test_without_the_program_the_benchmark_fails_and_prints_no_result(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = _run("--workload", "store_hybrid", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path, env=env,
                script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
