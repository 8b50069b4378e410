"""Smoke tests of the end-to-end benchmark, outside the tier-1 suite:

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs twice in ``--quick`` mode, once untraced and once
traced, each in a fresh interpreter as the benchmark is meant to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]

#: Layers each workload bypasses: their spans must never fire there, and
#: every other layer's must.  ``dream`` is silent on governed-durable
#: because the sharded backend fits inside its worker process, and
#: ``serving`` on plan-wide because its sessions pin their models at
#: set-up.
BYPASSED = {
    "ingest-mixed": {"governance", "wal", "wal.checkpoint", "audit"},
    "submit-hot": {"frontdoor", "governance", "wal", "wal.checkpoint", "audit"},
    "plan-wide": {
        "frontdoor", "governance", "serving", "dream", "engines", "history", "wal",
        "wal.checkpoint", "audit",
    },
    "governed-durable": {"frontdoor", "dream"},
}


def run(directory: Path, workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--quick",
            "--seed", "5", "--trace", str(trace), "--results", str(directory),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    kind = "trace" if trace else "e2e"
    (path,) = directory.glob(f"{workload}-s5-{kind}-*[0-9].json")
    return line, json.loads(path.read_text())


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request, tmp_path_factory):
    directory = tmp_path_factory.mktemp(request.param)
    plain = run(directory, request.param, 0)
    traced = run(directory, request.param, 1)
    return request.param, directory, plain, traced


def test_gates_pass(runs):
    _workload, _directory, (line, record), (traced_line, traced_record) = runs
    for result, full in ((line, record), (traced_line, traced_record)):
        assert result["correct"] and full["failures"] == []
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    _workload, _directory, (line, _record), (traced_line, _traced) = runs
    for result, section in ((line, "end_to_end"), (traced_line, "per_layer")):
        emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in DECLARED[section]}
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)
    for name, metric in line["metrics"].items():
        assert metric["value"] > 0, name


def test_same_seed_twice_gives_identical_digest_and_mre(runs):
    _workload, _directory, (_line, record), (_traced_line, traced) = runs
    untraced_digest = traced["digests"][0]
    assert record["digest"] == untraced_digest
    assert record["mre"] == traced["mre"]


def test_traced_digest_equals_untraced(runs):
    _workload, _directory, (_line, record), (_traced_line, traced) = runs
    assert traced["traced_episodes"] >= 1
    assert set(traced["digests"]) == {record["digest"]}


def test_span_matrix(runs):
    workload, _directory, _plain, (_line, traced) = runs
    calls = {
        name[: -len(".calls_per_req")]: metric["value"]
        for name, metric in traced["metrics"].items()
        if name.endswith(".calls_per_req")
    }
    assert {layer for layer, value in calls.items() if value == 0} == BYPASSED[workload]
    assert traced["metrics"]["trace.coverage_pct"]["value"] > 95


def test_compare_reports_a_set_against_itself_as_ok(runs):
    _workload, directory, _plain, _traced = runs
    completed = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(directory), str(directory)],
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "regressed" not in completed.stdout and "differs" not in completed.stdout


def test_compare_verdicts_cut_both_ways():
    sys.path.insert(0, str(HERE))
    from compare import verdict

    steady = [9.8, 9.9, 10.0, 10.1, 10.2]
    assert verdict(steady, steady, 0.25, "lower", 0.0) == "ok"
    assert verdict(steady, [x * 1.5 for x in steady], 0.25, "lower", 0.0) == "regressed"
    assert verdict(steady, [x * 0.5 for x in steady], 0.25, "higher", 0.0) == "regressed"
    # Quartile spread 0.6 of the median, wider than the bound.
    noisy = [6.0, 8.0, 10.0, 12.0, 14.0]
    assert verdict(noisy, noisy, 0.25, "lower", 0.0) == "unresolved"
    assert verdict(noisy, [x + 9 for x in noisy], 0.25, "lower", 0.0) == "regressed"
    assert verdict(noisy, [x - 9 for x in noisy], 0.25, "lower", 0.0) == "ok"
    # Every B run worse than every A run, by more than the bound.
    assert verdict(noisy, [15.0, 15.5, 16.0, 16.5, 17.0], 0.25, "lower", 0.0) == "regressed"
    assert verdict([1.0], [2.0], None, "lower", 0.0) == "differs"


def test_refuses_to_run_without_the_gateway_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "submit-hot", "--quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
