"""Session sweep: one Pareto search per query instance and metrics tuple.

Algorithm 2 (``BestInPareto``) picks a plan from the Pareto set under a
policy's constraints and weights, but the set itself depends only on
the QEP space, the model and the policy's metrics.  A pinned
:class:`~repro.federation.session.GatewaySession` fixes the model and
keeps each query instance's space, so it also keeps one Pareto search
per metrics tuple: a policy-weight sweep over a query instance runs the
search once per metrics tuple and Algorithm 2 alone for every other
weight vector.

This benchmark runs one plan-only weight sweep over a few MIDAS query
instances two ways, on two identically built gateways (a 384-plan
space, as in the end-to-end ``plan-wide`` workload):

* **session** - one pinned session per template, one ``submit_many``;
* **fresh** - a new session per request (pin, enumerate, search, choose).

It checks that both ways produce identical canonical report lines (the
chosen plan, its predicted costs and the whole Pareto set, floats by
repr) and that the session way calls ``pareto_search`` exactly once per
distinct ``(instance, metrics)`` pair, and reports µs per request each
way.  There is no speed gate.  Results go to
``benchmarks/results/BENCH_session_sweep.json`` (written before the
assertions; CI uploads it).

Run standalone:  PYTHONPATH=src python benchmarks/bench_session_sweep.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import time
from pathlib import Path

from repro.cloud.federation import paper_federation
from repro.common.rng import RngStream
from repro.engines.simulate import MultiEngineSimulator
from repro.federation import FederationGateway, ObserveRequest, SubmitRequest
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepEnumerator
from repro.ires.optimizer import MultiObjectiveOptimizer
from repro.ires.policy import UserPolicy
from repro.midas import MEDICAL_QUERIES
from repro.midas.generator import MedicalDataGenerator
from repro.midas.system import DEFAULT_CONFIG, DEFAULT_DEPLOYMENT, DEFAULT_INSTANCE_TYPES
from repro.plans.catalog import Catalog
from repro.plans.statistics import compute_table_stats

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_session_sweep.json"

PATIENTS = 300
SEED = 11
#: 16 x 12 node counts over two execution options: 384 plans per instance.
NODES = {"cloud-a": list(range(1, 17)), "cloud-b": list(range(1, 13))}
WARM = 12
METRICS = (("time", "money"), ("money", "time"))
WEIGHTS = (0.1, 0.3, 0.5, 0.7, 0.9)


def build_gateway() -> FederationGateway:
    federation = paper_federation()
    tables = MedicalDataGenerator(PATIENTS, SEED).generate_all()
    deployment = Deployment(dict(DEFAULT_DEPLOYMENT))
    gateway = FederationGateway(
        catalog=Catalog(tables.values()),
        stats={name: compute_table_stats(t) for name, t in tables.items()},
        deployment=deployment,
        enumerator=QepEnumerator(federation, deployment, DEFAULT_INSTANCE_TYPES, NODES),
        simulator=MultiEngineSimulator(federation, seed=SEED),
        config=DEFAULT_CONFIG,
    )
    rng = RngStream(SEED, "session-sweep-warm")
    for template in MEDICAL_QUERIES.values():
        gateway.register_template(template)
        for _ in range(WARM):
            gateway.observe(
                ObserveRequest(
                    template.key,
                    template.sample_params(rng),
                    candidate_index=int(rng.integers(0, 384)),
                )
            )
    return gateway


def sweep(instances: int) -> dict[str, list[SubmitRequest]]:
    """Per template: ``instances`` distinct query instances, each swept
    over every metrics tuple and weight vector."""
    rng = RngStream(SEED, "session-sweep")
    policies = [
        UserPolicy(metrics, (weight, 1.0 - weight))
        for metrics in METRICS
        for weight in WEIGHTS
    ]
    requests = {}
    for template in MEDICAL_QUERIES.values():
        chosen = {}
        while len(chosen) < instances:
            params = template.sample_params(rng)
            chosen.setdefault(template.render(params), params)
        requests[template.key] = [
            SubmitRequest(template.key, params, policy)
            for params in chosen.values()
            for policy in policies
        ]
    return requests


def canonical(report) -> str:
    front = ";".join(
        f"{c.payload.describe()}={c.objectives!r}" for c in report.pareto_set
    )
    return (
        f"{report.template}|{report.tick}|{report.candidate_count}|"
        f"{report.chosen.describe()}|{report.predicted!r}|"
        f"{report.moqp_algorithm}|{front}"
    )


def run_session(gateway, requests) -> list:
    reports = []
    for key, batch in requests.items():
        with gateway.session(key) as session:
            reports.extend(session.submit_many(batch, execute=False).reports)
    return reports


def run_fresh(gateway, requests) -> list:
    reports = []
    for key, batch in requests.items():
        for request in batch:
            with gateway.session(key) as session:
                reports.append(session.submit(request, execute=False))
    return reports


def counted_searches(run, gateway, requests) -> tuple[list, int]:
    """``run``'s reports and the number of Pareto searches it ran."""
    original = MultiObjectiveOptimizer.pareto_search
    calls = 0

    def spy(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    MultiObjectiveOptimizer.pareto_search = spy
    try:
        reports = run(gateway, requests)
    finally:
        MultiObjectiveOptimizer.pareto_search = original
    return reports, calls


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_session_sweep(quick: bool = False) -> dict:
    instances = 2 if quick else 4
    rounds = 2 if quick else 5
    requests = sweep(instances)
    total = sum(len(batch) for batch in requests.values())
    gateways = {"session": build_gateway(), "fresh": build_gateway()}
    runs = {"session": run_session, "fresh": run_fresh}
    lines, searches, best = {}, {}, {}
    try:
        for way, run in runs.items():
            reports, searches[way] = counted_searches(run, gateways[way], requests)
            lines[way] = [canonical(report) for report in reports]
            best[way] = float("inf")
        # Timed rounds alternate the two ways; each way's gateway sees
        # the same request sequence, so ticks stay aligned.
        for _ in range(rounds):
            for way, run in runs.items():
                started = time.perf_counter()
                run(gateways[way], requests)
                best[way] = min(best[way], time.perf_counter() - started)
    finally:
        for gateway in gateways.values():
            gateway.close()
    return {
        "benchmark": "session_sweep",
        "quick": quick,
        "host_cpu_count": os.cpu_count(),
        "sha": git_sha(),
        "templates": len(requests),
        "instances_per_template": instances,
        "metrics_tuples": len(METRICS),
        "weights_per_metrics": len(WEIGHTS),
        "requests": total,
        "distinct_instance_metrics": len(requests) * instances * len(METRICS),
        "pareto_searches": searches,
        "identical_reports": lines["session"] == lines["fresh"],
        "unit": "us per plan-only request, best of rounds",
        "us_per_request": {way: round(best[way] / total * 1e6, 1) for way in runs},
        "speedup": round(best["fresh"] / best["session"], 2),
    }


def format_report(report: dict) -> str:
    us = report["us_per_request"]
    return "\n".join(
        [
            "Session sweep: plan-only weight sweep, pinned session vs fresh session per request",
            f"  {report['requests']} requests over {report['distinct_instance_metrics']} "
            f"(instance, metrics) pairs; identical reports: {report['identical_reports']}",
            f"  pareto_search calls: session {report['pareto_searches']['session']}, "
            f"fresh {report['pareto_searches']['fresh']}",
            f"  us/request: session {us['session']:.1f}, fresh {us['fresh']:.1f} "
            f"({report['speedup']:.2f}x)",
        ]
    )


def write_json(report: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")


def check_report(report: dict) -> None:
    assert report["identical_reports"], "a session's reports differ from fresh sessions'"
    searches = report["pareto_searches"]
    assert searches["session"] == report["distinct_instance_metrics"], searches
    assert searches["fresh"] == report["requests"], searches


def test_session_sweep(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_session_sweep, args=(True,), rounds=1, iterations=1)
    record_result("session_sweep", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer instances and rounds")
    arguments = parser.parse_args()
    final = run_session_sweep(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
