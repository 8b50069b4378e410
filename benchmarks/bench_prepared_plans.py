"""Prepared plans: literal substitution vs a full parse on a cache miss.

Step 1 of Figure 1 turns a template and its parameters into an optimized
logical plan.  ``Interface`` plans each template text once for two
sentinel parameter sets and records the literal slots where the two
plans differ; a new parameter set then costs a substitution into that
shape (``PlanShape.bind``) instead of lex + parse + bind + optimize
(``_prepare``).  Templates whose renders differ in more than literals
(TPC-H q3, q12, q13, q14: dates built from a year, composed LIKE
patterns) have no shape and keep the parse.

This benchmark checks, over MIDAS's whole 346-string parameter domain
and sampled TPC-H parameters, that every substituted plan and table
tuple equals the parsed one with literal types, and times the miss path
per template: parse against substitution, best-of-rounds mean per
parameter set.  Substitution must be at least ``MIN_SPEEDUP`` times
faster on every shaped template.  Results go to
``benchmarks/results/BENCH_prepared_plans.json`` (written before the
assertions; CI uploads it).

Run standalone:  PYTHONPATH=src python benchmarks/bench_prepared_plans.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.common.rng import RngStream
from repro.ires.interface import Interface, _prepare
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.tpch.queries import EXTENDED_QUERIES
from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload

# The strict plan comparison and MIDAS's domain live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.test_prepared import MIDAS_DOMAIN, typed  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_prepared_plans.json"

#: Minimum substitution speedup over a parse, per shaped template.
MIN_SPEEDUP = 10.0
#: The templates that must get a shape.
SHAPED = set(MEDICAL_QUERIES) | {"q17"}


def per_call_us(build, params_list, rounds: int) -> float:
    """Best-of-``rounds`` mean wall time of one ``build(params)``, in µs."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for params in params_list:
            build(params)
        best = min(best, (time.perf_counter() - started) / len(params_list))
    return best * 1e6


def run_case(family, catalog, deployment, template, params_list, rounds):
    def parse(params):
        return _prepare(catalog, deployment, template.render(params))

    shape = Interface(catalog, deployment).shape(template)
    case = {
        "family": family,
        "template": template.key,
        "shaped": shape is not None,
        "parameter_sets": len(params_list),
        "parse_us": round(per_call_us(parse, params_list, rounds), 2),
    }
    if shape is None:
        return case
    mismatches = 0
    for params in params_list:
        plan, tables = parse(params)
        got = shape.bind(params)
        if got is None or typed(got) != typed(plan) or shape.tables != tables:
            mismatches += 1
    substitute_us = per_call_us(shape.bind, params_list, rounds)
    case.update(
        slots=sorted(shape.kinds),
        substitute_us=round(substitute_us, 2),
        speedup=round(case["parse_us"] / substitute_us, 1),
        mismatches=mismatches,
    )
    return case


def run_prepared_plans(quick: bool = False) -> dict:
    rounds = 3 if quick else 7
    samples = 40
    midas = MidasSystem(patient_count=120, seed=3)
    engine = midas.gateway.engine
    tpch = TpchFederationWorkload(TpchFederationConfig(fixed_execution=None))
    cases = []
    try:
        for template in MEDICAL_QUERIES.values():
            cases.append(
                run_case(
                    "midas", engine.catalog, engine.deployment, template,
                    MIDAS_DOMAIN[template.key], rounds,
                )
            )
        for template in EXTENDED_QUERIES.values():
            rng = RngStream(31, template.key)
            params_list = [template.sample_params(rng) for _ in range(samples)]
            cases.append(
                run_case(
                    "tpch", tpch.dataset.catalog, tpch.deployment, template,
                    params_list, rounds,
                )
            )
    finally:
        midas.gateway.close()
    return {
        "benchmark": "prepared_plans",
        "quick": quick,
        "unit": "us per cache miss (parse = render + lex/parse/bind/optimize)",
        "midas_strings": sum(c["parameter_sets"] for c in cases if c["family"] == "midas"),
        "cases": cases,
    }


def format_report(report: dict) -> str:
    lines = [
        "Prepared plans: cache-miss cost, parse vs literal substitution",
        f"{'template':>22} {'sets':>5} {'parse':>10} {'substitute':>11} {'speedup':>8} {'equal':>6}",
    ]
    for case in report["cases"]:
        if case["shaped"]:
            tail = (
                f"{case['substitute_us']:>9.1f}us {case['speedup']:>7.1f}x "
                f"{str(case['mismatches'] == 0):>6}"
            )
        else:
            tail = f"{'(no shape: parses)':>27}"
        lines.append(
            f"{case['template']:>22} {case['parameter_sets']:>5} "
            f"{case['parse_us']:>8.1f}us {tail}"
        )
    return "\n".join(lines)


def write_json(report: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")


def check_report(report: dict) -> None:
    assert report["midas_strings"] == 346, report["midas_strings"]
    shaped = {case["template"] for case in report["cases"] if case["shaped"]}
    assert shaped == SHAPED, shaped
    for case in report["cases"]:
        if not case["shaped"]:
            continue
        assert case["mismatches"] == 0, f"{case['template']}: substituted != parsed"
        assert case["speedup"] >= MIN_SPEEDUP, (
            f"{case['template']}: substitution only {case['speedup']:.1f}x a parse"
        )


def test_prepared_plans(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_prepared_plans, args=(True,), rounds=1, iterations=1)
    record_result("prepared_plans", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer timing rounds")
    arguments = parser.parse_args()
    final = run_prepared_plans(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
