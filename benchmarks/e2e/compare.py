"""Compare two sets of end-to-end benchmark results.

    python benchmarks/e2e/compare.py SET_A SET_B

``SET_A`` and ``SET_B`` are result directories written by ``run.py
--results DIR`` (untraced runs; traced runs in them are ignored).  For
each workload and metric it prints each set's median and quartiles and
a verdict against the metric's bound.  *Allowed* is the bound times A's
median; *spread* is the wider of the two sets' interquartile ranges.

* ``ok`` - B's median is no worse than A's by more than allowed, and
  the spread is within allowed; or, with a wider spread, B is better by
  more than the spread or every B run beats every A run;
* ``regressed`` - B's median is worse by more than allowed, and the
  spread is within allowed, or the change also exceeds the spread, or
  every B run is worse than every A run;
* ``unresolved`` - the spread is wider than allowed and neither of the
  above holds: the sets cannot tell;
* ``differs`` - a metric that must repeat exactly (``mre``,
  ``error_rate``) or a digest changed for a seed run in both sets.

Bounds of the metrics ``BENCHMARK.json`` declares come from that file;
the workload-specific metrics below carry their own.  The ratio of the
sets' ``host.ref_ms`` medians tells whether the host itself ran at the
same speed for both.  Exits 1 when anything regressed or differs, else 2
when anything is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Workload-specific metrics: (bound, better, absolute floor of the
#: allowed change); a bound of ``None`` means the value must repeat.
#: Timing bounds match the declared latencies' (see README.md).
EXTRA_METRICS = {
    "latency_p99_ms": (0.25, "lower", 0.0),
    "observe_p50_ms": (0.25, "lower", 0.0),
    "observe_p99_ms": (0.25, "lower", 0.0),
    "submit_p50_ms": (0.25, "lower", 0.0),
    "submit_p99_ms": (0.25, "lower", 0.0),
    "first_report_p50_ms": (0.25, "lower", 0.0),
    "recover_s": (0.25, "lower", 0.05),
    "mre": (None, "lower", 0.0),
    "error_rate": (None, "lower", 0.0),
}


def load(directory: Path) -> list[dict]:
    records = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("trace"):
            records.append(record)
    if not records:
        raise SystemExit(f"compare.py: no untraced result files in {directory}")
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound, better, floor) -> str:
    if bound is None:
        return "ok" if a == b else "differs"
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    allowed = max(bound * abs(qa[1]), floor)
    spread = max(qa[2] - qa[0], qb[2] - qb[0])
    #: How much worse B's median is than A's (negative: better).
    worse = sign * (qb[1] - qa[1])
    if spread <= allowed:
        return "regressed" if worse > allowed else "ok"
    if worse > allowed and (
        worse > spread or all(sign * (y - x) > 0 for x in a for y in b)
    ):
        return "regressed"
    if -worse > spread or all(sign * (y - x) < 0 for x in a for y in b):
        return "ok"
    return "unresolved"


def by_seed(records, name):
    return {
        r["seed"]: r["metrics"][name]["value"] for r in records if name in r["metrics"]
    }


def compare(set_a: list[dict], set_b: list[dict]) -> tuple[list[str], int]:
    """The report lines and the exit status (see the module docstring)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"], 0.0) for m in declared["end_to_end"]}
    bounds.update(EXTRA_METRICS)
    groups_a, groups_b = defaultdict(list), defaultdict(list)
    for record in set_a:
        groups_a[record["workload"]].append(record)
    for record in set_b:
        groups_b[record["workload"]].append(record)
    lines = [
        f"{'workload':17s} {'metric':20s} {'unit':5s} "
        f"{'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s} {'change':>8s}  verdict"
    ]
    outcomes = set()
    for workload in sorted(set(groups_a) & set(groups_b)):
        a_runs, b_runs = groups_a[workload], groups_b[workload]
        for name, (bound, better, floor) in bounds.items():
            if name not in a_runs[0]["metrics"] or name not in b_runs[0]["metrics"]:
                continue
            if bound is None:
                a_seeds, b_seeds = by_seed(a_runs, name), by_seed(b_runs, name)
                shared = sorted(set(a_seeds) & set(b_seeds))
                a = [a_seeds[s] for s in shared]
                b = [b_seeds[s] for s in shared]
            else:
                a = [r["metrics"][name]["value"] for r in a_runs]
                b = [r["metrics"][name]["value"] for r in b_runs]
            if not a or not b:
                continue
            outcome = verdict(a, b, bound, better, floor)
            outcomes.add(outcome)
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            unit = a_runs[0]["metrics"][name]["unit"]
            lines.append(
                f"{workload:17s} {name:20s} {unit:5s} "
                f"{qa[1]:10.4g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                f"{qb[1]:10.4g} [{qb[0]:8.4g}, {qb[2]:8.4g}] {change:+8.1%}  {outcome}"
            )
        a_digests = {r["seed"]: r["digest"] for r in a_runs}
        b_digests = {r["seed"]: r["digest"] for r in b_runs}
        shared = sorted(set(a_digests) & set(b_digests))
        changed = [s for s in shared if a_digests[s] != b_digests[s]]
        if changed:
            outcomes.add("differs")
        lines.append(
            f"{workload:17s} digests: {len(shared) - len(changed)}/{len(shared)} "
            f"shared seeds identical" + (f", differ on seeds {changed}" if changed else "")
        )
    ref_a = statistics.median(r["host"]["ref_ms"] for r in set_a)
    ref_b = statistics.median(r["host"]["ref_ms"] for r in set_b)
    lines.append(
        f"host.ref_ms median: A {ref_a:.2f} ms, B {ref_b:.2f} ms, B/A {ref_b / ref_a:.3f}"
    )
    tick_a = statistics.median(r["metrics"]["host.tick_ms"]["value"] for r in set_a)
    tick_b = statistics.median(r["metrics"]["host.tick_ms"]["value"] for r in set_b)
    lines.append(
        f"host.tick_ms median: A {tick_a:.3f} ms, B {tick_b:.3f} ms, B/A {tick_b / tick_a:.3f}"
    )
    if outcomes & {"regressed", "differs"}:
        return lines, 1
    return lines, 2 if "unresolved" in outcomes else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path, help="baseline result directory")
    parser.add_argument("set_b", type=Path, help="candidate result directory")
    args = parser.parse_args(argv)
    lines, status = compare(load(args.set_a), load(args.set_b))
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
