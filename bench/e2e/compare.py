#!/usr/bin/env python3
"""Compares two sets of bench_e2e run JSONs: a parent commit and a change.

    python3 bench/e2e/compare.py PARENT CHANGE [--benchmark FILE]

PARENT and CHANGE are directories of run JSONs (run.sh --out) or a
baseline file such as bench/baselines/seed.json. Untraced runs carry the
end-to-end metrics and traced runs the per-layer ones. For each workload
and metric the tool prints each side's median and quartiles, the number
of pairs, the share of pairs the change wins, and a verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread;
  regressed   for an end-to-end metric, the change's median is worse than
              the parent's by more than the metric's bound in
              BENCHMARK.json while the parent's spread stays within it;
              for a per-layer metric, the mirror image of "improved";
  unresolved  fewer than 10 pairs, where the rules above would have said
              improved or regressed; or, for an end-to-end metric, the
              parent's own spread is wider than the bound and not every
              change run reads better than every parent run;
  unchanged   otherwise.

Runs pair up by seed when both sides ran it, else in file order. The
failed requests of both sides are compared per workload at the end. Exits
1 when an end-to-end metric regressed or the change failed more requests.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10


def load_runs(path):
    """Run JSONs of a directory, or the "runs" list of a baseline file."""
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)["runs"]
    runs = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            try:
                run = json.load(f)
            except json.JSONDecodeError:
                continue
        if isinstance(run, dict) and "workload" in run and "metrics" in run:
            runs.append(run)
    return runs


def series(runs):
    """{(workload, metric): {"unit", "values": [(seed, value)]}}"""
    out = {}
    for run in runs:
        for name, m in run["metrics"].items():
            entry = out.setdefault((run["workload"], name),
                                   {"unit": m["unit"], "values": []})
            entry["values"].append((run.get("seed"), m["value"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent, change):
    by_seed = {}
    for seed, value in parent:
        by_seed.setdefault(seed, []).append(value)
    matched = []
    rest_parent = [v for _, v in parent]
    rest_change = []
    for seed, value in change:
        if by_seed.get(seed):
            p = by_seed[seed].pop(0)
            rest_parent.remove(p)
            matched.append((p, value))
        else:
            rest_change.append(value)
    matched += list(zip(rest_parent, rest_change))
    return matched


def verdict(pv, cv, matched, sign, bound):
    """One row's verdict; see the module docstring."""
    p_q1, p_med, p_q3 = quartiles(pv)
    _, c_med, _ = quartiles(cv)
    wins = sum(1 for p, c in matched if sign * (c - p) > 0)
    losses = sum(1 for p, c in matched if sign * (c - p) < 0)
    n = len(matched)
    spread = p_q3 - p_q1
    diff = sign * (c_med - p_med)  # > 0: change better
    if n and wins / n >= 0.9 and diff > spread:
        result = "improved"
    elif bound is not None:
        scale = abs(p_med) if p_med else 1.0
        all_better = all(sign * (c - p) > 0 for c in cv for p in pv)
        if -diff > bound * scale and spread <= bound * scale:
            result = "regressed"
        elif spread > bound * scale and not all_better:
            result = "unresolved"
        else:
            result = "unchanged"
    elif n and losses / n >= 0.9 and -diff > spread:
        result = "regressed"
    else:
        result = "unchanged"
    if result in ("improved", "regressed") and n < MIN_PAIRS:
        result = "unresolved"
    return result, (wins / n if n else 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--benchmark",
                    default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"]: m["better"] == "higher"
              for m in bench["end_to_end"] + bench["per_layer"]}

    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    if not parent_runs or not change_runs:
        print("no run JSONs found on one side", file=sys.stderr)
        return 2
    parent, change = series(parent_runs), series(change_runs)

    header = (f"{'workload':13} {'metric':34} {'unit':6} "
              f"{'parent median [q1, q3]':34} {'change median [q1, q3]':34} "
              f"{'pairs':>5} {'wins':>5}  verdict")
    print(header)
    print("-" * len(header))
    status = 0
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        pv = [v for _, v in parent[key]["values"]]
        cv = [v for _, v in change[key]["values"]]
        sign = 1 if higher.get(name, False) else -1
        matched = pairs(parent[key]["values"], change[key]["values"])
        result, share = verdict(pv, cv, matched, sign, bounds.get(name))
        if result == "regressed" and name in bounds:
            status = 1
        p_q1, p_med, p_q3 = quartiles(pv)
        c_q1, c_med, c_q3 = quartiles(cv)
        print(f"{workload:13} {name:34} {parent[key]['unit']:6} "
              f"{p_med:12.4g} [{p_q1:9.4g}, {p_q3:9.4g}] "
              f"{c_med:12.4g} [{c_q1:9.4g}, {c_q3:9.4g}] "
              f"{len(matched):5d} {share:5.2f}  {result}")

    print()
    print("failed requests (failed / attempted):")
    for workload in sorted({r["workload"] for r in parent_runs + change_runs}):
        def failures(runs):
            a = sum(r["attempted"] for r in runs if r["workload"] == workload)
            f = sum(r["failed"] for r in runs if r["workload"] == workload)
            return f, a
        pf, pa = failures(parent_runs)
        cf, ca = failures(change_runs)
        worse = cf / max(ca, 1) > pf / max(pa, 1)
        if worse:
            status = 1
        print(f"  {workload:13} parent {pf}/{pa}  change {cf}/{ca}"
              f"{'  MORE FAILURES' if worse else ''}")
    return status


if __name__ == "__main__":
    sys.exit(main())
