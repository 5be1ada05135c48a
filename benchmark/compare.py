#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py BASE_DIR CHANGE_DIR   # parent vs change
    python3 benchmark/compare.py --aa DIR_A DIR_B      # two sets, same commit
    python3 benchmark/compare.py --summary DIR         # medians/quartiles JSON

Each DIR holds result files written by benchmark/run.sh (build-bench/results/
<workload>.json, one per invocation; copy each invocation's directory aside,
or point PUFFER_BENCH_RESULTS at a fresh directory per invocation). Files are
read recursively and paired in sorted path order, so name the invocations of
both sides alike and alternate which side runs first.

For every workload and end-to-end metric:
  regression  the change's median is worse than the base median by more than
              the metric's bound (relative), with spread within the bound;
  unresolved  a side's spread (IQR / median) exceeds the bound, unless every
              change run is better than every base run ("better, every run");
  gain        at least 10 pairs, the change wins 9 of 10 of them (ties count
              for neither), and the medians differ by more than the base IQR;
  same        otherwise.
--aa fails when any metric reads as a regression, a gain or better-every-run,
or its medians differ by more than the bound. Traced results are compared
per layer (medians only, no verdicts) to show where a change moved time.
Exit status: 0 clean, 1 regression / A-A disagreement / failed audits, 2 usage.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(directory):
    """{(workload, traced): [result, ...]} in sorted path order."""
    runs = {}
    paths = []
    for base, _, files in os.walk(directory):
        paths += [os.path.join(base, name) for name in files
                  if name.endswith(".json")]
    for path in sorted(paths):
        try:
            with open(path) as f:
                result = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(result, dict) or "provenance" not in result:
            continue  # a Chrome trace or some other JSON file
        key = (result["workload"], bool(result["trace"]))
        runs.setdefault(key, []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def verdict(base, change, better, bound):
    """Verdict for one metric and workload, plus the relative median change
    (positive = worse)."""
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    sign = -1.0 if better == "higher" else 1.0
    worse = sign * (cmed - bmed) / bmed if bmed else 0.0
    spread = max((b3 - b1) / bmed if bmed else 0.0,
                 (c3 - c1) / cmed if cmed else 0.0)
    is_better = (lambda c, b: c > b) if better == "higher" else (
        lambda c, b: c < b)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if is_better(c, b))
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(cmed - bmed) > (b3 - b1)):
        return "gain", worse
    if spread > bound:
        if all(is_better(c, b) for c in change for b in base):
            return "better, every run", worse
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    return "same", worse


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def audit_failures(runs):
    return sum(1 for results in runs.values() for r in results
               if not r.get("correct", False) or r.get("failed", 0) > 0)


def compare(base_dir, change_dir, aa):
    spec = load_spec()
    base, change = load_results(base_dir), load_results(change_dir)
    status = 0
    for side, runs in (("base", base), ("change", change)):
        failures = audit_failures(runs)
        if failures:
            print(f"{side}: {failures} run(s) failed their output audit")
            status = 1
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':17} {'metric':16} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'bound':>6}  verdict")
    for workload in workloads:
        b_runs = base.get((workload, False), [])
        c_runs = change.get((workload, False), [])
        if not b_runs or not c_runs:
            print(f"{workload:17} (no results on one side)")
            if aa:
                status = 1
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, c = values_of(b_runs, name), values_of(c_runs, name)
            if not b or not c:
                continue
            result, worse = verdict(b, c, metric["better"], metric["bound"])
            if aa and (result != "same" or abs(worse) > metric["bound"]):
                status = 1
            if not aa and result == "regression":
                status = 1
            print(f"{workload:17} {name:16} {fmt(b):>34} {fmt(c):>34} "
                  f"{100 * worse:+7.2f}% {metric['bound']:6.2f}  {result}")
    print_layers(spec, base, change)
    return status


def print_layers(spec, base, change):
    names = [m["name"] for m in spec["per_layer"]]
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs = base.get((workload, True), [])
        c_runs = change.get((workload, True), [])
        if not b_runs or not c_runs:
            continue
        print(f"\nper-layer medians, {workload} (traced runs: "
              f"{len(b_runs)} base, {len(c_runs)} change)")
        for name in names:
            b, c = values_of(b_runs, name), values_of(c_runs, name)
            if not b or not c:
                continue
            bmed, cmed = statistics.median(b), statistics.median(c)
            if bmed == 0 and cmed == 0:
                continue
            delta = f"{100 * (cmed - bmed) / bmed:+8.2f}%" if bmed else ""
            print(f"  {name:32} {bmed:14.6g} {cmed:14.6g} {delta}")


def summary(directory):
    spec = load_spec()
    runs = load_results(directory)
    out = {"end_to_end": {}, "per_layer": {}}
    if runs:
        provenance = dict(next(iter(runs.values()))[0]["provenance"])
        for per_run in ("seed", "config", "config_fingerprint"):
            provenance.pop(per_run, None)
        out["provenance"] = provenance
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced, section, metrics in (
                (False, "end_to_end", spec["end_to_end"]),
                (True, "per_layer", spec["per_layer"])):
            results = runs.get((workload, traced), [])
            if not results:
                continue
            rows = {}
            for metric in metrics:
                values = values_of(results, metric["name"])
                if not any(values):
                    continue  # absent, or a layer this workload never runs
                q1, med, q3 = quartiles(values)
                rows[metric["name"]] = {
                    "median": med, "q1": q1, "q3": q3,
                    "iqr_over_median": (q3 - q1) / med if med else 0.0,
                    "n": len(values), "unit": metric["unit"]}
            out[section][workload] = rows
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


def main(argv):
    args = argv[1:]
    if len(args) == 2 and args[0] == "--summary":
        return summary(args[1])
    aa = bool(args) and args[0] == "--aa"
    if aa:
        args = args[1:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(args[0], args[1], aa)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
