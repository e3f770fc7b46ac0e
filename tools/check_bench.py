#!/usr/bin/env python3
"""Bench gate over the BENCH_*.json artifacts.

Compares the JSON-lines bench artifacts of the current run against the
committed snapshots in bench/baselines/. Rows are joined per bench on
stable keys (workload + engine + threads, mode + clients + hot fraction,
...).

Two kinds of bench:

* Wall-clock benches (enum, exec, advisor) are warn-only. Each watched
  metric is checked against the baseline with a relative tolerance:
  latency-style metrics may not grow past it, rate-style metrics may not
  shrink past it. Regressions are reported as GitHub `::warning::`
  annotations (rendered on the workflow run) and a human-readable summary,
  never as a failure: shared CI runners make wall-clock numbers too noisy
  to fail a build on.
* Deterministic benches (schemes, correlated, and the Fig. 11 / Fig. 13
  reproductions) are exact. They simulate fixed failure traces or count
  pruned plans, so every row must equal its baseline row field for field,
  to the last digit, with no row missing or added. A mismatch is
  reported as an `::error::` annotation and the script exits 1.

Usage:
  python3 tools/check_bench.py --baseline-dir bench/baselines \
      --current-dir bench-json [--tolerance 0.25]
  python3 tools/check_bench.py --self-test

Missing files or benches are skipped with a note (a new bench has no
baseline yet; commit one under bench/baselines/ to start tracking it).
"""

import argparse
import json
import math
import os
import sys
import tempfile

# Per-bench comparison spec: which row fields form the join key, and either
# `exact` (every row equals its baseline row field for field) or the
# metrics to watch. Direction 'higher_bad' = current may not exceed
# baseline * (1 + tol); 'lower_bad' = current may not fall below
# baseline * (1 - tol).
SPECS = {
    "advisor": {
        "keys": ("mode", "clients", "hot_fraction"),
        "metrics": {
            "p50_us": "higher_bad",
            "p99_us": "higher_bad",
            "hit_rate": "lower_bad",
            "p50_speedup_vs_cold": "lower_bad",
        },
    },
    # Model accuracy and simulated makespans over fixed trace seeds:
    # deterministic, so any change is a behaviour change.
    "correlated": {
        "keys": ("mean_interval", "fanout"),
        "exact": True,
    },
    "schemes": {
        "keys": ("scale", "scheme"),
        "exact": True,
    },
    # Scheme overheads on fixed traces (Fig. 11) and pruned-plan shares
    # (Fig. 13) of the TPC-H model: deterministic like the two above.
    "fig11_varying_mtbf": {
        "keys": ("cluster",),
        "exact": True,
    },
    "fig13_pruning": {
        "keys": ("rules", "cluster"),
        "exact": True,
    },
    "enum": {
        "keys": ("workload", "threads"),
        "metrics": {
            "seconds": "higher_bad",
            "speedup_vs_1": "lower_bad",
        },
    },
    # Row-engine and batch rows of one workload share a thread count, as
    # do the per-operator profile rows; engine and op keep them apart
    # (absent fields join as None).
    "exec": {
        "keys": ("workload", "engine", "op", "threads"),
        "metrics": {
            "seconds": "higher_bad",
            "speedup_vs_1": "lower_bad",
        },
    },
}


def load_rows(path):
    """Parse a JSON-lines bench file into data rows (type == 'row')."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"note: {path}:{line_no}: unparseable line ({e})")
                continue
            if record.get("type") == "row":
                rows.append(record)
    return rows


def row_key(row, keys):
    return tuple(row.get(k) for k in keys)


def row_label(spec, key):
    return ", ".join(
        f"{k}={v}" for k, v in zip(spec["keys"], key) if v is not None)


def compare_exact(name, baseline_rows, current_rows):
    """Return a list of mismatch message strings (exact benches)."""
    spec = SPECS[name]
    mismatches = []
    baseline_by_key = {row_key(r, spec["keys"]): r for r in baseline_rows}
    current_by_key = {row_key(r, spec["keys"]): r for r in current_rows}
    for key, base in baseline_by_key.items():
        label = row_label(spec, key)
        cur = current_by_key.get(key)
        if cur is None:
            mismatches.append(f"{name} [{label}]: row missing")
            continue
        for field in sorted(set(base) | set(cur)):
            if base.get(field) != cur.get(field):
                mismatches.append(
                    f"{name} [{label}]: {field} {cur.get(field)!r} vs "
                    f"baseline {base.get(field)!r}")
    for key in current_by_key:
        if key not in baseline_by_key:
            mismatches.append(
                f"{name} [{row_label(spec, key)}]: row not in baseline")
    return mismatches


def compare_bench(name, baseline_rows, current_rows, tolerance):
    """Return a list of regression message strings (tolerance benches)."""
    spec = SPECS[name]
    regressions = []
    baseline_by_key = {row_key(r, spec["keys"]): r for r in baseline_rows}
    for cur in current_rows:
        key = row_key(cur, spec["keys"])
        base = baseline_by_key.get(key)
        if base is None:
            continue  # new sweep point: nothing to compare against
        label = row_label(spec, key)
        for metric, direction in spec["metrics"].items():
            if metric not in base or metric not in cur:
                continue
            b, c = float(base[metric]), float(cur[metric])
            if b <= 0.0:
                continue  # degenerate baseline (e.g. speedup on cold rows)
            if direction == "higher_bad" and c > b * (1.0 + tolerance):
                regressions.append(
                    f"{name} [{label}]: {metric} {c:.3g} vs baseline "
                    f"{b:.3g} (+{(c / b - 1.0) * 100.0:.0f}%, "
                    f"tolerance {tolerance * 100.0:.0f}%)")
            elif direction == "lower_bad" and c < b * (1.0 - tolerance):
                regressions.append(
                    f"{name} [{label}]: {metric} {c:.3g} vs baseline "
                    f"{b:.3g} ({(c / b - 1.0) * 100.0:.0f}%, "
                    f"tolerance {tolerance * 100.0:.0f}%)")
    return regressions


def run_compare(baseline_dir, current_dir, tolerance):
    any_compared = False
    all_regressions = []
    all_mismatches = []
    for name in sorted(SPECS):
        baseline_path = os.path.join(baseline_dir, f"BENCH_{name}.json")
        current_path = os.path.join(current_dir, f"BENCH_{name}.json")
        if not os.path.exists(current_path):
            print(f"note: {current_path} not present, skipping {name}")
            continue
        if not os.path.exists(baseline_path):
            print(f"note: no baseline for {name} "
                  f"(commit one under {baseline_dir}/ to track it)")
            continue
        any_compared = True
        if SPECS[name].get("exact"):
            mismatches = compare_exact(name, load_rows(baseline_path),
                                       load_rows(current_path))
            all_mismatches.extend(mismatches)
            if not mismatches:
                print(f"ok: {name} identical to baseline")
            continue
        regressions = compare_bench(name, load_rows(baseline_path),
                                    load_rows(current_path), tolerance)
        if regressions:
            all_regressions.extend(regressions)
        else:
            print(f"ok: {name} within {tolerance * 100.0:.0f}% of baseline")
    for msg in all_regressions:
        # GitHub annotation (warn-only) + plain line for local runs.
        print(f"::warning title=bench regression::{msg}")
        print(f"REGRESSION (warn-only): {msg}")
    for msg in all_mismatches:
        print(f"::error title=bench identity::{msg}")
        print(f"MISMATCH: {msg}")
    if not any_compared:
        print("note: nothing compared")
    print(f"checked against {baseline_dir}: "
          f"{len(all_regressions)} warn-only regression(s), "
          f"{len(all_mismatches)} exact mismatch(es)")
    return 1 if all_mismatches else 0


def self_test():
    """Exercise the comparison logic on synthetic rows."""
    base = [{
        "type": "row", "mode": "cached", "clients": 4, "hot_fraction": 0.8,
        "p50_us": 10.0, "p99_us": 100.0, "hit_rate": 0.9,
        "p50_speedup_vs_cold": 8.0,
    }]
    # Identical rows: no regressions.
    assert compare_bench("advisor", base, [dict(base[0])], 0.25) == []
    # p99 +60%: flagged.
    worse = dict(base[0], p99_us=160.0)
    found = compare_bench("advisor", base, [worse], 0.25)
    assert len(found) == 1 and "p99_us" in found[0], found
    # hit_rate collapse: flagged.
    cold = dict(base[0], hit_rate=0.4)
    found = compare_bench("advisor", base, [cold], 0.25)
    assert len(found) == 1 and "hit_rate" in found[0], found
    # Within tolerance: clean.
    noisy = dict(base[0], p50_us=11.5, hit_rate=0.85)
    assert compare_bench("advisor", base, [noisy], 0.25) == []
    # Different join key: ignored, not compared against the wrong row.
    other = dict(base[0], clients=8, p99_us=1e9)
    assert compare_bench("advisor", base, [other], 0.25) == []
    # enum spec joins on workload/threads.
    ebase = [{"type": "row", "workload": "q5", "threads": 4,
              "seconds": 1.0, "speedup_vs_1": 3.0}]
    eworse = [dict(ebase[0], speedup_vs_1=2.0)]
    found = compare_bench("enum", ebase, eworse, 0.25)
    assert len(found) == 1 and "speedup_vs_1" in found[0], found
    # exec spec joins on engine too: a row-engine and a batch row of one
    # workload at one thread count are two sweep points, not one.
    xbase = [{"type": "row", "workload": "vec", "engine": "row",
              "threads": 1, "seconds": 0.6},
             {"type": "row", "workload": "vec", "engine": "batch",
              "threads": 1, "seconds": 0.4}]
    assert compare_bench("exec", xbase, [dict(r) for r in xbase], 0.25) == []
    found = compare_bench("exec", xbase, [dict(xbase[1], seconds=0.6)], 0.25)
    assert len(found) == 1 and "engine=batch" in found[0], found
    # Exact specs: identical rows pass; a last-digit change, a new field,
    # a missing row or an extra row each fail.
    sbase = [{"type": "row", "scale": 0.5, "scheme": "wal",
              "makespan_seconds": 780.17213156444484, "aborted": 0}]
    assert compare_exact("schemes", sbase, [dict(sbase[0])]) == []
    last_digit = math.nextafter(sbase[0]["makespan_seconds"], math.inf)
    found = compare_exact(
        "schemes", sbase, [dict(sbase[0], makespan_seconds=last_digit)])
    assert len(found) == 1 and "makespan_seconds" in found[0], found
    found = compare_exact("schemes", sbase, [dict(sbase[0], extra=1)])
    assert len(found) == 1 and "extra" in found[0], found
    found = compare_exact("schemes", sbase, [])
    assert len(found) == 1 and "missing" in found[0], found
    found = compare_exact(
        "schemes", sbase, [dict(sbase[0]), dict(sbase[0], scheme="all-mat")])
    assert len(found) == 1 and "not in baseline" in found[0], found
    # run_compare exits 1 on an exact mismatch and 0 on identity, even
    # with a warn-only regression alongside.
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        cur_dir = os.path.join(tmp, "cur")
        os.makedirs(base_dir)
        os.makedirs(cur_dir)

        def write(directory, name, rows):
            with open(os.path.join(directory, f"BENCH_{name}.json"), "w",
                      encoding="utf-8") as f:
                for row in rows:
                    f.write(json.dumps(row) + "\n")

        cbase = [{"type": "row", "mean_interval": 250.0, "fanout": 1.0,
                  "err_ratio": 0.2}]
        write(base_dir, "correlated", cbase)
        write(base_dir, "advisor", base)
        write(cur_dir, "correlated", cbase)
        write(cur_dir, "advisor", [worse])
        assert run_compare(base_dir, cur_dir, 0.25) == 0
        write(cur_dir, "correlated", [dict(cbase[0], err_ratio=0.21)])
        assert run_compare(base_dir, cur_dir, 0.25) == 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="bench regression and identity check")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="bench-json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance before flagging (0.25 = "
                             "25%%)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_compare(args.baseline_dir, args.current_dir, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
