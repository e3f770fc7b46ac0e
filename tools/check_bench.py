#!/usr/bin/env python3
"""Bench gate over the BENCH_*.json artifacts.

Compares the JSON-lines bench artifacts of the current run against the
committed snapshots in bench/baselines/. Every bench here is
deterministic: it simulates fixed failure traces or counts pruned plans.
Rows are joined per bench on stable keys (scale + scheme, cluster, ...),
and every row must equal its baseline row field for field, to the last
digit, with no row missing or added. A mismatch is reported as an
`::error::` annotation and the script exits 1.

Usage:
  python3 tools/check_bench.py --baseline-dir bench/baselines \
      --current-dir bench-json
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

# Per-bench join key: the row fields that identify one row.
SPECS = {
    # Model accuracy and simulated makespans over fixed trace seeds.
    "correlated": ("mean_interval", "fanout"),
    "schemes": ("scale", "scheme"),
    # Scheme overheads on fixed traces (Fig. 11), cost-model accuracy
    # (Fig. 12: per-MTBF picks, per-configuration rows keyed by config
    # string, and the summary row) and pruned-plan shares (Fig. 13) of
    # the TPC-H model.
    "fig11_varying_mtbf": ("cluster",),
    "fig12_accuracy": ("section", "mtbf", "config"),
    "fig13_pruning": ("rules", "cluster"),
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


def row_label(keys, key):
    return ", ".join(f"{k}={v}" for k, v in zip(keys, key) if v is not None)


def compare_exact(name, baseline_rows, current_rows):
    """Return a list of mismatch message strings."""
    keys = SPECS[name]
    mismatches = []
    baseline_by_key = {row_key(r, keys): r for r in baseline_rows}
    current_by_key = {row_key(r, keys): r for r in current_rows}
    for key, base in baseline_by_key.items():
        label = row_label(keys, key)
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
                f"{name} [{row_label(keys, key)}]: row not in baseline")
    return mismatches


def run_compare(baseline_dir, current_dir):
    any_compared = False
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
        mismatches = compare_exact(name, load_rows(baseline_path),
                                   load_rows(current_path))
        all_mismatches.extend(mismatches)
        if not mismatches:
            print(f"ok: {name} identical to baseline")
    for msg in all_mismatches:
        print(f"::error title=bench identity::{msg}")
        print(f"MISMATCH: {msg}")
    if not any_compared:
        print("note: nothing compared")
    print(f"checked against {baseline_dir}: "
          f"{len(all_mismatches)} exact mismatch(es)")
    return 1 if all_mismatches else 0


def self_test():
    """Exercise the comparison logic on synthetic rows."""
    # Identical rows pass; a last-digit change, a new field, a missing row
    # or an extra row each fail.
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
    # Fig. 12 rows join on section plus config or MTBF, not on file order:
    # the same rows in another order pass, and a changed pick fails.
    fbase = [{"type": "row", "section": "config", "config": "{m: 9,11}",
              "estimated_s": 1239.4, "actual_s": 1459.9},
             {"type": "row", "section": "config", "config": "{m: 7,9,11}",
              "estimated_s": 1228.5, "actual_s": 1596.8},
             {"type": "row", "section": "mtbf", "mtbf": "1 hour",
              "pick": "{m: 7,9,11}"}]
    assert compare_exact("fig12_accuracy", fbase, fbase[::-1]) == []
    found = compare_exact("fig12_accuracy", fbase,
                          fbase[:2] + [dict(fbase[2], pick="{m: 9,11}")])
    assert len(found) == 1 and "pick" in found[0], found
    # run_compare exits 1 on a mismatch and 0 on identity.
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
        write(cur_dir, "correlated", cbase)
        assert run_compare(base_dir, cur_dir) == 0
        write(cur_dir, "correlated", [dict(cbase[0], err_ratio=0.21)])
        assert run_compare(base_dir, cur_dir) == 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description="bench identity check")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--current-dir", default="bench-json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return run_compare(args.baseline_dir, args.current_dir)


if __name__ == "__main__":
    sys.exit(main())
