#!/usr/bin/env python3
"""Perf-regression gate for the tracked simulation-core benchmark.

Compares a fresh Release-mode bench_perf trajectory (BENCH_core.json)
against the committed one and fails when events/sec regresses by more
than the threshold (default 15%). The primary gate is the *geometric
mean* over all (kernel, config) cells — single-cell wall-clock numbers
swing by 10%+ between otherwise identical runs, while the geomean is
stable — plus a per-cell floor at twice the threshold to catch one
kernel cratering while the rest mask it.

    $ python3 tools/perf_gate.py BENCH_core.json build/BENCH_core.json

Every cell must appear in both files: a cell missing from the fresh run
(kernel removed) or present only in the fresh run (kernel added without
refreshing the committed baseline) fails the gate.

Besides the pass/fail verdict, the gate prints a per-cell delta table
(events/sec old -> new, %) and, when running under GitHub Actions
(GITHUB_STEP_SUMMARY set), appends the same table as markdown to the
job summary so a PR's perf movement is visible without opening logs.
Both outputs also carry one geomean row per *config* ("base",
"ltp-active", "mesh64-t1"): a change that only moves the routed-mesh
cells (or only the p2p cells) is visible as such instead of being
averaged into the overall number.
"""

import argparse
import difflib
import json
import math
import os
import sys

# Every run row must carry these to be comparable. Extra keys (the
# engine self-profile bench_perf stamps, ...) are fine and ignored.
REQUIRED_KEYS = ("kernel", "config", "completed", "eventsPerSec")


def load_runs(path):
    """Parse one BENCH_core.json into {(kernel, config): row}.

    Exits with a per-row diagnostic — which row, which keys are missing,
    which keys it does have — rather than letting a malformed or
    hand-edited file surface as a bare KeyError later.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "bench_core/v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list):
        sys.exit(f"{path}: no \"runs\" array")

    problems = []
    cells = {}
    for i, r in enumerate(runs):
        if not isinstance(r, dict):
            problems.append(f"runs[{i}]: not an object")
            continue
        missing = [k for k in REQUIRED_KEYS if k not in r]
        if missing:
            label = "/".join(str(r.get(k, "?")) for k in ("kernel",
                                                          "config"))
            problems.append(
                f"runs[{i}] ({label}): missing key(s) "
                f"{', '.join(missing)} — has {', '.join(sorted(r))}")
            continue
        key = (r["kernel"], r["config"])
        if key in cells:
            problems.append(
                f"runs[{i}]: duplicate cell {key[0]}/{key[1]}")
            continue
        cells[key] = r
    if problems:
        print(f"{path}: {len(problems)} malformed run row(s):",
              file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        sys.exit(1)
    return cells


def nearest_cell(key, candidates):
    """Best fuzzy match for a missing cell — catches renames."""
    if not candidates:
        return None
    names = {f"{k}/{c}": (k, c) for k, c in candidates}
    close = difflib.get_close_matches(f"{key[0]}/{key[1]}", names,
                                      n=1, cutoff=0.6)
    return names[close[0]] if close else None


def geomean_of(ratios):
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def write_github_summary(rows, geomean, config_means, limit, failures):
    """Append the delta table to the GitHub Actions job summary."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as f:
        f.write("### Perf gate: events/sec vs committed trajectory\n\n")
        f.write("| kernel | config | base ev/s | fresh ev/s | delta | |\n")
        f.write("|---|---|---:|---:|---:|---|\n")
        for kernel, config, base, fresh, note in rows:
            delta = 100.0 * (fresh / base - 1.0) if base > 0 else 0.0
            f.write(f"| {kernel} | {config} | {base:,.0f} | {fresh:,.0f} "
                    f"| {delta:+.1f}% | {note} |\n")
        for config, mean, n in config_means:
            f.write(f"| *geomean* | *{config}* |  |  | "
                    f"*{100.0 * (mean - 1.0):+.1f}%* | {n} cells |\n")
        if geomean is not None:
            verdict = "PASS" if not failures else "FAIL"
            f.write(f"\n**geomean ratio: {geomean:.3f}** "
                    f"(limit {limit:.3f}) — **{verdict}**\n")
        for failure in failures:
            f.write(f"- :x: {failure}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_core.json")
    ap.add_argument("fresh", help="freshly produced BENCH_core.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional geomean events/sec "
                         "regression; per-cell floor is 2x this "
                         "(default 0.15)")
    args = ap.parse_args()

    base = load_runs(args.baseline)
    fresh = load_runs(args.fresh)
    cell_floor = 1.0 - 2.0 * args.threshold

    failures = []
    for key in sorted(set(fresh) - set(base)):
        msg = (f"{key[0]}/{key[1]}: present only in the fresh run — "
               "refresh the committed baseline")
        near = nearest_cell(key, set(base) - set(fresh))
        if near:
            msg += (f" (did the committed cell {near[0]}/{near[1]} "
                    "get renamed?)")
        failures.append(msg)

    ratios = []
    ratios_by_config = {}  # config -> [ratio...]
    rows = []  # (kernel, config, base ev/s, fresh ev/s, note)
    print(f"{'kernel':<14}{'config':<12}{'base ev/s':>14}"
          f"{'fresh ev/s':>14}{'ratio':>8}{'delta':>9}")
    for key in sorted(base):
        kernel, config = key
        b = base[key]
        f = fresh.get(key)
        if f is None:
            msg = f"{kernel}/{config}: missing from fresh run"
            near = nearest_cell(key, set(fresh) - set(base))
            if near:
                msg += f" (closest fresh cell: {near[0]}/{near[1]})"
            failures.append(msg)
            continue
        if not f.get("completed", False):
            failures.append(f"{kernel}/{config}: did not complete")
            continue
        if b["eventsPerSec"] <= 0:
            continue
        ratio = f["eventsPerSec"] / b["eventsPerSec"]
        delta = f"{100.0 * (ratio - 1.0):+8.1f}%"
        ratios.append(ratio)
        ratios_by_config.setdefault(config, []).append(ratio)
        flag = "" if ratio >= cell_floor else "  << REGRESSION"
        print(f"{kernel:<14}{config:<12}{b['eventsPerSec']:>14.0f}"
              f"{f['eventsPerSec']:>14.0f}{ratio:>8.3f}{delta}{flag}")
        rows.append((kernel, config, b["eventsPerSec"], f["eventsPerSec"],
                     "REGRESSION" if ratio < cell_floor else ""))
        if ratio < cell_floor:
            failures.append(
                f"{kernel}/{config}: events/sec fell to {ratio:.3f}x "
                f"(per-cell floor {cell_floor:.3f}x)")

    # Per-config geomeans first (informational): the overall gate number
    # averages p2p and routed-mesh cells together, so a movement
    # confined to one engine path is only visible per config.
    config_means = []
    for config in sorted(ratios_by_config):
        rs = ratios_by_config[config]
        config_means.append((config, geomean_of(rs), len(rs)))
    if config_means:
        print()
        for config, mean, n in config_means:
            print(f"geomean [{config:<12}] {mean:>8.3f}  "
                  f"({n} cells, {100.0 * (mean - 1.0):+.1f}%)")

    geomean = None
    if ratios:
        geomean = geomean_of(ratios)
        print(f"\ngeomean events/sec ratio: {geomean:.3f} "
              f"(limit {1.0 - args.threshold:.3f})")
        if geomean < 1.0 - args.threshold:
            failures.append(
                f"geomean events/sec fell to {geomean:.3f}x "
                f"(limit {1.0 - args.threshold:.3f}x)")

    write_github_summary(rows, geomean, config_means, 1.0 - args.threshold,
                         failures)

    if failures:
        print(f"\nFAIL: {len(failures)} perf gate violation(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nOK: events/sec within the regression threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
