#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds perfbench/ (the
simulator library from src/ plus the ltpbench program) into
.bench_build/perfbench, runs ltpbench with every LTP_* variable removed
from its environment, checks that the result carries exactly the metrics
BENCHMARK.json declares, and prints ltpbench's report, a run manifest,
and the result JSON as the last line. `--workload all` runs every
workload in turn and ends with one combined JSON line.

--smoke shortens every cell (the self-test uses it). A traced run writes
its spans to .bench_build/spans/<workload>-seed<N>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ltpbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if r.returncode != 0:
            fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode() + b"\0")
                h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() or "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_one(spec, args, workload):
    """Run ltpbench once; returns (report lines, result dict, raw line)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = (ROOT / ".bench_build" / "spans" /
                 f"{workload}-seed{args.seed}.json")
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("LTP_")}
    load_start = os.getloadavg()
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=RUN_TIMEOUT_S, cwd=str(ROOT))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: ltpbench exceeded {RUN_TIMEOUT_S} s")
    load_end = os.getloadavg()
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload}: ltpbench exited with {r.returncode}")
    raw = lines[-1]
    try:
        result = json.loads(raw)
    except json.JSONDecodeError:
        fail(f"{workload}: last line is not JSON: {raw!r}")

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    want = expected_metrics(spec, args.trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"{workload}: metrics differ from BENCHMARK.json: missing "
             f"{missing}, undeclared {extra}, unit mismatch {units}")

    build_line = next((l for l in lines if l.startswith("build ")), "")
    manifest = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build": build_line[len("build "):],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in load_end],
    }
    report = lines[:-1] + ["manifest " + json.dumps(manifest)]
    return report, result, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative", 2)

    if not (ROOT / "src" / "dsm" / "system.hh").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names} or all", 2)

    start = time.monotonic()
    build()
    print(f"build_s {time.monotonic() - start:.1f}", file=sys.stderr)

    if args.workload != "all":
        report, _, raw = run_one(spec, args, args.workload)
        print("\n".join(report))
        print(raw)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        report, result, _ = run_one(spec, args, w)
        print("\n".join(report))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{w}/{k}"] = v
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
