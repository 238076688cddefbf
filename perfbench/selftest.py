#!/usr/bin/env python3
"""Self-test of the repository benchmark (about a minute plus the build).

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks, at reduced length
(--smoke, whose numbers are not comparable with full runs):

1. BENCHMARK.json has the shape the benchmark format requires.
2. Every workload, untraced and traced, exits 0, is correct with no
   failed operation, and prints exactly the declared metrics with their
   units (run.py refuses anything else). End-to-end values are nonzero;
   predictor.calls is nonzero on p2p32-paper only.
3. Held-out seed: at seed 2 the seeded kernels (em3d, moldyn,
   unstructured, barnes) and the noc64 injectors really get other inputs
   than at seed 1, so each of their cell digests differs.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDED_KERNELS = ("em3d", "moldyn", "unstructured", "barnes")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(workload, seed, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                       timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        return None, []
    return json.loads(lines[-1]), lines


def cell_digests(lines):
    """{cell name: digest} from ltpbench's per-cell lines."""
    out = {}
    for line in lines:
        m = re.match(r"^cell \S+ (\S+) .*digest=([0-9a-f]+)", line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(len(names) == len(set(names)), "names are unique")
    check(all(NAME.match(n) for n in names), "names are well formed")
    check(all(UNIT.match(m["unit"])
              for m in spec["end_to_end"] + spec["per_layer"]),
          "units are well formed")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "each why is one short line")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values()), "bounds in (0, 0.25]")
    check(bounds.get("setup_s") == max(bounds.values()),
          "setup_s has the largest bound")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds in [1, 60]")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)

    digests = {}
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, lines = run(w, 1, trace)
            tag = f"{w} trace={trace}"
            check(result is not None, f"{tag}: run succeeds with the "
                                      "declared metrics and units")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  f"{tag}: correct, {result['attempted']} attempted, "
                  f"{result['failed']} failed")
            metrics = result["metrics"]
            if trace == 0:
                check(all(v["value"] > 0 for v in metrics.values()),
                      f"{tag}: every end-to-end metric is nonzero")
                digests[w] = cell_digests(lines)
            else:
                calls = metrics["predictor.calls"]["value"]
                want = w == "p2p32-paper"
                check((calls > 0) == want,
                      f"{tag}: predictor.calls = {calls:g}")

    for w, seeded in (("p2p32-paper", SEEDED_KERNELS),
                      ("mesh64-dor", SEEDED_KERNELS),
                      ("noc64-hotspot", ("hotspot",))):
        result, lines = run(w, 2, 0)
        if result is None or w not in digests:
            check(False, f"{w}: held-out seed run")
            continue
        held = cell_digests(lines)
        changed = sorted(c for c in held if held[c] != digests[w].get(c))
        print(f"     {w}: cells whose digest changed at seed 2: "
              f"{', '.join(changed) or 'none'}")
        cells = [c for c in held if c.split("/")[0] in seeded]
        same = [c for c in cells if c not in changed]
        check(cells and not same,
              f"{w}: seeded cells differ at the held-out seed"
              + (f" (unchanged: {', '.join(same)})" if same else ""))

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
