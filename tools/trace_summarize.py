#!/usr/bin/env python3
"""Summarize an LTP_TRACE Chrome-trace JSON file on the terminal.

The full trace is meant for ui.perfetto.dev; this renders the headline
numbers without leaving the shell:

  - per-category event counts (spans vs instants, total span ticks),
  - per-link utilization (the routed network's "grant" spans: busy
    ticks on each directed link over the traced interval),
  - optionally, a compact overview of an LTP_METRICS JSONL stream.

    $ python3 tools/trace_summarize.py trace.json [--metrics m.jsonl]
              [--top N]

Stdlib only. Expects the schema src/obs/trace.cc writes: "X" spans and
"i" instants with pid=node (engine events: pid=1000000), tid=0, args
{a0, a1}; link grants carry the destination node in a0.
"""

import argparse
import collections
import json
import sys


def fmt_table(headers, rows):
    """Render rows as a right-aligned (first column left) text table."""
    widths = [len(h) for h in headers]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    def fmt(row):
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        return "  ".join(cells).rstrip()
    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in srows)
    return "\n".join(lines)


def load_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read trace file: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: invalid trace JSON at line {e.lineno}, "
                 f"column {e.colno}: {e.msg} (truncated file? a run that "
                 f"crashed mid-flush leaves a partial trace)")
    if not isinstance(doc, dict):
        sys.exit(f"{path}: top level is {type(doc).__name__}, expected a "
                 f"JSON object — not a trace file?")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        sys.exit(f"{path}: no \"traceEvents\" array — not a trace file?")
    return doc, [e for e in events if e.get("ph") in ("X", "i")]


def category_table(events):
    spans = collections.Counter()
    instants = collections.Counter()
    span_ticks = collections.Counter()
    for e in events:
        cat = e.get("cat", "?")
        if e["ph"] == "X":
            spans[cat] += 1
            span_ticks[cat] += e.get("dur", 0)
        else:
            instants[cat] += 1
    rows = []
    for cat in sorted(set(spans) | set(instants)):
        rows.append([cat, spans[cat], instants[cat],
                     spans[cat] + instants[cat], span_ticks[cat]])
    rows.append(["total", sum(spans.values()), sum(instants.values()),
                 len(events), sum(span_ticks.values())])
    return fmt_table(["category", "spans", "instants", "events",
                      "span ticks"], rows)


def link_table(events, top):
    """Busy ticks per directed link from the link category's grants."""
    grants = [e for e in events
              if e.get("cat") == "link" and e.get("name") == "grant"]
    if not grants:
        return None
    t0 = min(e["ts"] for e in grants)
    t1 = max(e["ts"] + e.get("dur", 0) for e in grants)
    window = max(1, t1 - t0)
    links = collections.defaultdict(lambda: [0, 0])  # grants, busy
    for e in grants:
        entry = links[(e["pid"], e["args"]["a0"])]
        entry[0] += 1
        entry[1] += e.get("dur", 0)
    ranked = sorted(links.items(), key=lambda kv: -kv[1][1])
    rows = [[f"{src}->{dst}", n, busy, f"{100.0 * busy / window:.1f}%"]
            for (src, dst), (n, busy) in ranked[:top]]
    if len(ranked) > top:
        rows.append([f"... {len(ranked) - top} more links", "", "", ""])
    title = (f"link utilization over ticks [{t0}, {t1}] "
             f"(top {min(top, len(ranked))} of {len(ranked)})")
    return title + "\n" + fmt_table(["link", "grants", "busy ticks",
                                     "util"], rows)


def metrics_summary(path, top):
    samples = []
    try:
        f = open(path)
    except OSError as e:
        sys.exit(f"{path}: cannot read metrics file: {e.strerror or e}")
    with f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line:
                continue
            try:
                sample = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{i + 1}: bad JSONL line: {e} "
                         f"(truncated stream?)")
            if not isinstance(sample, dict) or "tick" not in sample:
                sys.exit(f"{path}:{i + 1}: not a metrics sample "
                         f"(no \"tick\" field)")
            samples.append(sample)
    if not samples:
        return f"{path}: no samples"
    out = [f"{len(samples)} samples over ticks "
           f"[{samples[0]['sinceTick']}, {samples[-1]['tick']}], "
           f"{sum(s.get('events', 0) for s in samples)} events executed"]
    totals = collections.Counter()
    for s in samples:
        totals.update(s.get("counters", {}))
    rows = [[name, total] for name, total
            in totals.most_common(top)]
    if len(totals) > top:
        rows.append([f"... {len(totals) - top} more counters", ""])
    out.append(fmt_table(["counter (summed deltas)", "total"], rows))
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="LTP_TRACE output (Chrome trace JSON)")
    ap.add_argument("--metrics", help="LTP_METRICS output (JSONL)")
    ap.add_argument("--top", type=int, default=12,
                    help="rows in the ranked tables (default 12)")
    args = ap.parse_args()

    doc, events = load_trace(args.trace)
    dropped = doc.get("otherData", {}).get("dropped", 0)
    print(f"{args.trace}: {len(events)} events, {dropped} dropped")
    print()
    print(category_table(events))
    links = link_table(events, args.top)
    if links:
        print()
        print(links)
    if args.metrics:
        print()
        print(metrics_summary(args.metrics, args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
