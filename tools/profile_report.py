#!/usr/bin/env python3
"""Pretty-print (and schema-check) the observability JSON outputs.

Input files, auto-detected by their top-level keys:

  * a profile file written by a bench run with `--profile-json <path>`
    ({"bench": ..., "profiles": [...]}) — one QueryProfile JSON object
    per measured (query, config), rendered as an EXPLAIN-ANALYZE-style
    tree with per-pipeline wall time, consume time, rows, block pruning
    and per-worker morsel counts;
  * a bench results file written with `--json <path>` — its "metrics"
    section (obs::MetricsRegistry::ToJson()) is rendered as a sorted
    metric table with histogram p50/p95/p99;
  * a trace dump (obs::TraceRing::DumpJsonl(), one JSON object per line)
    — rendered as a chronological event table.

`--check-schema tools/profile_schema.json` validates every profile
object against the checked-in schema stub and exits non-zero on any
violation; the CI bench-smoke job runs exactly that against a freshly
profiled query. Only the JSON-Schema subset used by the stub is
implemented (type / required / properties / items) — this is a format
guard, not a general validator.

Usage:
  profile_report.py FILE [--check-schema SCHEMA] [--quiet]
"""

import argparse
import json
import sys


# ---------------------------------------------------------------------------
# Minimal structural schema validation (type/required/properties/items)
# ---------------------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def validate(value, schema, path="$"):
    """Returns a list of violation strings (empty = valid)."""
    errors = []
    expected = schema.get("type")
    if expected is not None:
        py = _TYPES[expected]
        # bool is a subclass of int in Python; don't let true pass as 1.
        if not isinstance(value, py) or (
                expected in ("number", "integer") and isinstance(value, bool)):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(value).__name__}")
            return errors
    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                errors.append(f"{path}: missing required member '{req}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                errors.extend(validate(value[key], sub, f"{path}.{key}"))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]"))
    return errors


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def ms(ns):
    return f"{ns / 1e6:.2f} ms"


def count(n):
    if n >= 1e9:
        return f"{n / 1e9:.2f}G"
    if n >= 1e6:
        return f"{n / 1e6:.2f}M"
    if n >= 1e4:
        return f"{n / 1e3:.1f}k"
    return str(n)


def print_span(span, indent):
    print(f"{indent}span {span['name']}  wall {ms(span['wall_ns'])}")
    for child in span.get("children", []):
        print_span(child, indent + "  ")


def print_profile(p):
    header = p["query"]
    if p.get("config"):
        header += f" [{p['config']}]"
    print(f"{header}  threads={p['threads']}  wall {ms(p['wall_ns'])}")
    for pl in p.get("pipelines", []):
        print(f"  pipeline {pl['name']}  wall {ms(pl['wall_ns'])}  "
              f"rows {count(pl['rows_in'])} -> {count(pl['rows_out'])}  "
              f"morsels {pl['morsels']}  batches {pl['batches']} "
              f"({pl['code_batches']} coded)")
        print(f"    blocks: {pl['chunks_scanned']} scanned, "
              f"{pl['chunks_pruned']} pruned "
              f"({pl['evicted_chunks_pruned']} evicted, summary-only), "
              f"pins {pl['pins']}, archive reloads {pl['archive_reloads']}")
        print(f"    consume {ms(pl.get('consume_ns', 0))}")
        if pl.get("merge_ns", 0) > 0:
            print(f"    merge {ms(pl['merge_ns'])}")
        for w in pl.get("workers", []):
            print(f"    worker {w['slot']}: morsels {w['morsels']}  "
                  f"batches {w['batches']}  rows {count(w['rows'])}  "
                  f"busy {ms(w['busy_ns'])}  "
                  f"consume {ms(w.get('consume_ns', 0))}")
    for span in p.get("spans", []):
        print_span(span, "  ")


def print_metrics(metrics):
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    width = max((len(n) for d in (counters, gauges, histograms)
                 for n in d), default=0)
    for name in sorted(counters):
        print(f"  {name:<{width}}  counter    {counters[name]}")
    for name in sorted(gauges):
        print(f"  {name:<{width}}  gauge      {gauges[name]}")
    for name in sorted(histograms):
        h = histograms[name]
        print(f"  {name:<{width}}  histogram  count={h['count']} "
              f"p50={h['p50']:.3g} p95={h['p95']:.3g} p99={h['p99']:.3g}")


def print_trace(events):
    for e in events:
        print(f"  #{e['seq']:<6} {e['ts_ns'] / 1e6:12.3f} ms  "
              f"{e['cat']:<12} {e['name']:<16} a={e['a']} b={e['b']}")


# ---------------------------------------------------------------------------


def load(path):
    """One JSON document, or a list of per-line documents (trace JSONL)."""
    with open(path) as fp:
        text = fp.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        events = [json.loads(line) for line in text.splitlines() if line]
        return {"trace": events}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", help="profile / bench-results / trace JSON file")
    ap.add_argument("--check-schema", metavar="SCHEMA",
                    help="validate profile objects against this schema stub")
    ap.add_argument("--quiet", action="store_true",
                    help="schema check only, no pretty-printing")
    args = ap.parse_args()

    data = load(args.file)
    profiles = data.get("profiles", [])
    rc = 0

    if args.check_schema:
        with open(args.check_schema) as fp:
            schema = json.load(fp)
        if not profiles:
            sys.exit(f"error: no profiles in {args.file} to check")
        errors = []
        for i, p in enumerate(profiles):
            errors.extend(validate(p, schema, path=f"profiles[{i}]"))
        for err in errors:
            print(f"SCHEMA VIOLATION {err}", file=sys.stderr)
        if errors:
            return 1
        print(f"schema OK: {len(profiles)} profile(s) match "
              f"{args.check_schema}")

    if args.quiet:
        return rc

    for p in profiles:
        print_profile(p)
        print()
    if "metrics" in data:
        print("metrics:")
        print_metrics(data["metrics"])
    if "trace" in data:
        print(f"trace ({len(data['trace'])} events):")
        print_trace(data["trace"])
    if not profiles and "metrics" not in data and "trace" not in data:
        sys.exit(f"error: {args.file} has no profiles, metrics, or trace "
                 "events")
    return rc


if __name__ == "__main__":
    sys.exit(main())
