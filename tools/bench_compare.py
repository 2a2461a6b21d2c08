#!/usr/bin/env python3
"""Diff two bench JSON files (or directories of BENCH_*.json) and flag
performance regressions.

The bench binaries write one JSON file each when run with `--json <path>`
(see bench/bench_common.h); every result is keyed by (bench, name, config)
and carries a median ns/op. This tool pairs the results of a baseline run
with a candidate run and fails (exit 1) when any pair regressed by more
than the threshold — unless --warn-only is given, which is the right mode
on noisy shared CI runners.

Usage:
  bench_compare.py BASELINE CANDIDATE [--threshold 25] [--warn-only]

BASELINE and CANDIDATE are either single JSON files or directories, in
which case every BENCH_*.json inside is loaded.
"""

import argparse
import glob
import json
import os
import sys


def find_files(path):
    """Bench JSON files at `path`; empty when the path has none."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
        if not files:
            files = sorted(glob.glob(os.path.join(path, "*.json")))
        return files
    return [path] if os.path.exists(path) else []


def load_results(path):
    """Returns ({(bench, name, config): result_dict}, has_metrics)."""
    files = find_files(path)
    if not files:
        sys.exit(f"error: no bench JSON files found under {path}")
    results = {}
    has_metrics = False
    for f in files:
        with open(f) as fp:
            data = json.load(fp)
        bench = data.get("bench", os.path.basename(f))
        has_metrics = has_metrics or "metrics" in data
        for r in data.get("results", []):
            key = (bench, r["name"], r["config"])
            if key in results:
                print(f"warning: duplicate result {key} in {f}",
                      file=sys.stderr)
            results[key] = dict(r, quick=data.get("quick", False),
                                threads=data.get("threads", 1))
    return results, has_metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline JSON file or directory")
    ap.add_argument("candidate", help="candidate JSON file or directory")
    ap.add_argument("--threshold", type=float, default=25.0,
                    help="regression threshold in percent (default 25)")
    ap.add_argument("--latency-threshold", type=float, default=None,
                    help="separate threshold for latency-percentile entries "
                         "(config p50/p95/p99, e.g. bench_serve's per-class "
                         "serving latencies); tail latency on shared runners "
                         "is noisier than a scan median, so this is usually "
                         "looser. Default: same as --threshold")
    ap.add_argument("--warn-only", action="store_true",
                    help="report regressions but exit 0 (shared runners)")
    ap.add_argument("--baseline-optional", action="store_true",
                    help="when the baseline is absent (fresh cache / first "
                         "run), print a note and exit 0 instead of failing")
    args = ap.parse_args()

    if args.baseline_optional and not find_files(args.baseline):
        print(f"no baseline under {args.baseline}: recording only, nothing "
              "to compare — this run's results become the next baseline")
        return 0

    base, base_metrics = load_results(args.baseline)
    cand, cand_metrics = load_results(args.candidate)
    if cand_metrics and not base_metrics:
        # Cached baselines can predate the "metrics" section of the bench
        # JSON (added with the observability subsystem). Timings still
        # compare fine — the section is informational and never diffed.
        print("note: no metrics section in baseline (predates "
              "observability); comparing timings only")

    regressions = []
    improvements = []
    compared = 0
    for key, c in sorted(cand.items()):
        b = base.get(key)
        if b is None:
            continue
        if b.get("quick") != c.get("quick"):
            print(f"warning: {key} mixes quick and full-mode numbers; "
                  "skipping", file=sys.stderr)
            continue
        if b.get("threads") != c.get("threads"):
            print(f"warning: {key} mixes thread counts "
                  f"({b.get('threads')} vs {c.get('threads')}); skipping",
                  file=sys.stderr)
            continue
        if b["median_ns_op"] <= 0:
            continue
        compared += 1
        is_latency = key[2] in ("p50", "p95", "p99")
        threshold = args.latency_threshold \
            if is_latency and args.latency_threshold is not None \
            else args.threshold
        delta_pct = 100.0 * (c["median_ns_op"] - b["median_ns_op"]) \
            / b["median_ns_op"]
        unit = "ns" if is_latency else "ns/op"
        line = (f"{key[0]} :: {key[1]} [{key[2]}] "
                f"{b['median_ns_op']:.4g} -> {c['median_ns_op']:.4g} {unit} "
                f"({delta_pct:+.1f}%)")
        if delta_pct > threshold:
            regressions.append(line)
        elif delta_pct < -threshold:
            improvements.append(line)
        # Aggregation-state bytes barely depend on runner speed, so growth
        # past the threshold is a real state-size regression. Sub-MB
        # states are skipped: they are dominated by demand-allocated
        # spill/scratch buffers, which vary with morsel interleaving.
        sb = b.get("state_peak_bytes", -1)
        sc = c.get("state_peak_bytes", -1)
        if sb > 0 and sc >= 0 and max(sb, sc) >= 1e6:
            sdelta = 100.0 * (sc - sb) / sb
            sline = (f"{key[0]} :: {key[1]} [{key[2]}] state "
                     f"{sb:.4g} -> {sc:.4g} bytes ({sdelta:+.1f}%)")
            if sdelta > args.threshold:
                regressions.append(sline)
            elif sdelta < -args.threshold:
                improvements.append(sline)

    print(f"compared {compared} results "
          f"(baseline {len(base)}, candidate {len(cand)}, "
          f"threshold {args.threshold:.0f}%)")
    for line in improvements:
        print(f"  IMPROVED  {line}")
    for line in regressions:
        print(f"  REGRESSED {line}")
    if not regressions:
        print("no regressions past threshold")
        return 0
    if args.warn_only:
        print(f"{len(regressions)} regression(s) past threshold "
              "(warn-only mode, not failing)")
        return 0
    print(f"FAIL: {len(regressions)} regression(s) past threshold")
    return 1


if __name__ == "__main__":
    sys.exit(main())
