#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, or checks that exact counts repeat.

  compare.py BASE_DIR NEW_DIR     run records written by `run.sh --json DIR`
  compare.py --check-counts DIR   records written by `run.sh --check-counts`

For every (workload, metric) the comparison prints each side's median and
quartiles, the change of the medians, and the share of pairs each side wins
(runs pair up by seed, else in file order; ties count for neither). End-to-end
metrics get a label from the bounds in the root BENCHMARK.json:

  regressed   the new median is worse than the base by more than the bound
  improved    better by more than the bound, winning >= 90% of the pairs
  unchanged   neither, with both sides' quartile spread within the bound
  unresolved  a spread is wider than the bound (unless every new run beats,
              or loses to, every base run)

The exact counts (those --check-counts checks) are compared run by run for
equality. Exits 1 when a metric regressed or an exact count differs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(HERE, "..", "..", "BENCHMARK.json")

# Counts that must repeat exactly for one seed (run.sh --check-counts).
EXACT = {
    "lifecycle.reloads_per_op",
    "storage.archive_reads_per_op",
    "datablock.sma_skip_frac",
    "tpcc.rollback_frac",
    "bench.stream_hash",
}
EXACT_PREFIXES = ("tpcc.count.",)


def load_runs(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    if not runs:
        sys.exit(f"compare.py: no run records in {directory}")
    return runs


def load_spec():
    """(end-to-end metric -> its entry, any declared metric -> "better")."""
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except OSError:
        return {}, {}
    declared = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return ({m["name"]: m for m in spec.get("end_to_end", [])},
            {m["name"]: m["better"] for m in declared})


def exact(name):
    return name in EXACT or name.startswith(EXACT_PREFIXES)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def group(runs):
    """(workload, trace) -> {metric -> [(seed, value, unit)]}."""
    out = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        metrics = out.setdefault(key, {})
        for name, m in run["metrics"].items():
            metrics.setdefault(name, []).append((run["seed"], m["value"], m["unit"]))
    return out


def pairs(base, new):
    base_by_seed = {s: v for s, v, _ in base}
    new_by_seed = {s: v for s, v, _ in new}
    common = sorted(set(base_by_seed) & set(new_by_seed))
    if common:
        return [(base_by_seed[s], new_by_seed[s]) for s in common]
    return list(zip([v for _, v, _ in base], [v for _, v, _ in new]))


def label(spec, base, new, base_q, new_q, wins_new, n_pairs):
    higher = spec["better"] == "higher"
    bound = spec["bound"]

    def better(x, y):  # x better than y
        return x > y if higher else x < y

    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0 for q in (base_q, new_q))
    worse = (new_q[1] - base_q[1]) / abs(base_q[1]) if base_q[1] else 0
    if higher:
        worse = -worse
    if spread > bound:
        if all(better(n, b) for n in new for b in base):
            return "improved"
        if all(better(b, n) for n in new for b in base):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if -worse > bound and n_pairs and wins_new / n_pairs >= 0.9:
        return "improved"
    return "unchanged"


def compare(base_dir, new_dir):
    bounds, better = load_spec()
    base, new = group(load_runs(base_dir)), group(load_runs(new_dir))
    failed = False
    print(f"{'workload':<13} {'metric':<34} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'wins b/n':>9}  label")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in sorted(set(base[key]) & set(new[key])):
            b_vals = [v for _, v, _ in base[key][name]]
            n_vals = [v for _, v, _ in new[key][name]]
            unit = base[key][name][0][2]
            bq, nq = quartiles(b_vals), quartiles(n_vals)
            ps = pairs(base[key][name], new[key][name])
            spec = bounds.get(name) if not trace else None
            wins = "-"
            wins_new = 0
            if name in better:
                higher = better[name] == "higher"
                wins_new = sum(1 for b, n in ps if (n > b if higher else n < b))
                wins_base = sum(1 for b, n in ps if (n < b if higher else n > b))
                wins = f"{wins_base}/{wins_new}"
            change = (nq[1] - bq[1]) / abs(bq[1]) * 100 if bq[1] else 0.0
            if exact(name):
                verdict = "equal" if all(b == n for b, n in ps) else "differs"
                failed |= verdict == "differs"
            elif spec is not None:
                verdict = label(spec, b_vals, n_vals, bq, nq, wins_new, len(ps))
                failed |= verdict == "regressed"
            else:
                verdict = "-"
            tag = workload + ("/trace" if trace else "")
            print(f"{tag:<13} {name:<34} "
                  f"{bq[1]:>12.5g} [{bq[0]:>9.5g}, {bq[2]:>9.5g}] "
                  f"{nq[1]:>12.5g} [{nq[0]:>9.5g}, {nq[2]:>9.5g}] "
                  f"{change:>7.1f}% {wins:>9}  {verdict}")
    return 1 if failed else 0


def check_counts(directory):
    ok = True
    workloads = sorted({os.path.basename(p)[:-7]
                        for p in glob.glob(os.path.join(directory, "*-a.json"))})
    if not workloads:
        sys.exit(f"compare.py: no check-counts records in {directory}")
    for w in workloads:
        runs = {}
        for tag in "abc":
            path = os.path.join(directory, f"{w}-{tag}.json")
            try:
                with open(path) as f:
                    runs[tag] = json.load(f)
            except (OSError, ValueError):
                runs[tag] = None
        problems = []
        for tag, run in runs.items():
            if run is None:
                problems.append(f"run {tag} left no record")
            elif not run["correct"]:
                problems.append(f"run {tag} (seed {run['seed']}) failed the oracle")
        a, b, c = runs["a"], runs["b"], runs["c"]
        checked = 0
        if a and b:
            for name, m in a["metrics"].items():
                if exact(name):
                    checked += 1
                    other = b["metrics"].get(name, {}).get("value")
                    if other != m["value"]:
                        problems.append(f"{name}: {m['value']} then {other} on one seed")
        if a and c and (a["metrics"].get("bench.stream_hash", {}).get("value") ==
                        c["metrics"].get("bench.stream_hash", {}).get("value")):
            problems.append("a different seed left the request stream unchanged")
        ok &= not problems
        verdict = "ok" if not problems else "FAIL: " + "; ".join(problems)
        print(f"{w}: {checked} exact counts compared, {verdict}")
    return 0 if ok else 1


def main(argv):
    if len(argv) == 3 and argv[1] == "--check-counts":
        return check_counts(argv[2])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
