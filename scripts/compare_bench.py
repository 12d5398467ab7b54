#!/usr/bin/env python3
"""Diff two nav-bench-trajectory-v1 documents and fail on regressions.

This is the tool the CI bench gate and the nightly trajectory diff invoke:

    scripts/compare_bench.py bench/baselines/quick.json build/BENCH_all.json

Both inputs may be a single-bench document (BENCH_e1.json) or a merged one
(BENCH_all.json, {"merged": true, "benches": [...]}). Cells are aligned into
series by (bench, cell key), where the cell key is the tuple of the
document's `key_fields` present in the cell (section, family, scheme,
router, workload, n, ...). For every shared series, every metric is compared
under a relative threshold:

  * strict metrics (hop counts, stretch, greedy diameter, exponents — the
    document's `metrics` list): threshold --strict-rel (default 1e-6, i.e.
    deterministic modulo floating-point ulps). A worse value beyond the
    threshold is a REGRESSION; a better one is reported as an improvement.
  * loose metrics (wall clock, throughput, queue depths — the document's
    `loose_metrics` list): informational by default; pass --loose-rel to
    gate them too (e.g. --loose-rel 0.5 tolerates 50% noise).

"Worse" respects direction: lower is better except for throughput-style
metrics (*_per_sec, *_per_second, speedup), where higher is better.
Schedule counts (bottom_up_levels: how many levels a kernel ran in one
branch of a policy decision) have no better direction — any change beyond
the threshold is a policy change and a REGRESSION either way.

Series present only in the current document are reported as added
(informational: new coverage must not fail the gate). Series that
disappeared are a regression — coverage loss — unless --allow-missing.
The same rule applies per metric inside a shared series: a newly measured
metric is informational, a vanished one is a regression.

Exit code: 0 when no regression, 1 on regression/coverage loss, 2 on
unreadable or schema-invalid input.

Baseline refresh (after an intended perf/behaviour change): rebuild, run
every bench with `--quick --jsonl` in one directory, and copy the resulting
BENCH_all.json over bench/baselines/quick.json — the diff of the baseline
file documents the accepted change in review.
"""

import argparse
import json
import pathlib
import sys

SCHEMA = "nav-bench-trajectory-v1"

HIGHER_BETTER = {"speedup"}
HIGHER_BETTER_SUFFIXES = ("_per_sec", "_per_second")
SCHEDULE_COUNTS = {"bottom_up_levels"}


def lower_is_better(metric):
    return not (metric in HIGHER_BETTER
                or metric.endswith(HIGHER_BETTER_SUFFIXES))


def load_benches(path):
    """Returns {bench_name: doc} from a single or merged trajectory file."""
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")
    if doc.get("schema") != SCHEMA:
        raise SystemExit(f"error: {path} is not a {SCHEMA} document")
    docs = doc.get("benches", []) if doc.get("merged") else [doc]
    benches = {}
    for sub in docs:
        if sub.get("schema") != SCHEMA:
            raise SystemExit(f"error: {path} embeds a non-{SCHEMA} document")
        name = sub.get("bench", "?")
        if name in benches:
            print(f"warning: {path} contains bench '{name}' twice; "
                  "keeping the last occurrence", file=sys.stderr)
        benches[name] = sub
    return benches


def build_series(benches):
    """Returns ({(bench, key): {metric: value}}, {metric: is_loose})."""
    series, loose = {}, {}
    for name, doc in benches.items():
        key_fields = set(doc.get("key_fields", []))
        doc_loose = set(doc.get("loose_metrics", []))
        for cell in doc.get("cells", []):
            key = (name,) + tuple(
                sorted((k, str(v)) for k, v in cell.items()
                       if k in key_fields))
            metrics = {k: v for k, v in cell.items() if k not in key_fields}
            if key in series:
                print(f"warning: duplicate series {format_key(key)}; "
                      "keeping the last occurrence", file=sys.stderr)
            series[key] = metrics
            for metric in metrics:
                loose[metric] = loose.get(metric, False) or metric in doc_loose
    return series, loose


def format_key(key):
    bench, *fields = key
    return f"{bench}[" + " ".join(f"{k}={v}" for k, v in fields) + "]"


def relative_delta(base, current):
    if base == current:
        return 0.0
    if base is None or current is None:
        return float("inf")
    if base == 0:
        return float("inf")
    return (current - base) / abs(base)


def fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", help="baseline trajectory document")
    parser.add_argument("current", help="current trajectory document")
    parser.add_argument("--strict-rel", type=float, default=1e-6,
                        help="relative threshold for deterministic metrics "
                             "(default: %(default)s)")
    parser.add_argument("--loose-rel", type=float, default=None,
                        help="relative threshold for wall-clock metrics "
                             "(default: informational only)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline series disappears")
    parser.add_argument("--show-all", action="store_true",
                        help="also print unchanged metrics")
    args = parser.parse_args()

    base_benches = load_benches(args.baseline)
    cur_benches = load_benches(args.current)
    for name in sorted(base_benches.keys() & cur_benches.keys()):
        if base_benches[name].get("quick") != cur_benches[name].get("quick"):
            print(f"warning: bench '{name}': baseline quick="
                  f"{base_benches[name].get('quick')} vs current quick="
                  f"{cur_benches[name].get('quick')} — comparing a quick "
                  "grid against a full one", file=sys.stderr)

    base_series, base_loose = build_series(base_benches)
    cur_series, cur_loose = build_series(cur_benches)
    loose = {m: base_loose.get(m, False) or cur_loose.get(m, False)
             for m in base_loose.keys() | cur_loose.keys()}

    removed = sorted(set(base_series) - set(cur_series))
    added = sorted(set(cur_series) - set(base_series))
    shared = sorted(set(base_series) & set(cur_series))

    regressions, improvements, infos, compared = [], [], [], 0
    for key in shared:
        base_metrics, cur_metrics = base_series[key], cur_series[key]
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            b = base_metrics.get(metric)
            c = cur_metrics.get(metric)
            is_loose = loose.get(metric, False)
            threshold = args.loose_rel if is_loose else args.strict_rel
            rel = relative_delta(b, c)
            compared += 1
            row = (format_key(key), metric, fmt(b), fmt(c),
                   "n/a" if rel in (None, float("inf")) else f"{rel:+.2%}")
            if threshold is None:
                if rel != 0.0 and args.show_all:
                    infos.append(row)
                continue
            if abs(rel) <= threshold:
                if args.show_all and rel != 0.0:
                    infos.append(row)
                continue
            if b is None:
                # Metric newly measured for an existing series: coverage
                # gain, informational like an added series.
                infos.append(row)
                continue
            if c is None:
                # Metric vanished from an existing series: coverage loss.
                regressions.append(row)
                continue
            if metric in SCHEDULE_COUNTS:
                worse = True
            else:
                worse = (c > b) if lower_is_better(metric) else (c < b)
            (regressions if worse else improvements).append(row)

    def print_rows(title, rows):
        if not rows:
            return
        print(f"\n{title}:")
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        for r in rows:
            print("  " + "  ".join(r[i].ljust(widths[i]) for i in range(5)))

    print(f"compared {len(shared)} series ({compared} metric values) "
          f"across {len(base_benches)} baseline / {len(cur_benches)} "
          "current benches")
    print_rows("REGRESSIONS (worse beyond threshold)", regressions)
    print_rows("improvements (better beyond threshold)", improvements)
    print_rows("informational deltas", infos)
    if removed:
        print(f"\nseries missing from current ({len(removed)}):")
        for key in removed:
            print(f"  {format_key(key)}")
    if added:
        print(f"\nseries added in current ({len(added)}):")
        for key in added:
            print(f"  {format_key(key)}")

    failed = bool(regressions) or (bool(removed) and not args.allow_missing)
    if failed:
        print("\nFAIL: "
              + (f"{len(regressions)} metric regression(s)" if regressions
                 else "")
              + (" and " if regressions and removed else "")
              + (f"{len(removed)} missing series" if removed
                 and not args.allow_missing else ""))
        print("(intended change? refresh the baseline — see the module "
              "docstring or docs/ARCHITECTURE.md)")
        return 1
    print("\nok: no regression"
          + (f" ({len(improvements)} improvement(s))" if improvements else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
