#!/usr/bin/env python3
"""Perf-regression guard: compare a fresh bench_json run to the committed baseline.

Usage:
    check_perf.py BASELINE.json CURRENT.json [--threshold 2.0] [--strict]
                  [--regression-threshold 1.5]

Prints the host context of both runs first and warns (never fails) when
they differ in num_cpus or sne_build_type. Matches benchmarks by name and
compares wall-clock (real_time — several
benches use UseRealTime because worker threads shift work off the timing
thread; for the rest real and cpu time agree on the 1-core CI box). Prints a
markdown before/after table — plus a dedicated section for the drain-path
benchmarks (BM_DenseSpikingLayer*) — and appends it to
$GITHUB_STEP_SUMMARY when set.

Two gates:
  --threshold: the coarse per-benchmark gate (default 2.0x); the only one
    --strict turns into a failing exit status.
  --regression-threshold: an *advisory* finer gate, always warn-only — flags
    the geometric mean of current/baseline ratios and every individual
    benchmark whose ratio exceeds it. Meant to surface creeping regressions
    the coarse gate is too generous to catch, without making a noisy 1-core
    box fail builds.

Exit status:
    0  everything within threshold (or warn-only mode, the default)
    1  --strict and at least one benchmark regressed past the threshold
    2  the current run is not an optimized build (sne_build_type != release)
       — a deterministic configuration error, never timing noise.

The threshold is deliberately generous and the default mode warn-only: the
1-core CI box is too noisy for a hard wall-clock gate, but a silent 3x
regression should at least be visible in the job summary.
"""

import argparse
import json
import math
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Host context printed above the table; MATCH_KEYS must agree for the
# ratios to compare code rather than hosts (a mismatch only warns).
CONTEXT_KEYS = ("host_name", "num_cpus", "mhz_per_cpu", "sne_build_type",
                "date")
MATCH_KEYS = ("num_cpus", "sne_build_type")


def bench_times(doc):
    """name -> (real_time_ns, reported_unit), skipping aggregate rows.

    Times are normalized to nanoseconds so a benchmark whose ->Unit() changed
    between the baseline and the current run still compares correctly.
    """
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        out[b["name"]] = (float(b["real_time"]) * _UNIT_NS.get(unit, 1.0),
                          unit)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="warn when current/baseline exceeds this (default 2.0)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on threshold violations instead of warning")
    ap.add_argument("--regression-threshold", type=float, default=None,
                    help="advisory (always warn-only) gate: flag the geomean "
                         "of current/baseline ratios and any individual "
                         "benchmark exceeding this ratio")
    args = ap.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    # Build-type gate: the bench binary stamps sne_build_type itself (the
    # stock library_build_type field describes the google-benchmark library,
    # not the code under test).
    build_type = current.get("context", {}).get("sne_build_type", "unknown")
    if build_type != "release":
        print(f"ERROR: current run is a '{build_type}' build of sne_core; "
              "perf comparisons need -DCMAKE_BUILD_TYPE=Release")
        return 2
    base_build = baseline.get("context", {}).get("sne_build_type", "unknown")
    if base_build != "release":
        print(f"WARNING: committed baseline records sne_build_type="
              f"'{base_build}' — regenerate it with the Release bench_json "
              "target")

    base = bench_times(baseline)
    cur = bench_times(current)

    # Host context of both runs, and a warn-only like-for-like check: a
    # baseline from another core count or build type makes every ratio below
    # a comparison of hosts, not of code.
    lines = ["| context | baseline | current |", "|---|---|---|"]
    base_ctx = baseline.get("context", {})
    cur_ctx = current.get("context", {})
    for key in CONTEXT_KEYS:
        lines.append(f"| `{key}` | {base_ctx.get(key, '-')} | "
                     f"{cur_ctx.get(key, '-')} |")
    lines.append("")
    for key in MATCH_KEYS:
        if base_ctx.get(key) != cur_ctx.get(key):
            lines.append(f"WARNING: context mismatch on `{key}` (baseline "
                         f"{base_ctx.get(key, '-')}, current "
                         f"{cur_ctx.get(key, '-')}): ratios compare hosts as "
                         "well as code :warning:")
            lines.append("")

    rows = []
    warned = 0
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            rows.append((name, base[name], None, None, "GONE"))
            continue
        if name not in base:
            rows.append((name, None, cur[name], None, "NEW"))
            continue
        b, c = base[name], cur[name]
        ratio = c[0] / b[0] if b[0] > 0 else float("inf")
        status = "OK"
        if ratio > args.threshold:
            status = "WARN"
            warned += 1
        rows.append((name, b, c, ratio, status))

    def fmt(t):
        if t is None:
            return "-"
        return f"{t[0] / _UNIT_NS.get(t[1], 1.0):.3f} {t[1]}"

    lines += ["| benchmark | baseline | current | ratio | status |",
              "|---|---:|---:|---:|---|"]
    for name, b, c, ratio, status in rows:
        r = "-" if ratio is None else f"{ratio:.2f}x"
        mark = {"OK": "", "WARN": " :warning:", "NEW": "", "GONE": ""}[status]
        lines.append(f"| `{name}` | {fmt(b)} | {fmt(c)} | {r} | {status}{mark} |")
    lines.append("")
    lines.append(f"threshold {args.threshold:.2f}x · {warned} warning(s) · "
                 f"{'strict' if args.strict else 'warn-only'} mode · "
                 f"sne_build_type={build_type}")

    # Advisory fine-grained gate: geomean drift + per-benchmark deltas.
    # Never contributes to the exit status — the 1-core CI box is too noisy
    # for a hard gate this tight; the job summary is where it lives.
    if args.regression_threshold:
        ratios = [r for _, _, _, r, _ in rows if r is not None and r > 0]
        lines.append("")
        if ratios:
            gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
            flag = " :warning:" if gm > args.regression_threshold else ""
            lines.append(f"advisory geomean: **{gm:.3f}x** over "
                         f"{len(ratios)} benchmark(s) (advisory threshold "
                         f"{args.regression_threshold:.2f}x, warn-only)"
                         f"{flag}")
            over = [(n, r) for n, _, _, r, _ in rows
                    if r is not None and r > args.regression_threshold]
            for n, r in sorted(over, key=lambda x: -x[1]):
                lines.append(f"- `{n}` {r:.2f}x exceeds the advisory "
                             f"threshold :warning:")
            if not over:
                lines.append("- no individual benchmark over the advisory "
                             "threshold")
        else:
            lines.append("advisory geomean: no comparable benchmarks")

    # Drain-path benchmarks get their own section: the batched drain engine
    # is the hottest simulator path and the one this repo optimizes hardest,
    # so its numbers should be readable at a glance in the step summary.
    drain_rows = [r for r in rows if r[0].startswith("BM_DenseSpikingLayer")]
    if drain_rows:
        lines.append("")
        lines.append("### Drain-path benchmarks")
        lines.append("")
        lines.append("`BM_DenseSpikingLayer/<slices>/<mode>/<dmas>` "
                     "(mode: 0 = per-cycle reference, 1 = fast-forward, "
                     "2 = + batched drain engine) and the pipeline-routed "
                     "variant `BM_DenseSpikingLayerPipeRouted/<mode>`:")
        lines.append("")
        lines.append("| benchmark | baseline | current | ratio |")
        lines.append("|---|---:|---:|---:|")
        for name, b, c, ratio, _ in drain_rows:
            r = "-" if ratio is None else f"{ratio:.2f}x"
            lines.append(f"| `{name}` | {fmt(b)} | {fmt(c)} | {r} |")

    # Replay-profile mode split (current run only, warn-only): the drain
    # benches and BM_GestureNetwork attach prof_* counters from one
    # profiled, untimed repeat — which engine machine retires the cycles.
    # Informational: cycle attribution is bit-deterministic, so drift here
    # means the workload or the engine changed, not the host.
    prof_keys = [("prof_dead_jump", "dead-jump"),
                 ("prof_sweep_jump", "sweep-jump"),
                 ("prof_percycle", "per-cycle"),
                 ("prof_burst", "burst"),
                 ("prof_bulk_replay", "bulk-replay"),
                 ("prof_steady", "steady"),
                 ("prof_update_stream", "update-stream")]
    prof_rows = []
    for b in current.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        total = sum(float(b.get(k, 0.0)) for k, _ in prof_keys)
        if total <= 0:
            continue
        prof_rows.append((b["name"], total,
                          [float(b.get(k, 0.0)) / total for k, _ in prof_keys],
                          int(b.get("prof_drain_spans", 0))))
    if prof_rows:
        lines.append("")
        lines.append("### Replay-profile mode split (current run, "
                     "informational)")
        lines.append("")
        lines.append("| benchmark | cycles | " +
                     " | ".join(label for _, label in prof_keys) +
                     " | drain spans |")
        lines.append("|---|---:|" + "---:|" * len(prof_keys) + "---:|")
        for name, total, split, spans in prof_rows:
            cells = " | ".join(f"{frac * 100:.1f}%" for frac in split)
            lines.append(f"| `{name}` | {int(total)} | {cells} | {spans} |")

    table = "\n".join(lines)

    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write("## Perf regression guard\n\n" + table + "\n")

    if warned and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
