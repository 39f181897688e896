#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source and measure one workload.

    python3 perfbench/run.py --workload gesture-dense|serve-http|train-bptt \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) as a Release
build of perfbench/CMakeLists.txt. Before measuring, the benchmark's own
tests run (perfbench_selftest, test_run.py and the BENCHMARK.json checks
below); a failing test stops the run before it measures. The last
stdout line is one JSON object: correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
A traced run also writes its spans as Chrome-trace JSON next to the build.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_spec(spec):
    """Returns the problems with a BENCHMARK.json document (empty when valid)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    names = []
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("2 to 8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
            continue
        names.append(w["name"])
        why = w["why"]
        if not why or "\n" in why or len(why) > 200:
            problems.append(f"workload {w['name']}: why must be one line of <= 200 chars")
    for section, lo, hi in (("end_to_end", 1, 16), ("per_layer", 1, 128)):
        metrics = spec[section]
        if not lo <= len(metrics) <= hi:
            problems.append(f"{section}: {lo} to {hi} metrics")
        for m in metrics:
            want = {"name", "unit", "better"} | ({"bound"} if section == "end_to_end" else set())
            if set(m) != want:
                problems.append(f"{section} metric keys {sorted(m)}")
                continue
            names.append(m["name"])
            if not UNIT_RE.fullmatch(m["unit"]):
                problems.append(f"unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                problems.append(f"{m['name']}: better must be lower or higher")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    for n in names:
        if not NAME_RE.fullmatch(n):
            problems.append(f"name {n!r}")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in [1, 60]")
    return problems


def check_result(result, spec, trace):
    """Returns the problems with one result line against the catalogue."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    problems = []
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def build(build_dir):
    """Configures (once) and builds the Release benchmark binaries."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    with open(log, "w") as out:
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                return False
        cmd = ["cmake", "--build", str(build_dir), "-j", str(min(os.cpu_count() or 1, 4))]
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "core" / "engine.cpp").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}; run from a source checkout", 2)
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing", 2)
    spec = json.loads(spec_path.read_text())
    problems = check_spec(spec)
    if problems:
        fail("BENCHMARK.json: " + "; ".join(problems), 2)

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(build_dir):
        sys.stderr.write((build_dir / "build.log").read_text()[-4000:])
        fail("build failed")
    for test in ([str(build_dir / "perfbench_selftest")],
                 [sys.executable, "-B", str(HERE / "test_run.py")]):
        selftest = subprocess.run(test, capture_output=True, text=True, timeout=60)
        if selftest.returncode:
            sys.stderr.write(selftest.stdout + selftest.stderr)
            fail("benchmark self-tests failed")

    cmd = [str(build_dir / "sne_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir / f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(150.0, 5 * args.seconds))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in time")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"sne_perf exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no JSON result line: {lines[-1]!r}")
    problems = check_result(result, spec, args.trace)
    if problems:
        fail("; ".join(problems))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
