#!/usr/bin/env python3
"""Per-file branch coverage of src/{core,net,serve,train} from a --coverage build.

Usage (after building with -DCMAKE_CXX_FLAGS=--coverage and running ctest):

    python3 scripts/coverage_summary.py build-cov [--src-root .]

Runs `gcov -b -n` over every .gcda file under the build directory and prints
a Markdown table: for each translation unit under src/core, src/net,
src/serve and src/train, the share of branches taken at least once. The
table is appended to $GITHUB_STEP_SUMMARY when that variable is set.

Only .cpp files are listed: each is compiled once into sne_core, so its gcov
record is complete. Header code (inline functions, templates) is recorded
once per including translation unit and is left out rather than double
counted. This script reports; it gates nothing. Standard library only.
"""
import argparse
import os
import re
import subprocess
import sys
import tempfile

DIRS = ("core", "net", "serve", "train")
FILE_RE = re.compile(r"^File '(.+)'$")
TAKEN_RE = re.compile(r"^Taken at least once:([\d.]+)% of (\d+)$")


def parse_gcov(text, src_root):
    """Maps repo-relative source path -> (branches taken, branches)."""
    out = {}
    current = None
    for line in text.splitlines():
        m = FILE_RE.match(line)
        if m:
            path = os.path.relpath(os.path.realpath(m.group(1)), src_root)
            parts = path.split(os.sep)
            current = None
            if (len(parts) == 3 and parts[0] == "src" and parts[1] in DIRS
                    and parts[2].endswith(".cpp")):
                current = path
            continue
        m = TAKEN_RE.match(line)
        if m and current is not None:
            total = int(m.group(2))
            out[current] = (round(float(m.group(1)) * total / 100.0), total)
            current = None
    return out


def table(cov):
    rows = ["| File | Branches taken | Taken / total |", "|---|---|---|"]
    all_taken = all_total = 0
    for path in sorted(cov):
        taken, total = cov[path]
        all_taken += taken
        all_total += total
        pct = 100.0 * taken / total if total else 100.0
        rows.append(f"| `{path[len('src/'):]}` | {pct:.0f}% | {taken} / {total} |")
    if all_total:
        rows.append(f"| **all listed** | {100.0 * all_taken / all_total:.0f}% "
                    f"| {all_taken} / {all_total} |")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir", help="build directory of the --coverage build")
    ap.add_argument("--src-root", default=".", help="repository root")
    args = ap.parse_args()
    src_root = os.path.realpath(args.src_root)

    gcdas = []
    for dirpath, _, files in os.walk(args.build_dir):
        gcdas += [os.path.realpath(os.path.join(dirpath, f))
                  for f in files if f.endswith(".gcda")]
    if not gcdas:
        sys.exit(f"no .gcda files under {args.build_dir}: run ctest first")

    # -n writes no .gcov files; run in a scratch dir all the same.
    with tempfile.TemporaryDirectory() as tmp:
        res = subprocess.run(["gcov", "-b", "-n"] + sorted(gcdas), cwd=tmp,
                             capture_output=True, text=True, check=True)
    cov = parse_gcov(res.stdout, src_root)
    if not cov:
        sys.exit("gcov reported no branches under src/{core,net,serve,train}")

    report = ("### Branch coverage (taken at least once), "
              "src/{core,net,serve,train}\n\n" + table(cov) + "\n")
    print(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(report + "\n")


if __name__ == "__main__":
    main()
