#!/usr/bin/env python3
"""Records a BENCH_<label>.json: perfbench medians and spread over seeds.

    python3 tools/bench_record.py --label base [--checkout DIR] [--out FILE]

Runs `python3 perfbench/run.py` from the root of a checkout (this one by
default; --checkout records another, such as the parent commit in a second
copy). Each checkout builds its own sources under its own
<checkout>/.bench_build: CARGO_TARGET_DIR is set to that path for the
child, whatever the caller's environment holds. Both workloads run
untraced once per seed of SEEDS, for the run length the checkout's
BENCHMARK.json fixes, alternating which workload goes first, then one
traced run of bay-dense-unique at the first seed. The file holds the
commit (null when src/ or perfbench/ had uncommitted changes, since the
commit would then not hold what was measured), a digest of the sources
perfbench built, the host, whether the build took the JCC-erratum branch
padding (code layout alone moved forward latency by 30% on this project
before it was on), and per workload: the `correct` flag and
failed-operation count of every run, and each metric's median, quartiles,
IQR and raw values. The traced run's per-layer metrics are stored as they
come (one run, no spread). Compare two files with tools/bench_diff.py.
Stdlib only.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = ("bay-dense-unique", "bay-sparse-hot")
TRACED_WORKLOAD = "bay-dense-unique"
SEEDS = (1, 2, 3, 4, 5)  # Five runs per workload: the fewest that give an IQR.


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root(checkout):
    return Path(checkout) / ".bench_build"


def run_seconds(checkout):
    with open(Path(checkout) / "BENCHMARK.json", "r", encoding="utf-8") as f:
        return json.load(f)["run_seconds"]


def run_perfbench(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns its result JSON (the last stdout line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    log(f"[{checkout}] {' '.join(cmd[1:])}")
    env = dict(os.environ, CARGO_TARGET_DIR=str(build_root(checkout)))
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed ({proc.returncode}): "
                           f"{workload} seed {seed} trace {trace}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs):
    """Per-metric median/quartiles over the runs of one workload."""
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        q1, q3 = quartiles(values)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
            "values": values,
        }
    return metrics


def git_commit(checkout):
    """(HEAD, whether src/ or perfbench/ differ from it)."""
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                                capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                "perfbench"], cwd=checkout,
                               capture_output=True, text=True, check=True)
    except (subprocess.CalledProcessError, FileNotFoundError):
        return None, None
    return commit.stdout.strip(), bool(dirty.stdout.strip())


def source_digest(checkout):
    """sha256 over the files under src/ and perfbench/: what perfbench
    builds, so a record made from uncommitted changes can still be matched
    to the commit that holds them."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((Path(checkout) / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(checkout)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def jcc_padding(checkout):
    """Whether perfbench's build tree took -Wa,-mbranches-within-32B-boundaries
    (None when that cannot be told)."""
    cache = build_root(checkout) / "perfbench" / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith("STSM_JCC_PAD:"):
            return line.rsplit("=", 1)[1].strip() in ("1", "ON", "TRUE")
    return False


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--checkout", default=str(REPO))
    parser.add_argument("--out")
    args = parser.parse_args()
    checkout = Path(args.checkout).resolve()
    seconds = run_seconds(checkout)

    runs = {w: [] for w in WORKLOADS}
    for i, seed in enumerate(SEEDS):
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            runs[workload].append(
                run_perfbench(checkout, workload, seed, seconds, 0))
    traced = run_perfbench(checkout, TRACED_WORKLOAD, SEEDS[0], seconds, 1)

    commit, dirty = git_commit(checkout)
    if dirty:
        log("warning: src/ or perfbench/ has uncommitted changes; the record "
            "names no commit, only the source digest")
    record = {
        "label": args.label,
        "commit": None if dirty else commit,
        "uncommitted_changes": dirty,
        "source_sha256": source_digest(checkout),
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
        "jcc_branch_padding": jcc_padding(checkout),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {
            w: {
                "correct": [r["correct"] for r in runs[w]],
                "failed": [r["failed"] for r in runs[w]],
                "attempted": [r["attempted"] for r in runs[w]],
                "metrics": summarize(runs[w]),
            } for w in WORKLOADS
        },
        "traced": {
            "workload": TRACED_WORKLOAD,
            "seed": SEEDS[0],
            "correct": traced["correct"],
            "metrics": traced["metrics"],
        },
    }
    out = Path(args.out) if args.out else REPO / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    log(f"wrote {out}")
    ok = all(all(record["workloads"][w]["correct"]) for w in WORKLOADS)
    return 0 if ok and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
