#!/usr/bin/env python3
"""The repository's benchmark, one workload per invocation.

    python3 perfbench/run.py --workload bay-dense-unique --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the library from src/ plus the benchmark binary) under
$CARGO_TARGET_DIR (default .bench_build), runs the workload in a private
temporary directory, checks its outputs and prints every metric by name with
its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Must be run from the root of a checkout of the repository.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # Leave the checkout as it was.
import stats  # noqa: E402

WORKLOADS = ("bay-dense-unique", "bay-sparse-hot")
# Fixed for every run; recorded in perfbench/README.md. One intra-op thread
# keeps the four serving workers from contending with a shared pool on a
# four-core machine, and makes kernel rates comparable with the
# single-threaded GEMM peak.
INTRA_OP_THREADS = "1"
BUILD_JOBS = "4"
SLO_MS = 100.0
MAX_FAILED_SHARE = 0.001
# Least share of the hot-key workload's measured requests answered from the
# cache.
MIN_HOT_HIT_SHARE = 0.99
# Bound on the measured run, after the (possibly long, first-run) build.
RUN_TIMEOUT_S = 160.0
PHASES = ("lo", "mid", "hi")
# Reported in place of a non-finite value, such as a tail that falls on a
# failed request (failed requests count as infinitely late).
NOT_FINITE = 1e9


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env(build_root):
    """Environment of the build and the run: the fixed knobs, and temporary
    files kept inside the build tree."""
    env = dict(os.environ)
    env["STSM_NUM_THREADS"] = INTRA_OP_THREADS
    env["STSM_PROFILE"] = "0"
    for knob in ("STSM_SIMD", "STSM_POOL"):
        env.pop(knob, None)
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def build(build_root):
    """Configures once, then builds incrementally. Returns the binary path,
    or None when the build fails (for example without the library
    sources)."""
    build_dir = build_root / "perfbench"
    env = child_env(build_root)
    try:
        if not (build_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                            "-DCMAKE_BUILD_TYPE=Release"], env=env,
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
                       env=env, check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    except (subprocess.CalledProcessError, FileNotFoundError) as error:
        log(f"build failed: {error}")
        shutil.rmtree(build_dir, ignore_errors=True)
        return None
    return build_dir / "stsm_perfbench"


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    return result.wasSuccessful()


def run_binary(binary, args, build_root, workdir, timeout):
    out = workdir / "raw.json"
    subprocess.run([str(binary), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--workdir", str(workdir),
                    "--out", str(out)],
                   check=True, env=child_env(build_root), timeout=timeout,
                   stdout=sys.stderr)
    with open(out) as f:
        return json.load(f)


def median(values):
    return statistics.median(values)


def end_to_end(raw, summaries):
    """Metrics a user of the system sees, from the untraced pass. The
    forwards report their fastest call, so a slow spell of a shared machine
    does not read as a slower program; set-up reports its median."""
    m = {
        "setup_s": (median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "rmse": (raw["rounds"][0]["rmse"], "raw"),
        "forward_b1_ms": (min(raw["forward_b1_ms"]), "ms"),
        "forward_b8_ms": (min(raw["forward_b8_ms"]), "ms"),
        "max_rps_slo": (stats.max_rps_slo(summaries), "1/s"),
    }
    return m


def pooled(phases, key):
    values = []
    for phase in phases:
        values.extend(phase.get(key, []))
    return values


def counter_total(phases):
    total = {}
    for phase in phases:
        for key, value in phase["server"].items():
            total[key] = total.get(key, 0) + value
    return total


def p50_tail(values):
    q = stats.tail_percentile(len(values))
    return (stats.percentile(values, 50.0),
            stats.percentile(values, q) if q else math.nan)


def per_layer(raw, summaries, traced_summaries):
    """Layer metrics from the traced pass, with the tracing overhead."""
    m = {}
    epochs = stats.self_time_by_root(raw["spans"], "train.epoch")
    train_layers = ("masking.draw", "timeseries.pseudo_obs",
                    "timeseries.temporal_adj", "data.window_batch",
                    "core.forward", "core.contrastive", "tensor.backward",
                    "nn.optim")
    for name in train_layers:
        m[f"{name}_ms"] = (median([e.get(name, 0) for e in epochs]) / 1e6,
                           "ms")
    m["train.self_ms"] = (median([e["train.epoch"] for e in epochs]) / 1e6,
                          "ms")
    (evaluation,) = stats.self_time_by_root(raw["spans"], "core.eval")
    m["core.eval_forward_ms"] = (evaluation["core.eval_forward"] / 1e6, "ms")
    m["timeseries.eval_temporal_adj_ms"] = (
        evaluation["timeseries.eval_temporal_adj"] / 1e6, "ms")
    # Training, evaluation, baseline training and hot-swap times, fastest
    # repetition, from the untraced pass; not bounded, see
    # perfbench/README.md.
    rounds = raw["rounds"]
    m["core.train_epoch_s"] = (min(r["train_epoch_s"] for r in rounds), "s")
    m["core.eval_s"] = (min(r["eval_s"] for r in rounds), "s")
    m["serve.swap_ms"] = (min(raw["swap_ms"]), "ms")
    m["baselines.train_s"] = (
        sum(min(t for r in rounds for t in r["baselines"][k])
            for k in rounds[0]["baselines"]), "s")
    m["tensor.autograd_nodes"] = (median(raw["autograd_nodes"]), "count")
    m["tensor.pool_reuse_share"] = (
        raw["pool_hits"] / max(1, raw["pool_acquires"]), "share")
    kernels = raw["kernels"]
    for name in ("matmul_gflops", "spmm_gflops", "gemm_peak_gflops"):
        m[f"tensor.{name}"] = (kernels[name], "GFLOP/s")
    for name, key in (("gegan", "GE-GAN"), ("ignnk", "IGNNK"),
                      ("increase", "INCREASE")):
        m[f"baselines.{name}_s"] = (
            min(t for r in raw["rounds"] for t in r["baselines"][key]), "s")

    # Client-side latency per offered rate, from the untraced pass. Printed by
    # every run; not bounded, because its run-to-run spread on a shared
    # four-core machine exceeds any bound the benchmark may set.
    for name, (_, summary) in zip(PHASES, summaries):
        m[f"serve.p50_ms.{name}"] = (summary["p50_ms"], "ms")
        m[f"serve.tail_ms.{name}"] = (summary["tail_ms"], "ms")
    phases = raw["traced_phases"]
    for metric, key in (("net.ingress_ms", "ingress_ms"),
                        ("serve.server_ms", "server_ms"),
                        ("net.egress_ms", "egress_ms")):
        p50, tail = p50_tail(pooled(phases, key))
        m[f"{metric}.p50"] = (p50, "ms")
        m[f"{metric}.tail"] = (tail, "ms")
    server = counter_total(phases)
    batches = max(1, server["batches"])
    m["serve.batch_size_mean"] = (server["batched_requests"] / batches,
                                  "count")
    m["serve.batch1_share"] = (server["batch1"] / batches, "share")
    m["core.batch_efficiency"] = (
        8.0 * min(raw["forward_b1_ms"]) / min(raw["forward_b8_ms"]), "ratio")
    requests = max(1, server["submitted"])
    m["proc.cpu_ms_per_req"] = (1e3 * raw["traced_cpu_seconds"] / requests,
                                "ms")
    m["proc.threads"] = (raw["traced_threads"], "count")
    m["serve.cache_hit_share"] = (server["cache_hits"] / requests, "share")
    m["serve.cache_lookup_us"] = (median(raw["cache_lookup_us"]), "us")
    m["serve.reject_share"] = (server["rejected"] / requests, "share")
    m["serve.degraded_share"] = (server["degraded"] / requests, "share")
    m["net.read_pauses"] = (server["read_pauses"], "count")
    m["serve.build_spec_ms"] = (min(raw["build_spec_ms"]), "ms")
    m["serve.swap_call_ms"] = (min(raw["swap_call_ms"]), "ms")
    m["wire.encode_us"] = (raw["wire"]["encode_us"], "us")
    m["wire.decode_us"] = (raw["wire"]["decode_us"], "us")
    m["loadgen.late_ms"] = (p50_tail(pooled(phases, "late_ms"))[1], "ms")

    # Tracing overhead: traced over untraced, minus one, in the same process.
    epoch_spans = [s for s in raw["spans"] if s["name"] == "train.epoch"]
    traced_epoch_s = min((s["end"] - s["start"]) / 1e9 for s in epoch_spans)
    m["trace.overhead.train_epoch_s"] = (
        traced_epoch_s / m["core.train_epoch_s"][0] - 1.0, "ratio")
    eval_span = [s for s in raw["spans"] if s["name"] == "core.eval"][0]
    m["trace.overhead.eval_s"] = (
        (eval_span["end"] - eval_span["start"]) / 1e9
        / m["core.eval_s"][0] - 1.0, "ratio")
    for name, (_, base), (_, traced) in zip(PHASES, summaries,
                                            traced_summaries):
        for key in ("p50_ms", "tail_ms"):
            m[f"trace.overhead.{key}.{name}"] = (
                traced[key] / base[key] - 1.0, "ratio")
    return m


def checks(raw, all_summaries):
    """Every correctness check of the run: name -> passed."""
    c = raw["checks"]
    rmse = raw["rounds"][0]["rmse"]
    result = {
        "rmse within tolerance of reference":
            abs(rmse - raw["rmse_reference"])
            <= raw["rmse_tolerance"] * raw["rmse_reference"],
        "served forecasts equal direct Predict":
            c["served_equals_direct"] == 1 and c["served_checked"] > 0,
        "training repeats bitwise across rounds": c["runs_repeat"] == 1,
        "no kError response":
            all(s["counts"]["error"] == 0 for _, s in all_summaries),
        "every request answered":
            all(s["counts"]["unanswered"] == 0 for _, s in all_summaries),
        "hot-swaps replaced a healthy model": raw["swaps_failed"] == 0,
    }
    server = counter_total(raw["phases"])
    hits, submitted = server["cache_hits"], server["submitted"]
    if raw["workload"].endswith("-hot"):
        # The warm-up sent every hot window once, so every later request
        # should be a hit.
        share = hits / max(1, submitted)
        result[f"hot keys hit the cache (share {share:.4f} >= "
               f"{MIN_HOT_HIT_SHARE})"] = (
            submitted > 0 and share >= MIN_HOT_HIT_SHARE)
    else:
        result["unique keys never hit the cache"] = hits == 0
    if raw["trace"]:
        result["replica losses equal StsmRunner losses"] = (
            c["replica_losses_equal"] == 1)
        result["replica rmse equals StsmRunner rmse"] = (
            c["replica_rmse_equal"] == 1)
        result["autograd nodes per batch repeat"] = (
            c["autograd_nodes_repeat"] == 1)
        result["wire frames decode"] = raw["wire"]["decode_ok"] == 1
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not self_test():
        log("benchmark statistics self-test failed")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_root = build_root.resolve()
    binary = build(build_root)
    if binary is None:
        return 1
    (build_root / "runs").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=build_root / "runs"))
    try:
        raw = run_binary(binary, args, build_root, workdir, RUN_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError, ValueError) as error:
        log(f"benchmark run failed: {error}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def summarize(phases, names):
        groups = [[p for p in phases if p["name"] == n] for n in names]
        return [(g[0]["rate"], stats.rate_summary(g, SLO_MS, MAX_FAILED_SHARE))
                for g in groups if g]

    # Phases are grouped by rate name; the swap phase, if any, counts only
    # towards correctness and failures.
    all_summaries = summarize(raw["phases"], PHASES + ("swap",))
    summaries = all_summaries[:3]
    traced_summaries = []
    if args.trace:
        traced_summaries = summarize(raw["traced_phases"], PHASES)
        all_summaries += traced_summaries
        metrics = per_layer(raw, summaries, traced_summaries)
    else:
        metrics = end_to_end(raw, summaries)
    results = checks(raw, all_summaries)

    print(f"workload {args.workload} seed {args.seed} "
          f"({raw['nodes']} sensors, {raw['unobserved']} unobserved; "
          f"{raw['shards']} shards x {raw['workers_per_shard']} workers, "
          f"{raw['intra_op_threads']} intra-op threads)")
    names = [n for n in PHASES + ("swap",)
             if any(p["name"] == n for p in raw["phases"])]
    names += [n + " (traced)" for n in PHASES] if args.trace else []
    for (rate, s), name in zip(all_summaries, names):
        c = s["counts"]
        print(f"  phase {name} "
              f"{rate:g} rps: sent {c['sent']} ok {c['ok']} "
              f"rejected {c['rejected']} degraded {c['degraded']} "
              f"error {c['error']} unanswered {c['unanswered']}; "
              f"p50 {s['p50_ms']:.3f} ms, "
              f"tail (p{s['tail_q']:g}) {s['tail_ms']:.3f} ms"
              f"{'' if s['meets_slo'] else ', misses the SLO'}")
    for name, passed in results.items():
        print(f"  check {'ok  ' if passed else 'FAIL'} {name}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    swaps = len(raw["swap_ms"])
    # STSM and the baseline runs of every round; the traced run adds the
    # replica.
    runs = sum(1 + sum(len(times) for times in r["baselines"].values())
               for r in raw["rounds"]) + (1 if args.trace else 0)
    attempted = sum(s["counts"]["sent"] for _, s in all_summaries)
    failed = sum(s["failed"] for _, s in all_summaries) + raw["swaps_failed"]
    result = {
        "correct": all(results.values()),
        "attempted": attempted + swaps + runs,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value)
                           else NOT_FINITE, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
