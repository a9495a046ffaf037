"""Statistics of the benchmark: percentiles, the tail rule, the SLO search and
span self time. Pure functions over plain lists, unit-tested in
test_stats.py."""

import math
import statistics

# Percentiles considered for a tail, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values, q):
    """The q-th percentile (0-100) of `values`, interpolating linearly
    between the two nearest ranks. Infinite values sort last."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    if frac == 0.0 or ordered[lo] == ordered[hi]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND of
    `n` samples beyond it, or None when even the median has too few."""
    best = None
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = q
    return best


def backlog_grows(latencies_in_order, slo_ms):
    """True when the requests of the last third of a phase waited clearly
    longer than those of the first third: more than half the SLO between
    the two medians. A server that keeps up shows no trend."""
    n = len(latencies_in_order)
    if n < 6:
        return False
    third = n // 3
    first = statistics.median(latencies_in_order[:third])
    last = statistics.median(latencies_in_order[-third:])
    return last - first > 0.5 * slo_ms


def rate_summary(phases, slo_ms, max_failed_share):
    """Latency and outcome summary of the open-loop phases run at one rate.

    Each phase has the offered `rate` and `seconds`, the `wall_seconds` from
    its first scheduled send to its last response, and per request, in
    schedule order, `latency_ms` and `status` (0 ok, 1 degraded, 2 rejected,
    3 error, -1 unanswered). Samples are pooled over the phases. A request
    that did not end ok counts as failed and as infinitely late, so it
    misses the SLO. The tail percentile is chosen from the expected sample
    count (rate x seconds), so every run reports the same percentile. The
    backlog grows if it grows in any one phase. `ok_rps` is the rate of ok
    responses over the phases' wall time.
    """
    latency, status = [], []
    grows = False
    for phase in phases:
        lat = [x if s == 0 else math.inf
               for x, s in zip(phase["latency_ms"], phase["status"])]
        grows = grows or backlog_grows(lat, slo_ms)
        latency += lat
        status += phase["status"]
    sent = len(status)
    counts = {"sent": sent,
              "ok": status.count(0),
              "degraded": status.count(1),
              "rejected": status.count(2),
              "error": status.count(3),
              "unanswered": status.count(-1)}
    failed = sent - counts["ok"]
    tail_q = tail_percentile(sum(p["rate"] * p["seconds"] for p in phases))
    p50 = percentile(latency, 50.0) if sent else math.inf
    tail = percentile(latency, tail_q) if sent and tail_q else math.inf
    meets = (sent > 0 and tail <= slo_ms and not grows
             and failed <= max_failed_share * sent)
    return {"p50_ms": p50, "tail_ms": tail, "tail_q": tail_q,
            "failed": failed, "counts": counts, "backlog_grows": grows,
            "meets_slo": meets,
            "ok_rps": counts["ok"] / sum(p["wall_seconds"] for p in phases)}


def max_rps_slo(summaries):
    """Measured ok-response rate of the highest-rate phase that meets the SLO
    (0 when none does). `summaries` pairs each offered rate with its
    rate_summary."""
    best_rate, best = -1.0, 0.0
    for rate, summary in summaries:
        if summary["meets_slo"] and rate > best_rate:
            best_rate, best = rate, summary["ok_rps"]
    return best


def self_times(spans):
    """Self time (ns) of each span: its duration minus the part of it that
    its child spans cover. Children may overlap one another; the covered
    part is the union of their intervals, clipped to the parent."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    result = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        intervals = sorted((max(start, spans[c]["start"]),
                            min(end, spans[c]["end"])) for c in children[i])
        covered, cur_start, cur_end = 0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        result.append(end - start - covered)
    return result


def self_time_by_root(spans, root_name):
    """For every root span named `root_name`, the summed self time (ns) of
    each span name in its subtree (the root under its own name). Returns a
    list with one {name: ns} dict per root, in order."""
    selfs = self_times(spans)
    root_of = []
    for span in spans:
        p = span["parent"]
        root_of.append(root_of[p] if p >= 0 else None)
        if p < 0:
            root_of[-1] = len(root_of) - 1
    per_root = {}
    for i, span in enumerate(spans):
        r = root_of[i]
        if spans[r]["name"] != root_name:
            continue
        totals = per_root.setdefault(r, {})
        totals[span["name"]] = totals.get(span["name"], 0) + selfs[i]
    return [per_root[r] for r in sorted(per_root)]

