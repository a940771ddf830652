"""Arithmetic of the benchmark: percentiles, failure ratio, span self time,
and the end-to-end and per-layer metrics derived from one run's raw result.

The JVM side records samples, counters and spans; everything computed from
them lives here so that it can be tested on hand-made inputs
(test_stats.py).
"""

import math
import statistics

# Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def min_samples(p):
    """Smallest sample count with at least TAIL_SAMPLES samples beyond the
    p-th quantile (p in (0, 1)): 100 for p90."""
    return math.ceil(TAIL_SAMPLES / (1.0 - p) - 1e-9)


def percentile(xs, p):
    """Nearest-rank p-th quantile of xs. Raises ValueError when xs holds
    fewer than min_samples(p) values, so no percentile is reported without
    the tail samples behind it."""
    n = len(xs)
    if n < min_samples(p):
        raise ValueError(f"p{round(p * 100)} needs {min_samples(p)} samples, got {n}")
    s = sorted(xs)
    return s[max(0, math.ceil(p * n) - 1)]


def quantiles(xs):
    """Sample count and the quartiles and p90 that it supports."""
    out = {"n": len(xs)}
    for p in (0.25, 0.5, 0.75, 0.9):
        if len(xs) >= min_samples(p):
            out[f"p{round(p * 100)}"] = percentile(xs, p)
    return out


def failure_ratio(failed, attempted):
    """Share of attempted operations that failed."""
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, end = 0, lo
    for a, b in clipped:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def self_times(spans):
    """Map span id -> self time: the span's duration minus the part of its
    interval covered by its child spans (children may overlap each other)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


class SpanStats:
    """Per span name: calls, mean duration in ms, and summed counts."""

    def __init__(self, spans):
        self.calls, self.total_ms, self.counts = {}, {}, {}
        for s in spans:
            n = s["name"]
            self.calls[n] = self.calls.get(n, 0) + 1
            self.total_ms[n] = self.total_ms.get(n, 0.0) + (s["end"] - s["start"]) / 1e6
            for k, v in s["counts"].items():
                self.counts[(n, k)] = self.counts.get((n, k), 0.0) + v

    def mean_ms(self, name):
        return self.total_ms.get(name, 0.0) / self.calls[name] if name in self.calls else 0.0

    def total(self, name, key):
        return self.counts.get((name, key), 0.0)

    def mean(self, name, key):
        return self.total(name, key) / self.calls[name] if name in self.calls else 0.0


# End-to-end metrics. Every workload reports all of them, each for its own
# kind of operation (README.md); units and bounds are in BENCHMARK.json.
# The central latency is the mean, not the median: the host alternates
# between fast and slow phases of a few seconds, so the operation times of a
# run fall into two modes and their median jumps between the modes from run
# to run, while the mean moves only in proportion to the slow share.
END_TO_END = ("setup_s", "op_ms_mean", "op_ms_p90", "ops_per_s", "files_per_scan")


def end_to_end(raw):
    """End-to-end metric values of an untraced run: {name: value}."""
    xs = raw["samples"]["op_ms"]
    return {
        "setup_s": statistics.median(raw["setup_reps_s"]) + raw["setup_once_s"],
        "op_ms_mean": statistics.fmean(xs),
        "op_ms_p90": percentile(xs, 0.9),
        "ops_per_s": raw["values"]["ops_per_s"],
        "files_per_scan": raw["values"]["files_per_scan"],
    }


def per_layer(raw, spans, names):
    """Values of the per-layer metrics `names` in a traced run. Span-based
    times and counts are means per call; counters are run totals; a layer
    the workload does not exercise reads 0."""
    st = SpanStats(spans)
    v = raw["values"]
    stage_files = st.total("lst.stage", "files")
    act_attempts = st.total("core.act", "attempts")
    out = {
        "lst.stage_ms": st.mean_ms("lst.stage"),
        "lst.stage_ms_per_file": st.total_ms.get("lst.stage", 0.0) / stage_files if stage_files else 0.0,
        "lst.stage_files": st.mean("lst.stage", "files"),
        "lst.commit_ms": st.mean_ms("lst.commit"),
        "lst.commit_bytes": st.mean("lst.commit", "bytes"),
        "lst.catalog_list_ms": st.mean_ms("lst.catalog_list"),
        "lst.snapshot_load_ms": st.mean_ms("lst.snapshot_load"),
        "lst.scan_plan_ms": st.mean_ms("lst.scan_plan"),
        "lst.scan_files": st.mean("lst.scan_plan", "files"),
        "workload.query_ms": st.mean_ms("workload.query"),
        "core.generate_ms": st.mean_ms("core.generate"),
        "core.candidates": st.mean("core.generate", "candidates"),
        "core.observe_ms": st.mean_ms("core.observe"),
        "core.filter_ms": st.mean_ms("core.filter"),
        "core.filtered_out": st.mean("core.filter", "filtered_out"),
        "core.rank_ms": st.mean_ms("core.rank"),
        "core.rank_pool": st.mean("core.rank", "pool"),
        "core.select_ms": st.mean_ms("core.select"),
        "core.selected": st.mean("core.select", "selected"),
        "core.act_ms": st.mean_ms("core.act"),
        "core.act_units": st.mean("core.act", "units"),
        "core.act_skipped": st.mean("core.act", "skipped"),
        "core.act_useful_ratio": st.total("core.act", "useful") / act_attempts if act_attempts else 0.0,
        "core.bytes_rewritten": st.mean("core.act", "bytes_rewritten"),
        "workload.append_ms": st.mean_ms("workload.append"),
        "workload.delete_ms": st.mean_ms("workload.delete"),
        "workload.hour_ms": st.mean_ms("workload.hour"),
        "workload.tick_wait_ms": st.mean_ms("workload.tick_wait"),
        "fleet.day_self_ms": (st.mean_ms("fleet.day") - st.mean_ms("core.rank") - st.mean_ms("core.select")
                              if "fleet.day" in st.calls else 0.0),
        "fleet.pool_size": st.mean("core.rank", "pool") if "fleet.day" in st.calls else 0.0,
        "fleet.k": st.mean("fleet.day", "k"),
    }
    return {name: out[name] if name in out else v.get(name, 0.0) for name in names}


def pass_breakdown(spans, pass_name="plan.pass"):
    """Share of traced planning-pass time its phase spans account for, and
    the share spent generating candidates (both in %)."""
    passes = [s for s in spans if s["name"] == pass_name]
    if not passes:
        return {}
    selfs = self_times(spans)
    total = sum(s["end"] - s["start"] for s in passes)
    ids = {s["id"] for s in passes}
    gen = sum(s["end"] - s["start"] for s in spans if s["name"] == "core.generate" and s["parent"] in ids)
    return {"phase_coverage_pct": 100.0 * (1 - sum(selfs[i] for i in ids) / total),
            "generate_share_pct": 100.0 * gen / total}
