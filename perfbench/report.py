"""Per-layer metrics of a traced run, from its span files and counters."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from bench import Outcome, median
from probe import probe_stats
from tracing import durations, load_spans, self_times

#: Report layer -> the span names whose self time it owns.
LAYERS = {
    "engines": ("engines.construct", "engines.unary", "engines.dbitflip",
                "engines.loloha", "engines.grr"),
    "kernels": ("kernels.ue_fresh_rows", "kernels.dbitflip_fresh_bits",
                "kernels.sample_buckets"),
    "state": ("state.memo",),
    "sinks": ("sinks.fold",),
    "store": ("store.append",),
    "codec": ("codec.encode_summary", "codec.decode_summary"),
    "file_queue": ("file_queue.claim", "file_queue.complete"),
    "coordinator": ("coordinator.poll_wait", "coordinator.absorb"),
    "worker": ("worker.shard",),
    "ingest": ("ingest.json_parse", "ingest.decode_reports", "ingest.fold"),
    "session": ("session.submit_counts", "session.estimate"),
}

#: Per-layer metrics reported for every workload, in report order, with units.
#: A layer a workload never enters reads 0.
PER_LAYER_UNITS = {
    "datasets.build_s": "s",
    "engines.construct_s": "s",
    "engines.unary.self_s": "s",
    "engines.dbitflip.self_s": "s",
    "engines.loloha.self_s": "s",
    "engines.grr.self_s": "s",
    "kernels.ue_fresh_rows_s": "s",
    "kernels.ue_fresh_rows_cells": "count",
    "kernels.dbitflip_fresh_bits_s": "s",
    "kernels.sample_buckets_s": "s",
    "state.memo_self_s": "s",
    "state.fresh_ratio": "ratio",
    "state.memo_bytes": "bytes",
    "sinks.self_s": "s",
    "store.append_s": "s",
    "store.append_calls": "count",
    "codec.encode_summary_s": "s",
    "codec.decode_summary_s": "s",
    "codec.summary_bytes": "bytes",
    "file_queue.complete_s": "s",
    "file_queue.claim_s": "s",
    "file_queue.claim_empty_ratio": "ratio",
    "coordinator.poll_wait_s": "s",
    "coordinator.absorb_s": "s",
    "coordinator.requeued": "count",
    "coordinator.duplicates": "count",
    "worker.busy_s": "s",
    "worker.idle_s": "s",
    "worker.imbalance": "ratio",
    "worker.shard_p50_s": "s",
    "worker.setup_s": "s",
    "ingest.json_parse_s": "s",
    "ingest.decode_reports_s": "s",
    "ingest.fold_s": "s",
    "ingest.request_bytes_per_report": "bytes",
    "ingest.queue_depth_max": "count",
    "ingest.rejected": "count",
    "ingest.submit_latency_p99_s": "s",
    "ingest.estimate_latency_p50_s": "s",
    "session.submit_counts_s": "s",
    "session.estimate_s": "s",
    "clock.seals": "count",
    "clock.seal_p50_s": "s",
    "http.residual_s": "s",
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "share.http": "ratio",
    "host.probe_p50_s": "s",
    "host.probe_cv": "ratio",
    "scaled.submit_latency_p90_s": "s",
    "raw.time_to_estimate_s": "s",
    "raw.reports_per_s": "1/s",
    "raw.submit_latency_p50_s": "s",
    "raw.submit_latency_p90_s": "s",
    "raw.setup_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    span_files, outcome: Outcome, probes, raw_setup_s: float
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of the traced run.

    Span times are raw wall seconds per traced pass (summed over processes).
    A layer's share is its self time over the process-seconds of the traced
    passes (benchmark process plus worker processes).
    """
    spans, counts, maxima = load_spans(span_files)
    table = self_times(spans, phase="run")
    passes = max(1, len(outcome.traced))

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0) / passes

    def per_pass(name: str) -> float:
        return counts.get(name, 0.0) / passes

    values: Dict[str, float] = defaultdict(float)
    builds = durations(spans, "datasets.build", phase="setup")
    values["datasets.build_s"] = median(builds) if builds else 0.0
    values["engines.construct_s"] = self_s("engines.construct")
    for family in ("unary", "dbitflip", "loloha", "grr"):
        values[f"engines.{family}.self_s"] = self_s(f"engines.{family}")
    values["kernels.ue_fresh_rows_s"] = self_s("kernels.ue_fresh_rows")
    values["kernels.ue_fresh_rows_cells"] = per_pass("kernels.ue_fresh_rows_cells")
    values["kernels.dbitflip_fresh_bits_s"] = self_s("kernels.dbitflip_fresh_bits")
    values["kernels.sample_buckets_s"] = self_s("kernels.sample_buckets")
    values["state.memo_self_s"] = self_s("state.memo")
    values["state.fresh_ratio"] = _ratio(counts["state.fresh_rows"], counts["state.keys_resolved"])
    values["state.memo_bytes"] = maxima.get("state.memo_bytes", 0.0)
    values["sinks.self_s"] = self_s("sinks.fold")
    values["store.append_s"] = self_s("store.append")
    values["store.append_calls"] = per_pass("store.append_calls")
    values["codec.encode_summary_s"] = self_s("codec.encode_summary")
    values["codec.decode_summary_s"] = self_s("codec.decode_summary")
    encodes = table.get("codec.encode_summary", {}).get("calls", 0)
    values["codec.summary_bytes"] = _ratio(counts["codec.summary_bytes"], encodes)
    values["file_queue.complete_s"] = self_s("file_queue.complete")
    values["file_queue.claim_s"] = self_s("file_queue.claim")
    claims = table.get("file_queue.claim", {}).get("calls", 0)
    values["file_queue.claim_empty_ratio"] = _ratio(counts["file_queue.claims_empty"], claims)
    values["coordinator.poll_wait_s"] = self_s("coordinator.poll_wait")
    values["coordinator.absorb_s"] = self_s("coordinator.absorb")

    # Worker busy time: per worker process (span file), the shard work it
    # did -- run the shard, encode its summary, write it to the spool.
    busy_by_process: Dict[int, float] = defaultdict(float)
    busy_names = ("worker.shard", "codec.encode_summary", "file_queue.complete")
    for span_id, parent, name, start, end, phase in spans:
        if phase == "run" and name in busy_names:
            busy_by_process[span_id[0]] += end - start
    if busy_by_process and outcome.worker_walls:
        busy = list(busy_by_process.values())
        walls = [sum(column) for column in zip(*outcome.worker_walls)]
        mean_busy = sum(busy) / len(busy)
        values["worker.busy_s"] = mean_busy / passes
        values["worker.idle_s"] = max(0.0, sum(walls) / len(walls) - mean_busy) / passes
        values["worker.imbalance"] = max(busy) / mean_busy
    shards = durations(spans, "worker.shard")
    values["worker.shard_p50_s"] = median(shards) if shards else 0.0

    values["ingest.json_parse_s"] = self_s("ingest.json_parse")
    values["ingest.decode_reports_s"] = self_s("ingest.decode_reports")
    values["ingest.fold_s"] = self_s("ingest.fold")
    values["session.submit_counts_s"] = self_s("session.submit_counts")
    values["session.estimate_s"] = self_s("session.estimate")
    for name, value in outcome.layers.items():
        if name in PER_LAYER_UNITS:
            values[name] = value
    post_s = outcome.layers.get("http.post_s", 0.0) / passes
    if post_s:
        values["http.residual_s"] = max(
            0.0,
            post_s - values["ingest.json_parse_s"] - values["ingest.decode_reports_s"]
            - values["ingest.fold_s"],
        )

    # Process-seconds the spans can cover: the benchmark process over the
    # traced passes, plus each worker process while it ran run_worker.
    worker_seconds = sum(sum(walls) for walls in outcome.worker_walls)
    process_seconds = (outcome.traced_wall_s + worker_seconds) / passes
    for layer, names in LAYERS.items():
        values[f"share.{layer}"] = _ratio(sum(self_s(n) for n in names), process_seconds)
    values["share.http"] = _ratio(values["http.residual_s"], process_seconds)

    stats = probe_stats(probes)
    values["host.probe_p50_s"] = stats["p50_s"]
    values["host.probe_cv"] = stats["cv"]
    # Tail latency swings with the host's speed regime more than the bounds
    # allow, so p90 is a per-layer diagnostic, not an end-to-end metric.
    values["scaled.submit_latency_p90_s"] = outcome.timings["submit_latency_p90_s"]
    for name, value in outcome.raw.items():
        values[f"raw.{name}"] = value
    values["raw.setup_s"] = raw_setup_s
    values["trace.overhead"] = (
        median(outcome.traced) / median(outcome.untraced) - 1.0
        if outcome.traced and outcome.untraced
        else 0.0
    )
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER_UNITS.items()}
