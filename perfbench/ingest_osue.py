"""ingest-osue: a closed loop against the live ingestion service.

One client on one keep-alive connection posts L-OSUE raw reports (JSON bit
arrays) to an ``IngestServer`` that seals rounds by quorum, and reads the
running estimate after every few writes.  Server and client share one event
loop.  Request bodies are encoded before timing; the client waits for each
round to seal before starting the next, so the queue never fills and no
request meets a 429.  One pass is the server's whole horizon and each round
is a timed segment, with the host probe between rounds: the host's speed
changes within seconds, so short segments track it best.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np

from bench import (
    Context,
    Outcome,
    in_child,
    median,
    pass_plan,
    peak_rss_kb,
    percentile,
    require,
    segment_percentile,
)

FULL = {"users": 2000, "rounds": 20}
TINY = {"users": 100, "rounds": 4}
#: Protocol of ``benchmarks/bench_ingest.py``.
K = 64
EPS_INF, EPS_1 = 2.0, 1.0
#: Users per POST: the default of ``repro-ldp loadgen --batch-size``.
BATCH = 32
#: One ``GET /v1/estimate/<t>`` after this many report batches.
READ_EVERY = 4


def _protocol_spec():
    from repro.specs import ProtocolSpec

    return ProtocolSpec(name="L-OSUE", k=K, eps_inf=EPS_INF, eps_1=EPS_1)


def _start_server(loop, size):
    from repro.service.ingest import IngestServer
    from repro.specs import IngestSpec

    spec = IngestSpec(
        protocol=_protocol_spec(),
        n_rounds=size["rounds"],
        name="perfbench",
        port=0,
        quorum=size["users"],
        queue_capacity=4096,
    )
    server = IngestServer(spec)
    loop.run_until_complete(server.start())
    return server


def setup(seeds, tiny: bool, tracer=None, spans_dir=None):
    """Imports and a listening server: ready for the first report."""
    size = TINY if tiny else FULL
    loop = asyncio.new_event_loop()
    return {"loop": loop, "server": _start_server(loop, size)}


def teardown(handle) -> None:
    loop = handle["loop"]
    if handle["server"] is not None:
        loop.run_until_complete(handle["server"].stop())
    loop.close()


def make_inputs(seeds, size):
    """Encoded request bodies per round and the batch-session reference."""
    from repro.registry import build_protocol
    from repro.service import CollectorSession
    from repro.service.ingest import encode_reports
    from repro.service.loadgen import generate_round_reports

    protocol = build_protocol(_protocol_spec())
    rounds = generate_round_reports(protocol, size["rounds"], size["users"], seeds.reports)
    bodies = []
    reference = CollectorSession(_protocol_spec(), n_rounds=size["rounds"])
    for t, reports in enumerate(rounds):
        round_bodies = []
        for start in range(0, len(reports), BATCH):
            batch = reports[start : start + BATCH]
            payload = {"round": t, "reports": encode_reports(protocol, batch)}
            round_bodies.append(json.dumps(payload).encode("utf-8"))
            reference.submit_reports(t, batch)
        bodies.append(round_bodies)
    return bodies, reference.estimates()


async def _pass(ctx, server, bodies, tracer_fold_count, stats, traced):
    """One horizon; returns this pass's segments and per-request timings."""
    from repro.service.http import HttpClient

    host, port = server.address
    client = HttpClient(host, port)
    clock = ctx.clock
    first = len(clock.segments)
    posts, reads = [], []  # (segment offset, raw seconds)
    accepted = 0
    folded_at_start = tracer_fold_count()
    try:
        clock.start()
        for t, round_bodies in enumerate(bodies):
            if t:
                clock.split()
            segment = len(clock.segments) - first
            for body in round_bodies:
                sent = time.perf_counter()
                response = await client.request("POST", "/v1/reports", body=body)
                posts.append((segment, time.perf_counter() - sent))
                stats["attempted"] += 1
                if response.status != 202:
                    stats["failed"] += 1
                    continue
                accepted += 1
                if traced:
                    waiting = accepted - (tracer_fold_count() - folded_at_start)
                    stats["queue_depth_max"] = max(stats["queue_depth_max"], waiting)
                if stats["attempted"] % READ_EVERY == 0:
                    sent = time.perf_counter()
                    response = await client.request("GET", f"/v1/estimate/{t}")
                    reads.append((segment, time.perf_counter() - sent))
                    require(response.status == 200, f"estimate read answered {response.status}")
            require(stats["failed"] == 0, f"round {t} cannot seal: a batch was refused")
            # Let the consumer fold what is queued; the round seals on quorum.
            while not server.clock.is_sealed(t):
                await asyncio.sleep(0)
        estimates = server.session.estimates()
        clock.stop()
    finally:
        await client.close()
    segments = clock.segments[first:]
    return segments, posts, reads, estimates


def run(ctx: Context, handle) -> Outcome:
    size = TINY if ctx.tiny else FULL
    loop = handle["loop"]
    bodies, reference = in_child(make_inputs, ctx.seeds, size)
    reports_per_pass = size["users"] * size["rounds"]
    tracer = ctx.tracer

    def fold_count():
        return tracer.counts.get("session.batches_folded", 0) if tracer else 0

    outcome = Outcome()
    stats = {"attempted": 0, "failed": 0, "queue_depth_max": 0}
    post_scaled, post_raw, read_scaled, traced_posts = [], [], [], []
    seal_durations = []
    for index, (warmup, traced) in enumerate(pass_plan(ctx, warmup=True)):
        server = handle["server"] = handle["server"] or _start_server(loop, size)
        if tracer is not None:
            from layers import trace_protocol_fold

            trace_protocol_fold(tracer, server.session.protocol)
        segments, posts, reads, estimates = loop.run_until_complete(
            _pass(ctx, server, bodies, fold_count, stats, traced)
        )
        loop.run_until_complete(server.stop())
        handle["server"] = None
        if ctx.corrupt:
            estimates = estimates.copy()
            estimates[0, 0] += 1e-9
        require(
            np.array_equal(estimates, reference),
            f"pass {index}: live estimates differ from the batch session's",
        )
        if warmup:
            stats.update(attempted=0, failed=0)
            continue
        if not outcome.peak_rss_kb:
            outcome.peak_rss_kb = peak_rss_kb()
        seal_durations.extend(event.duration for event in server.clock.seals)
        outcome.record_pass(segments, traced)
        if traced:
            traced_posts.extend(raw for _, raw in posts)
        else:
            by_segment = [[] for _ in segments]
            for i, raw in posts:
                by_segment[i].append(raw)
            post_scaled.extend([raw * s.factor for raw in g] for s, g in zip(segments, by_segment))
            post_raw.extend(by_segment)
            read_scaled.extend(raw * segments[i].factor for i, raw in reads)
    outcome.attempted = stats["attempted"]
    outcome.failed = stats["failed"]
    outcome.set_timings(reports_per_pass, post_scaled, post_raw, segment_percentile)
    request_bytes = sum(len(body) for round_bodies in bodies for body in round_bodies)
    outcome.layers.update(
        {
            "ingest.estimate_latency_p50_s": percentile(read_scaled, 50),
            "ingest.submit_latency_p99_s": percentile(sum(post_scaled, []), 99),
            "ingest.request_bytes_per_report": request_bytes / reports_per_pass,
            "ingest.queue_depth_max": stats["queue_depth_max"],
            "ingest.rejected": stats["failed"],
            "clock.seals": len(seal_durations),
            "clock.seal_p50_s": median(seal_durations),
            "http.post_s": sum(traced_posts),
        }
    )
    return outcome
