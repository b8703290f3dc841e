"""Where each layer is entered, and the wrappers that trace it.

Span names are ``<layer>.<operation>``; the layer names are the report's
(see ``report.py``).  Each entry wraps the name at the place its caller
looks it up, so a function imported by name is wrapped in the importing
module, and a method on its class.
"""

from __future__ import annotations

import json as _json
import types

from tracing import Tracer


def _json_proxy(tracer: Tracer) -> types.ModuleType:
    """A stand-in for the ``json`` module whose ``loads`` is traced."""
    proxy = types.ModuleType("json")
    proxy.__dict__.update(_json.__dict__)

    def loads(*args, **kwargs):
        if not tracer.enabled:
            return _json.loads(*args, **kwargs)
        return tracer.call("ingest.json_parse", _json.loads, args, kwargs)

    proxy.loads = loads
    return proxy


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.datasets
    import repro.distributed.coordinator as coordinator
    import repro.distributed.file_queue as file_queue
    import repro.distributed.worker as worker
    import repro.service.ingest as ingest
    import repro.service.session as session
    import repro.simulation.engines as engines
    import repro.simulation.runner as runner
    import repro.simulation.sinks as sinks
    import repro.simulation.state as state
    import repro.store.results_store as results_store

    def count(name, measure=lambda result, args: 1):
        def after(result, args):
            tracer.count(name, measure(result, args))

        return after

    wrap = tracer.wrap

    # datasets
    wrap(repro.datasets, "make_dataset", "datasets.build")

    # simulation.engines: construction, then each family's round entry points
    wrap(runner, "engine_for", "engines.construct")

    def memo_bytes(result, args):
        nbytes = args[0].memo_nbytes()
        if nbytes:
            tracer.maximum("state.memo_bytes", nbytes)

    for cls, family in (
        (engines.UnaryChainEngine, "unary"),
        (engines.DBitFlipEngine, "dbitflip"),
        (engines.LOLOHAEngine, "loloha"),
        (engines.GRRChainEngine, "grr"),
    ):
        for method in ("run_round", "run_rounds"):
            wrap(cls, method, f"engines.{family}", after=memo_bytes)

    # simulation.kernels, where the engines look them up
    wrap(
        engines, "ue_fresh_rows_kernel", "kernels.ue_fresh_rows",
        after=count("kernels.ue_fresh_rows_cells", lambda r, a: r.size),
    )
    wrap(engines, "dbitflip_fresh_bits_kernel", "kernels.dbitflip_fresh_bits")
    wrap(engines, "sample_buckets_kernel", "kernels.sample_buckets")

    # simulation.state: the memo tables' resolve / ensure / read entry points
    def counting_memo(cls, attr):
        original = getattr(cls, attr)

        def wrapped(self, keys, fresh):
            if not tracer.enabled:
                return original(self, keys, fresh)

            def counted_fresh(users, fresh_keys):
                tracer.count("state.fresh_rows", len(users))
                return fresh(users, fresh_keys)

            tracer.count("state.keys_resolved", len(keys))
            return tracer.call("state.memo", original, (self, keys, counted_fresh), {})

        tracer.replace(cls, attr, wrapped)

    counting_memo(state.DenseSymbolMemo, "resolve")
    counting_memo(state.PackedBitMemo, "ensure_rows")
    counting_memo(state.SparsePackedBitMemo, "ensure_rows")
    wrap(state._PackedBitMemoBase, "resolve", "state.memo")
    wrap(state.PackedBitMemo, "packed_rows", "state.memo")
    wrap(state.SparsePackedBitMemo, "packed_rows", "state.memo")

    # simulation.sinks and the results store
    for attr in ("add_round", "estimates", "to_summary"):
        wrap(sinks.SupportCountSink, attr, "sinks.fold")
    wrap(sinks.ShardedSink, "absorb", "sinks.fold")
    wrap(
        results_store.ResultsStore, "append_rows", "store.append",
        after=count("store.append_calls"),
    )

    # distributed.codec, where worker and coordinator look it up
    wrap(
        worker, "encode_summary", "codec.encode_summary",
        after=count("codec.summary_bytes", lambda r, a: len(r)),
    )
    wrap(coordinator, "decode_summary", "codec.decode_summary")

    # distributed.worker: one shard's compute
    wrap(worker, "run_shard_task", "worker.shard")

    # distributed.file_queue and distributed.coordinator
    wrap(
        file_queue.FileQueueWorker, "claim", "file_queue.claim",
        after=count("file_queue.claims_empty", lambda r, a: r is None),
    )
    wrap(file_queue.FileQueueWorker, "complete", "file_queue.complete")
    wrap(file_queue.FileQueueTransport, "poll_summary", "coordinator.poll_wait")
    wrap(coordinator.Coordinator, "absorb", "coordinator.absorb")

    # service.ingest: body parse and report decode in the request handler
    tracer.replace(ingest, "json", _json_proxy(tracer))
    wrap(
        ingest, "decode_reports", "ingest.decode_reports",
        after=count("ingest.reports_decoded", lambda r, a: len(r)),
    )

    # service.session: the consumer's fold and the estimate reads
    wrap(
        session.CollectorSession, "submit_counts", "session.submit_counts",
        after=count("session.batches_folded"),
    )
    wrap(session.CollectorSession, "estimate", "session.estimate")


def trace_protocol_fold(tracer: Tracer, protocol) -> None:
    """Trace ``protocol.support_counts`` on one protocol instance.

    The ingest handler reaches the fold through its session's protocol
    object, so the wrapper sits on that instance.
    """
    tracer.wrap(protocol, "support_counts", "ingest.fold")
