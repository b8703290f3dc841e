"""collect-fq: one distributed collection over the file-spool transport.

An OLOLOHA collection on ``syn`` is split into many shards and published at
once through ``FileQueueTransport``.  The ``Coordinator`` runs in the
benchmark process; two worker processes run ``run_worker`` against the same
spool, each holding the dataset it rebuilt from the plan's ``DatasetRef`` --
the topology of ``repro-ldp serve --transport file`` with two ``repro-ldp
work`` processes.  A run times several collections, each on a fresh spool
(a reused spool would hand back the previous collection's summaries, which
carry the same plan fingerprint) and each bracketed by host probes.  The
probe runs in both worker processes at once, so it sees the speed of every
CPU the collection uses, not only the one the coordinator happens to be on.
"""

from __future__ import annotations

import multiprocessing
import shutil
import time
from pathlib import Path

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
    reset_peak_rss,
    shared_rss_kb,
)
from probe import HostProbe

FULL = {"scale": 0.25, "shards": 64}
TINY = {"scale": 0.05, "shards": 8}
N_WORKERS = 2
EPS_INF, EPS_1 = 2.0, 1.0
#: Claim poll of the workers; the coordinator polls the spool at the
#: transport's own 20 ms.
POLL_S = 0.02


class _PipeStop:
    """``run_worker``'s stop flag: set once the coordinator sends a message."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def is_set(self) -> bool:
        return self._conn.poll()


class _TimedEndpoint:
    """Worker endpoint that times each shard from claim to summary written."""

    def __init__(self, endpoint) -> None:
        self._endpoint = endpoint
        self._claimed_at = {}
        self.latencies = []

    def claim(self, timeout: float = 0.0):
        envelope = self._endpoint.claim(timeout=timeout)
        if envelope is not None:
            self._claimed_at[envelope.shard_id] = time.perf_counter()
        return envelope

    def complete(self, shard_id: int, payload: bytes) -> None:
        self._endpoint.complete(shard_id, payload)
        self.latencies.append(time.perf_counter() - self._claimed_at.pop(shard_id))

    def close(self) -> None:
        self._endpoint.close()


def _worker_main(conn, dataset_ref, tracer, spans_dir) -> None:
    """A worker process: rebuild the dataset, then serve collections."""
    from repro.distributed import FileQueueWorker, run_worker

    if tracer is not None:
        tracer.reset("worker")
        tracer.enabled = True
        tracer.phase = "setup"
    dataset = dataset_ref.build()
    probe = HostProbe()
    conn.send(("ready",))
    while True:
        message = conn.recv()
        if message[0] == "exit":
            break
        if message[0] == "probe":
            conn.send(("probe", probe()))
            continue
        _, spool, traced = message
        if tracer is not None:
            tracer.enabled = traced
            tracer.phase = "run"
        endpoint = _TimedEndpoint(FileQueueWorker(spool))
        # Pages shared with the benchmark process are counted there.
        reset_peak_rss()
        shared_kb = shared_rss_kb()
        conn.send(("attached",))
        started = time.perf_counter()
        try:
            completed = run_worker(
                endpoint,
                dataset=dataset,
                idle_timeout=None,
                poll_interval=POLL_S,
                stop=_PipeStop(conn),
            )
        finally:
            endpoint.close()
        wall = time.perf_counter() - started
        conn.recv()  # the stop message that ended run_worker
        conn.send(("done", completed, endpoint.latencies, wall, peak_rss_kb() - shared_kb))
    if tracer is not None:
        tracer.dump(Path(spans_dir) / f"worker-{multiprocessing.current_process().pid}.jsonl")
    conn.send(("bye",))


def setup(seeds, tiny: bool, tracer=None, spans_dir=None):
    """Imports, dataset and plan, worker processes started and ready."""
    import repro.datasets
    from repro.distributed import DatasetRef
    from repro.simulation.runner import make_shard_tasks
    from repro.specs import ProtocolSpec

    size = TINY if tiny else FULL
    dataset = repro.datasets.make_dataset("syn", scale=size["scale"], rng=seeds.dataset)
    spec = ProtocolSpec(name="OLOLOHA", k=dataset.k, eps_inf=EPS_INF, eps_1=EPS_1)
    tasks = make_shard_tasks(spec, dataset, size["shards"], seeds.simulation)
    ref = DatasetRef(name="syn", scale=size["scale"], seed=seeds.dataset)
    # fork: the workers inherit the installed trace wrappers; nothing in this
    # process runs threads at this point.
    context = multiprocessing.get_context("fork")
    workers, ready_s = [], []
    for _ in range(N_WORKERS):
        started = time.perf_counter()
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main, args=(child_conn, ref, tracer, spans_dir), daemon=True
        )
        process.start()
        workers.append((process, parent_conn))
        ready_s.append(started)
    for index, (process, conn) in enumerate(workers):
        require(conn.poll(120.0), "a worker process did not become ready")
        require(conn.recv() == ("ready",), "unexpected worker start message")
        ready_s[index] = time.perf_counter() - ready_s[index]
    return {
        "dataset": dataset,
        "spec": spec,
        "tasks": tasks,
        "ref": ref,
        "workers": workers,
        "worker_setup_s": ready_s,
    }


def teardown(handle) -> None:
    for process, conn in handle["workers"]:
        if process.is_alive():
            conn.send(("exit",))
    for process, conn in handle["workers"]:
        if conn.poll(30.0):
            conn.recv()
        process.join(30.0)
        if process.is_alive():
            process.kill()
            process.join()


def _expect(conn, kind: str, timeout: float = 120.0):
    require(conn.poll(timeout), f"no {kind!r} message from a worker process")
    message = conn.recv()
    require(message[0] == kind, f"expected {kind!r} from a worker, got {message[0]!r}")
    return message


def run(ctx: Context, handle) -> Outcome:
    from repro.distributed import Coordinator, FileQueueTransport
    from repro.simulation.runner import result_from_summaries, simulate_protocol_sharded

    dataset, spec, tasks, ref = handle["dataset"], handle["spec"], handle["tasks"], handle["ref"]
    workers = handle["workers"]
    # Untimed serial reference of the same plan (same shards, same seeds).
    reference = in_child(
        lambda: simulate_protocol_sharded(
            spec, dataset, len(tasks), rng=ctx.seeds.simulation
        ).estimates
    )

    def dead_worker():
        if any(not process.is_alive() for process, _ in workers):
            return "a worker process exited"
        return None

    def probe_workers() -> float:
        """Host speed as the workers see it: both probe at once, one per CPU."""
        for _, conn in workers:
            conn.send(("probe",))
        return sum(_expect(conn, "probe")[1] for _, conn in workers) / len(workers)

    ctx.clock.probe = probe_workers
    outcome = Outcome()
    shard_scaled, shard_raw = [], []
    for index, (warmup, traced) in enumerate(pass_plan(ctx, warmup=True)):
        spool = ctx.work_dir / f"spool-{index}"
        transport = FileQueueTransport(spool)
        coordinator = Coordinator(tasks, transport, dataset_ref=ref)
        # The probes run while the workers wait on their pipes, so the
        # attach and stop hand-shakes sit between probe and timed work.
        ctx.clock.start()
        for _, conn in workers:
            conn.send(("collect", str(spool), traced))
        for _, conn in workers:
            _expect(conn, "attached")
        ctx.clock.reopen()
        coordinator.run(timeout=120.0, abort=dead_worker)
        estimates = result_from_summaries(
            spec, dataset, coordinator.ordered_summaries()
        ).estimates
        estimated_at = time.perf_counter()
        latencies, walls, worker_rss_kb = [], [], 0
        for _, conn in workers:
            conn.send(("stop",))
            _, completed, shard_latencies, wall, rss_kb = _expect(conn, "done")
            latencies.extend(shard_latencies)
            walls.append(wall)
            worker_rss_kb += rss_kb
        segment = ctx.clock.stop(ended_at=estimated_at)
        transport.close()
        shutil.rmtree(spool)
        if ctx.corrupt:
            estimates = estimates.copy()
            estimates[0, 0] += 1e-9
        require(
            np.array_equal(estimates, reference),
            f"collection {index}: estimates differ from the serial sharded reference",
        )
        if warmup:
            continue
        outcome.attempted += len(tasks)
        outcome.failed += coordinator.requeued + coordinator.duplicates + coordinator.foreign
        if not outcome.peak_rss_kb:
            outcome.peak_rss_kb = peak_rss_kb() + worker_rss_kb
        outcome.record_pass([segment], traced)
        if traced:
            outcome.worker_walls.append(walls)
            for name in ("requeued", "duplicates"):
                key = f"coordinator.{name}"
                outcome.layers[key] = outcome.layers.get(key, 0) + getattr(coordinator, name)
        else:
            shard_scaled.extend(value * segment.factor for value in latencies)
            shard_raw.extend(latencies)
    outcome.set_timings(dataset.n_users * dataset.n_rounds, shard_scaled, shard_raw, percentile)
    outcome.layers["worker.setup_s"] = median(handle["worker_setup_s"])
    return outcome
