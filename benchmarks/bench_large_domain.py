"""Large-domain (k = 2048) round benchmarks: aggregated vs legacy round paths.

The scaling pass made every engine's instantaneous round cost a function of
the domain size alone: L-GRR and LOLOHA sample support counts per memoized
symbol (two binomials per value), and the UE round folds the bit-packed memo
rows straight into column sums — never unpacking the ``(n_users, k)`` bit
matrix — with an incremental delta-fold that only re-folds users whose
value changed since the previous round.  This module times the new round
paths against the *legacy* computations they replaced (per-user GRR reports,
the unpack-and-sum UE fold, the dense hash-support compare), on the same
engines and the same memo state, at ``k = 2048`` — the scale where the
ROADMAP's dense paths stalled.

Two workloads bracket the delta-fold:

* ``steady``  — every user repeats its value (the sticky common case of
  longitudinal data; the delta-fold touches nothing);
* ``changing`` — every user redraws its value each round (the worst case;
  the fold runs over the full population).

``REPRO_BENCH_LARGE_N`` scales the population (default 10 000; CI smokes the
file at a reduced n with ``--benchmark-disable``).  The acceptance target of
the scaling pass was a >= 5x steady-round speedup for the UE and LOLOHA
rounds at ``n = 10^4, k = 2048``; the deterministic O(n)-independence guard
lives in ``tests/test_engines_and_simulation.py`` (draw counting), so CI
does not depend on wall-clock ratios.

Run as a script to emit a machine-readable timing report::

    PYTHONPATH=src python benchmarks/bench_large_domain.py --json report.json

Script mode also times an ``obs_overhead`` leg — the added cost of the
fully-enabled observability core (span tracing + a live metrics exporter)
per steady window, relative to the tracing-off default — asserts the
window counts stay bit-identical either way, and exits nonzero if the
overhead fraction exceeds ``--obs-overhead-max`` (default 2%).  The
committed baseline lives in ``BENCH_obs_overhead.json``.
"""

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np
import pytest

from repro.longitudinal import LGRR, LOSUE, OLOLOHA
from repro.simulation import engine_for
from repro.simulation.kernels import (
    grr_kernel,
    support_from_hashes_kernel,
    ue_binomial_counts_kernel,
)

K = 2_048
N_USERS = int(os.environ.get("REPRO_BENCH_LARGE_N", "10000"))
EPS_INF, EPS_1 = 2.0, 1.0
#: Distinct pre-warmed value rounds cycled by the ``changing`` workload.
N_CHANGING_ROUNDS = 8

PROTOCOLS = {
    "L-GRR": lambda: LGRR(K, EPS_INF, EPS_1),
    "L-OSUE": lambda: LOSUE(K, EPS_INF, EPS_1),
    "OLOLOHA": lambda: OLOLOHA(K, EPS_INF, EPS_1),
}


def _never_fresh(users, keys):  # pragma: no cover - warm engines never miss
    raise AssertionError("memoization miss on a warmed-up engine")


def _warm_state():
    """One warmed-up engine per protocol family plus the value workloads.

    Every value round of both workloads is played once up front, so the
    benchmarked rounds never hit a memoization miss (steady-state cost).
    """
    value_rng = np.random.default_rng(1)
    rounds = [
        value_rng.integers(0, K, size=N_USERS) for _ in range(N_CHANGING_ROUNDS)
    ]
    engines = {
        name: engine_for(factory(), N_USERS, rng=0)
        for name, factory in PROTOCOLS.items()
    }
    for engine in engines.values():
        for values in rounds:
            engine.run_round(values, np.random.default_rng(2))
    return engines, rounds


@pytest.fixture(scope="module")
def warm():
    return _warm_state()


def _legacy_round_fn(engine, name, feed):
    """The pre-scaling round computation for one protocol, as a thunk."""
    params = engine.protocol.chained_parameters

    if name == "L-GRR":

        def legacy_round():
            memoized = engine._state.resolve(next(feed), _never_fresh)
            reports = grr_kernel(memoized, K, params.p2, np.random.default_rng(3))
            return np.bincount(reports, minlength=K).astype(np.float64)

    elif name == "L-OSUE":
        # The legacy round unpacked the full (n_users, k) bit matrix before
        # summing columns (the memo layout — dense at reduced n, sparse at
        # the default scale — serves both paths identically).

        def legacy_round():
            memo_ones = engine._state.resolve(next(feed), _never_fresh).sum(
                axis=0, dtype=np.int64
            )
            return ue_binomial_counts_kernel(
                memo_ones, N_USERS, params.p2, params.q2, np.random.default_rng(3)
            )

    else:  # OLOLOHA: per-user reports + dense hash-support compare fold
        users = np.arange(N_USERS)

        def legacy_round():
            hashed = engine.hashed_domain[users, next(feed)].astype(np.int64)
            memoized = engine._state.resolve(hashed, _never_fresh)
            reports = grr_kernel(
                memoized, engine.protocol.g, params.p2, np.random.default_rng(3)
            )
            return support_from_hashes_kernel(engine.hashed_domain, reports)

    return legacy_round


def _workload(rounds, workload):
    if workload == "steady":
        return itertools.repeat(rounds[0])
    return itertools.cycle(rounds)


@pytest.mark.benchmark(group="large-domain-round")
@pytest.mark.parametrize("workload", ["steady", "changing"])
@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_round_aggregated(benchmark, warm, name, workload):
    """The shipped round path (aggregated sampling, packed delta-folds)."""
    engines, rounds = warm
    engine = engines[name]
    feed = _workload(rounds, workload)

    counts = benchmark(lambda: engine.run_round(next(feed), np.random.default_rng(3)))
    assert counts.shape == (K,)
    benchmark.extra_info.update(n_users=N_USERS, k=K, workload=workload)


@pytest.mark.benchmark(group="large-domain-round-legacy")
@pytest.mark.parametrize("workload", ["steady", "changing"])
@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_round_legacy(benchmark, warm, name, workload):
    """The pre-scaling round computations, on identical engine state."""
    engines, rounds = warm
    engine = engines[name]
    feed = _workload(rounds, workload)

    counts = benchmark(_legacy_round_fn(engine, name, feed))
    assert counts.shape == (K,)
    benchmark.extra_info.update(n_users=N_USERS, k=K, workload=workload)


def test_packed_column_sums_match_legacy_unpack(warm):
    """Correctness anchor for the benchmark pair: on the same warm state the
    packed fold and the legacy unpack-and-sum agree exactly."""
    engines, rounds = warm
    engine = engines["L-OSUE"]
    for values in rounds:
        packed = engine._column_sums.update(
            values, engine._fold_column_sums, engine._fold_column_sums_delta
        )
        unpacked = engine._state.resolve(values, _never_fresh).sum(
            axis=0, dtype=np.int64
        )
        assert np.array_equal(packed, unpacked)


# --------------------------------------------------------------------------
# Script mode: machine-readable timing report
# --------------------------------------------------------------------------


def _best_seconds(fn, repeats=3):
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def collect_results(repeats=3):
    """Time the shipped round path against the legacy one per protocol."""
    engines, rounds = _warm_state()
    results = {}
    for name, engine in engines.items():
        results[name] = {}
        for workload in ("steady", "changing"):
            feed = _workload(rounds, workload)
            aggregated_s = _best_seconds(
                lambda: engine.run_round(next(feed), np.random.default_rng(3)),
                repeats,
            )
            legacy_s = _best_seconds(_legacy_round_fn(engine, name, feed), repeats)
            results[name][workload] = {
                "aggregated_s": aggregated_s,
                "legacy_s": legacy_s,
                "speedup": legacy_s / aggregated_s,
            }
    return results


def collect_obs_overhead(repeats=5, window_rounds=64, span_iterations=10_000):
    """Cost of the fully-enabled observability core on steady windows.

    The instrumented configuration differs from the shipped default by one
    ``sim.window`` span per batched window (tracing enabled, a live
    :class:`~repro.obs.MetricsExporter` serving the registry).  Rather than
    differencing two large wall-clock numbers — on shared CI hosts the
    noise floor of back-to-back window timings exceeds the effect by an
    order of magnitude — the leg measures the added cost directly: the
    per-span enter/exit time over a tight ``span_iterations`` loop, divided
    by the window time it rides on.  Instrumentation never touches the RNG
    streams; the leg asserts the window counts are bit-identical with
    tracing on and off before reporting.
    """
    from repro.obs import MetricsExporter, configure_tracing, span

    engines, rounds = _warm_state()
    values = rounds[0]
    exporter = MetricsExporter(port=0)
    exporter.start()
    results = {}
    try:
        for name, engine in engines.items():

            def run_window():
                return engine.run_rounds(
                    values, window_rounds, np.random.default_rng(3)
                )

            configure_tracing(False)
            baseline_counts = run_window()
            window_s = _best_seconds(run_window, repeats)

            configure_tracing(True)
            with span(
                "sim.window", component="benchmark", engine=name, rounds=window_rounds
            ):
                instrumented_counts = run_window()
            start = time.perf_counter()
            for _ in range(span_iterations):
                with span(
                    "sim.window",
                    component="benchmark",
                    engine=name,
                    rounds=window_rounds,
                ):
                    pass
            span_s = (time.perf_counter() - start) / span_iterations
            configure_tracing(False)

            assert np.array_equal(baseline_counts, instrumented_counts), (
                f"{name}: instrumentation changed the window counts"
            )
            results[name] = {
                "window_s": window_s,
                "span_s": span_s,
                "overhead_fraction": span_s / window_s,
            }
    finally:
        configure_tracing(False)
        exporter.close()
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="-",
        help="write the machine-readable report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--obs-overhead-max", type=float, default=0.02, metavar="FRACTION",
        help="fail if the observability overhead fraction exceeds this "
             "on any protocol's steady windows (default: 0.02)",
    )
    args = parser.parse_args(argv)

    obs_overhead = collect_obs_overhead(repeats=max(args.repeats, 5))
    report = {
        "benchmark": "large_domain_round",
        "config": {
            "k": K,
            "n_users": N_USERS,
            "repeats": args.repeats,
            "eps_inf": EPS_INF,
            "eps_1": EPS_1,
        },
        "rounds": collect_results(repeats=args.repeats),
        "obs_overhead": obs_overhead,
    }
    worst = max(
        (leg["overhead_fraction"], name) for name, leg in obs_overhead.items()
    )
    if worst[0] > args.obs_overhead_max:
        print(
            f"FAIL: observability overhead {worst[0]:.4f} on {worst[1]} "
            f"exceeds --obs-overhead-max {args.obs_overhead_max}",
            file=sys.stderr,
        )
        return 1
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.json == "-":
        sys.stdout.write(payload)
    else:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
