"""Delta-folded engine rounds: bit-identity with full refolds, output
ownership, and engines freed without the cyclic garbage collector."""

import gc
import weakref

import numpy as np
import pytest

from repro.longitudinal import DBitFlipPM, LGRR, LOSUE, OLOLOHA
from repro.simulation import DBitFlipEngine, engine_for
from repro.simulation.kernels import dbitflip_fresh_bits_kernel

K = 12  # b == k, so a value is its own bucket
N_USERS = 64

#: Users whose key changes in each step of the churn schedule, with the fold
#: the engine must take: the delta path is entered at <= n/2 changed keys and
#: left above 5n/8 (40 of 64), and ``0`` with a window marks a steady
#: ``run_rounds`` call.
CHURN = [
    (N_USERS, 1, "full"),  # first round
    (6, 1, "delta"),
    (35, 1, "delta"),  # 55 %: above n/2 but inside the hysteresis band
    (45, 1, "full"),  # 70 %: leaves the band
    (35, 1, "full"),  # 55 %: above n/2 outside the band
    (20, 1, "delta"),
    (0, 1, "delta"),  # no change
    (0, 3, "delta"),  # steady window
    (N_USERS, 1, "full"),
]


def _reference_round(engine, values_t, rng):
    """The round before delta folding: every user's key from an (n, d)
    compare, then a bincount over all n * d memoized bits."""
    p, q = engine.protocol.bit_probabilities
    d = engine.protocol.d
    buckets = engine.protocol.bucket_of(values_t)
    keys = np.full(engine.n_users, d, dtype=np.int64)
    users, positions = np.nonzero(engine.sampled_buckets == buckets[:, None])
    keys[users] = positions
    current = engine._state.resolve(
        keys, lambda u, kk: dbitflip_fresh_bits_kernel(kk, d, p, q, rng)
    )
    counts = np.bincount(
        engine.sampled_buckets.ravel(), weights=current.ravel(), minlength=engine.protocol.b
    )
    return keys, counts


def _move_keys(sampled, keys, movers, rng):
    """New buckets for ``movers`` that each give a different indicator key."""
    d = sampled.shape[1]
    buckets = np.empty(movers.size, dtype=np.int64)
    for i, user in enumerate(movers):
        choices = [key for key in range(d + (d < K)) if key != keys[user]]
        key = rng.choice(choices)
        if key < d:
            buckets[i] = sampled[user, key]
        else:
            buckets[i] = rng.choice(np.setdiff1d(np.arange(K), sampled[user]))
    return buckets


@pytest.mark.parametrize("d", [1, 3, K])
@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_dbitflip_rounds_equal_full_bincount_reference(d, layout):
    protocol = DBitFlipPM(K, 2.0, b=K, d=d)
    engine = DBitFlipEngine(
        protocol, N_USERS, rng=5, memo_layout=layout, record_key_history=True
    )
    reference = DBitFlipEngine(protocol, N_USERS, rng=5, memo_layout=layout)
    assert np.array_equal(engine.sampled_buckets, reference.sampled_buckets)
    engine_rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
    schedule_rng = np.random.default_rng(13)

    values = schedule_rng.integers(0, K, size=N_USERS)
    keys = None
    for n_movers, window, expected_fold in CHURN:
        if keys is not None and n_movers:
            movers = np.sort(schedule_rng.choice(N_USERS, n_movers, replace=False))
            values = values.copy()
            values[movers] = _move_keys(engine.sampled_buckets, keys, movers, schedule_rng)
        previous = keys
        keys, counts = _reference_round(reference, values, reference_rng)
        if previous is not None:
            assert np.count_nonzero(keys != previous) == n_movers
        if window == 1:
            got = engine.run_round(values, engine_rng)
            assert np.array_equal(got, counts)
        else:
            got = engine.run_rounds(values, window, engine_rng)
            assert np.array_equal(got, np.tile(counts, (window, 1)))
        assert engine._memo_counts._delta_mode == (expected_fold == "delta")
        for recorded in engine.key_history[-window:]:
            assert np.array_equal(recorded, keys)
    assert np.array_equal(
        engine.distinct_memoized_per_user(), reference.distinct_memoized_per_user()
    )
    # Both engines drew the same fresh rows from their round streams.
    assert engine_rng.random() == reference_rng.random()


def test_dbitflip_returned_counts_are_owned_by_the_caller():
    protocol = DBitFlipPM(K, 2.0, b=K, d=3)
    engine = DBitFlipEngine(protocol, N_USERS, rng=2)
    values = np.random.default_rng(3).integers(0, K, size=N_USERS)
    first = engine.run_round(values)
    expected = first.copy()
    first[:] = -7.0
    window = engine.run_rounds(values, 2)
    assert np.array_equal(window, np.tile(expected, (2, 1)))
    window[:] = -7.0
    assert np.array_equal(engine.run_round(values), expected)


@pytest.mark.parametrize(
    "protocol",
    [LOSUE(K, 2.0, 1.0), DBitFlipPM(K, 2.0, d=3), OLOLOHA(K, 2.0, 1.0), LGRR(K, 2.0, 1.0)],
    ids=["unary", "dbitflip", "loloha", "grr"],
)
def test_engines_are_freed_without_cyclic_gc(protocol):
    """An engine and its memo table go as soon as the last reference does."""
    values = np.random.default_rng(4).integers(0, K, size=N_USERS)
    gc.collect()
    gc.disable()
    try:
        engine = engine_for(protocol, N_USERS, rng=6)
        engine.run_round(values)
        engine.run_round(np.roll(values, 1))
        engine.run_rounds(values, 2)
        memo = weakref.ref(engine._state)
        collected = weakref.ref(engine)
        del engine
        assert collected() is None
        assert memo() is None
    finally:
        gc.enable()
