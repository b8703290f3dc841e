"""Chi-square goodness-of-fit checks of the aggregated sampling kernels.

The aggregated round paths never materialize per-user reports: they sample
the *marginal* distributions that the per-user randomization induces on the
support counts (see the derivations in ``docs/architecture.md``):

* :func:`~repro.simulation.kernels.grr_kernel` — each entry is kept with
  probability ``p`` and otherwise uniform over the other ``k - 1`` symbols;
* :func:`~repro.simulation.kernels.ue_binomial_counts_kernel` — column ``v``
  is ``Binomial(m[v], p) + Binomial(n - m[v], q)`` given ``m[v]`` memoized
  one-bits;
* :func:`~repro.simulation.kernels.grr_mixing_counts_kernel` — symbol ``v``
  is ``Binomial(m[v], p) + Binomial(n - m[v], q)`` with
  ``q = (1 - p) / (k - 1)`` given the memoized symbol counts ``m``;
* the LOLOHA round — value ``v`` is ``Binomial(D[v], p2) +
  Binomial(n - D[v], q2)`` given the memoized hash support
  ``D[v] = #{u : H_u(v) = m_u}``.

The existing draw-count tests pin the *randomness budget* of these paths;
these tests are their distributional counterpart: with fixed seeds and a
generous significance level they verify that what is sampled actually
follows the claimed marginals, at two ``(eps, k)`` points per kernel.

No scipy: binomial PMFs come from :func:`math.lgamma` and the chi-square
critical value from the Wilson–Hilferty cube-root normal approximation,
accurate to a few percent for every df used here — irrelevant next to the
orders-of-magnitude gap a genuinely wrong marginal produces.
"""

import math

import numpy as np
import pytest

from repro.longitudinal import BiLOLOHA, LGRR, LOSUE, LOUE, OLOLOHA
from repro.simulation.engines import LOLOHAEngine
from repro.simulation.kernels import (
    grr_kernel,
    grr_mixing_counts_kernel,
    support_from_hashes_kernel,
    ue_binomial_counts_kernel,
)

#: Standard normal quantiles for the one-sided alpha levels used here.  The
#: default test level is the generous alpha = 1e-4: with fixed seeds a
#: correct kernel passes deterministically and keeps passing across RNG
#: stream changes, while a wrong marginal overshoots the critical value by
#: orders of magnitude.
_Z_ALPHA_1E3 = 3.0902323
_Z_ALPHA_1E4 = 3.7190165


def chi_square_critical(df: int, z: float = _Z_ALPHA_1E4) -> float:
    """Wilson–Hilferty approximation of the chi-square upper quantile."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * math.sqrt(h)) ** 3


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """PMF of Binomial(n, p) over 0..n, via lgamma (no scipy)."""
    if n == 0:
        return np.ones(1)
    ks = np.arange(n + 1, dtype=np.float64)
    log_coeff = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in ks])
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(ks > 0, ks * np.log(p) if p > 0 else -np.inf, 0.0)
        log_q = np.where(n - ks > 0, (n - ks) * np.log1p(-p) if p < 1 else -np.inf, 0.0)
    pmf = np.exp(log_coeff + log_p + log_q)
    return pmf / pmf.sum()


def two_binomial_sum_pmf(m: int, p: float, n_rest: int, q: float) -> np.ndarray:
    """PMF of ``Binomial(m, p) + Binomial(n_rest, q)`` over 0..m+n_rest."""
    return np.convolve(binomial_pmf(m, p), binomial_pmf(n_rest, q))


def chi_square_statistic(observed: np.ndarray, expected: np.ndarray):
    """Pearson statistic after merging adjacent cells to expected >= 5.

    Returns ``(statistic, df)`` with ``df = merged cells - 1`` (the model has
    no estimated parameters — p, q and the conditioning counts are known).
    """
    merged_obs, merged_exp = [], []
    acc_obs = acc_exp = 0.0
    for obs, exp in zip(observed, expected):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= 5.0:
            merged_obs.append(acc_obs)
            merged_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if merged_exp:
        merged_obs[-1] += acc_obs
        merged_exp[-1] += acc_exp
    observed = np.asarray(merged_obs)
    expected = np.asarray(merged_exp)
    assert expected.size >= 2, "degenerate binning: broaden the sample"
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, expected.size - 1


def assert_matches_two_binomial_marginal(
    samples: np.ndarray, m: int, p: float, n_rest: int, q: float
) -> None:
    """Chi-square GoF of integer ``samples`` against the two-binomial sum."""
    pmf = two_binomial_sum_pmf(m, p, n_rest, q)
    observed = np.bincount(samples.astype(np.int64), minlength=pmf.size)
    assert observed.size == pmf.size, "a sample fell outside the support"
    statistic, df = chi_square_statistic(observed, pmf * samples.size)
    assert statistic < chi_square_critical(df), (
        f"support-count marginal deviates from Binomial({m},{p:.4f}) + "
        f"Binomial({n_rest},{q:.4f}): chi2={statistic:.1f} at df={df} "
        f"(critical {chi_square_critical(df):.1f})"
    )


class TestChiSquareHelpers:
    def test_wilson_hilferty_against_known_quantiles(self):
        # chi2.ppf(0.999, df) reference values (scipy, computed offline).
        for df, reference in ((5, 20.515), (15, 37.697), (50, 86.661)):
            critical = chi_square_critical(df, z=_Z_ALPHA_1E3)
            assert critical == pytest.approx(reference, rel=0.02)

    def test_binomial_pmf_edges(self):
        assert binomial_pmf(4, 0.0)[0] == pytest.approx(1.0)
        assert binomial_pmf(4, 1.0)[-1] == pytest.approx(1.0)
        assert binomial_pmf(10, 0.3).sum() == pytest.approx(1.0)

    def test_statistic_rejects_a_wrong_distribution(self):
        """Sanity: the harness does flag a genuinely wrong marginal."""
        rng = np.random.default_rng(7)
        samples = rng.binomial(40, 0.5, size=4000)  # claim p=0.3: wrong
        pmf = binomial_pmf(40, 0.3)
        observed = np.bincount(samples, minlength=pmf.size)
        statistic, df = chi_square_statistic(observed, pmf * samples.size)
        assert statistic > chi_square_critical(df)


class TestGRRKernelMarginal:
    @pytest.mark.parametrize(
        "eps,k,seed", [(0.5, 8, 101), (3.0, 32, 102)], ids=["eps0.5-k8", "eps3-k32"]
    )
    def test_output_symbol_distribution(self, eps, k, seed):
        """GRR output is the claimed keep-or-uniform-other mixture."""
        p = math.exp(eps) / (math.exp(eps) + k - 1)
        q = (1.0 - p) / (k - 1)
        rng = np.random.default_rng(seed)
        true_value = 3
        n_samples = 40_000
        reports = grr_kernel(np.full(n_samples, true_value), k, p, rng)
        observed = np.bincount(reports, minlength=k)
        expected_probs = np.full(k, q)
        expected_probs[true_value] = p
        statistic, df = chi_square_statistic(observed, expected_probs * n_samples)
        assert statistic < chi_square_critical(df)


class TestUEBinomialCountsMarginal:
    @pytest.mark.parametrize(
        "protocol_cls,eps_inf,k,seed",
        [(LOSUE, 1.0, 16, 201), (LOUE, 4.0, 8, 202)],
        ids=["L-OSUE-eps1-k16", "L-OUE-eps4-k8"],
    )
    def test_column_counts_match_two_binomials(self, protocol_cls, eps_inf, k, seed):
        """Aggregated UE round counts follow Binomial(m,p2)+Binomial(n-m,q2)
        for the instantaneous parameters of real paper protocols."""
        protocol = protocol_cls(k, eps_inf, eps_inf / 2.0)
        params = protocol.chained_parameters
        n_users = 48
        rng = np.random.default_rng(seed)
        memo_ones = rng.integers(0, n_users + 1, size=k)
        memo_ones[0], memo_ones[1] = 0, n_users  # cover both degenerate columns
        n_trials = 3_000
        counts = np.stack([
            ue_binomial_counts_kernel(memo_ones, n_users, params.p2, params.q2, rng)
            for _ in range(n_trials)
        ])
        for column in (0, 1, 5, k - 1):
            assert_matches_two_binomial_marginal(
                counts[:, column],
                m=int(memo_ones[column]),
                p=params.p2,
                n_rest=n_users - int(memo_ones[column]),
                q=params.q2,
            )


class TestGRRMixingCountsMarginal:
    @pytest.mark.parametrize(
        "eps_inf,k,seed", [(1.0, 8, 301), (4.0, 16, 302)],
        ids=["eps1-k8", "eps4-k16"],
    )
    def test_symbol_counts_match_two_binomials(self, eps_inf, k, seed):
        """Per-symbol mixing counts collapse to the claimed two-binomial sum
        for the instantaneous GRR parameters of L-GRR."""
        protocol = LGRR(k, eps_inf, eps_inf / 2.0)
        p2 = protocol.chained_parameters.p2
        q2 = (1.0 - p2) / (k - 1)
        rng = np.random.default_rng(seed)
        symbol_counts = rng.multinomial(64, np.full(k, 1.0 / k))
        n_users = int(symbol_counts.sum())
        n_trials = 3_000
        counts = np.stack([
            grr_mixing_counts_kernel(symbol_counts, k, p2, rng)
            for _ in range(n_trials)
        ])
        for symbol in (0, k // 2, k - 1):
            assert_matches_two_binomial_marginal(
                counts[:, symbol],
                m=int(symbol_counts[symbol]),
                p=p2,
                n_rest=n_users - int(symbol_counts[symbol]),
                q=q2,
            )


class TestLOLOHASupportFoldMarginal:
    @pytest.mark.parametrize(
        "protocol_cls,eps_inf,k,seed",
        [(BiLOLOHA, 1.0, 16, 401), (OLOLOHA, 3.0, 24, 402)],
        ids=["BiLOLOHA-eps1-k16", "OLOLOHA-eps3-k24"],
    )
    def test_round_counts_match_memoized_support_binomials(
        self, protocol_cls, eps_inf, k, seed
    ):
        """Conditional on the memoized hash support D[v], LOLOHA round counts
        follow Binomial(D[v], p2) + Binomial(n - D[v], q2)."""
        protocol = protocol_cls(k, eps_inf, eps_inf / 2.0)
        params = protocol.chained_parameters
        n_users = 80
        rng = np.random.default_rng(seed)
        engine = LOLOHAEngine(protocol, n_users, rng)
        values = rng.integers(0, k, size=n_users)
        engine.run_round(values, rng)  # memoizes every (user, hash) pair

        # The engine's own memoized support, cross-checked against a direct
        # recomputation from the per-user hash tables and memoized symbols.
        def frozen(users, keys):  # no new pairs may appear below
            raise AssertionError("memoization changed under fixed values")

        users = np.arange(n_users)
        hashed = engine.hashed_domain[users, values].astype(np.int64)
        memoized = engine._state.resolve(hashed, frozen)
        support = support_from_hashes_kernel(
            engine.hashed_domain, memoized
        ).astype(np.int64)
        # No generator: the fold must find every pair already memoized.
        assert np.array_equal(engine._memoized_support_counts(values, None), support)

        n_trials = 2_500
        counts = np.stack([engine.run_round(values, rng) for _ in range(n_trials)])
        for value in (0, k // 2, k - 1):
            assert_matches_two_binomial_marginal(
                counts[:, value],
                m=int(support[value]),
                p=params.p2,
                n_rest=n_users - int(support[value]),
                q=params.q2,
            )
