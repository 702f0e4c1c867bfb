import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from disasterbrw.orders import (
    DistOnSigma,
    PrecisionError,
    WeightVector,
    binom_parity_even,
    conditioned_jump_log_laws,
    couple_parity_batch,
    jump_count_lr_dominates,
    parity_dist,
    parity_monotonicity_violations,
    prefix_leq,
    srw_point_ratio_bounded,
    srw_ratio_bound_exhaustive,
)

from helpers import exact_parity_enumeration, prob_of


# -- binomial parity closed form ----------------------------------------------

def test_parity_zero_trials():
    assert binom_parity_even(0, 0.3) == 1.0


def test_parity_small_cases_frozen():
    assert abs(binom_parity_even(1, 0.25) - 0.75) < 1e-15
    assert abs(binom_parity_even(2, 0.3) - 0.58) < 1e-15


def test_parity_matches_pmf_sums():
    for n in range(31):
        for p in np.arange(0.0, 1.0001, 0.05):
            brute = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(0, n + 1, 2))
            assert abs(binom_parity_even(n, float(p)) - brute) <= 1e-12


def test_parity_rejects_bad_args():
    with pytest.raises(ValueError):
        binom_parity_even(-1, 0.5)
    with pytest.raises(ValueError):
        binom_parity_even(3, 1.5)


# -- WeightVector ----------------------------------------------------------------

def test_weight_vector_sorts_and_validates():
    w = WeightVector((0.5, 0.2, 0.3))
    assert w.probs == (0.2, 0.3, 0.5)
    with pytest.raises(ValueError):
        WeightVector((0.5, 0.6))
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))


# -- parity_dist ------------------------------------------------------------------

def test_parity_dist_zero_balls_point_mass():
    d = parity_dist((0.2, 0.3, 0.5), 0)
    zero = tuple([0, 0, 0])
    assert abs(prob_of(d, zero) - 1.0) < 1e-15


def test_parity_dist_two_bins_two_balls_closed_form():
    p0, p1 = 0.3, 0.7
    d = parity_dist((p0, p1), 2)
    assert abs(prob_of(d, (0, 0)) - (p0**2 + p1**2)) < 1e-14
    assert abs(prob_of(d, (1, 1)) - 2 * p0 * p1) < 1e-14


def test_parity_dist_odd_ball_count_rejected():
    with pytest.raises(ValueError):
        parity_dist((0.5, 0.5), 3)


def test_parity_dist_matches_exact_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n_bins = int(rng.integers(2, 6))
        raw = rng.integers(1, 9, n_bins)
        weights = [Fraction(int(x), int(raw.sum())) for x in raw]
        k = int(rng.integers(0, 4)) * 2
        oracle = exact_parity_enumeration(weights, k)
        d = parity_dist([float(w) for w in weights], k)
        for row, pr in zip(d.patterns, d.probs):
            bits = tuple(int(b) for b in row)
            assert abs(float(oracle.get(bits, Fraction(0))) - pr) < 1e-12


def test_parity_dist_sums_to_one():
    d = parity_dist((0.1, 0.2, 0.3, 0.4), 8)
    assert abs(d.probs.sum() - 1.0) < 1e-12


# -- prefix order ------------------------------------------------------------------

def test_prefix_reflexive():
    assert prefix_leq((0, 1, 1), (0, 1, 1))


def test_prefix_examples():
    assert prefix_leq((0, 0, 1, 1), (1, 1, 0, 0))
    assert not prefix_leq((1, 1, 0, 0), (0, 0, 1, 1))
    assert not prefix_leq((1, 0, 0, 1), (0, 1, 1, 0))
    assert not prefix_leq((0, 1, 1, 0), (1, 0, 0, 1))


def test_prefix_on_uint8_patterns_matches_int_tuples():
    # parity patterns are uint8 rows, where a - b would wrap below zero
    pats = parity_dist([0.2, 0.3, 0.5], 2).patterns
    for a in pats:
        for b in pats:
            ints = (tuple(int(x) for x in a), tuple(int(x) for x in b))
            assert prefix_leq(a, b) == prefix_leq(*ints), ints


def test_prefix_length_mismatch():
    with pytest.raises(ValueError):
        prefix_leq((0, 1), (0, 1, 0))


def test_prefix_partial_order_properties():
    rng = np.random.default_rng(12)
    pats = [tuple(int(b) for b in rng.integers(0, 2, 5)) for _ in range(60)]
    for a in pats:
        assert prefix_leq(a, a)
    for a in pats:
        for b in pats:
            if prefix_leq(a, b) and prefix_leq(b, a):
                # antisymmetry: matching prefix sums force matching bits
                assert np.array_equal(np.cumsum(a), np.cumsum(b))
    for _ in range(500):
        a, b, c = (pats[i] for i in rng.integers(0, len(pats), 3))
        if prefix_leq(a, b) and prefix_leq(b, c):
            assert prefix_leq(a, c)


# -- parity-law monotonicity -----------------------------------------------------

def test_monotone_zero_balls_vacuous():
    assert parity_monotonicity_violations(WeightVector((0.2, 0.3, 0.5)), 0) == []


def test_monotone_for_sorted_weights():
    rng = np.random.default_rng(15)
    for _ in range(30):
        w = WeightVector(rng.dirichlet(np.ones(4)))
        for k in (1, 2, 3):
            assert parity_monotonicity_violations(w, k) == []


def test_unsorted_weights_can_violate():
    # descending weights break the standing sortedness hypothesis
    rng = np.random.default_rng(16)
    found = False
    for _ in range(200):
        raw = tuple(sorted(rng.dirichlet(np.ones(4)), reverse=True))
        if parity_monotonicity_violations(raw, 1):
            found = True
            break
    assert found


# -- the two-ball coupling ---------------------------------------------------------

def test_couple_zero_balls_lower_is_zero():
    w = WeightVector((0.2, 0.8))
    lo, hi = couple_parity_batch(w, 0, 1, 3)
    assert tuple(lo[0]) == (0, 0)
    assert prefix_leq(lo[0], hi[0])


def test_coupling_never_violates_order():
    w = WeightVector((0.1, 0.2, 0.3, 0.4))
    lo, hi = couple_parity_batch(w, 1, 100_000, 17)
    assert (np.cumsum(lo, axis=1) <= np.cumsum(hi, axis=1)).all()


def _chi2_against(dist: DistOnSigma, samples: np.ndarray) -> float:
    codes = (samples.astype(np.int64) << np.arange(samples.shape[1])).sum(axis=1)
    ref_codes = (dist.patterns.astype(np.int64) << np.arange(dist.n_bits)).sum(axis=1)
    idx = {c: i for i, c in enumerate(ref_codes)}
    observed = np.zeros(len(ref_codes))
    for c, cnt in zip(*np.unique(codes, return_counts=True)):
        observed[idx[int(c)]] = cnt
    expected = dist.probs * len(samples)
    positive = expected > 0
    assert observed[~positive].sum() == 0  # impossible patterns never sampled
    observed, expected = observed[positive], expected[positive]
    keep = expected > 5
    if not keep.all():  # pool tiny cells
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    return float(stats.chisquare(observed, expected).pvalue)


def test_coupling_marginals_exact():
    w = WeightVector((0.1, 0.2, 0.3, 0.4))
    lo, hi = couple_parity_batch(w, 1, 100_000, 19)
    assert _chi2_against(parity_dist(w, 2), lo) > 0.01
    assert _chi2_against(parity_dist(w, 4), hi) > 0.01


# -- walk ratio and lr-order bounds ---------------------------------------------------

def test_ratio_bound_trivial_equal_counts():
    assert srw_point_ratio_bounded(4, 4, 2)


def test_ratio_bound_small_case():
    # P(Z_0 = 0) = 1, P(Z_2 = 0) = 1/2: ratio 2 <= 4
    assert srw_point_ratio_bounded(0, 2, 0)


def test_ratio_bound_rejects_bad_parity():
    with pytest.raises(ValueError):
        srw_point_ratio_bounded(1, 2, 0)
    with pytest.raises(ValueError):
        srw_point_ratio_bounded(2, 4, 4)


def test_ratio_bound_exhaustive_to_forty():
    assert srw_ratio_bound_exhaustive(40)


def test_lr_domination_standard_cases():
    for rate in (0.5, 1.0, 4.0):
        for x1 in (0, 2):
            assert jump_count_lr_dominates(rate, x1, 60)


def test_lr_zero_rate_degenerate():
    assert jump_count_lr_dominates(0.0, 0, 10)


def test_lr_truncation_too_heavy():
    with pytest.raises(PrecisionError):
        conditioned_jump_log_laws(30.0, 0, 35)


def test_stochastic_dominance_of_conditioned_laws():
    # lr-order implies the slow walk's count cdf dominates pointwise
    for rate, x1 in ((1.0, 0), (4.0, 2)):
        _s, lp_fast, lp_slow = conditioned_jump_log_laws(rate, x1, 80)
        cdf_fast = np.exp(lp_fast).cumsum()
        cdf_slow = np.exp(lp_slow).cumsum()
        assert (cdf_slow >= cdf_fast - 1e-12).all()
