import math

import numpy as np
import pytest

from disasterbrw import brw
from disasterbrw.brw import BRWParams, Caps, CapTripped, offspring_pmf
from disasterbrw.env import DisasterField, superpose
from disasterbrw.rng import derive_seed
from disasterbrw.gw_embed import (
    nonextinction_bound_check,
    offspring_mean_identity_check,
    phase_classify,
    sample_offspring,
)
from disasterbrw.walk import estimate_survival


BINARY = offspring_pmf({0: 0.5, 2: 0.5})
brw_simulate = brw.simulate


def test_offspring_sample_invariants():
    params = BRWParams(1.0, 0.5, BINARY, 1.0, 1)
    fld = DisasterField(3, 1.0, 1)
    [s] = sample_offspring([fld], params, 1.0, 1, 500, [7])
    assert abs(sum(s.pmf) - 1.0) < 1e-12
    assert abs(sum(k * p for k, p in enumerate(s.pmf)) - s.mean) < 1e-12


@pytest.mark.parametrize("field", [DisasterField(3, 2.0, 1), DisasterField(3, 1.0, 2),
                                   superpose(DisasterField(3, 0.5, 1), DisasterField(4, 0.5, 1))])
def test_offspring_needs_a_disaster_field_of_the_model(field):
    with pytest.raises(ValueError):
        sample_offspring([DisasterField(2, 1.0, 1), field], BRWParams(1.0, 0.5, BINARY, 1.0, 1), 1.0, 1,
                         20, [6, 7])


@pytest.mark.parametrize("period_index", [1, 3])
def test_offspring_raises_when_an_event_cap_rerun_trips(monkeypatch, period_index):
    reruns = []
    monkeypatch.setattr(brw, "simulate", lambda *a, **k: reruns.append(a[3]) or brw_simulate(*a, **k))
    params = BRWParams(2.0, 1.0, (0.0, 0.0, 1.0), 1.0, 1)
    with pytest.raises(CapTripped):
        sample_offspring([DisasterField(3, 1.0, 1)], params, 1.0, period_index, 20, [7],
                         caps=Caps(max_events=2))
    assert reruns and set(reruns) == {period_index - 1.0}  # from the period's start


def test_no_branching_reduces_to_pinned_survival():
    # lam = 0: counts live on {0, 1} and the mean is the pinned survival
    params = BRWParams(2.0, 0.0, (1.0,), 1.0, 1)
    fld = DisasterField(11, 1.0, 1)
    n = 4000
    [s] = sample_offspring([fld], params, 1.0, 1, n, [13])
    assert len(s.pmf) <= 2
    fld2 = DisasterField(11, 1.0, 1)
    pin = estimate_survival(fld2, 2.0, 1.0, n, True, 17)
    sigma = math.hypot(s.mean_std_err, pin.std_err)
    assert abs(s.mean - pin.value) < 3 * sigma


def test_frozen_galton_watson_mean():
    # no disasters, no jumps: pinning is vacuous and the mean is the growth factor
    params = BRWParams(0.0, 1.0, offspring_pmf({0: 0.25, 2: 0.75}), 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    [s] = sample_offspring([fld], params, 1.0, 1, 4000, [19])
    target = math.exp(params.birth_rate * (params.offspring_mean - 1.0))
    assert abs(s.mean - target) < 3 * s.mean_std_err


def test_disjoint_periods_uncorrelated_across_fields():
    # the per-period offspring means read disjoint environment slices
    params = BRWParams(1.0, 0.5, BINARY, 1.0, 1)
    fields = [DisasterField(seed=900 + i, rate=1.0, dimension=1) for i in range(120)]
    m1 = [s.mean for s in sample_offspring(fields, params, 1.0, 1, 80, range(31, 151))]
    m2 = [s.mean for s in sample_offspring(fields, params, 1.0, 2, 80, range(61, 181))]
    corr = np.corrcoef(m1, m2)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(m1))


def test_periods_identically_distributed_across_fields():
    # pooled over environments, period-1 and period-2 means share a law
    from scipy import stats

    params = BRWParams(1.0, 0.5, BINARY, 1.0, 1)
    fields = [DisasterField(seed=2900 + i, rate=1.0, dimension=1) for i in range(100)]
    m1 = [s.mean for s in sample_offspring(fields, params, 1.0, 1, 60, range(131, 231))]
    m2 = [s.mean for s in sample_offspring(fields, params, 1.0, 2, 60, range(161, 261))]
    res = stats.ks_2samp(m1, m2)
    assert res.pvalue > 0.01


def test_identity_check_period_zero():
    params = BRWParams(1.0, 0.5, BINARY, 1.0, 1)
    chks = offspring_mean_identity_check([DisasterField(1, 1.0, 1), DisasterField(2, 1.0, 1)], params,
                                         0.0, 10, [1, 2])
    assert [(c.lhs, c.rhs) for c in chks] == [(1.0, 1.0)] * 2


def test_identity_check_generic():
    params = BRWParams(2.0, 0.5, BINARY, 1.0, 1)
    fld = DisasterField(41, 1.0, 1)
    [chk] = offspring_mean_identity_check([fld], params, 2.0, 4000, [43])
    assert abs(chk.z) <= 3.0


def test_identity_z_calibrated_over_fields():
    params = BRWParams(2.0, 0.5, BINARY, 1.0, 1)
    fields = [DisasterField(seed=5100 + i, rate=1.0, dimension=1) for i in range(25)]
    zs = [c.z for c in offspring_mean_identity_check(fields, params, 2.0, 1200, range(5300, 5325))]
    ok = sum(1 for z in zs if abs(z) <= 3.0) / len(zs)
    assert ok >= 0.95


def test_nonextinction_bound_no_zero_offspring():
    # q(0) = 0 makes the branching factor exp(0) = 1: bound reduces to the
    # pinned survival and must still hold
    params = BRWParams(1.0, 1.0, (0.0, 0.0, 1.0), 1.0, 1)
    fld = DisasterField(47, 1.0, 1)
    [chk] = nonextinction_bound_check([fld], params, 1.0, 3000, [53])
    assert chk.violated_at <= 3.0


def test_nonextinction_bound_holds_when_both_sides_are_exact():
    # no disasters, no jumps: lhs = rhs = 1 with zero standard errors
    params = BRWParams(0.0, 1.0, (0.0, 0.0, 1.0), 0.0, 1)
    [chk] = nonextinction_bound_check([DisasterField(1, 0.0, 1)], params, 1.0, 50, [3])
    assert (chk.lhs, chk.rhs, chk.lhs_se, chk.rhs_se) == (1.0, 1.0, 0.0, 0.0)
    assert chk.violated_at <= 3.0


def test_nonextinction_bound_violation_rate_small():
    params = BRWParams(1.0, 0.8, BINARY, 1.0, 1)
    n_fields = 50
    fields = [DisasterField(seed=6100 + i, rate=1.0, dimension=1) for i in range(n_fields)]
    chks = nonextinction_bound_check(fields, params, 1.0, 600, range(6300, 6300 + n_fields))
    violations = sum(chk.violated_at > 3.0 for chk in chks)
    assert violations / n_fields <= 0.02


@pytest.mark.parametrize("dimension", [1, 2])
def test_embed_checks_over_fields_are_a_loop_over_fields(dimension):
    # one batch for all fields gives each field's sample and comparison bit for bit
    params = BRWParams(0.5, 1.0, BINARY, 0.5, dimension)
    fields = [DisasterField(derive_seed(7, "ef", i), 0.5, dimension) for i in range(4)]
    seeds = [derive_seed(7, "es", i) for i in range(4)]
    for period_index in (1, 2):  # period 2 starts its trees at t = 1.5
        together = sample_offspring(fields, params, 1.5, period_index, 50, seeds)
        assert together == [sample_offspring([f], params, 1.5, period_index, 50, [s])[0]
                             for f, s in zip(fields, seeds)]
        assert len({s.pmf for s in together}) > 1
    for check in (offspring_mean_identity_check, nonextinction_bound_check):
        together = check(fields, params, 1.5, 50, seeds)
        assert together == [check([f], params, 1.5, 50, [s])[0] for f, s in zip(fields, seeds)]
    assert offspring_mean_identity_check(fields, params, 0.0, 50, seeds) == \
        [offspring_mean_identity_check([f], params, 0.0, 50, [s])[0] for f, s in zip(fields, seeds)]


def test_phase_no_disasters_supercritical():
    params = BRWParams(1.0, 1.0, offspring_pmf({0: 0.25, 2: 0.75}), 0.0, 1)
    v = phase_classify(params, 2.0, 20, 200, 3)
    assert v.criterion_value == params.birth_rate * (params.offspring_mean - 1.0)
    assert v.verdict == "supercritical"


def test_phase_dead_band_is_critical():
    # mean-one offspring with no disasters: the criterion is exactly zero
    params = BRWParams(1.0, 1.0, BINARY, 0.0, 1)
    v = phase_classify(params, 2.0, 10, 100, 5)
    assert v.criterion_value == 0.0
    assert v.verdict == "critical-band"


def test_phase_pure_death_subcritical():
    params = BRWParams(1.0, 1.0, (1.0,), 1.0, 1)
    v = phase_classify(params, 2.0, 30, 500, 5)
    assert v.verdict == "subcritical"
    assert v.criterion_value <= -1.0 + 0.3


def test_phase_verdicts_match_direct_survival():
    from disasterbrw.brw import Caps, survival_frequency

    sup = BRWParams(8.0, 2.0, (0.0, 0.0, 1.0), 1.0, 1)
    v = phase_classify(sup, 3.0, 50, 3000, 7)
    assert v.verdict == "supercritical" and not v.unreliable
    freq = survival_frequency(sup, 30.0, 80, 9, caps=Caps(max_alive=2000, max_events=10**6))
    assert freq.value > 3 * freq.std_err

    sub = BRWParams(1.0, 0.2, (0.0, 0.0, 1.0), 1.0, 1)
    v2 = phase_classify(sub, 3.0, 50, 3000, 11)
    assert v2.verdict == "subcritical"
    freq2 = survival_frequency(sub, 30.0, 200, 13)
    assert freq2.value < 0.02
