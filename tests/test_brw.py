import math

import numpy as np
import pytest

from disasterbrw.brw import (
    BRWParams,
    Caps,
    centered_box,
    coupled_birth_rate_survival,
    dominates,
    growth_rate,
    moment_identity_check,
    offspring_pmf,
    parse_events,
    serialize_events,
    simulate,
    site_counts,
    survival_frequency,
)
from disasterbrw.env import DisasterField, SuperposedField, superpose
from disasterbrw.rng import ParticleStream, counter_uniform, fold, mix64_int
from helpers import WalkPath, extinction_time, replay_site_counts, simulate_oracle


BINARY = offspring_pmf({0: 0.5, 2: 0.5})
ALWAYS_TWO = (0.0, 0.0, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        BRWParams(1.0, 1.0, (0.2, 0.7), 1.0, 1)  # pmf does not sum to 1
    with pytest.raises(ValueError):
        BRWParams(1.0, 1.0, (0.0, 1.0), 1.0, 1)  # point mass at one child
    with pytest.raises(ValueError):
        BRWParams(-1.0, 1.0, BINARY, 1.0, 1)
    p = BRWParams(1.0, 2.0, BINARY, 1.0, 1)
    assert p.offspring_mean == 1.0


def test_offspring_pmf_helper():
    assert offspring_pmf({0: 0.25, 3: 0.75}) == (0.25, 0.0, 0.0, 0.75)


def test_offspring_support_capped_at_sixty_four():
    wide = [0.0] * 65
    wide[64] = 1.0
    with pytest.raises(ValueError):
        BRWParams(1.0, 1.0, tuple(wide), 1.0, 1)
    edge = [0.0] * 64
    edge[63] = 1.0
    BRWParams(1.0, 1.0, tuple(edge), 1.0, 1)  # 64 entries is the limit


def test_single_particle_no_branching_reduces_to_walk():
    # lam = 0: the tree is one walker whose death matches extinction_time
    params = BRWParams(jump_rate=1.5, birth_rate=0.0, offspring=(1.0,), disaster_rate=1.0, dimension=1)
    for i in range(100):
        fld = DisasterField(seed=300 + i, rate=1.0, dimension=1)
        res = simulate(params, {(0,): 1}, fld, 0.0, 5.0, 400 + i)
        rec = res.records[(0,)]
        path = WalkPath(start_site=(0,), jumps=tuple(rec.jumps), horizon=5.0)
        fld2 = DisasterField(seed=300 + i, rate=1.0, dimension=1)
        ext = extinction_time(path, fld2)
        if rec.end_cause == "disaster":
            assert ext == rec.end_time
        else:
            assert rec.end_cause == "horizon"
            assert ext is None or ext == 5.0  # horizon-endpoint hit still survives


def test_all_die_when_offspring_always_zero():
    params = BRWParams(1.0, 2.0, (1.0,), 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    extinct = 0
    for i in range(200):
        res = simulate(params, {(0,): 1}, fld, 0.0, 20.0, i, record_events=False)
        extinct += res.final_count == 0
    assert extinct / 200 > 0.99


def test_galton_watson_mean_oracle():
    # no disasters, no jumps: population mean is the branching growth factor
    params = BRWParams(0.0, 1.0, offspring_pmf({0: 0.25, 2: 0.75}), 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    t = 1.5
    sizes = np.array([len(simulate(params, {(0,): 1}, fld, 0.0, t, 10_000 + i,
                                   snapshot_times=[t], record_events=False).snapshots[0])
                      for i in range(10_000)])
    target = math.exp(params.birth_rate * (params.offspring_mean - 1.0) * t)
    assert abs(sizes.mean() - target) < 3 * sizes.std(ddof=1) / math.sqrt(len(sizes))


def test_site_counts_and_dominates():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    fld = DisasterField(5, 1.0, 1)
    res = simulate(params, {(0,): 3, (2,): 1}, fld, 0.0, 2.0, 9, snapshot_times=[2.0])
    snap = res.snapshots[0]
    counts = site_counts(snap)
    assert sum(counts.values()) == len(snap)
    assert dominates(snap, {})
    assert dominates(snap, counts)
    if counts:
        bumped = dict(counts)
        some = next(iter(bumped))
        bumped[some] += 1
        assert not dominates(snap, bumped)


def test_snapshots_match_event_log_replay():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    for i in range(30):
        fld = DisasterField(seed=600 + i, rate=1.0, dimension=1)
        res = simulate(params, {(0,): 2}, fld, 0.0, 3.0, 700 + i,
                       snapshot_times=[0.7, 1.9, 3.0])
        for snap in res.snapshots:
            assert site_counts(snap) == replay_site_counts(res.events, snap.time)


def test_disaster_kills_site_atomically():
    params = BRWParams(0.5, 1.5, ALWAYS_TWO, 2.0, 1)
    hit = 0
    for i in range(40):
        fld = DisasterField(seed=800 + i, rate=2.0, dimension=1)
        res = simulate(params, {(0,): 2}, fld, 0.0, 2.0, 900 + i)
        by_time = {}
        for ev in res.events:
            by_time.setdefault(ev.time, []).append(ev)
        for t, evs in by_time.items():
            sites = {ev.site for ev in evs if ev.kind == "disaster"}
            for s in sites:
                hit += 1
                # after the batch at t, nobody remains at the struck site
                counts = replay_site_counts(res.events, t)
                assert counts.get(s, 0) == 0
    assert hit > 10


def test_population_delta_bookkeeping():
    params = BRWParams(1.0, 1.0, offspring_pmf({0: 0.3, 1: 0.2, 3: 0.5}), 1.0, 1)
    fld = DisasterField(13, 1.0, 1)
    res = simulate(params, {(0,): 2}, fld, 0.0, 3.0, 17)
    deltas = np.diff(res.pop_counts)
    support = set(int(x) for x in deltas)
    allowed = {-2, -1, 0, 1, 2}  # disasters, deaths, jumps/no-ops, k-1 births
    assert support <= allowed


def test_truncated_process_dominated_pathwise():
    params = BRWParams(1.0, 1.2, BINARY, 1.0, 1)
    box = centered_box(2, 1)
    for i in range(50):
        fa = DisasterField(seed=1000 + i, rate=1.0, dimension=1)
        fb = DisasterField(seed=1000 + i, rate=1.0, dimension=1)
        full = simulate(params, {(0,): 1}, fa, 0.0, 3.0, 50 + i, snapshot_times=[1.0, 2.0, 3.0])
        trunc = simulate(params, {(0,): 1}, fb, 0.0, 3.0, 50 + i, trunc=box,
                         snapshot_times=[1.0, 2.0, 3.0])
        for sf, st in zip(full.snapshots, trunc.snapshots):
            assert set(p for p, _ in st.alive) <= set(p for p, _ in sf.alive)


def test_denser_environment_dominated_pathwise():
    # adding an independent disaster stream only removes particles
    base = BRWParams(1.0, 1.2, BINARY, 1.0, 1)
    dense = BRWParams(1.0, 1.2, BINARY, 1.5, 1)
    for i in range(50):
        f1 = DisasterField(seed=2000 + i, rate=1.0, dimension=1)
        fa = DisasterField(seed=2000 + i, rate=1.0, dimension=1)
        fb = DisasterField(seed=9000 + i, rate=0.5, dimension=1)
        r1 = simulate(base, {(0,): 1}, f1, 0.0, 3.0, 70 + i, snapshot_times=[1.5, 3.0])
        r2 = simulate(dense, {(0,): 1}, superpose(fa, fb), 0.0, 3.0, 70 + i,
                      snapshot_times=[1.5, 3.0])
        for s1, s2 in zip(r1.snapshots, r2.snapshots):
            assert set(p for p, _ in s2.alive) <= set(p for p, _ in s1.alive)


def test_snapshot_flavors_differ_only_at_disaster_instants():
    params = BRWParams(0.0, 0.0, (1.0,), 1.0, 1)
    fld = DisasterField(seed=3001, rate=1.0, dimension=1)
    t_hit = fld.first_disaster_after((0,), 0.0, 50.0)
    fld2 = DisasterField(seed=3001, rate=1.0, dimension=1)
    pre = simulate(params, {(0,): 1}, fld2, 0.0, t_hit, 1, snapshot_times=[t_hit],
                   snapshot_flavor="pre")
    fld3 = DisasterField(seed=3001, rate=1.0, dimension=1)
    post = simulate(params, {(0,): 1}, fld3, 0.0, t_hit, 1, snapshot_times=[t_hit],
                    snapshot_flavor="post")
    assert len(pre.snapshots[0]) == 1  # left limit: the particle still counts
    assert len(post.snapshots[0]) == 0


def test_event_log_round_trip():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 2)
    fld = DisasterField(77, 1.0, 2)
    res = simulate(params, {(0, 0): 2}, fld, 0.0, 2.0, 3)
    lines = list(serialize_events(res.events))
    back = parse_events(lines)
    assert back == res.events


def test_caps_flag_not_raise():
    params = BRWParams(1.0, 3.0, ALWAYS_TWO, 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    res = simulate(params, {(0,): 1}, fld, 0.0, 20.0, 5, caps=Caps(max_alive=50),
                   record_events=False)
    assert res.capped and res.cap_time is not None


def test_survival_frequency_certain_death():
    params = BRWParams(1.0, 2.0, (1.0,), 0.0, 1)
    est = survival_frequency(params, 10.0, 300, 3)
    assert est.value < 0.01


def test_survival_frequency_single_walker_annealed():
    params = BRWParams(1.0, 0.0, (1.0,), 1.0, 1)
    est = survival_frequency(params, 1.0, 4000, 7)
    target = math.exp(-1.0)
    assert abs(est.value - target) < 3 * est.std_err


def test_survival_nonincreasing_in_horizon_shared_randomness():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    for i in range(60):
        alive = []
        for h in (2.0, 4.0):
            fld = DisasterField(seed=4000 + i, rate=1.0, dimension=1)
            res = simulate(params, {(0,): 1}, fld, 0.0, h, 4100 + i, record_events=False)
            alive.append(res.final_count > 0)
        assert alive[0] or not alive[1]


def test_moment_identity_time_zero():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    chk = moment_identity_check(params, DisasterField(1, 1.0, 1), 0.0, 10, 1)
    assert chk.lhs == chk.rhs == 1.0


def test_moment_identity_no_disasters():
    params = BRWParams(1.0, 1.0, offspring_pmf({0: 0.25, 2: 0.75}), 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    chk = moment_identity_check(params, fld, 1.0, 4000, 9)
    target = math.exp(params.birth_rate * (params.offspring_mean - 1.0))
    assert chk.rhs == pytest.approx(target, rel=1e-12)  # survival is exactly 1
    assert abs(chk.lhs - target) < 3 * chk.lhs_se


def test_moment_identity_generic_field():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    fld = DisasterField(23, 1.0, 1)
    chk = moment_identity_check(params, fld, 2.0, 4000, 11)
    assert abs(chk.z) <= 3.0


def test_growth_rate_galton_watson_slope():
    params = BRWParams(0.0, 1.0, ALWAYS_TWO, 0.0, 1)
    est = growth_rate(params, 8.0, 60, 13, caps=Caps(max_alive=5000, max_events=10**6))
    assert est is not None
    assert abs(est.slope - 1.0) < 0.05  # birth_rate*(m-1) = 1


def test_growth_rate_subcritical_none():
    params = BRWParams(1.0, 2.0, (1.0,), 0.0, 1)
    assert growth_rate(params, 15.0, 50, 15) is None


def test_growth_rate_supercritical_positive():
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 1.0, 1)
    est = growth_rate(params, 12.0, 40, 17, caps=Caps(max_alive=3000, max_events=10**6))
    assert est is not None and est.n_survivors >= 10
    assert est.slope > 3 * est.std_err


def test_coupled_birth_rates_monotone_and_calibrated():
    params_max = BRWParams(1.0, 2.0, ALWAYS_TWO, 1.0, 1)
    ests = coupled_birth_rate_survival(params_max, [0.5, 1.0, 2.0], 6.0, 200, 19,
                                       caps=Caps(max_alive=800, max_events=10**6))
    vals = [e.value for e in ests]
    assert vals == sorted(vals)
    # the top rate must reproduce a direct (uncoupled) run statistically
    direct = survival_frequency(BRWParams(1.0, 2.0, ALWAYS_TWO, 1.0, 1), 6.0, 200, 21,
                                caps=Caps(max_alive=800, max_events=10**6))
    sigma = math.hypot(ests[-1].std_err, direct.std_err)
    assert abs(ests[-1].value - direct.value) < 3 * sigma


def test_coupled_birth_rates_reject_zero_offspring_mass():
    params_max = BRWParams(1.0, 2.0, BINARY, 1.0, 1)
    with pytest.raises(ValueError):
        coupled_birth_rate_survival(params_max, [1.0], 5.0, 10, 1)


def test_survivors_rarely_small_at_late_horizons():
    # among survivors, small populations thin out as the horizon grows
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 1.0, 1)
    cap = 400
    small_frac = []
    for h in (4.0, 8.0, 14.0):
        small = alive = 0
        for i in range(120):
            fld = DisasterField(seed=5000 + i, rate=1.0, dimension=1)
            res = simulate(params, {(0,): 1}, fld, 0.0, h, 5200 + i,
                           caps=Caps(max_alive=cap, max_events=10**6), record_events=False)
            n = cap if res.capped else res.final_count
            if n > 0:
                alive += 1
                small += n < 20
        small_frac.append(small / max(alive, 1))
    assert small_frac[2] <= small_frac[0] + 0.05
    assert small_frac[2] <= 0.1


def test_initial_configuration_validation():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    fld = DisasterField(1, 1.0, 1)
    with pytest.raises(ValueError):
        simulate(params, {(0,): -1}, fld, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        simulate(params, {(5,): 1}, fld, 0.0, 1.0, 1, trunc=centered_box(2, 1))
    with pytest.raises(ValueError):
        simulate(params, {(0,): 1}, DisasterField(1, 1.0, 2), 0.0, 1.0, 1)


def _oracle_corpus():
    """(params, initial, make_field, start, horizon, seed, kwargs) covering every engine path."""
    laws = [ALWAYS_TWO, BINARY, offspring_pmf({0: 0.3, 1: 0.2, 3: 0.5}), (0.1, 0.4, 0.5)]
    for i in range(96):
        pick = np.random.default_rng(i).choice
        d = 1 + i % 2
        params = BRWParams(float(pick([0.5, 1.0, 2.0, 8.0])), float(pick([0.5, 1.0, 2.0])),
                           laws[i % 4], float(pick([0.5, 1.0, 2.0])), d)
        def make_field(i=i, d=d, rate=params.disaster_rate):
            field = DisasterField(1000 + i, rate, d)
            return superpose(field, DisasterField(5000 + i, 0.5, d)) if i % 8 == 3 else field
        start = float(pick([0.0, 0.0, 0.7]))
        horizon = start + float(pick([1.0, 3.0, 5.0]))
        initial = {(0,) * d: 1 + i % 3}
        if i % 5 == 0:
            initial[(1,) + (0,) * (d - 1)] = 2
        kw = {"record_events": i % 9 != 4, "snapshot_flavor": "pre" if i % 4 < 2 else "post"}
        if i % 3 == 0:
            kw["caps"] = Caps(max_alive=int(pick([3, 5, 10])))
        elif i % 3 == 1:
            kw["caps"] = Caps(max_events=int(pick([10, 30, 100])))
        if i % 5 == 1:
            kw["trunc"] = centered_box(int(pick([1, 2, 3])), d)
        if i % 2 == 0:
            kw["snapshot_times"] = [start, start + 0.37 * (horizon - start), horizon]
        yield params, initial, make_field, start, horizon, 77 + i, kw


def test_simulate_matches_heap_loop_oracle():
    seen = {"alive cap": 0, "event cap": 0, "truncated": 0, "superposed": 0, "start > 0": 0}
    for params, initial, make_field, start, horizon, seed, kw in _oracle_corpus():
        field = make_field()
        got = simulate(params, initial, field, start, horizon, seed, **kw)
        want = simulate_oracle(params, initial, make_field(), start, horizon, seed, **kw)
        assert got.events == want.events
        assert [(s.time, s.alive) for s in got.snapshots] == [(s.time, s.alive) for s in want.snapshots]
        assert got.records == want.records
        assert (got.capped, got.cap_time, got.final_alive) == (want.capped, want.cap_time, want.final_alive)
        assert got.pop_times.tolist() == want.pop_times.tolist()
        assert got.pop_counts.tolist() == want.pop_counts.tolist()
        cap = kw.get("caps", Caps())
        seen["alive cap"] += got.capped and cap.max_alive < Caps().max_alive
        seen["event cap"] += got.capped and cap.max_events < Caps().max_events
        seen["truncated"] += any(r.end_cause == "left-truncation-region" for r in got.records.values())
        seen["superposed"] += isinstance(field, SuperposedField) and len(got.events) > 0
        seen["start > 0"] += start > 0
    assert min(seen.values()) >= 3, seen


def test_particle_stream_draws_are_counter_uniforms():
    st = ParticleStream(0xDEADBEEF)
    want = counter_uniform(0xDEADBEEF, np.arange(6))
    got = [st.uniform(), st.exponential(2.0), st.exponential(0.0), st.uniform(),
           st.exponential(0.5), st.index(7)]
    assert got[0] == want[0] and got[3] == want[3]
    assert got[1] == -np.log(want[1]) / 2.0 and got[4] == -np.log(want[4]) / 0.5
    assert got[2] == math.inf and got[5] == min(int(want[5] * 7), 6)
    assert st.ctr == 6


class _PinnedField:
    """Disasters only where the test puts them; the engine's whole view of a field."""

    dimension = 1

    def __init__(self, times_by_site):
        self.times = times_by_site

    def disasters_in_window(self, site, t0, t1):
        ts = np.asarray(sorted(self.times.get(site, ())), dtype=np.float64)
        return ts[(ts >= t0) & (ts < t1)]


def _first_draws(seed):
    st = ParticleStream(fold(mix64_int(seed), 0))
    return st.exponential(1.0), st.exponential(1.0)  # counter 0: branch gap, 1: first jump gap


def test_disaster_at_arrival_instant_kills_after_the_jump():
    seed = 41
    _, t_jump = _first_draws(seed)
    field = _PinnedField({(-1,): [t_jump], (1,): [t_jump]})
    # one event allowed: the kill belongs to the jump, it is no disaster event of its own
    res = simulate(BRWParams(1.0, 0.0, ALWAYS_TWO, 1.0, 1), {(0,): 1}, field, 0.0, t_jump + 1.0,
                   seed, caps=Caps(max_events=1))
    kinds = [(ev.kind, ev.time) for ev in res.events]
    assert kinds == [("birth", 0.0), ("jump", t_jump), ("disaster", t_jump)]
    assert res.events[1].site == res.events[2].site
    assert res.records[(0,)].end_cause == "disaster" and res.final_count == 0
    assert not res.capped


def test_disaster_fires_before_a_branch_at_the_same_instant():
    seed = 43
    t_branch, _ = _first_draws(seed)
    field = _PinnedField({(0,): [t_branch]})
    # the horizon sits on both: a disaster at the horizon still fires
    res = simulate(BRWParams(0.0, 1.0, ALWAYS_TWO, 1.0, 1), {(0,): 1}, field, 0.0, t_branch,
                   seed, snapshot_times=[t_branch], snapshot_flavor="pre")
    assert [(ev.kind, ev.time) for ev in res.events] == [("birth", 0.0), ("disaster", t_branch)]
    assert res.records[(0,)].end_cause == "disaster" and len(res.records) == 1
    assert len(res.snapshots[0]) == 1  # the left limit still holds the particle


def test_offspring_count_at_a_cdf_atom_takes_the_lower_count(monkeypatch):
    params = BRWParams(0.0, 1.0, offspring_pmf({0: 0.25, 1: 0.25, 3: 0.5}), 0.0, 1)
    t_branch, _ = _first_draws(5)
    for u, n_children in ((0.25, 0), (0.5, 1), (0.75, 3), (1.0, 3)):
        monkeypatch.setattr(ParticleStream, "uniform", lambda self, u=u: u)
        res = simulate(params, {(0,): 1}, DisasterField(1, 0.0, 1), 0.0, t_branch, 5)
        assert res.final_count == n_children
