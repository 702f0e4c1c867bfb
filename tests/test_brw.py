import math
from collections import Counter

import numpy as np
import pytest

from disasterbrw.brw import (
    BRWParams,
    Caps,
    CapTripped,
    growth_rate,
    moment_identity_check,
    offspring_pmf,
    simulate,
    survival_frequency,
    survive_replicas,
)
from disasterbrw import brw
from disasterbrw.env import DisasterField, PackedStreams
from disasterbrw.rng import (ParticleStream, counter_exponential, counter_uniform, derive_seed,
                             derive_seeds, fold, mix64_int)
from helpers import (SuperposedField, WalkPath, centered_box, extinction_time,
                     replay_site_counts, simulate_oracle, superpose)


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
        jumps = tuple((ev.time, ev.site) for ev in res.events if ev.kind == "jump")
        deaths = [(ev.time, ev.pid) for ev in res.events if ev.kind == "disaster"]
        path = WalkPath(start_site=(0,), jumps=jumps, horizon=5.0)
        fld2 = DisasterField(seed=300 + i, rate=1.0, dimension=1)
        ext = extinction_time(path, fld2)
        assert res.records == [(0,)] and not res.capped
        if deaths:
            assert deaths == [(ext, (0,))] and res.final_count == 0
        else:
            assert res.final_count == 1
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
    sizes = np.array([simulate(params, {(0,): 1}, fld, 0.0, t, 10_000 + i,
                               record_events=False).final_count
                      for i in range(10_000)])
    target = math.exp(params.birth_rate * (params.offspring_mean - 1.0) * t)
    assert abs(sizes.mean() - target) < 3 * sizes.std(ddof=1) / math.sqrt(len(sizes))


def test_snapshots_match_event_log_replay():
    # a run to horizon s ends in the state at s of a longer run, so comparing
    # final populations of shorter runs compares one process at several times
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    for i in range(30):
        fld = DisasterField(seed=600 + i, rate=1.0, dimension=1)
        full = simulate(params, {(0,): 2}, fld, 0.0, 3.0, 700 + i)
        for s in (0.7, 1.9, 3.0):
            res = simulate(params, {(0,): 2}, fld, 0.0, s, 700 + i)
            counts = Counter(site for _pid, site in res.final_alive)
            assert counts == replay_site_counts(full.events, s)


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
        for h in (1.0, 2.0, 3.0):
            full = simulate(params, {(0,): 1}, fa, 0.0, h, 50 + i)
            trunc = simulate(params, {(0,): 1}, fb, 0.0, h, 50 + i, trunc=box)
            assert set(p for p, _ in trunc.final_alive) <= set(p for p, _ in full.final_alive)


def test_denser_environment_dominated_pathwise():
    # adding an independent disaster stream only removes particles
    base = BRWParams(1.0, 1.2, BINARY, 1.0, 1)
    dense = BRWParams(1.0, 1.2, BINARY, 1.5, 1)
    for i in range(50):
        f1 = DisasterField(seed=2000 + i, rate=1.0, dimension=1)
        fa = DisasterField(seed=2000 + i, rate=1.0, dimension=1)
        fb = DisasterField(seed=9000 + i, rate=0.5, dimension=1)
        dense_field = superpose(fa, fb)
        for h in (1.5, 3.0):
            r1 = simulate(base, {(0,): 1}, f1, 0.0, h, 70 + i)
            r2 = simulate(dense, {(0,): 1}, dense_field, 0.0, h, 70 + i)
            assert set(p for p, _ in r2.final_alive) <= set(p for p, _ in r1.final_alive)


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
    chks = moment_identity_check(params, [DisasterField(1, 1.0, 1), DisasterField(2, 1.0, 1)], 0.0, 10,
                                 [1, 2])
    assert [(c.lhs, c.rhs) for c in chks] == [(1.0, 1.0)] * 2


def test_moment_identity_no_disasters():
    params = BRWParams(1.0, 1.0, offspring_pmf({0: 0.25, 2: 0.75}), 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    [chk] = moment_identity_check(params, [fld], 1.0, 4000, [9])
    target = math.exp(params.birth_rate * (params.offspring_mean - 1.0))
    assert chk.rhs == pytest.approx(target, rel=1e-12)  # survival is exactly 1
    assert abs(chk.lhs - target) < 3 * chk.lhs_se


@pytest.mark.parametrize("field", [DisasterField(23, 0.5, 1), DisasterField(23, 1.0, 2),
                                   superpose(DisasterField(23, 0.5, 1), DisasterField(24, 0.5, 1))])
def test_moment_identity_needs_a_disaster_field_of_the_model(field):
    with pytest.raises(ValueError):
        moment_identity_check(BRWParams(1.0, 1.0, BINARY, 1.0, 1), [DisasterField(22, 1.0, 1), field],
                              2.0, 20, [10, 11])


def test_moment_identity_raises_when_an_event_cap_rerun_trips(monkeypatch):
    reruns = []
    monkeypatch.setattr(brw, "simulate", lambda *a, **k: reruns.append(a) or simulate(*a, **k))
    params = BRWParams(2.0, 1.0, ALWAYS_TWO, 1.0, 1)
    with pytest.raises(CapTripped):
        moment_identity_check(params, [DisasterField(23, 1.0, 1)], 2.0, 20, [11], caps=Caps(max_events=2))
    assert reruns


def test_moment_identity_generic_field():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    fld = DisasterField(23, 1.0, 1)
    [chk] = moment_identity_check(params, [fld], 2.0, 4000, [11])
    assert abs(chk.z) <= 3.0


@pytest.mark.parametrize("dimension", [1, 2])
def test_moment_identity_over_fields_is_a_loop_over_fields(dimension):
    # one batch for all fields gives each field's comparison bit for bit
    params = BRWParams(1.0, 1.0, BINARY, 1.0, dimension)
    fields = [DisasterField(derive_seed(5, "mf", i), 1.0, dimension) for i in range(4)]
    seeds = [derive_seed(5, "ms", i) for i in range(4)]
    together = moment_identity_check(params, fields, 2.0, 60, seeds)
    alone = [moment_identity_check(params, [f], 2.0, 60, [s])[0] for f, s in zip(fields, seeds)]
    assert together == alone
    assert len({c.lhs for c in together}) > 1
    with pytest.raises(ValueError):
        moment_identity_check(params, fields, 2.0, 60, seeds[:3])


def test_a_cap_trip_in_one_field_names_that_field():
    # field 1 alone has a tree past the cap; the trees of fields 0 and 2 stay under it
    params, caps = BRWParams(1.0, 1.0, BINARY, 1.0, 1), Caps(max_alive=4)
    fields = [DisasterField(derive_seed(1, "cap-field", i), 1.0, 1) for i in range(3)]
    trees = [derive_seeds(n, 1, "cap-tree", i) for i, n in enumerate((3, 40, 3))]
    alone = [bool(survive_replicas(params, {(0,): 1}, [f.seed] * len(t), t, 2.0, caps=caps).capped.any())
             for f, t in zip(fields, trees)]
    assert alone == [False, True, False]
    with pytest.raises(CapTripped, match="field 1 "):
        brw.replicas_in_fields(params, fields, trees, 0.0, 2.0, caps)
    outs = brw.replicas_in_fields(params, fields[::2], trees[::2], 0.0, 2.0, caps)
    assert [len(o.final_count) for o in outs] == [3, 3]


def test_growth_rate_galton_watson_slope():
    params = BRWParams(0.0, 1.0, ALWAYS_TWO, 0.0, 1)
    est = growth_rate(params, 8.0, 60, 13, caps=Caps(max_alive=5000, max_events=10**6))
    assert est is not None
    assert abs(est.value - 1.0) < 0.05  # birth_rate*(m-1) = 1


def test_growth_rate_subcritical_none():
    params = BRWParams(1.0, 2.0, (1.0,), 0.0, 1)
    assert growth_rate(params, 15.0, 50, 15) is None


def test_growth_rate_supercritical_positive():
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 1.0, 1)
    est = growth_rate(params, 12.0, 40, 17, caps=Caps(max_alive=3000, max_events=10**6))
    assert est is not None and est.n >= 10
    assert est.value > 3 * est.std_err


def _fkg_total(params, n_reps, seed):
    from disasterbrw.boxes import SpaceTimeBox, fkg_test

    total = lambda tv, fv: float(sum(tv) + sum(fv))
    return fkg_test(params, {(0,): 1}, {(0,): 1}, SpaceTimeBox(3, 1.0, 1), total, total, n_reps, seed)


@pytest.mark.parametrize("n_reps", [0, -3])
@pytest.mark.parametrize("estimator", [
    _fkg_total,
    lambda params, n_reps, seed: growth_rate(params, 1.0, n_reps, seed),
    lambda params, n_reps, seed: survival_frequency(params, 1.0, n_reps, seed),
], ids=["fkg_test", "growth_rate", "survival_frequency"])
def test_replica_estimators_reject_no_replicas_before_any_draw(monkeypatch, estimator, n_reps):
    def no_draw(*_args):
        raise AssertionError("a particle drew")

    monkeypatch.setattr(ParticleStream, "uniform", no_draw)
    monkeypatch.setattr(ParticleStream, "exponential", no_draw)
    with pytest.raises(ValueError, match="n_reps must be >= 1"):
        estimator(BRWParams(1.0, 2.0, ALWAYS_TWO, 1.0, 1), n_reps, 3)


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
    with pytest.raises(ValueError, match="truncation region"):
        simulate(params, {(0,): 1}, fld, 0.0, 1.0, 1, trunc=centered_box(2, 2))


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
        kw = {"record_events": i % 9 != 4}
        if i % 3 == 0:
            kw["caps"] = Caps(max_alive=int(pick([3, 5, 10])))
        elif i % 3 == 1:
            kw["caps"] = Caps(max_events=int(pick([10, 30, 100])))
        if i % 5 == 1:
            kw["trunc"] = centered_box(int(pick([1, 2, 3])), d)
        yield params, initial, make_field, start, horizon, 77 + i, kw


def test_simulate_matches_heap_loop_oracle():
    seen = {"alive cap": 0, "event cap": 0, "truncated": 0, "superposed": 0, "start > 0": 0}
    for params, initial, make_field, start, horizon, seed, kw in _oracle_corpus():
        field = make_field()
        got = simulate(params, initial, field, start, horizon, seed, **kw)
        want = simulate_oracle(params, initial, make_field(), start, horizon, seed, **kw)
        assert got.events == want.events
        assert got.records == want.records
        assert (got.capped, got.cap_time, got.final_alive) == (want.capped, want.cap_time, want.final_alive)
        assert got.pop_times.tolist() == want.pop_times.tolist()
        assert got.pop_counts.tolist() == want.pop_counts.tolist()
        cap = kw.get("caps", Caps())
        seen["alive cap"] += got.capped and cap.max_alive < Caps().max_alive
        seen["event cap"] += got.capped and cap.max_events < Caps().max_events
        seen["truncated"] += any(ev.kind == "leave" for ev in got.events)
        seen["superposed"] += isinstance(field, SuperposedField) and len(got.events) > 0
        seen["start > 0"] += start > 0
    assert min(seen.values()) >= 3, seen


def test_records_list_each_created_particle_once_in_creation_order():
    # records is what perfbench counts as brw.particles: every id the run
    # created, roots first, each branch's children together, in child order
    seen = {"capped": 0, "truncated": 0, "branched": 0}
    for params, initial, make_field, start, horizon, seed, kw in _oracle_corpus():
        kw = {**kw, "record_events": True}
        logged = simulate(params, initial, make_field(), start, horizon, seed, **kw)
        bare = simulate(params, initial, make_field(), start, horizon, seed,
                        **{**kw, "record_events": False})
        recs = logged.records
        assert bare.records == recs
        assert recs == [ev.pid for ev in logged.events if ev.kind == "birth"]
        n_roots = sum(initial.values())
        assert recs[:n_roots] == [(i,) for i in range(n_roots)]
        assert len(set(recs)) == len(recs)
        order = {pid: k for k, pid in enumerate(recs)}
        for k, pid in enumerate(recs[n_roots:], n_roots):
            if pid[-1]:
                assert recs[k - 1] == pid[:-1] + (pid[-1] - 1,)
            else:
                assert order[pid[:-1]] < k
        assert {pid for pid, _site in logged.final_alive} <= set(recs)
        seen["capped"] += logged.capped
        seen["truncated"] += any(ev.kind == "leave" for ev in logged.events)
        seen["branched"] += len(recs) > n_roots
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
    assert [ev.pid for ev in res.events if ev.kind == "disaster"] == [(0,)] and res.final_count == 0
    assert not res.capped


def test_disaster_fires_before_a_branch_at_the_same_instant():
    seed = 43
    t_branch, _ = _first_draws(seed)
    field = _PinnedField({(0,): [t_branch]})
    # the horizon sits on both: a disaster at the horizon still fires
    res = simulate(BRWParams(0.0, 1.0, ALWAYS_TWO, 1.0, 1), {(0,): 1}, field, 0.0, t_branch, seed)
    assert [(ev.kind, ev.time) for ev in res.events] == [("birth", 0.0), ("disaster", t_branch)]
    assert res.events[-1].pid == (0,) and res.records == [(0,)] and res.final_count == 0


def test_offspring_count_at_a_cdf_atom_takes_the_lower_count(monkeypatch):
    params = BRWParams(0.0, 1.0, offspring_pmf({0: 0.25, 1: 0.25, 3: 0.5}), 0.0, 1)
    t_branch, _ = _first_draws(5)
    for u, n_children in ((0.25, 0), (0.5, 1), (0.75, 3), (1.0, 3)):
        monkeypatch.setattr(ParticleStream, "uniform", lambda self, u=u: u)
        res = simulate(params, {(0,): 1}, DisasterField(1, 0.0, 1), 0.0, t_branch, 5)
        assert res.final_count == n_children


# ---------------------------------------------------------------------------
# replica-batch engine
# ---------------------------------------------------------------------------

THREE = offspring_pmf({0: 0.3, 1: 0.2, 3: 0.5})
NONE = (1.0,)  # every branch leaves no child


def _engine_corpus():
    """(label, params, initial, horizon, caps) over the batch engine's paths."""
    o1, o2, o3 = (0,), (0, 0), (0, 0, 0)
    yield "alive cap", BRWParams(2.0, 1.5, ALWAYS_TWO, 1.0, 1), {o1: 1}, 3.0, Caps(max_alive=10)
    yield "alive cap", BRWParams(8.0, 2.0, THREE, 1.0, 2), {o2: 1}, 2.0, Caps(max_alive=30)
    yield "alive cap", BRWParams(1.0, 1.5, BINARY, 0.5, 3), {o3: 2}, 3.0, Caps(max_alive=3)
    yield "alive cap", BRWParams(8.0, 2.0, ALWAYS_TWO, 1.0, 1), {o1: 1}, 6.0, Caps(max_alive=50)
    yield "no jumps", BRWParams(0.0, 1.0, ALWAYS_TWO, 1.0, 1), {o1: 1}, 2.0, Caps(max_alive=20)
    yield "no births", BRWParams(2.0, 0.0, NONE, 1.0, 2), {o2: 1}, 3.0, Caps()
    yield "no disasters", BRWParams(2.0, 1.0, (0.1, 0.4, 0.5), 0.0, 1), {o1: 1}, 3.0, Caps(max_alive=20)
    yield "no children", BRWParams(1.0, 2.0, NONE, 0.5, 3), {o3: 3}, 2.0, Caps()
    yield "horizon 0", BRWParams(2.0, 1.0, ALWAYS_TWO, 1.0, 1), {o1: 2}, 0.0, Caps()
    yield "several sites", BRWParams(1.0, 1.0, BINARY, 1.0, 2), {o2: 2, (1, 0): 1, (0, -2): 3}, 2.0, \
        Caps(max_alive=12)
    yield "event cap", BRWParams(4.0, 2.0, ALWAYS_TWO, 0.5, 1), {o1: 1}, 3.0, Caps(max_events=80)
    yield "event cap", BRWParams(2.0, 1.0, THREE, 1.0, 2), {o2: 1}, 2.0, Caps(max_events=25)
    yield "both caps", BRWParams(2.0, 2.0, ALWAYS_TWO, 0.5, 1), {o1: 1}, 3.0, Caps(8, 200)


def _assert_engine_matches(params, initial, env, tree, start, horizon, caps, label):
    """survive_replicas against simulate, replica for replica: the capped flag, and for an
    uncapped replica its population at the horizon and the part of it on a start site."""
    out = survive_replicas(params, initial, env, tree, horizon, start_time=start, caps=caps)
    for i in range(len(env)):
        field = DisasterField(env[i], params.disaster_rate, params.dimension)
        res = simulate(params, initial, field, start, horizon, tree[i], caps=caps,
                       record_events=False)
        assert (out.capped[i], out.alive[i]) == (res.capped, res.capped or res.final_count > 0), \
            (label, start, i)
        if not res.capped:
            home = sum(site in initial for _pid, site in res.final_alive)
            assert (out.final_count[i], out.home_count[i]) == (res.final_count, home), (label, start, i)
    return out


def test_batch_engine_matches_heap_loop():
    tripped = {"alive cap": 0, "event cap": 0}
    for k, (label, params, initial, horizon, caps) in enumerate(_engine_corpus()):
        env = [derive_seed(k, "env", i) for i in range(40)]
        tree = [derive_seed(k, "tree", i) for i in range(40)]
        out = _assert_engine_matches(params, initial, env, tree, 0.0, horizon, caps, label)
        if label in tripped:
            tripped[label] += int(out.capped.sum())
    print(f"replicas that tripped each cap: {tripped}")
    assert min(tripped.values()) >= 3, tripped


def test_batch_engine_counts_from_a_start_time_in_one_field(monkeypatch):
    reruns = []

    def heap_loop(*args, **kwargs):
        reruns.append(args[3])  # the rerun's start time
        return simulate(*args, **kwargs)

    monkeypatch.setattr(brw, "simulate", heap_loop)
    seen = Counter()
    for k, (label, params, initial, horizon, caps) in enumerate(_engine_corpus()):
        env = [derive_seed(k, "shared-env")] * 30  # every replica in one field
        origin = min(initial)
        struck = DisasterField(env[0], params.disaster_rate, params.dimension).stream_times(origin, 5.0)
        # the last start time is a disaster at a start site: it spares the roots born there
        for j, start in enumerate([0.5, 1.3, *struck[:1].tolist()]):
            tree = [derive_seed(k, "tree", j, i) for i in range(30)]
            out = _assert_engine_matches(params, initial, env, tree, start, start + horizon, caps, label)
            ok = ~out.capped
            seen[f"d = {params.dimension}"] += 1
            seen["disaster at the start"] += j == 2
            seen["alive cap"] += int((out.capped & (caps.max_alive < Caps().max_alive)).sum())
            seen["on a start site"] += int((ok & (out.home_count > 0)).sum())
            seen["off the start sites"] += int((ok & (out.final_count > out.home_count)).sum())
    seen["event-cap reruns"] = sum(start > 0.0 for start in reruns)
    print(dict(seen))
    assert min(seen.values()) >= 3, seen


def test_batch_engine_builds_one_field_per_distinct_env_seed(monkeypatch):
    built = []

    class Field(DisasterField):
        def __init__(self, seed, *args):
            built.append(seed)
            super().__init__(seed, *args)

    monkeypatch.setattr(brw, "DisasterField", Field)
    params = BRWParams(2.0, 1.0, BINARY, 1.0, 2)
    env = [5, 7, 5, 5, 7, 9] * 10
    survive_replicas(params, {(0, 0): 1}, env, derive_seeds(60, 3, "tree"), 2.0)
    assert sorted(built) == [5, 7, 9]


def test_batch_engine_draws_each_stream_once(monkeypatch):
    # streams belong to a field, not to a replica: one that a finished
    # replica read stays for the replicas still running in its field
    added = []
    add = PackedStreams._add

    def counted(self, keys, owners):
        added.extend(keys.tolist())
        return add(self, keys, owners)

    monkeypatch.setattr(PackedStreams, "_add", counted)
    params = BRWParams(2.0, 0.5, BINARY, 1.0, 1)
    [out] = brw.replicas_in_fields(params, [DisasterField(derive_seed(6, "field"), 1.0, 1)],
                                   [derive_seeds(300, 6, "tree")], 0.0, 2.0, Caps())
    assert out.final_count.sum() > 0 and len(set(added)) > 5
    assert len(added) == len(set(added))
    added.clear()
    survive_replicas(params, {(0,): 1}, [5, 7, 5, 5, 7, 9] * 50, derive_seeds(300, 3, "tree"), 2.0)
    assert len(added) == len(set(added))


def test_batch_engine_does_not_depend_on_its_blocks(monkeypatch):
    cases = [(params, initial, horizon, caps)
             for label, params, initial, horizon, caps in _engine_corpus()
             if label in ("alive cap", "several sites", "event cap")][:4]
    seeds = [derive_seed(9, "block", i) for i in range(24)]
    want = [survive_replicas(*case[:2], seeds, seeds[::-1], case[2], caps=case[3]) for case in cases]
    monkeypatch.setattr(brw, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(brw, "_LIVE_BLOCKS", 1)
    monkeypatch.setattr(brw, "_JUMP_COLUMNS", 1)
    for case, w in zip(cases, want):
        got = survive_replicas(*case[:2], seeds, seeds[::-1], case[2], caps=case[3])
        assert got.capped.tolist() == w.capped.tolist()
        assert got.alive.tolist() == w.alive.tolist()
        for counts in ("final_count", "home_count"):
            assert np.where(got.capped, -1, getattr(got, counts)).tolist() == \
                np.where(w.capped, -1, getattr(w, counts)).tolist()
        assert got.peak_live < w.peak_live


def test_batch_engine_children_inherit_the_next_disaster(monkeypatch):
    # a newborn's first disaster after birth is its parent's next one: only roots look it up
    lives, first_disaster = brw._ReplicaBatch._lives, brw._ReplicaBatch._first_disaster
    seen = Counter()

    def checked_lives(self, rep, key, t0, site, tau):
        want = first_disaster(self, rep, site, np.nextafter(t0, np.inf))
        assert tau.tobytes() == want.tobytes()
        seen["inherited disasters"] += int(np.count_nonzero((t0 > self.start_time) & (tau < np.inf)))
        seen["in lives"] += 1
        try:
            return lives(self, rep, key, t0, site, tau)
        finally:
            seen["in lives"] -= 1

    def counted(self, rep, coords, a):
        seen["birth lookups"] += 0 if seen["in lives"] else len(a)
        return first_disaster(self, rep, coords, a)

    monkeypatch.setattr(brw._ReplicaBatch, "_lives", checked_lives)
    monkeypatch.setattr(brw._ReplicaBatch, "_first_disaster", counted)
    roots = 0
    for k, (label, params, initial, horizon, caps) in enumerate(_engine_corpus()):
        env = [derive_seed(k, "env", i) for i in range(40)]
        survive_replicas(params, initial, env, env[::-1], horizon, caps=caps)
        roots += 40 * sum(initial.values())
    print(dict(seen))
    assert seen["birth lookups"] == roots
    assert seen["inherited disasters"] > 1000


def test_batch_engine_draws_little_past_an_alive_cap(monkeypatch):
    # a replica near its cap spawns branches only a short way past its checked time
    drawn = []
    lives = brw._ReplicaBatch._lives
    monkeypatch.setattr(brw._ReplicaBatch, "_lives",
                        lambda self, rep, *cols: drawn.append(len(rep)) or lives(self, rep, *cols))
    params, caps = BRWParams(8.0, 2.0, ALWAYS_TWO, 1.0, 1), Caps(max_alive=50)
    env, tree = derive_seeds(200, 8, "env"), derive_seeds(200, 8, "tree")
    out = survive_replicas(params, {(0,): 1}, env, tree, 6.0, caps=caps)
    created = sum(len(simulate(params, {(0,): 1}, DisasterField(int(e), 1.0, 1), 0.0, 6.0, int(t),
                               caps=caps, record_events=False).records) for e, t in zip(env, tree))
    print(f"lives drawn {sum(drawn)}, particles the heap loop creates {created}")
    assert out.capped.sum() > 40
    assert sum(drawn) <= 1.1 * created


def test_batch_engine_holds_a_budget_not_the_population(monkeypatch):
    monkeypatch.setattr(brw, "_BLOCK_CELLS", 256)
    budget = brw._LIVE_BLOCKS * brw._BLOCK_CELLS
    params = BRWParams(8.0, 2.0, ALWAYS_TWO, 1.0, 1)
    seeds = [derive_seed(4, "budget", i) for i in range(300)]
    out = survive_replicas(params, {(0,): 1}, seeds, seeds[::-1], 3.0, caps=Caps(max_alive=10_000))
    sizes = [simulate(params, {(0,): 1}, DisasterField(s, 1.0, 1), 0.0, 3.0, t,
                      record_events=False).final_count for s, t in zip(seeds, seeds[::-1])]
    assert not out.capped.any() and out.alive.tolist() == [n > 0 for n in sizes]
    # the trees hold over ten budgets at the horizon, each under one budget
    assert sum(sizes) > 10 * budget and max(sizes) < budget
    assert out.peak_live <= 2 * budget


def test_batch_engine_reserves_each_replica_its_mean_population():
    def reserve(params, n_roots, start, horizon):
        return brw._ReplicaBatch(params, {(0,): n_roots}, [1], [1], start, horizon, Caps()).reserve

    rows = brw._REPLICA_ROWS
    assert reserve(BRWParams(2.0, 0.5, BINARY, 1.0, 1), 1, 0.0, 2.0) == 1  # critical
    assert reserve(BRWParams(2.0, 0.5, BINARY, 1.0, 1), 3, 0.0, 2.0) == 3
    assert reserve(BRWParams(2.0, 0.5, (0.9, 0.0, 0.1), 1.0, 1), 1, 0.0, 20.0) == 1  # subcritical
    assert reserve(BRWParams(2.0, 1.0, ALWAYS_TWO, 1.0, 1), 1, 2.0, 4.0) == 8  # ceil(e^2)
    assert reserve(BRWParams(2.0, 1.0, ALWAYS_TWO, 1.0, 1), 1, 2.0, 2.0) == 1  # horizon at the start
    assert reserve(BRWParams(8.0, 2.0, ALWAYS_TWO, 1.0, 1), 1, 0.0, 6.0) == rows
    assert reserve(BRWParams(8.0, 1e300, ALWAYS_TWO, 1.0, 1), 1, 0.0, 1e10) == rows  # no overflow
    # supercritical: admitted as with a fixed reserve of _REPLICA_ROWS (the brw-survival config)
    seeds = [derive_seeds(1200, 3, label) for label in ("bsurv-env", "bsurv-tree")]
    out = survive_replicas(BRWParams(8.0, 2.0, ALWAYS_TWO, 1.0, 1), {(0,): 1}, *seeds, 6.0,
                           caps=Caps(max_alive=50))
    assert out.peak_live == 9036


def test_batch_engine_holds_a_budget_with_many_small_trees(monkeypatch):
    # 12,000 critical trees reserve one row each, so thousands run at once within the budget
    running = []
    admit = brw._ReplicaBatch._admit

    def counted(self):
        births = admit(self)
        running.append(int(np.count_nonzero(self.state == 1)))
        return births

    monkeypatch.setattr(brw._ReplicaBatch, "_admit", counted)
    params = BRWParams(2.0, 0.5, BINARY, 1.0, 1)
    fields = [DisasterField(derive_seed(8, "small-field", i), 1.0, 1) for i in range(40)]
    trees = [derive_seeds(300, 8, "small-tree", i) for i in range(40)]
    outs = brw.replicas_in_fields(params, fields, trees, 0.0, 2.0, Caps())
    budget = brw._LIVE_BLOCKS * brw._BLOCK_CELLS
    print(f"peak rows {outs[0].peak_live}, most replicas running {max(running)}, rounds {len(running)}")
    assert outs[0].peak_live <= budget
    assert max(running) > budget // brw._REPLICA_ROWS  # more than a fixed reserve admits


def test_derive_seeds_are_derive_seed_bit_for_bit():
    for parts in [(), ("bsurv-env",), ("offspring", 3), (-2, "x", 7), ("ünï", -(2**40))]:
        for seed in (0, 12345, -7, 2**64 - 1):
            got = derive_seeds(10_000, seed, *parts)
            assert got.dtype == np.uint64 and len(got) == 10_000
            assert got.tolist() == [derive_seed(seed, *parts, i) for i in range(10_000)]
    assert derive_seeds(0, 1, "none").tolist() == []


def test_counter_draws_are_particle_stream_draws_bit_for_bit():
    gen = np.random.default_rng(17)
    keys = gen.integers(0, np.iinfo(np.uint64).max, 3000, dtype=np.uint64, endpoint=True)
    ctrs = gen.integers(0, 5000, 3000)
    uniforms = counter_uniform(keys, ctrs)
    for rate in (0.0, 0.5, 8.0):
        draws = counter_exponential(keys, ctrs, rate)
        want_u, want_e = np.empty(3000), np.empty(3000)
        for j, (key, ctr) in enumerate(zip(keys.tolist(), ctrs.tolist())):
            st = ParticleStream(key)
            st.ctr = ctr
            want_e[j] = e = st.exponential(rate)
            assert st.ctr == ctr + 1  # rate 0 still spends its counter
            st.ctr = ctr
            want_u[j] = u = st.uniform()
            assert type(e) is float and type(u) is float  # the engine sums python floats
        assert draws.view(np.uint64).tolist() == want_e.view(np.uint64).tolist()
        assert uniforms.view(np.uint64).tolist() == want_u.view(np.uint64).tolist()
    assert np.isinf(counter_exponential(keys, ctrs, 0.0)).all()
    grid = counter_uniform(keys[:50, None], np.arange(6))
    assert all((grid[:, c] == counter_uniform(keys[:50], np.full(50, c))).all() for c in range(6))
    assert all(ParticleStream(key).child_key(j) == fold(key, j)
               for key in keys[:200].tolist() for j in range(3))


class _NoStreams:
    dimension = 1

    def disasters_in_window(self, *_args):
        raise AssertionError("a stream was drawn")


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_is_rejected_before_any_stream(horizon):
    params = BRWParams(1.0, 1.0, ALWAYS_TWO, 1.0, 1)
    with pytest.raises(ValueError):
        simulate(params, {(0,): 1}, _NoStreams(), 0.0, horizon, 1)
    with pytest.raises(ValueError):
        survive_replicas(params, {(0,): 1}, [1], [2], horizon)
