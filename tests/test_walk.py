import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from disasterbrw import walk
from disasterbrw.env import DisasterField
from disasterbrw.walk import (
    _exact_survival_in_box,
    annealed_survival,
    concentration_profile,
    estimate_lyapunov,
    estimate_survival,
    exact_survival,
)

from helpers import (
    annealed_survival_via_field,
    brute_force_extinction,
    extinction_time,
    series_return_probability,
    simulate_walk,
    superpose,
    survival_batch_oracle,
)


# -- simulate_walk -----------------------------------------------------------

def test_zero_rate_walk_never_jumps():
    p = simulate_walk(0.0, 2, 5.0, 1)
    assert p.jumps == ()
    assert p.position(5.0) == (0, 0)


def test_jump_count_poisson_mean():
    rate, horizon, n = 2.0, 3.0, 10_000
    rng = np.random.default_rng(2)
    counts = np.array([len(simulate_walk(rate, 1, horizon, rng).jumps) for _ in range(n)])
    target = rate * horizon
    assert abs(counts.mean() - target) < 3 * math.sqrt(target / n)


def test_each_jump_moves_to_nearest_neighbor():
    p = simulate_walk(3.0, 3, 4.0, 7)
    prev = p.start_site
    last_t = 0.0
    for t, site in p.jumps:
        assert t > last_t
        assert sum(abs(a - b) for a, b in zip(site, prev)) == 1
        prev, last_t = site, t


def test_neighbor_directions_uniform_chi_square():
    d = 2
    rng = np.random.default_rng(3)
    steps = []
    for _ in range(2000):
        p = simulate_walk(2.0, d, 2.0, rng)
        prev = p.start_site
        for _t, site in p.jumps:
            steps.append(tuple(a - b for a, b in zip(site, prev)))
            prev = site
    dirs = [(ax, sg) for ax in range(d) for sg in (-1, 1)]
    counts = np.array([sum(1 for s in steps if s[ax] == sg and all(c == 0 for i, c in enumerate(s) if i != ax))
                       for ax, sg in dirs])
    res = stats.chisquare(counts)
    assert res.pvalue > 0.01


# -- extinction_time ----------------------------------------------------------

def test_rate_zero_field_never_kills():
    p = simulate_walk(1.0, 1, 10.0, 5)
    assert extinction_time(p, DisasterField(1, 0.0, 1)) is None


def test_frozen_particle_dies_at_first_origin_disaster():
    f = DisasterField(seed=13, rate=1.0, dimension=1)
    first = f.first_disaster_after((0,), 0.0, 100.0)
    p = simulate_walk(0.0, 1, first + 1.0, 1)
    assert extinction_time(p, f) == first


def test_extinction_matches_brute_force_scan():
    rng = np.random.default_rng(11)
    for i in range(300):
        f = DisasterField(seed=1000 + i, rate=1.2, dimension=1)
        p = simulate_walk(1.5, 1, 4.0, rng)
        assert extinction_time(p, f) == brute_force_extinction(p, f)


def test_extinction_dimension_mismatch():
    p = simulate_walk(1.0, 2, 1.0, 1)
    with pytest.raises(ValueError):
        extinction_time(p, DisasterField(1, 1.0, 1))


def test_survival_monotone_in_time_pathwise():
    # one field, one walker set: survival indicators are nested across horizons
    f = DisasterField(seed=17, rate=1.0, dimension=1)
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = simulate_walk(2.0, 1, 6.0, rng)
        ext = extinction_time(p, f)
        alive = [(t, ext is None or ext >= t) for t in (1.0, 2.0, 4.0, 6.0)]
        for (t1, a1), (t2, a2) in zip(alive, alive[1:]):
            assert (not a2) or a1  # alive later implies alive earlier


# -- estimate_survival ---------------------------------------------------------

def test_survival_at_time_zero_is_one():
    f = DisasterField(1, 1.0, 1)
    est = estimate_survival(f, 1.0, 0.0, 500, False, 3)
    assert est.value == 1.0


def test_pinned_below_unpinned_shared_randomness():
    f = DisasterField(seed=19, rate=1.0, dimension=1)
    for seed in range(5):
        un = estimate_survival(f, 2.0, 2.0, 4000, False, seed)
        pin = estimate_survival(f, 2.0, 2.0, 4000, True, seed)
        assert pin.value <= un.value


def test_pinned_rate_zero_matches_return_series():
    # no disasters: pinned survival is just the return probability
    f = DisasterField(1, 0.0, 1)
    n = 40_000
    est = estimate_survival(f, 1.0, 1.0, n, True, 23)
    target = series_return_probability(1.0, 1.0)
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(est.value - target) < 3 * sigma


def test_batch_engine_agrees_with_path_oracle():
    # same quenched field: the vectorized estimator and a per-path loop
    # estimate one number
    f1 = DisasterField(seed=29, rate=1.0, dimension=1)
    n = 3000
    est = estimate_survival(f1, 1.5, 2.0, n, False, 7)
    f2 = DisasterField(seed=29, rate=1.0, dimension=1)
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(n):
        p = simulate_walk(1.5, 1, 2.0, rng)
        ext = extinction_time(p, f2)
        hits += ext is None or ext >= 2.0
    slow = hits / n
    sigma = math.sqrt(est.value * (1 - est.value) / n)
    assert abs(est.value - slow) < 3 * math.sqrt(2) * sigma


def test_batch_engine_two_dimensional():
    f = DisasterField(seed=33, rate=1.0, dimension=2)
    est = estimate_survival(f, 2.0, 1.0, 5000, False, 9)
    assert 0.0 < est.value < 1.0
    pin = estimate_survival(f, 2.0, 1.0, 5000, True, 9)
    assert pin.value <= est.value


def _one_d(rate=1.0):
    return lambda: DisasterField(seed=41, rate=rate, dimension=1)


# (field factory, jump rate, t, walkers, namespaced, _CHUNK_CELLS or None)
_ORACLE_CASES = {
    "d1": (_one_d(), 8.0, 5.0, 4000, False, None),
    "d2": (lambda: DisasterField(seed=42, rate=1.0, dimension=2), 6.0, 4.0, 3000, False, None),
    "d3": (lambda: DisasterField(seed=43, rate=1.0, dimension=3), 6.0, 4.0, 3000, False, None),
    "namespaces": (lambda: DisasterField(seed=44, rate=1.0, dimension=2), 4.0, 3.0, 2000, True, None),
    "superposed": (lambda: superpose(DisasterField(seed=45, rate=0.4, dimension=2),
                                     DisasterField(seed=46, rate=0.3, dimension=2)), 5.0, 3.0, 2000, False, None),
    "frozen": (_one_d(), 0.0, 3.0, 2000, False, None),
    "tiny_t": (_one_d(), 8.0, 1e-3, 2000, False, None),
    "all_die": (_one_d(), 32.0, 20.0, 2000, False, None),
    "no_disasters": (_one_d(rate=0.0), 8.0, 10.0, 2000, False, None),
    # about 60 jump columns, so 20,000 cells split 3000 walkers into ~10 chunks
    "chunks": (_one_d(), 8.0, 5.0, 3000, False, 20_000),
    "chunks_namespaces": (lambda: DisasterField(seed=47, rate=1.0, dimension=2), 8.0, 5.0, 3000, True, 20_000),
    # a dense field: many buckets of _hits' table hold several disasters, so
    # segments step on past more than one
    "dense_d1": (_one_d(rate=12.0), 8.0, 1.0, 2000, False, None),
    "dense_d2": (lambda: DisasterField(seed=48, rate=12.0, dimension=2), 6.0, 1.0, 2000, False, None),
}


# the kernel's own block budget, and one so small that every batch runs as
# many blocks with walkers dying in between
@pytest.mark.parametrize("block_cells", [walk._BLOCK_CELLS, 256])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_batch_kernel_matches_single_pass_oracle(case, block_cells, monkeypatch):
    make_field, kappa, t, n, namespaced, chunk_cells = _ORACLE_CASES[case]
    monkeypatch.setattr(walk, "_BLOCK_CELLS", block_cells)
    if chunk_cells:
        monkeypatch.setattr(walk, "_CHUNK_CELLS", chunk_cells)
    ns = np.arange(n, dtype=np.int64) if namespaced else None
    g_new, g_old = np.random.default_rng(5), np.random.default_rng(5)
    survived, at_origin = walk._survival_batch(make_field(), kappa, t, n, g_new, namespaces=ns)
    want_survived, want_at_origin = survival_batch_oracle(make_field(), kappa, t, n, g_old, namespaces=ns)
    assert np.array_equal(survived, want_survived)
    assert np.array_equal(at_origin, want_at_origin)
    assert g_new.bit_generator.state == g_old.bit_generator.state
    if case == "all_die":
        assert not survived.any()
    if case == "no_disasters":
        assert survived.all()
    if case == "frozen":
        assert at_origin.all()


def test_batch_kernel_holds_one_chunk_at_a_time():
    # kappa = 32, t = 20: about 740 jump columns, so at the kernel's own
    # _CHUNK_CELLS 10,000 walkers span two chunks.  A chunk costs about 10
    # bytes a cell (float64 times, int8 signs, bool pads); two chunks alive
    # at once, or a second (m, kmax) float64 matrix, would pass 14.
    n, kappa, t = 10_000, 32.0, 20.0
    gen = np.random.default_rng(5)
    kmax = int(np.random.default_rng(5).poisson(kappa * t, n).max())
    assert walk._CHUNK_CELLS // (kmax + 1) < n
    field = DisasterField(seed=49, rate=1.0)
    tracemalloc.start()
    try:
        walk._survival_batch(field, kappa, t, n, gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * walk._CHUNK_CELLS


class _StubField:
    """Fixed disaster times per site; records every site whose stream is asked for."""

    def __init__(self, dimension: int, times: dict):
        self.dimension = dimension
        self.times = times
        self.asked = []

    def site_keys(self, coords):
        return coords[:, 0] * 1000 + coords[:, 1]

    def streams_for_coords(self, coords, t_max):
        rows = [tuple(int(c) for c in row) for row in coords]
        self.asked += rows
        return [np.array(self.times.get(row, []), dtype=float) for row in rows]


@pytest.mark.parametrize("layout", ["d1", "d2", "namespaces"])
def test_hits_boundaries(layout):
    t = 5.0
    # (site, [a, b)) per segment, two segments per row
    rows = [
        [(0, 1.0, 2.0), (0, 2.0, 5.0)],  # a disaster exactly at a hits
        [(1, 0.5, 3.0), (0, 3.0, 5.0)],  # one exactly at b does not; nor one at t
        [(1, 3.0, 3.0), (1, 5.0, 5.0)],  # empty segments never hit, even at a disaster
        [(-2, 0.0, 4.0), (-2, 4.0, 5.0)],  # a negative site hits the row sitting there...
        [(-1, 0.0, 5.0), (-1, 5.0, 5.0)],  # ...and only that row
        # 7 sites and 8 disasters before t: 4 * 8 // 7 + 1 = 5 buckets of length 1
        [(3, 1.0, 1.75), (3, 1.8, 2.0)],  # a disaster on the bucket edge 2 misses a segment ending there
        [(3, 1.8, 1.9), (3, 2.0, 2.5)],  # and hits one starting there
        [(0, 2.0, 5.0), (1, 2.0, 3.5)],  # a start on an edge finds a disaster a bucket on
        # all of site 2's disasters in the bucket of 4.5 come before it: the
        # steps end at site 2's own inf, not at site 3's disasters
        [(2, 4.5, 5.0), (2, 4.0, 4.1)],
        [(2, 5.0, 5.0), (3, 5.0, 5.0)],  # a == b == t
        [(4, 0.0, 5.0), (4, 5.0, 5.0)],  # the last site has no disaster
    ]
    disasters = {0: [1.0, 5.0], 1: [3.0], -2: [2.0], 2: [4.1, 4.2, 4.3], 3: [1.75, 2.0]}
    site = {"d1": lambda x: (x,), "d2": lambda x: (x, -1), "namespaces": lambda x: (7, x)}[layout]
    field = _StubField(1 if layout == "d1" else 2, {site(x): ts for x, ts in disasters.items()})
    pos = np.array([[site(x)[-1 if layout == "namespaces" else slice(None)] for x, _, _ in r]
                    for r in rows], dtype=np.int64).reshape(len(rows), 2, -1)
    a = np.array([[seg[1] for seg in r] for r in rows])
    b = np.array([[seg[2] for seg in r] for r in rows])
    ns = np.full(len(rows), 7, dtype=np.int64) if layout == "namespaces" else None
    hit = walk._hits(field, t, a, b, pos, ns)
    assert hit.tolist() == [True, False, False, True, False, False, True, True, False, False, False]
    assert sorted(field.asked) == sorted(site(x) for x in range(-2, 5))


@pytest.mark.parametrize("block_cells,one_block", [(walk._BLOCK_CELLS, True), (256, False)])
def test_batch_kernel_materializes_only_sites_the_oracle_visits(block_cells, one_block, monkeypatch):
    # about 40 jump columns: 500 walkers run as one block of the kernel's own
    # budget, and as many blocks of 256 cells
    monkeypatch.setattr(walk, "_BLOCK_CELLS", block_cells)
    kernel, oracle = DisasterField(seed=41, rate=1.0), DisasterField(seed=41, rate=1.0)
    walk._survival_batch(kernel, 8.0, 5.0, 500, np.random.default_rng(5))
    survival_batch_oracle(oracle, 8.0, 5.0, 500, np.random.default_rng(5))
    assert set(kernel._streams) <= set(oracle._streams)
    if one_block:
        assert set(kernel._streams) == set(oracle._streams)


# -- annealed_survival ---------------------------------------------------------

def test_annealed_time_zero():
    assert annealed_survival(1.0, 1.0, 0.0, 100, 1).value == 1.0


@pytest.mark.parametrize("alpha,t", [(1.0, 1.0), (2.0, 1.0)])
def test_annealed_matches_exponential(alpha, t):
    n = 100_000
    est = annealed_survival(2.0, alpha, t, n, 31)
    target = math.exp(-alpha * t)
    assert abs(est.value - target) < 3 * math.sqrt(target * (1 - target) / n)


def test_annealed_independent_of_jump_rate():
    n = 60_000
    vals = [annealed_survival(k, 1.0, 1.0, n, 37 + int(k * 10)).value for k in (0.0, 0.5, 8.0)]
    target = math.exp(-1.0)
    sigma = math.sqrt(target * (1 - target) / n)
    for v in vals:
        assert abs(v - target) < 3 * sigma


def test_annealed_fast_route_agrees_with_field_route():
    # dual route: per-window sampling vs the full site-stream pipeline
    n = 20_000
    fast = annealed_survival(1.5, 1.0, 1.0, n, 41)
    slow = annealed_survival_via_field(1.5, 1.0, 1.0, n, 42)
    sigma = math.hypot(fast.std_err, slow.std_err)
    assert abs(fast.value - slow.value) < 3 * sigma
    target = math.exp(-1.0)
    assert abs(slow.value - target) < 3 * slow.std_err


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("which", ["jump_rate", "disaster_rate"])
def test_annealed_rejects_bad_rates_before_any_draw(which, bad):
    rates = {"jump_rate": 1.0, "disaster_rate": 1.0, which: bad}
    gen = np.random.default_rng(1)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match="rates must be finite and >= 0"):
        annealed_survival(rates["jump_rate"], rates["disaster_rate"], 1.0, 100, gen)
    assert gen.bit_generator.state == before


# -- estimate_lyapunov ----------------------------------------------------------

def test_lyapunov_no_disasters_exactly_zero():
    est = estimate_lyapunov(1.0, 0.0, 2.0, 20, 100, False, 5)
    assert est.p_hat == 0.0
    assert est.censor_fraction == 0.0


def test_lyapunov_one_sided_bound_feasible_horizon():
    # E log S <= log E S = -alpha t at every t, so the one-sided bound
    # holds already at small horizons
    est = estimate_lyapunov(2.0, 1.0, 3.0, 60, 2000, False, 61)
    assert est.censor_fraction < 0.2
    assert est.p_hat <= -0.9 + 3 * est.std_err


def test_lyapunov_frozen_walker_heavily_censored():
    est = estimate_lyapunov(0.0, 1.0, 8.0, 40, 200, False, 67)
    assert est.censor_fraction > 0.5  # flagged, not fatal


def test_lyapunov_requires_positive_time():
    with pytest.raises(ValueError):
        estimate_lyapunov(1.0, 1.0, 0.0, 2, 10, False, 1)


# -- bad horizons ------------------------------------------------------------------

# entry point -> call(field, t); the field is warm (site 0 already materialized),
# where extending a stream to t = inf would never end
_HORIZON_CALLS = {
    "estimate_survival": lambda f, t: estimate_survival(f, 2.0, t, 10, False, 1),
    "estimate_survival_frozen": lambda f, t: estimate_survival(f, 0.0, t, 10, False, 1),
    "annealed_survival": lambda f, t: annealed_survival(2.0, 1.0, t, 10, 1),
    "exact_survival": lambda f, t: exact_survival(f, 2.0, t),
    "estimate_lyapunov": lambda f, t: estimate_lyapunov(2.0, 1.0, t, 2, 10, False, 1),
    "concentration_profile": lambda f, t: concentration_profile(2.0, 1.0, [1.0, t], 2, 10, 1),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", sorted(_HORIZON_CALLS))
def test_walk_entry_points_reject_bad_horizons_before_any_stream(call, t):
    field = DisasterField(seed=48, rate=1.0)
    field.streams_for_coords(np.array([[0]]), 1.0)
    before = {k: (s.next_ctr, s.last) for k, s in field._streams.items()}
    with pytest.raises(ValueError, match="t must be finite"):
        _HORIZON_CALLS[call](field, t)
    assert {k: (s.next_ctr, s.last) for k, s in field._streams.items()} == before


@pytest.mark.parametrize("call", ["estimate_lyapunov", "concentration_profile"])
def test_walk_averages_over_fields_reject_zero_horizon(call):
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        _HORIZON_CALLS[call](None, 0.0)


# -- exact quenched survival -----------------------------------------------------

@pytest.mark.parametrize("seed,kappa,t,pin", [
    (5, 2.0, 4.0, False),
    (6, 8.0, 3.0, False),
    (7, 0.5, 5.0, True),
    (8, 2.0, 4.0, True),
])
def test_exact_survival_agrees_with_walkers(seed, kappa, t, pin):
    # one field, two routes: the solver and the walker batch estimate one number
    log_s, log_b = exact_survival(DisasterField(seed, 1.0, 1), kappa, t, pin)
    assert log_b <= log_s + math.log(1e-10)
    est = estimate_survival(DisasterField(seed, 1.0, 1), kappa, t, 200_000, pin, 11)
    assert abs(est.value - math.exp(log_s)) < 3 * est.std_err


@pytest.mark.parametrize("kappa,t,pin,sigmas", [
    (0.2, 20.0, True, 30.0),
    (2.0, 10.0, False, 30.0),
    (32.0, 20.0, True, 30.0),
    (8.0, 5.0, False, 2.0),  # too narrow at first: the solver must widen it
])
def test_exact_survival_unchanged_by_box_width(kappa, t, pin, sigmas):
    field = DisasterField(13, 1.0, 1)
    default, _ = exact_survival(field, kappa, t, pin)
    other, _ = exact_survival(field, kappa, t, pin, sigmas=sigmas)
    assert abs(math.expm1(other - default)) < 1e-9


@pytest.mark.parametrize("kappa,t,pin,sigmas", [
    (8.0, 5.0, False, 4.0),
    (32.0, 3.0, False, 4.0),
    (2.0, 10.0, True, 3.0),
])
def test_exact_survival_narrow_box_error_within_bound(kappa, t, pin, sigmas):
    # a box too narrow to pass the solver's own check still brackets the
    # converged value: S <= S_true <= S + B
    log_true, _ = exact_survival(DisasterField(13, 1.0, 1), kappa, t, pin)
    log_s, log_b = _exact_survival_in_box(DisasterField(13, 1.0, 1), kappa, t, pin, sigmas)
    assert log_s <= log_true
    assert math.exp(log_true) <= math.exp(log_s) + math.exp(log_b)


@pytest.mark.parametrize("pin", [False, True])
def test_exact_lyapunov_no_disasters(pin):
    # without disasters nothing is ever removed, so S = 1; pinned, S is the
    # return probability exp(-kappa t) I_0(kappa t)
    est = estimate_lyapunov(1.5, 0.0, 2.0, 4, 100, pin, 5, method="exact")
    target = math.log(series_return_probability(1.5, 2.0)) / 2.0 if pin else 0.0
    assert est.censor_fraction == 0.0 and est.std_err == 0.0
    if pin:
        assert abs(est.p_hat - target) < 1e-12
    else:
        assert est.p_hat == 0.0


def test_exact_lyapunov_frozen_walker_censored():
    # a walker that never jumps has S exactly 0 once its site is hit
    est = estimate_lyapunov(0.0, 1.0, 8.0, 40, 200, False, 67, method="exact")
    assert est.censor_fraction > 0.5


@pytest.mark.parametrize("kwargs", [{"dimension": 2, "method": "exact"}, {"method": "bogus"}])
def test_lyapunov_rejects_bad_method(kwargs):
    with pytest.raises(ValueError):
        estimate_lyapunov(1.0, 1.0, 1.0, 2, 10, False, 1, **kwargs)


# -- concentration_profile -------------------------------------------------------

def test_concentration_no_disasters_zero_std():
    rows = concentration_profile(1.0, 0.0, [1.0, 2.0], 10, 50, 3)
    for row in rows:
        assert row.std_log == 0.0


def test_concentration_single_environment_flagged(monkeypatch):
    rows = concentration_profile(1.0, 1.0, [1.0], 1, 50, 3)
    assert rows[0].std_log is None
    # no environment or no walker is refused before any draw
    monkeypatch.setattr(walk, "estimate_survival", None)
    for n_env, n_walkers in ((0, 50), (1, 0), (-1, 50)):
        with pytest.raises(ValueError, match="n_env and n_walkers must be >= 1"):
            concentration_profile(1.0, 1.0, [1.0], n_env, n_walkers, 3)


def test_concentration_normalized_std_trend():
    rows = concentration_profile(2.0, 1.0, [2.0, 4.0], 60, 4000, 71)
    r2, r4 = rows
    # normalized fluctuations shrink with the horizon (2-sigma slack)
    se = (r2.std_log / 2.0) / math.sqrt(2 * 59)
    assert r4.std_log / 4.0 <= r2.std_log / 2.0 + 2 * se
