import numpy as np
import pytest
from scipy import stats

from disasterbrw.env import DisasterField, InvalidWindowError, PackedStreams

from helpers import first_block_oracle, superpose


def test_zero_length_window_is_empty():
    f = DisasterField(seed=1, rate=1.0, dimension=1)
    assert len(f.disasters_in_window((0,), 2.0, 2.0)) == 0


def test_invalid_window_raises():
    f = DisasterField(seed=1, rate=1.0, dimension=1)
    with pytest.raises(InvalidWindowError):
        f.disasters_in_window((0,), 3.0, 2.0)
    with pytest.raises(InvalidWindowError):
        f.first_disaster_after((0,), 3.0, 2.0)


def test_repeated_queries_identical():
    f = DisasterField(seed=7, rate=2.0, dimension=2)
    a = f.disasters_in_window((3, -4), 0.0, 10.0)
    b = f.disasters_in_window((3, -4), 0.0, 10.0)
    assert np.array_equal(a, b)
    # a fresh field with the same seed reproduces the stream exactly
    g = DisasterField(seed=7, rate=2.0, dimension=2)
    c = g.disasters_in_window((3, -4), 0.0, 10.0)
    assert np.array_equal(a, c)
    # the site as a tuple, a list or an int64 row, in either order: one stream, the same answers
    horizons = (4.0, 10.0, 7.0)  # the second query extends the stream the first began
    want = [(g.disasters_in_window((3, -4), 1.0, t1), g.stream_times((3, -4), t1),
             g.first_disaster_after((3, -4), 1.0, t1)) for t1 in horizons]
    for forms in ([(3, -4), [3, -4], np.array([3, -4])], [np.array([3, -4]), [3, -4], (3, -4)]):
        h = DisasterField(seed=7, rate=2.0, dimension=2)
        for site, t1, (window, stream, first) in zip(forms, horizons, want):
            assert np.array_equal(h.disasters_in_window(site, 1.0, t1), window)
            assert np.array_equal(h.stream_times(site, t1), stream)
            assert h.first_disaster_after(site, 1.0, t1) == first
        assert len(h._streams) == 1


def test_times_strictly_increasing():
    f = DisasterField(seed=3, rate=5.0, dimension=1)
    w = f.disasters_in_window((0,), 0.0, 50.0)
    assert (np.diff(w) > 0).all()
    assert (w > 0).all()  # streams live on (0, inf)


def test_window_splitting_consistency():
    f = DisasterField(seed=11, rate=1.5, dimension=1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = np.sort(rng.random(3) * 20.0)
        whole = f.disasters_in_window((2,), a, c)
        parts = np.concatenate([f.disasters_in_window((2,), a, b),
                                f.disasters_in_window((2,), b, c)])
        assert np.array_equal(whole, parts)


def test_query_order_does_not_change_values():
    # a stream grown over several queries holds the bits of one materialized
    # at once: its times are running sums of its gaps, whatever the queries
    for seed in range(12):
        f1 = DisasterField(seed=seed, rate=1.0, dimension=1)
        f1.disasters_in_window((0,), 0.0, 1.0)
        drawn = f1._streams[f1.site_key((0,))].next_ctr
        f1.disasters_in_window((0,), 3.0, 4.0)
        f1.disasters_in_window((0,), 0.0, 30.0)
        late1 = f1.disasters_in_window((0,), 0.0, 60.0)
        assert f1._streams[f1.site_key((0,))].next_ctr > drawn  # the stream was extended
        assert len(late1) > drawn  # and the window holds values from the extension
        late2 = DisasterField(seed=seed, rate=1.0, dimension=1).disasters_in_window((0,), 0.0, 60.0)
        assert np.array_equal(late1, late2)


_ORDERS = ("scalar-then-bulk", "bulk-then-scalar", "short-then-long")


def _query_in_order(f, site, t_max: float, order: str) -> np.ndarray:
    """Times in [0, t_max) at `site`, after an interleaving of scalar and bulk reads."""
    coords = np.array([site])
    if order == "scalar-then-bulk":
        f.disasters_in_window(site, 0.0, t_max / 3)
        full = f.streams_for_coords(coords, t_max)[0]
        return full[full < t_max]
    if order == "bulk-then-scalar":
        f.streams_for_coords(coords, t_max / 3)
        return f.disasters_in_window(site, 0.0, t_max)
    f.disasters_in_window(site, 0.0, t_max / 4)
    f.stream_times(site, t_max / 2)
    f.first_disaster_after(site, 0.0, 0.7 * t_max)
    return f.disasters_in_window(site, 0.0, t_max)


def _agrees_with_first_block(got: np.ndarray, block: np.ndarray, t_max: float) -> bool:
    want = block[block < t_max]
    if len(want) == len(block):  # the block ends before t_max: compare what it covers
        return np.array_equal(got[: len(block)], block)
    return np.array_equal(got, want)


@pytest.mark.parametrize("order", _ORDERS)
def test_stream_values_match_block_oracle(order):
    rng = np.random.default_rng(5)
    for rate in (0.0, 0.3, 1.0, 7.5, 32.0):
        for d in (1, 2, 3):
            for t_max in (0.35, 2.0, 6.0, 20.0, 80.0):
                seed = int(rng.integers(1 << 30))
                site = tuple(int(c) for c in rng.integers(-4, 5, d))
                f = DisasterField(seed, rate, d)
                got = _query_in_order(f, site, t_max, order)
                block = first_block_oracle(DisasterField(seed, rate, d), site, t_max)
                assert _agrees_with_first_block(got, block, t_max), (order, rate, d, t_max)


def test_scalar_loop_matches_block_oracle_on_many_sites():
    # a stream's first time is its first gap: one gap per site over thousands
    # of sites tells np.log from math.log, which differ on about 1 draw in 300
    f = DisasterField(seed=13, rate=1.0, dimension=1)
    for x in range(3000):
        block = first_block_oracle(f, (x,), 2.0)
        assert _agrees_with_first_block(f.disasters_in_window((x,), 0.0, 2.0), block, 2.0), x


def test_bulk_streams_match_block_oracle():
    # fresh, started and repeated keys in one call, with tails past the block
    for rate in (0.3, 1.0, 7.5, 32.0):
        f = DisasterField(seed=77, rate=rate, dimension=2)
        coords = np.array([[0, 0], [1, -1], [0, 0], [2, 3], [-4, 1]])
        f.disasters_in_window((1, -1), 0.0, 0.5)  # started before the bulk read
        f.stream_times((2, 3), 40.0)  # materialized past the bulk horizon
        for t_max in (0.35, 6.0, 80.0):
            for row, full in zip(coords, f.streams_for_coords(coords, t_max)):
                site = tuple(int(c) for c in row)
                block = first_block_oracle(f, site, t_max)
                assert _agrees_with_first_block(full[full < t_max], block, t_max), (rate, t_max)


@pytest.mark.parametrize("order", _ORDERS)
def test_superposed_values_match_block_oracle(order):
    for t_max in (0.35, 6.0, 80.0):
        a = DisasterField(seed=81, rate=1.0, dimension=2)
        b = DisasterField(seed=82, rate=7.5, dimension=2)
        sp = superpose(a, b)
        site = (1, -2)
        if order == "short-then-long":
            sp.disasters_in_window(site, 0.0, t_max / 4)
            sp.stream_times(site, t_max / 2)
        elif order == "scalar-then-bulk":
            a.streams_for_coords(np.array([site]), t_max / 3)
        else:
            sp.disasters_in_window(site, 0.0, t_max / 3)
            b.streams_for_coords(np.array([site]), t_max)
        got = sp.disasters_in_window(site, 0.0, t_max)
        blocks = [first_block_oracle(f, site, t_max) for f in (a, b)]
        assert all(blk[-1] >= t_max for blk in blocks)
        want = np.sort(np.concatenate([blk[blk < t_max] for blk in blocks]))
        assert np.array_equal(got, want)


def test_first_disaster_after_matches_window_head():
    f = DisasterField(seed=9, rate=1.0, dimension=1)
    ts = f.disasters_in_window((1,), 0.0, 20.0)
    t0 = float(ts[0])
    assert f.first_disaster_after((1,), 0.0, 20.0) == t0
    # strictly-after semantics: querying from the point itself skips it
    assert f.first_disaster_after((1,), t0, 20.0) == float(ts[1])


def test_first_disaster_after_none_cases():
    assert DisasterField(1, 0.0, 1).first_disaster_after((0,), 0.0, 100.0) is None
    f = DisasterField(2, 1.0, 1)
    ts = f.disasters_in_window((0,), 0.0, 10.0)
    gap_start = 0.0 if len(ts) == 0 else float(ts[0]) * 0.5
    assert f.first_disaster_after((0,), gap_start, gap_start) is None or gap_start == 0.0


def test_rate_zero_field_empty():
    f = DisasterField(seed=4, rate=0.0, dimension=1)
    assert len(f.disasters_in_window((0,), 0.0, 1000.0)) == 0
    assert f.first_disaster_after((5,), 0.0, 1000.0) is None


def test_counts_poisson_mean_over_many_sites():
    f = DisasterField(seed=21, rate=1.0, dimension=1)
    n = 100_000
    counts = np.array([len(f.disasters_in_window((x,), 0.0, 1.0)) for x in range(n)])
    sigma = 1.0 / np.sqrt(n)
    assert abs(counts.mean() - 1.0) < 3 * sigma


def test_counts_chi_square_goodness_of_fit():
    f = DisasterField(seed=22, rate=1.0, dimension=1)
    n = 20_000
    length = 2.0
    counts = np.array([len(f.disasters_in_window((x,), 0.0, length)) for x in range(n)])
    kmax = 8  # tail pooled
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pmf = stats.poisson.pmf(np.arange(kmax), length)
    expected = np.append(pmf, 1.0 - pmf.sum()) * n
    stat = ((observed - expected) ** 2 / expected).sum()
    p = stats.chi2.sf(stat, df=kmax)
    assert p > 0.01


def test_gap_distribution_kolmogorov_smirnov():
    # the first two inter-arrival gaps per site, taken without any window
    # truncation (truncating would length-bias the sample)
    rate = 1.5
    f = DisasterField(seed=23, rate=rate, dimension=1)
    horizon = 200.0 / rate
    gaps = []
    for x in range(2000):
        t1 = f.first_disaster_after((x,), 0.0, horizon)
        t2 = f.first_disaster_after((x,), t1, horizon)
        gaps.extend((t1, t2 - t1))
    res = stats.ks_1samp(np.asarray(gaps), stats.expon(scale=1.0 / rate).cdf)
    assert res.pvalue > 0.01


def test_distinct_sites_uncorrelated_counts():
    f = DisasterField(seed=24, rate=1.0, dimension=1)
    a = np.array([len(f.disasters_in_window((x,), 0.0, 1.0)) for x in range(5000)])
    b = np.array([len(f.disasters_in_window((x + 10_000,), 0.0, 1.0)) for x in range(5000)])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(5000)


def test_bulk_streams_match_scalar_path():
    f1 = DisasterField(seed=31, rate=1.0, dimension=2)
    coords = np.array([[0, 0], [1, -1], [5, 2], [0, 0], [-3, -3]])
    bulk = f1.streams_for_coords(coords, 8.0)
    f2 = DisasterField(seed=31, rate=1.0, dimension=2)
    for row, times in zip(coords, bulk):
        scalar = f2.stream_times(tuple(int(c) for c in row), 8.0)
        assert np.array_equal(times[times <= 8.0], scalar)


def test_superpose_identity_element():
    f = DisasterField(seed=41, rate=1.0, dimension=1)
    z = DisasterField(seed=42, rate=0.0, dimension=1)
    sp = superpose(f, z)
    for x in range(5):
        assert np.array_equal(sp.disasters_in_window((x,), 0.0, 10.0),
                              f.disasters_in_window((x,), 0.0, 10.0))
    assert sp.rate == f.rate


def test_superpose_merges_sorted_no_drops():
    a = DisasterField(seed=51, rate=1.0, dimension=1)
    b = DisasterField(seed=52, rate=0.7, dimension=1)
    sp = superpose(a, b)
    w = sp.disasters_in_window((0,), 0.0, 30.0)
    manual = np.sort(np.concatenate([a.disasters_in_window((0,), 0.0, 30.0),
                                     b.disasters_in_window((0,), 0.0, 30.0)]))
    assert np.array_equal(w, manual)
    assert (np.diff(w) > 0).all()


def test_superpose_rate_adds_in_law():
    n = 4000
    counts = []
    for x in range(n):
        a = DisasterField(seed=61, rate=1.0, dimension=1)
        b = DisasterField(seed=62, rate=0.5, dimension=1)
        counts.append(len(superpose(a, b).disasters_in_window((x,), 0.0, 1.0)))
    counts = np.asarray(counts)
    sigma = np.sqrt(1.5 / n)
    assert abs(counts.mean() - 1.5) < 3 * sigma


def test_superpose_dimension_mismatch():
    with pytest.raises(ValueError):
        superpose(DisasterField(1, 1.0, 1), DisasterField(2, 1.0, 2))


def test_first_disaster_includes_horizon_endpoint():
    f = DisasterField(seed=71, rate=1.0, dimension=1)
    ts = f.disasters_in_window((0,), 0.0, 10.0)
    t = float(ts[0])
    # window (t0, horizon] includes the endpoint exactly
    assert f.first_disaster_after((0,), t * 0.5, t) == t


def test_packed_streams_match_the_scalar_loop_under_forced_collisions():
    # every key shares its low 20 bits, so all start probing at one table slot:
    # probe chains run far past 16, across a rehash between queries and a drop()
    rate, t_max = 2.0, 3.0
    gen = np.random.default_rng(29)
    keys = np.unique((gen.integers(1, 1 << 40, 420).astype(np.uint64) << np.uint64(20))
                     | np.uint64(0x5A5A5))[:400]
    owner = {k: int(i >= 100) for i, k in enumerate(keys.tolist())}
    scalar = DisasterField(0, rate)  # _stream(key) and _extend: the scalar loop, by key

    def stream(key):
        s = scalar._stream(key)
        scalar._extend(s, t_max)
        return s.times[s.times <= t_max]

    packed = PackedStreams(rate, t_max, block_cells=64)

    def check(ks):
        ks = np.concatenate((ks, ks[::7]))  # repeated keys in one query
        times = [stream(k) for k in ks.tolist()]
        # half the queries sit exactly on a disaster (first_from includes it), half anywhere
        a = np.array([t[gen.integers(len(t))] if len(t) and j % 2 else gen.uniform(-0.5, t_max + 0.5)
                      for j, t in enumerate(times)])
        got = packed.first_from(ks, np.array([owner[k] for k in ks.tolist()]), a)
        want = [t[np.searchsorted(t, x)] if np.searchsorted(t, x) < len(t) else np.inf
                for t, x in zip(times, a.tolist())]
        assert got.tolist() == want
        mask = len(packed._table) - 1
        chain = (packed._probe(ks) - (ks & np.uint64(mask)).astype(np.int64)) & mask
        return int(chain.max())

    assert check(keys[:100]) > 16 and len(packed._table) == 256  # at most half full
    assert check(keys[:300]) > 16 and len(packed._table) == 1024  # rehashed on the way
    packed.drop(np.array([True, False]))  # owner 0's streams: a third of the pool
    assert packed._n == 200
    assert check(keys[50:400]) > 16 and packed._n == 350  # kept, dropped and new keys
    packed.drop(np.array([True, True]))  # every owner done: an empty pool probes no stream
    assert packed._n == 0
    fresh = keys[:60] + np.uint64(1 << 60)  # unseen keys with the same low bits
    owner.update(dict.fromkeys(fresh.tolist(), 0))
    assert check(np.concatenate((keys[::4], fresh))) > 16 and packed._n == 160
