import math

import numpy as np
import pytest

from disasterbrw import percolation
from disasterbrw.brw import (BRWParams, Box, Caps, CapTripped, Event, block_config, cube_sites,
                             offspring_pmf, simulate, survival_frequency)
from disasterbrw.env import DisasterField
from disasterbrw.percolation import (
    PercLattice,
    SpaceTimeWindow,
    bit_correlations,
    build_eta_from_brw,
    detect_occupied_copy,
    independent_perc,
    oriented_closure,
    sample_occupancy_bits,
    staircase_window,
)

from helpers import detect_occupied_copy_oracle, enumerate_open_oracle


BINARY = offspring_pmf({0: 0.5, 2: 0.5})
ALWAYS_TWO = (0.0, 0.0, 1.0)


# -- closure ------------------------------------------------------------------

def test_closure_matches_path_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(80):
        K = int(rng.integers(1, 7))
        occ = rng.random((K + 1, K + 1)) < rng.uniform(0.3, 0.9)
        assert (oriented_closure(occ) == enumerate_open_oracle(occ)).all()


def test_closure_of_a_stack_closes_each_lattice():
    occ = np.random.default_rng(9).random((3, 4, 6, 6)) < 0.6
    op = oriented_closure(occ)
    for idx in np.ndindex(3, 4):
        assert (op[idx] == enumerate_open_oracle(occ[idx])).all()


def test_open_implies_occupied_and_origin_exception():
    rng = np.random.default_rng(5)
    occ = rng.random((7, 7)) < 0.5
    op = oriented_closure(occ)
    for k in range(7):
        for l in range(k + 1):
            if op[k, l] and (k, l) != (0, 0):
                assert occ[k, l]


def test_closure_monotone_in_occupancy():
    rng = np.random.default_rng(7)
    for _ in range(40):
        occ = rng.random((6, 6)) < 0.5
        more = occ.copy()
        k, l = rng.integers(0, 6, 2)
        more[k, l] = True
        assert (oriented_closure(occ) <= oriented_closure(more)).all()


def test_all_occupied_all_open():
    occ = np.ones((5, 5), dtype=bool)
    op = oriented_closure(occ)
    for k in range(5):
        assert op[k, : k + 1].all()


def test_lattice_dump_format():
    occ = np.ones((3, 3), dtype=bool)
    lat = PercLattice(rows=2, occupied=occ)
    lines = list(lat.dump_lines())
    assert lines[0] == "0 0 1 1"
    assert len(lines) == 1 + 2 + 3


# -- copy detection -----------------------------------------------------------

def test_detect_immediate_from_start():
    params = BRWParams(1.0, 1.0, ALWAYS_TWO, 1.0, 1)
    fld = DisasterField(7, 1.0, 1)
    res = simulate(params, {(0,): 1}, fld, 0.0, 1.0, 9)
    win = SpaceTimeWindow(0.0, 1.0, (-2,), (2,))
    assert detect_occupied_copy(res.events, 0, 1, [win], 1) == [(0.0, (0,))]


def test_detect_empty_process_none():
    win = SpaceTimeWindow(0.0, 1.0, (-2,), (2,))
    assert detect_occupied_copy([], 0, 1, [win], 1) == [None]


def test_detect_reads_batch_ends_only():
    # a jump onto (1,) struck at the arrival instant never makes a real state;
    # the jump onto (2,) at t = 2 does, on the closing edge of the windows
    log = [Event(0.0, "birth", (0,), (0,)), Event(1.0, "jump", (0,), (1,)),
           Event(1.0, "disaster", (0,), (1,)), Event(1.5, "birth", (1,), (1,)),
           Event(2.0, "jump", (1,), (2,))]
    wins = [SpaceTimeWindow(0.5, 1.2, (1,), (1,)), SpaceTimeWindow(1.0, 2.0, (2,), (2,)),
            SpaceTimeWindow(1.0, 1.0, (1,), (2,)), SpaceTimeWindow(1.5, 1.5, (1,), (2,)),
            SpaceTimeWindow(3.0, 4.0, (-1,), (3,))]
    want = [None, (2.0, (2,)), None, (1.5, (1,)), (3.0, (2,))]
    assert [detect_occupied_copy_oracle(log, 0, 1, w, 1) for w in wins] == want
    assert detect_occupied_copy(log, 0, 1, wins, 1) == want


def test_detect_matches_full_scan_oracle():
    from itertools import product

    def oracle(events, radius, root, win, d):
        """Evaluate the predicate at every event time by full recount."""
        need = root * root
        offsets = cube_sites(radius, d)
        times = sorted({ev.time for ev in events if win.t_lo <= ev.time <= win.t_hi})
        times = [win.t_lo] + times
        best = None
        for t in times:
            pos = {}
            for ev in events:
                if ev.time > t:
                    break
                if ev.kind in ("birth", "jump"):
                    pos[ev.pid] = ev.site
                elif ev.kind in ("branch", "disaster", "leave"):
                    pos.pop(ev.pid, None)
            counts = {}
            for s in pos.values():
                counts[s] = counts.get(s, 0) + 1
            spans = [range(a, b + 1) for a, b in zip(win.x_lo, win.x_hi)]
            for x in product(*spans):
                if all(counts.get(tuple(np.add(x, o)), 0) >= need for o in offsets):
                    best = (t, tuple(x))
                    break
            if best:
                break
        return best

    params = BRWParams(1.5, 1.5, ALWAYS_TWO, 1.0, 1)
    for i in range(60):
        fld = DisasterField(seed=400 + i, rate=1.0, dimension=1)
        res = simulate(params, {(0,): 2}, fld, 0.0, 2.0, 500 + i,
                       caps=Caps(max_alive=500, max_events=10**5))
        win = SpaceTimeWindow(0.4, 1.6, (-2,), (2,))
        (got,) = detect_occupied_copy(res.events, 0, 1, [win], 1)
        want = oracle(res.events, 0, 1, win, 1)
        assert got == want


def _random_windows(gen, times, d, n):
    """Windows of every kind the sweep must handle, for a log with these event times."""
    last = times[-1] if times else 0.0
    wins = []
    for _ in range(n):
        u = gen.random()
        if u < 0.3 and times:
            t_lo = times[int(gen.integers(0, len(times)))]  # opens at an event instant
        elif u < 0.45:
            t_lo = last + float(gen.uniform(0.0, 1.0)) * (gen.random() < 0.5)  # at or after the log
        else:
            t_lo = float(gen.uniform(0.0, 3.0))
        if gen.random() < 0.2:
            t_hi = t_lo  # zero height
        elif gen.random() < 0.3 and times:
            t_hi = max(t_lo, times[int(gen.integers(0, len(times)))])  # closes at an event instant
        else:
            t_hi = t_lo + float(gen.uniform(0.0, 2.0))
        c = gen.integers(-3, 4, d)
        w = gen.integers(0, 3, d)
        wins.append(SpaceTimeWindow(t_lo, t_hi, tuple(int(v) for v in c - w),
                                    tuple(int(v) for v in c + w)))
    if len(wins) > 1 and gen.random() < 0.5:
        wins.append(wins[0])  # a repeated window shares every instant with its twin
    return wins


def test_one_pass_matches_per_window_oracle():
    gen = np.random.default_rng(41)
    n_windows = n_hits = 0
    for i in range(160):
        d = int(gen.integers(1, 3))
        radius = int(gen.integers(0, 2))
        root = int(gen.integers(1, 3))
        params = BRWParams(float(gen.uniform(1, 3)), float(gen.uniform(1, 3)), ALWAYS_TWO,
                           float(gen.uniform(0.2, 1.5)), d)
        fld = DisasterField(3000 + i, params.disaster_rate, d)
        trunc = Box(lo=(-4,) * d, hi=(4,) * d) if gen.random() < 0.5 else None
        caps = Caps(max_alive=int(gen.integers(20, 300)), max_events=10**5)
        res = simulate(params, block_config(cube_sites(radius, d), root * root), fld, 0.0,
                       float(gen.uniform(0.5, 3.0)), 4000 + i, trunc=trunc, caps=caps)
        wins = _random_windows(gen, [ev.time for ev in res.events], d, int(gen.integers(1, 8)))
        want = [detect_occupied_copy_oracle(res.events, radius, root, w, d) for w in wins]
        assert detect_occupied_copy(res.events, radius, root, wins, d) == want, i
        assert detect_occupied_copy(res.events, radius, root, wins[:1], d) == want[:1], i
        n_windows += len(wins)
        n_hits += sum(w is not None for w in want)
    assert n_hits > 100 and n_windows - n_hits > 300  # both answers well represented


def test_lattice_reads_every_window_from_one_call(monkeypatch):
    calls = []
    sweep = percolation.detect_occupied_copy

    def spy(events, radius, root, windows, d):
        calls.append((events, windows))
        return sweep(events, radius, root, windows, d)

    monkeypatch.setattr(percolation, "detect_occupied_copy", spy)
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 0.7, 1)
    n_occupied = 0
    for rows in (1, 3, 6, 10):
        for seed in (1, 2, 5):
            fld = DisasterField(seed, 0.7, 1)
            lat = build_eta_from_brw(params, fld, half_width=2, period=0.35, block_radius=0,
                                     copies_root=1, rows=rows, seed=seed,
                                     caps=Caps(max_alive=300, max_events=10**6))
            ((events, wins),) = calls
            calls.clear()
            cells = [(k, l) for k in range(rows + 1) for l in range(k + 1)]
            assert list(wins) == [staircase_window(k, l, 2, 0.35, 1) for k, l in cells]
            for (k, l), w in zip(cells, wins):
                hit = detect_occupied_copy_oracle(events, 0, 1, w, 1) is not None
                assert lat.occupied[k, l] == (hit or (k, l) == (0, 0)), (rows, seed, k, l)
                n_occupied += hit
    assert n_occupied > 20


# -- lattice from the branching run ----------------------------------------------

def test_dead_process_leaves_lattice_empty():
    params = BRWParams(1.0, 3.0, (1.0,), 1.0, 1)  # every branch kills
    fld = DisasterField(11, 1.0, 1)
    lat = build_eta_from_brw(params, fld, half_width=2, period=0.4, block_radius=0,
                             copies_root=1, rows=3, seed=13)
    assert not lat.occupied[1:].any()
    assert not lat.survives_to_row(3)


def test_staircase_window_geometry():
    w = staircase_window(0, 0, 2, 0.4, 1)
    assert (w.t_lo, w.t_hi) == (0.0, 2.0)
    assert (w.x_lo, w.x_hi) == ((-2,), (2,))
    w2 = staircase_window(1, 1, 2, 0.4, 1)
    assert (w2.t_lo, w2.t_hi) == (2.0, 4.0)
    assert (w2.x_lo, w2.x_hi) == ((2,), (6,))  # centered at L(4l-2k) = 4


def test_lattice_survival_in_mild_environment():
    params_alive = BRWParams(2.0, 1.5, ALWAYS_TWO, 0.05, 1)
    hits = 0
    for i in range(8):
        fld = DisasterField(seed=900 + i, rate=0.05, dimension=1)
        lat = build_eta_from_brw(params_alive, fld, half_width=2, period=0.35,
                                 block_radius=0, copies_root=1, rows=2, seed=950 + i,
                                 caps=Caps(max_alive=8000, max_events=10**6))
        hits += lat.survives_to_row(2)
    assert hits >= 5  # mild environment: the staircase is usually crossed


# -- independent percolation -------------------------------------------------------

def test_independent_extremes():
    assert independent_perc(1.0, 50, 100, 1).value == 1.0
    assert independent_perc(0.0, 50, 100, 1).value == 0.0


def test_independent_supercritical_subcritical_split():
    up = independent_perc(0.95, 50, 2000, 3)
    down = independent_perc(0.50, 50, 2000, 5)
    assert up.value - 3 * up.std_err >= 0.5
    assert down.value + 3 * down.std_err <= 0.01


def test_independent_monotone_coupling_exact():
    gen = np.random.default_rng(7)
    u = gen.random((400, 51, 51))
    vals = [independent_perc(p, 50, 400, 0, uniforms=u).value
            for p in (0.3, 0.5, 0.7, 0.8, 0.95)]
    assert vals == sorted(vals)


# -- dependence probe -----------------------------------------------------------------

def test_probe_sanity_on_independent_bits():
    gen = np.random.default_rng(11)
    bits = gen.random((4000, 6)) < 0.4
    entries = bit_correlations(bits, min_distance=3)
    assert entries
    for e in entries:
        assert abs(e.corr) <= 3 * e.std_err


def test_probe_raises_on_a_cap_trip():
    # a capped run's log stops at the trip, so its bit cannot be read
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 0.7, 1)
    with pytest.raises(CapTripped):
        sample_occupancy_bits(params, half_width=2, period=0.35, block_radius=0, copies_root=1,
                              n_bits=6, n_reps=40, seed=17, caps=Caps(max_alive=20))


def test_probe_truncated_construction_uncorrelated_at_distance_three():
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 0.7, 1)
    bits = sample_occupancy_bits(params, half_width=2, period=0.35, block_radius=0,
                                 copies_root=1, n_bits=6, n_reps=250, seed=17)
    means = bits.mean(axis=0)
    assert ((means > 0.05) & (means < 0.95)).all(), means  # non-degenerate bits
    entries = bit_correlations(bits, min_distance=3)
    assert entries
    for e in entries:
        assert abs(e.corr) <= 3 * e.std_err, (e.left, e.right, e.corr)


def test_probe_neighbor_bits_do_correlate():
    # contrast: adjacent starts share environment slabs, so correlation at
    # distance 1 is expected (positive disasters hurt both)
    params = BRWParams(2.0, 2.0, ALWAYS_TWO, 0.7, 1)
    bits = sample_occupancy_bits(params, half_width=2, period=0.35, block_radius=0,
                                 copies_root=1, n_bits=3, n_reps=250, seed=19)
    entries = bit_correlations(bits, min_distance=1)
    assert any(e.distance <= 2 for e in entries)


# -- survival vs disaster rate ----------------------------------------------------------

def test_brw_survival_nonincreasing_in_disaster_rate():
    rates = (0.3, 1.0, 2.5)
    vals = []
    for j, a in enumerate(rates):
        params = BRWParams(1.0, 1.5, ALWAYS_TWO, a, 1)
        est = survival_frequency(params, 8.0, 200, 23,
                                 caps=Caps(max_alive=600, max_events=10**6))
        vals.append(est)
    for lo, hi in zip(vals[1:], vals[:-1]):
        sigma = math.hypot(lo.std_err, hi.std_err)
        assert lo.value <= hi.value + 3 * sigma
