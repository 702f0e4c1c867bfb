from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

import numpy as np
import pytest

from disasterbrw.boxes import (
    SpaceTimeBox,
    exit_counts,
    fkg_test,
    zero_pattern_product_bound,
)
from disasterbrw.brw import BRWParams, Caps, CapTripped, Comparison, Event, offspring_pmf, simulate
from disasterbrw.env import DisasterField
from disasterbrw.rng import derive_seed
from disasterbrw.walk import _binom_se

from helpers import classify_exit_oracle, exit_counts_oracle, exit_region_order, exit_vectors


BINARY = offspring_pmf({0: 0.5, 2: 0.5})


# -- classification ------------------------------------------------------------
# exit_counts on the log of one particle: born at the origin and jumping to
# `site` at time t, or born on `site` when t is 0.

def _one_particle(site, t: float) -> list[Event]:
    if t == 0.0:
        return [Event(0.0, "birth", (0,), site)]
    return [Event(0.0, "birth", (0,), (0,) * len(site)), Event(t, "jump", (0,), site)]


def _code(coords) -> int:
    """The documented orthant code: bit set for a negative coordinate, first coordinate highest."""
    return sum(1 << (len(coords) - 1 - i) for i, c in enumerate(coords) if c < 0)


def test_classify_top_origin_two_dim():
    ec = exit_counts(_one_particle((0, 0), 1.0), SpaceTimeBox(half_width=5, height=1.0, dimension=2))
    assert ec.top.tolist() == [1, 0, 0, 0]  # sign(0) = +1
    assert not ec.face.any()


def test_classify_face_two_dim():
    ec = exit_counts(_one_particle((5, -3), 0.5), SpaceTimeBox(half_width=5, height=1.0, dimension=2))
    assert ec.face.tolist() == [0, 1, 0, 0, 0, 0, 0, 0]  # axis 0, (+, -)
    assert not ec.top.any()


def test_classify_rejects_interior_and_outside():
    # an interior arrival is no exit, a site past the shell ends on no counter,
    # and an arrival after the top is not read
    box = SpaceTimeBox(half_width=3, height=1.0, dimension=1)
    ec = exit_counts(_one_particle((-2,), 0.5), box)
    assert ec.top.tolist() == [0, 1] and not ec.face.any()
    for t in (0.5, 1.0):
        ec = exit_counts(_one_particle((4,), t), box)
        assert not ec.top.any() and not ec.face.any()
    ec = exit_counts(_one_particle((3,), 2.0), box)
    assert ec.top.tolist() == [1, 0] and not ec.face.any()


def test_boundary_partition_exhaustive():
    # a one-particle log ending on any top or shell site counts once, at the
    # documented index, which is also the oracle's region order
    for d in (1, 2, 3):
        top_order, face_order = exit_region_order(d)
        for L in (1, 2, 4):
            box = SpaceTimeBox(half_width=L, height=1.0, dimension=d)
            top_seen, face_seen = set(), set()
            for x in product(range(-L, L + 1), repeat=d):
                ec = exit_counts(_one_particle(x, 1.0), box)
                want = np.zeros(2**d, dtype=np.int64)
                want[_code(x)] = 1
                assert ec.top.tolist() == want.tolist() and not ec.face.any(), (d, L, x)
                assert top_order.index(classify_exit_oracle(box, 1.0, x)) == _code(x)
                top_seen.add(_code(x))
                if max(abs(c) for c in x) < L:
                    continue
                ax = [abs(c) for c in x].index(L)
                k = ax * 2**d + _code((x[ax], *x[:ax], *x[ax + 1:]))
                for t in (0.0, 0.37, 0.99):
                    ec = exit_counts(_one_particle(x, t), box)
                    assert np.flatnonzero(ec.face).tolist() == [k] and ec.face[k] == 1, (d, L, x, t)
                    assert not ec.top.any()
                    assert face_order.index(classify_exit_oracle(box, t, x)) == k
                face_seen.add(k)
            assert top_seen == set(range(2**d))
            if L > 1:  # with L = 1 a smaller axis on the shell takes every edge
                assert face_seen == set(range(d * 2**d))


# -- exit counts ----------------------------------------------------------------

def _oracle_exit_counts(result, box):
    """Independent route: rebuild each particle's full ancestral path and take
    first boundary hits by brute-force scanning."""
    tops: dict = {}
    faces: dict = {}
    recs = result.records
    L = box.half_width
    jumps = {}
    for ev in result.events:
        if ev.kind == "jump":
            jumps.setdefault(ev.pid, []).append((ev.time, ev.site))

    def full_path(pid):
        chain = [pid[: i + 1] for i in range(len(pid))]
        moves = []
        for node in chain:
            r = recs[node]
            if node == chain[0]:
                moves.append((r.birth_time, r.birth_site))
            for jump in jumps.get(node, ()):
                if jump[0] <= recs[pid].end_time or recs[pid].end_time is None:
                    moves.append(jump)
        return moves

    for pid, rec in recs.items():
        end = rec.end_time if rec.end_time is not None else result.horizon
        moves = [(t, s) for t, s in full_path(pid) if t <= end]
        hit = None
        for t, s in moves:
            if 0.0 <= t <= box.t_end and max(abs(c) for c in s) == L:
                hit = (t, s)
                break
        own_alive_at_end = rec.end_time is None or rec.end_time >= box.t_end
        lineage_alive = own_alive_at_end and rec.end_cause in ("horizon", None)
        if hit is not None and hit[0] < box.t_end:
            # only the earliest node of the lineage records the hit
            t, s = hit
            first_owner = None
            for node in [pid[: i + 1] for i in range(len(pid))]:
                r = recs[node]
                node_end = r.end_time if r.end_time is not None else result.horizon
                if r.birth_time <= t <= node_end:
                    first_owner = node
                    break
            if first_owner == pid:
                region = classify_exit_oracle(box, t, s)
                faces[region] = faces.get(region, 0) + 1
        elif hit is None and lineage_alive:
            pos = moves[-1][1]
            if max(abs(c) for c in pos) <= L:
                region = classify_exit_oracle(box, box.t_end, pos)
                tops[region] = tops.get(region, 0) + 1
    return exit_vectors(tops, faces, box.dimension)


def test_exit_counts_trivial_cases():
    # nobody moves, nobody dies: one particle on the top, no face hits
    params = BRWParams(0.0, 0.0, (1.0,), 0.0, 1)
    fld = DisasterField(1, 0.0, 1)
    res = simulate(params, {(0,): 1}, fld, 0.0, 1.0, 1)
    ec = exit_counts(res.events, SpaceTimeBox(3, 1.0, 1))
    assert ec.top.sum() == 1 and ec.face.sum() == 0


def test_exit_counts_all_zero_when_everyone_dies_inside():
    # a frozen particle killed before the box ends counts nowhere
    params = BRWParams(0.0, 0.0, (1.0,), 1.0, 1)
    fld = DisasterField(seed=3001, rate=1.0, dimension=1)
    t_hit = fld.first_disaster_after((0,), 0.0, 50.0)
    fld2 = DisasterField(seed=3001, rate=1.0, dimension=1)
    res = simulate(params, {(0,): 1}, fld2, 0.0, t_hit + 1.0, 1)
    ec = exit_counts(res.events, SpaceTimeBox(3, t_hit + 1.0, 1))
    assert ec.top.sum() == 0 and ec.face.sum() == 0


def test_exit_counts_against_path_replay_oracle():
    params = BRWParams(1.2, 1.0, BINARY, 1.0, 1)
    box = SpaceTimeBox(2, 1.5, 1)
    for i in range(100):
        fld = DisasterField(seed=7000 + i, rate=1.0, dimension=1)
        res = simulate(params, {(0,): 2}, fld, 0.0, 1.5, 7200 + i)
        ec = exit_counts(res.events, box)
        tops, faces = _oracle_exit_counts(res, box)
        assert ec.top.tolist() == tops.tolist(), i
        assert ec.face.tolist() == faces.tolist(), i


def test_exit_counts_conservation():
    # every lineage contributes at most one first hit; survivors that never
    # touched land on the top
    params = BRWParams(1.5, 1.0, BINARY, 1.0, 2)
    box = SpaceTimeBox(2, 1.0, 2)
    for i in range(30):
        fld = DisasterField(seed=7600 + i, rate=1.0, dimension=2)
        res = simulate(params, {(0, 0): 2}, fld, 0.0, 1.0, 7800 + i)
        ec = exit_counts(res.events, box)
        tops, faces = _oracle_exit_counts(res, box)
        assert ec.top.sum() + ec.face.sum() == tops.sum() + faces.sum()


def test_truncated_run_matches_untruncated_exit_counts():
    # removing particles at the shell does not change first-hit counters
    params = BRWParams(1.2, 1.0, BINARY, 1.0, 1)
    box = SpaceTimeBox(2, 1.5, 1)
    for i in range(60):
        f1 = DisasterField(seed=8100 + i, rate=1.0, dimension=1)
        f2 = DisasterField(seed=8100 + i, rate=1.0, dimension=1)
        full = simulate(params, {(0,): 1}, f1, 0.0, 1.5, 8300 + i)
        trunc = simulate(params, {(0,): 1}, f2, 0.0, 1.5, 8300 + i,
                         trunc=box.interior_region())
        a = exit_counts(full.events, box)
        b = exit_counts(trunc.events, box)
        assert a.top.tolist() == b.top.tolist() and a.face.tolist() == b.face.tolist()


def _oracle_boxes(rng, d: int, res):
    """Boxes for one log, some closing at an event instant."""
    boxes = [SpaceTimeBox(2, 1.5, d), SpaceTimeBox(1, 0.9, d), SpaceTimeBox(2, 1.2, d)]
    arrivals = [ev.time for ev in res.events if ev.kind in ("jump", "leave") and ev.time > 0.5]
    if arrivals:  # an arrival exactly at t_end counts on the top, not on a face
        t_end = arrivals[int(rng.integers(len(arrivals)))]
        boxes.append(SpaceTimeBox(2, t_end, d))
        boxes.append(SpaceTimeBox(1, t_end, d))
    return boxes


def test_exit_counts_match_per_event_oracle():
    rng = np.random.default_rng(11)
    n_logs = 0
    for d in (1, 2, 3):
        params = BRWParams(2.0, 1.0, BINARY, 0.7, d)
        for i in range(25):
            trunc = SpaceTimeBox(2, 2.0, d).interior_region() if i % 2 else None
            start = {(0,) * d: 2, (1,) + (0,) * (d - 1): 1}
            res = simulate(params, start, DisasterField(9000 + i, 0.7, d), 0.0, 2.0, 9100 + i,
                           trunc=trunc)
            for box in _oracle_boxes(rng, d, res):
                ec = exit_counts(res.events, box)
                tops, faces = exit_counts_oracle(res.events, box)
                assert ec.top.tolist() == tops.tolist() and ec.face.tolist() == faces.tolist(), (d, i, box)
                assert ec.top.shape == (2**d,) and ec.face.shape == (d * 2**d,)
                n_logs += 1
    assert n_logs > 300


# -- FKG ---------------------------------------------------------------------------

def test_fkg_constant_functional_zero_covariance():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    box = SpaceTimeBox(3, 1.0, 1)
    const = lambda tv, fv: 1.0
    total = lambda tv, fv: float(tv.sum() + fv.sum())
    est = fkg_test(params, {(0,): 1}, {(0,): 1}, box, const, total, 300, 31)
    assert est.cov == 0.0


def test_fkg_no_disasters_independent_trees():
    params = BRWParams(1.0, 1.0, BINARY, 0.0, 1)
    box = SpaceTimeBox(3, 1.0, 1)
    total = lambda tv, fv: float(tv.sum() + fv.sum())
    est = fkg_test(params, {(0,): 1}, {(0,): 1}, box, total, total, 600, 37)
    assert abs(est.cov) <= 3 * est.std_err


def test_fkg_shared_disasters_positive():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    box = SpaceTimeBox(3, 1.0, 1)
    total = lambda tv, fv: float(tv.sum() + fv.sum())
    est = fkg_test(params, {(0,): 2}, {(0,): 2}, box, total, total, 600, 41)
    assert est.cov >= -3 * est.std_err
    assert est.cov > 0  # at this scale the positive signal is clear


def test_fkg_rejects_boundary_start():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    box = SpaceTimeBox(2, 1.0, 1)
    with pytest.raises(ValueError):
        fkg_test(params, {(2,): 1}, {(0,): 1}, box, lambda *a: 1.0, lambda *a: 1.0, 5, 1)


# -- zero-pattern product bound -------------------------------------------------------

def test_zero_pattern_all_zero_mass():
    joint = {(0, 0): Fraction(1), (0, 1): Fraction(0), (1, 0): Fraction(0), (1, 1): Fraction(0)}
    holds, slack = zero_pattern_product_bound(joint, 1)
    assert holds and slack > 0


def test_zero_pattern_fair_independent_bits():
    joint = {pat: Fraction(1, 4) for pat in product((0, 1), repeat=2)}
    holds, slack = zero_pattern_product_bound(joint, 1)
    assert holds
    assert slack == Fraction(1, 4)  # lhs 1/4, rhs 1/4 + 1/4


def test_zero_pattern_extremal_equality():
    m = 3
    joint = {pat: Fraction(0) for pat in product((0, 1), repeat=m + 1)}
    for i in range(m + 1):
        pat = tuple(1 if j == i else 0 for j in range(m + 1))
        joint[pat] = Fraction(1, m + 1)
    for copies in (1, 2, 3):
        holds, slack = zero_pattern_product_bound(joint, copies)
        assert holds and slack == 0


def test_zero_pattern_random_rational_joints():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        m = int(rng.integers(1, 6))
        copies = int(rng.integers(1, 5))
        raw = [Fraction(int(x)) for x in rng.integers(0, 30, 2 ** (m + 1))]
        total = sum(raw) or Fraction(1)
        joint = {pat: raw[i] / total for i, pat in enumerate(product((0, 1), repeat=m + 1))}
        holds, _ = zero_pattern_product_bound(joint, copies)
        assert holds


def test_zero_pattern_rejects_bad_pmf():
    with pytest.raises(ValueError):
        zero_pattern_product_bound({(0, 0): 0.7, (1, 1): 0.7}, 1)


# -- exit product bounds ---------------------------------------------------------------

@dataclass(frozen=True)
class ProductBoundReport:
    name: str
    lhs: float
    lhs_se: float
    rhs_prob: float
    rhs_prob_se: float
    additive_derived: float
    additive_printed: float
    violation_sigma: float

    @property
    def violated(self) -> bool:
        return self.violation_sigma > 3.0


def _product_with_se(ps: np.ndarray, ses: np.ndarray) -> tuple[float, float]:
    prod = float(np.prod(ps))
    if prod == 0.0:
        return 0.0, 0.0
    rel = np.sqrt(((ses / np.where(ps > 0, ps, 1.0)) ** 2).sum())
    return prod, prod * rel


def exit_product_bounds_check(params: BRWParams, eta: Mapping[tuple[int, ...], int], box: SpaceTimeBox,
                              k_top: int, k_face: int, copies: int, n_reps: int, seed: int,
                              *, caps: Caps = Caps(max_alive=50_000, max_events=5_000_000)) -> list[ProductBoundReport]:
    """Monte Carlo check of three product bounds on exit counts.

    Per-orthant probabilities are estimated for the process started from
    `copies * eta`, tail probabilities for the process from `eta`.  For each
    family of size n (top orthants, face orthants, the two totals) the bound
    adds ((n-1)/n)^(n*copies); the report also carries the n^(-n*copies)
    variant for reference (the two agree in one dimension).  A bound counts
    as violated only beyond 3 combined sigmas.
    """
    d = params.dimension
    region = box.interior_region()
    eta_big = {s: c * copies for s, c in eta.items()}

    def batch(start, tag):
        tv = np.empty((n_reps, 2**d), dtype=np.int64)
        fv = np.empty((n_reps, d * 2**d), dtype=np.int64)
        for i in range(n_reps):
            fld = DisasterField(derive_seed(seed, tag, "env", i), params.disaster_rate, d)
            res = simulate(params, start, fld, 0.0, box.t_end,
                           derive_seed(seed, tag, "tree", i), trunc=region, caps=caps)
            if res.capped:
                raise CapTripped("cap tripped during product-bound check")
            tv[i], fv[i] = exit_counts(res.events, box)
        return tv, fv

    tv_big, fv_big = batch(eta_big, "epb-big")
    tv_one, fv_one = batch(eta, "epb-one")

    def prob(mask: np.ndarray) -> tuple[float, float]:
        p = float(mask.mean())
        return p, _binom_se(p, n_reps)

    reports = []
    specs = [
        ("top-orthants", tv_big, k_top, tv_one.sum(axis=1), 2**d),
        ("face-orthants", fv_big, k_face, fv_one.sum(axis=1), d * 2**d),
    ]
    for name, big, kk, one_total, fam in specs:
        ps, ses = zip(*(prob(big[:, j] <= kk) for j in range(big.shape[1])))
        lhs, lhs_se = _product_with_se(np.array(ps), np.array(ses))
        rp, rse = prob(one_total <= fam * kk)
        derived = ((fam - 1) / fam) ** (fam * copies)
        printed = float(fam) ** (-fam * copies)
        viol = Comparison(lhs=rp + derived, lhs_se=rse, rhs=lhs, rhs_se=lhs_se).violated_at
        reports.append(ProductBoundReport(name=name, lhs=lhs, lhs_se=lhs_se, rhs_prob=rp,
                                          rhs_prob_se=rse, additive_derived=derived,
                                          additive_printed=printed, violation_sigma=viol))
    # combined: P(face total <= K) P(top total <= K') vs P(total <= K + K') + 4^-S
    pf, sef = prob(fv_big.sum(axis=1) <= k_face)
    pt, set_ = prob(tv_big.sum(axis=1) <= k_top)
    lhs, lhs_se = _product_with_se(np.array([pf, pt]), np.array([sef, set_]))
    rp, rse = prob(fv_one.sum(axis=1) + tv_one.sum(axis=1) <= k_face + k_top)
    derived = 4.0 ** (-copies)
    viol = Comparison(lhs=rp + derived, lhs_se=rse, rhs=lhs, rhs_se=lhs_se).violated_at
    reports.append(ProductBoundReport(name="combined-totals", lhs=lhs, lhs_se=lhs_se,
                                      rhs_prob=rp, rhs_prob_se=rse, additive_derived=derived,
                                      additive_printed=derived, violation_sigma=viol))
    return reports


def test_exit_product_bounds_one_dimension():
    params = BRWParams(1.0, 1.0, BINARY, 1.0, 1)
    box = SpaceTimeBox(3, 1.0, 1)
    reports = exit_product_bounds_check(params, {(0,): 1}, box, k_top=0, k_face=0,
                                        copies=2, n_reps=3000, seed=47)
    assert {r.name for r in reports} == {"top-orthants", "face-orthants", "combined-totals"}
    for r in reports:
        assert not r.violated, (r.name, r.violation_sigma)
        # in one dimension the printed and derived additive terms coincide
        if r.name != "combined-totals":
            assert r.additive_printed == pytest.approx(r.additive_derived)
