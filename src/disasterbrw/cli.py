"""Batch experiment driver.

Subcommands: annealed, lyapunov, brw-survival, moment-check, embed, phase,
sweep, boxes-fkg, perc, verify.  Config files are flat "key = value" text
keyed by flag name without its dashes ("format = json", "n-reps = 50" or
"n_reps = 50") or by its dest ("fmt = json"); "config" and "help" are not
keys.  Each value is parsed as the flag it names, with the same type, choices
and errors, and a switch is on for 1, true or yes; command-line flags override
file values.  The fully resolved config is echoed into every output record so
results are reproducible from their artifacts.

Outputs are CSV (header row, comma-separated, LF) or JSON (one top-level
array of record objects); every float is printed with 17 significant digits
and record order is canonical, so a fixed (config, seed) produces
byte-identical files.  Wall-clock timing goes to the stderr log only, never
into output files.  --threads (1..256) is accepted and has no effect: the
work holds the interpreter lock, and a thread pool ran slower than one
thread.

Lattice dumps (perc --dump) are "k l occupied open" lines.  A flag given
where the chosen mode does not read it, on the command line or in --config, is
a config error: perc --mode indep reads no model flag (--kappa --lam --q
--alpha --d), --box-l, --box-t, --block-n, --copies-s or --dump; perc --mode
brw reads no --p; sweep --p-grid reads no model flag, --horizon, cap or
--kappa-grid/--lam-grid; sweep without --p-grid reads no --rows.

sweep checks its whole grid before the first run, and writes one record per
(kappa, lam) cell in the order the grids list them.  Each cell is the
brw-survival record at the same seed and caps, with "survival" for "value",
so its cap_fraction is that rate's own.

A --config that cannot be read, and an --out or --dump whose directory does
not exist, are config errors too, found before any work is done.

Exit codes: 0 success, 1 config error, 2 oracle-suite failure, 3 statistical
acceptance failure or a tripped population cap.  A check that needs uncapped
runs (moment-check, embed, boxes-fkg) stops at a cap trip, logs one
"cap tripped: ..." line and writes no output; moment-check and embed run the
trees of all fields as one batch, so a trip in any field stops the whole
run, and the line names the first field with a capped tree.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from . import boxes as boxes_mod
from . import brw as brw_mod
from . import gw_embed, orders, percolation, walk
from .brw import BRWParams, Caps, offspring_pmf
from .env import DisasterField
from .rng import derive_seed


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **k):
        k.setdefault("allow_abbrev", False)
        super().__init__(*a, **k)

    def error(self, message):  # exit 1 on bad flags, per the documented codes
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> dict:
    out = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"config: cannot read {path!r}: {e.strerror}")
    with fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def parse_offspring(text: str) -> tuple[float, ...]:
    """Offspring law literal: 'count:prob,count:prob', e.g. '0:0.5,2:0.5'."""
    pairs = {}
    for part in text.split(","):
        if ":" not in part:
            raise ConfigError(f"bad offspring entry {part!r}; use count:prob")
        k, p = part.split(":", 1)
        pairs[int(k)] = float(p)
    try:
        return offspring_pmf(pairs)
    except ValueError as e:
        raise ConfigError(str(e))


def fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return ""
    return str(v)


def _json_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g") if math.isfinite(v) else json.dumps(str(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return "null"
    return json.dumps(str(v))


def emit(records: list[dict], out, fmt_name: str) -> None:
    """Write records with a stable schema (union of keys, first-seen order)."""
    cols: list[str] = []
    for rec in records:
        for k in rec:
            if k not in cols:
                cols.append(k)
    if fmt_name == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(cols)
        for rec in records:
            w.writerow([fmt(rec.get(k)) for k in cols])
    else:
        chunks = []
        for rec in records:
            body = ", ".join(f"{json.dumps(k)}: {_json_value(rec.get(k))}" for k in cols)
            chunks.append("{" + body + "}")
        out.write("[\n" + ",\n".join(chunks) + "\n]\n")


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _params_from(ns) -> BRWParams:
    try:
        return BRWParams(jump_rate=ns.kappa, birth_rate=ns.lam, offspring=parse_offspring(ns.q),
                         disaster_rate=ns.alpha, dimension=ns.d)
    except ValueError as e:
        raise ConfigError(str(e))


def _echo(ns, fields) -> dict:
    return {k: getattr(ns, k) for k in fields}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_annealed(ns) -> tuple[list[dict], int]:
    est = walk.annealed_survival(ns.kappa, ns.alpha, ns.t, ns.n, ns.seed, dimension=ns.d)
    target = math.exp(-ns.alpha * ns.t)
    z = (est.value - target) / est.std_err if est.std_err > 0 else 0.0
    rec = {"experiment": "annealed", **_echo(ns, ("seed", "kappa", "alpha", "d", "t", "n")),
           "value": est.value, "std_err": est.std_err, "target": target, "z": z,
           "ok": abs(z) <= 3.0}
    return [rec], (0 if abs(z) <= 3.0 else 3)


def cmd_lyapunov(ns) -> tuple[list[dict], int]:
    est = walk.estimate_lyapunov(ns.kappa, ns.alpha, ns.t, ns.n_env, ns.n_walkers,
                                 ns.pin, ns.seed, dimension=ns.d)
    rec = {"experiment": "lyapunov",
           **_echo(ns, ("seed", "kappa", "alpha", "d", "t", "n_env", "n_walkers", "pin")),
           "p_hat": est.p_hat, "std_err": est.std_err, "censor_fraction": est.censor_fraction}
    return [rec], 0


def cmd_brw_survival(ns) -> tuple[list[dict], int]:
    params = _params_from(ns)
    est = brw_mod.survival_frequency(params, ns.horizon, ns.n_reps, ns.seed,
                                     caps=Caps(max_alive=ns.cap_alive, max_events=ns.cap_events))
    rec = {"experiment": "brw-survival",
           **_echo(ns, ("seed", "kappa", "lam", "q", "alpha", "d", "horizon", "n_reps")),
           "value": est.value, "std_err": est.std_err, "cap_fraction": est.cap_fraction,
           **_echo(ns, ("cap_alive", "cap_events"))}
    return [rec], 0


def _per_field(ns, experiment: str, label: str, horizon_key: str, check) -> tuple[list[dict], int]:
    """One comparison per fresh field; exit 3 unless 95% of them agree within 3 sigma.

    `check(fields, params, horizon, n_reps, seeds)` returns one
    brw.Comparison per field, in one call for all fields.
    """
    params = _params_from(ns)
    fields = [DisasterField(derive_seed(ns.seed, f"{label}-field", i), ns.alpha, ns.d)
              for i in range(ns.n_fields)]
    seeds = [derive_seed(ns.seed, label, i) for i in range(ns.n_fields)]
    checks = check(fields, params, getattr(ns, horizon_key), ns.n_reps, seeds)
    recs = [{"experiment": experiment, "field_index": i,
             **_echo(ns, ("seed", "kappa", "lam", "q", "alpha", "d", horizon_key, "n_reps",
                          "n_fields")),
             "lhs": chk.lhs, "lhs_se": chk.lhs_se, "rhs": chk.rhs, "rhs_se": chk.rhs_se, "z": chk.z}
            for i, chk in enumerate(checks)]
    frac_ok = sum(1 for r in recs if abs(r["z"]) <= 3.0) / len(recs)
    return recs, (0 if frac_ok >= 0.95 else 3)


def cmd_moment_check(ns) -> tuple[list[dict], int]:
    return _per_field(ns, "moment-check", "moment", "t",
                      lambda fields, params, *rest: brw_mod.moment_identity_check(params, fields, *rest))


def cmd_embed(ns) -> tuple[list[dict], int]:
    return _per_field(ns, "embed", "embed", "period", gw_embed.offspring_mean_identity_check)


def cmd_phase(ns) -> tuple[list[dict], int]:
    params = _params_from(ns)
    v = gw_embed.phase_classify(params, ns.t_lyap, ns.n_env, ns.n_walkers, ns.seed)
    rec = {"experiment": "phase",
           **_echo(ns, ("seed", "kappa", "lam", "q", "alpha", "d", "t_lyap", "n_env", "n_walkers")),
           "criterion_value": v.criterion_value, "std_err": v.std_err, "verdict": v.verdict,
           "censor_fraction": v.censor_fraction, "unreliable": v.unreliable}
    return [rec], 0


def _grid(text: str, name: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as e:
        raise ConfigError(f"{name}: bad grid {text!r}: {e}")
    if not grid or not all(map(math.isfinite, grid)):
        raise ConfigError(f"{name}: grid {text!r} must list one or more finite values")
    return grid


def cmd_sweep(ns) -> tuple[list[dict], int]:
    if ns.p_grid:
        ps = _grid(ns.p_grid, "p_grid")
        if not all(0.0 <= p <= 1.0 for p in ps):
            raise ConfigError(f"p_grid: grid {ns.p_grid!r} must lie in [0, 1]")
        gen = np.random.default_rng(derive_seed(ns.seed, "sweep-perc"))
        uniforms = gen.random((ns.n_reps, ns.rows + 1, ns.rows + 1))
        recs = []
        for p in ps:  # shared uniforms couple the grid monotonically
            est = percolation.independent_perc(p, ns.rows, ns.n_reps, 0, uniforms=uniforms)
            recs.append({"experiment": "sweep-perc", "p": p,
                         **_echo(ns, ("seed", "rows", "n_reps")),
                         "survival": est.value, "std_err": est.std_err})
        return recs, 0
    kappas = _grid(ns.kappa_grid, "kappa_grid") if ns.kappa_grid else [ns.kappa]
    lams = _grid(ns.lam_grid, "lam_grid") if ns.lam_grid else [ns.lam]
    base = _params_from(ns)
    # every cell is built, so checked, before the first one runs
    cells = [replace(base, jump_rate=kappa, birth_rate=lam) for kappa in kappas for lam in lams]
    caps = Caps(max_alive=ns.cap_alive, max_events=ns.cap_events)
    recs = []
    for params in cells:
        est = brw_mod.survival_frequency(params, ns.horizon, ns.n_reps, ns.seed, caps=caps)
        recs.append({"experiment": "sweep", "kappa": params.jump_rate, "lam": params.birth_rate,
                     **_echo(ns, ("seed", "q", "alpha", "d", "horizon", "n_reps")),
                     "survival": est.value, "std_err": est.std_err,
                     "cap_fraction": est.cap_fraction,
                     **_echo(ns, ("cap_alive", "cap_events"))})
    return recs, 0


# exit functionals of boxes.exit_counts' (top, face) tuples of ints, whose sums are
# exact; boxes-fkg evaluates two per replica
_FUNCTIONALS = {
    "total": lambda tv, fv: float(sum(tv) + sum(fv)),
    "top-total": lambda tv, fv: float(sum(tv)),
    "face-total": lambda tv, fv: float(sum(fv)),
    "top-indicator": lambda tv, fv: float(sum(tv) >= 1),
    "face-indicator": lambda tv, fv: float(sum(fv) >= 1),
}


def cmd_boxes_fkg(ns) -> tuple[list[dict], int]:
    params = _params_from(ns)
    box = boxes_mod.SpaceTimeBox(ns.box_l, ns.box_t, ns.d)
    eta = {(0,) * ns.d: ns.start_count}
    f = _FUNCTIONALS[ns.f]
    g = _FUNCTIONALS[ns.g]
    recs = []
    worst = math.inf

    for b in range(ns.n_batches):
        est = boxes_mod.fkg_test(params, eta, eta, box, f, g, ns.n_reps,
                                 derive_seed(ns.seed, "fkg-batch", b))
        sig = est.cov / est.std_err if est.std_err > 0 else 0.0
        worst = min(worst, sig)
        recs.append({"experiment": "boxes-fkg", "batch": b,
                     **_echo(ns, ("seed", "kappa", "lam", "q", "alpha", "d",
                                  "box_l", "box_t", "start_count", "f", "g", "n_reps",
                                  "n_batches")),
                     "cov": est.cov, "std_err": est.std_err, "sigmas": sig})
    return recs, (0 if worst >= -3.0 else 3)


def cmd_perc(ns) -> tuple[list[dict], int]:
    if ns.mode == "indep":
        est = percolation.independent_perc(ns.p, ns.rows, ns.n_reps,
                                           derive_seed(ns.seed, "perc-indep"))
        recs = [{"experiment": "perc", "mode": "indep",
                 **_echo(ns, ("seed", "p", "rows", "n_reps")),
                 "survival": est.value, "std_err": est.std_err}]
        return recs, 0
    params = _params_from(ns)
    recs = []
    lines = []
    survived = 0
    for i in range(ns.n_reps):
        fld = DisasterField(derive_seed(ns.seed, "perc-field", i), ns.alpha, ns.d)
        lat = percolation.build_eta_from_brw(params, fld, ns.box_l, ns.box_t, ns.block_n,
                                             ns.copies_s, ns.rows,
                                             derive_seed(ns.seed, "perc-tree", i))
        surv = bool(lat.survives_to_row(ns.rows))
        survived += surv
        if i == 0 and ns.dump:
            lines = list(lat.dump_lines())
        recs.append({"experiment": "perc", "mode": "brw", "replica": i,
                     **_echo(ns, ("seed", "kappa", "lam", "q", "alpha", "d", "rows",
                                  "box_l", "box_t", "block_n", "copies_s")),
                     "survives": surv, "flagged_rows": ";".join(map(str, lat.flagged_rows))})
    if ns.dump:
        with open(ns.dump, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    est = walk.SurvivalEstimate.binomial(survived / ns.n_reps, ns.n_reps)
    recs.append({"experiment": "perc", "mode": "brw-summary", "survival": est.value,
                 "std_err": est.std_err})
    return recs, 0


def cmd_verify(ns) -> tuple[list[dict], int]:
    """Exact oracle suites; exit 2 when any fails."""
    gen = np.random.default_rng(derive_seed(ns.seed, "verify"))
    suites = []

    def parity_closed_form() -> bool:
        for n in range(31):
            for p in np.arange(0.0, 1.0001, 0.05):
                brute = sum(math.comb(n, k) * p**k * (1 - p) ** (n - k)
                            for k in range(0, n + 1, 2))
                if abs(orders.binom_parity_even(n, float(p)) - brute) > 1e-12:
                    return False
        return True

    def parity_law_enumeration() -> bool:
        for _ in range(12):
            n_bins = int(gen.integers(2, 5))
            w = gen.dirichlet(np.ones(n_bins))
            k = int(gen.integers(0, 3)) * 2
            dist = orders.parity_dist(w, k)
            probs = {tuple(int(b) for b in row): p for row, p in zip(dist.patterns, dist.probs)}
            brute: dict = {}
            for assign in iproduct(range(n_bins), repeat=k):
                bits = tuple(sum(1 for a in assign if a == j) % 2 for j in range(n_bins))
                pr = 1.0
                for a in assign:
                    pr *= w[a]
                brute[bits] = brute.get(bits, 0.0) + pr
            for bits, pr in brute.items():
                if abs(probs.get(bits, 0.0) - pr) > 1e-10:
                    return False
        return True

    def parity_monotone() -> bool:
        for _ in range(20):
            w = orders.WeightVector(gen.dirichlet(np.ones(4)))
            for k in (1, 2):
                if orders.parity_monotonicity_violations(w, k):
                    return False
        return True

    def ratio_exhaustive() -> bool:
        return orders.srw_ratio_bound_exhaustive(40)

    def lr_orders() -> bool:
        return all(orders.jump_count_lr_dominates(k, x, 60)
                   for k in (0.5, 1.0, 4.0) for x in (0, 2))

    def coupling() -> bool:
        w = orders.WeightVector((0.1, 0.2, 0.3, 0.4))
        lo, hi = orders.couple_parity_batch(w, 1, 20_000, gen)
        return bool((np.cumsum(lo, 1) <= np.cumsum(hi, 1)).all())

    def zero_product() -> bool:
        for _ in range(400):
            m = int(gen.integers(1, 6))
            s = int(gen.integers(1, 5))
            raw = [Fraction(int(x)) for x in gen.integers(0, 50, 2 ** (m + 1))]
            tot = sum(raw) or Fraction(1)
            joint = {}
            for code, pat in enumerate(iproduct((0, 1), repeat=m + 1)):
                joint[pat] = raw[code] / tot
            holds, _slack = boxes_mod.zero_pattern_product_bound(joint, s)
            if not holds:
                return False
        return True

    checks = [("binom-parity-closed-form", parity_closed_form),
              ("parity-law-vs-enumeration", parity_law_enumeration),
              ("parity-prefix-monotonicity", parity_monotone),
              ("walk-ratio-bound-exhaustive", ratio_exhaustive),
              ("jump-count-lr-order", lr_orders),
              ("parity-coupling-order", coupling),
              ("zero-pattern-product-bound", zero_product)]
    recs = []
    all_ok = True
    for name, fn in checks:
        ok = bool(fn())
        all_ok &= ok
        log(f"verify {name}: {'pass' if ok else 'FAIL'}")
        recs.append({"experiment": "verify", "suite": name, "seed": ns.seed, "ok": ok})
    return recs, (0 if all_ok else 2)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sp, model: str = ""):
    """Flags every subcommand takes; model "walk" adds the walk's rates and
    dimension, "brw" adds the birth rate and offspring law too."""
    sp.add_argument("--config", default=None)
    sp.add_argument("--seed", type=int, default=None, help="mandatory (no wall-clock default)")
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.add_argument("--threads", type=int, default=1, help="accepted (1..256); has no effect")
    if model:
        sp.add_argument("--kappa", type=float, default=1.0)
        sp.add_argument("--alpha", type=float, default=1.0)
        sp.add_argument("--d", type=int, default=1)
    if model == "brw":
        sp.add_argument("--lam", type=float, default=1.0)
        sp.add_argument("--q", default="0:0.5,2:0.5")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it unchanged, and a
    program that calls main() many times (a benchmark, the tests) should not rebuild
    ~100 actions per call."""
    ap = _Parser(prog="disasterbrw", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("annealed");    _add_common(sp, "walk")
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--n", type=int, default=100_000)
    sp.set_defaults(fn=cmd_annealed)

    sp = sub.add_parser("lyapunov");    _add_common(sp, "walk")
    sp.add_argument("--t", type=float, default=4.0)
    sp.add_argument("--n-env", type=int, default=100)
    sp.add_argument("--n-walkers", type=int, default=2000)
    sp.add_argument("--pin", action="store_true")
    sp.set_defaults(fn=cmd_lyapunov)

    sp = sub.add_parser("brw-survival"); _add_common(sp, "brw")
    sp.add_argument("--horizon", type=float, default=10.0)
    sp.add_argument("--n-reps", type=int, default=200)
    sp.add_argument("--cap-alive", type=int, default=10_000)
    sp.add_argument("--cap-events", type=int, default=5_000_000)
    sp.set_defaults(fn=cmd_brw_survival)

    sp = sub.add_parser("moment-check"); _add_common(sp, "brw")
    sp.add_argument("--t", type=float, default=2.0)
    sp.add_argument("--n-reps", type=int, default=400)
    sp.add_argument("--n-fields", type=int, default=50)
    sp.set_defaults(fn=cmd_moment_check)

    sp = sub.add_parser("embed");       _add_common(sp, "brw")
    sp.add_argument("--period", type=float, default=2.0)
    sp.add_argument("--n-reps", type=int, default=1000)
    sp.add_argument("--n-fields", type=int, default=50)
    sp.set_defaults(fn=cmd_embed)

    sp = sub.add_parser("phase");       _add_common(sp, "brw")
    sp.add_argument("--t-lyap", type=float, default=4.0)
    sp.add_argument("--n-env", type=int, default=100)
    sp.add_argument("--n-walkers", type=int, default=3000)
    sp.set_defaults(fn=cmd_phase)

    sp = sub.add_parser("sweep");       _add_common(sp, "brw")
    sp.add_argument("--kappa-grid", default=None)
    sp.add_argument("--lam-grid", default=None)
    sp.add_argument("--p-grid", default=None)
    sp.add_argument("--rows", type=int, default=50)
    sp.add_argument("--horizon", type=float, default=10.0)
    sp.add_argument("--n-reps", type=int, default=200)
    sp.add_argument("--cap-alive", type=int, default=10_000)
    sp.add_argument("--cap-events", type=int, default=5_000_000)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("boxes-fkg");   _add_common(sp, "brw")
    sp.add_argument("--box-l", type=int, default=3)
    sp.add_argument("--box-t", type=float, default=1.0)
    sp.add_argument("--start-count", type=int, default=1)
    sp.add_argument("--f", choices=sorted(_FUNCTIONALS), default="total")
    sp.add_argument("--g", choices=sorted(_FUNCTIONALS), default="total")
    sp.add_argument("--n-reps", type=int, default=300)
    sp.add_argument("--n-batches", type=int, default=20)
    sp.set_defaults(fn=cmd_boxes_fkg)

    sp = sub.add_parser("perc");        _add_common(sp, "brw")
    sp.add_argument("--mode", choices=("indep", "brw"), default="indep")
    sp.add_argument("--p", type=float, default=0.8)
    sp.add_argument("--rows", type=int, default=50)
    sp.add_argument("--n-reps", type=int, default=1000)
    sp.add_argument("--box-l", type=int, default=2)
    sp.add_argument("--box-t", type=float, default=0.4)
    sp.add_argument("--block-n", type=int, default=0)
    sp.add_argument("--copies-s", type=int, default=1)
    sp.add_argument("--dump", default=None)
    sp.set_defaults(fn=cmd_perc)

    sp = sub.add_parser("verify");      _add_common(sp)
    sp.set_defaults(fn=cmd_verify)
    return ap


_RANGE_CHECKS = [
    ("kappa", lambda v: math.isfinite(v) and v >= 0.0, "kappa must be finite and >= 0"),
    ("lam", lambda v: math.isfinite(v) and v >= 0.0, "lam must be finite and >= 0"),
    ("alpha", lambda v: math.isfinite(v) and v >= 0.0, "alpha must be finite and >= 0"),
    ("t", lambda v: math.isfinite(v) and v >= 0.0, "t must be finite and >= 0"),
    ("t_lyap", lambda v: math.isfinite(v) and v > 0.0, "t_lyap must be finite and > 0"),
    ("period", lambda v: math.isfinite(v) and v >= 0.0, "period must be finite and >= 0"),
    ("n", lambda v: v >= 1, "n must be >= 1"),
    ("n_env", lambda v: v >= 1, "n_env must be >= 1"),
    ("n_walkers", lambda v: v >= 1, "n_walkers must be >= 1"),
    ("n_reps", lambda v: v >= 1, "n_reps must be >= 1"),
    ("n_fields", lambda v: v >= 1, "n_fields must be >= 1"),
    ("n_batches", lambda v: v >= 1, "n_batches must be >= 1"),
    ("threads", lambda v: 1 <= v <= 256, "threads must be in 1..256"),
    ("rows", lambda v: 1 <= v <= 10_000, "rows must be in 1..10000"),
    ("p", lambda v: 0.0 <= v <= 1.0, "p must be in [0, 1]"),
    ("horizon", lambda v: math.isfinite(v) and v >= 0.0, "horizon must be finite and >= 0"),
    ("cap_alive", lambda v: v >= 1, "cap_alive must be >= 1"),
    ("cap_events", lambda v: v >= 1, "cap_events must be >= 1"),
    ("box_l", lambda v: v >= 1, "box_l must be >= 1"),
    ("box_t", lambda v: math.isfinite(v) and v > 0.0, "box_t must be finite and > 0"),
    ("block_n", lambda v: v >= 0, "block_n must be >= 0"),
    ("copies_s", lambda v: v >= 1, "copies_s must be >= 1"),
    ("start_count", lambda v: v >= 1, "start_count must be >= 1"),
]


def _explicit_dests(actions, argv) -> set:
    """Dests whose option strings literally appear in `argv`."""
    seen = set()
    flags = set()
    for a in argv:
        flags.add(a.split("=", 1)[0] if a.startswith("--") else a)
    for act in actions:
        if any(op in flags for op in act.option_strings):
            seen.add(act.dest)
    return seen


def _config_flags(path: str, actions) -> list[str]:
    """The flags a config file names, in file order, for the parser to read.

    A key is an option's long name without its dashes (`format`, `n-reps` or
    `n_reps`) or its argparse dest (`fmt`), but not `config` or `help`.  A
    value becomes `--flag=value`; a switch is given bare when its value is
    1, true or yes, and left out otherwise.
    """
    by_key = {}
    for act in actions:
        if act.dest not in ("config", "help"):
            flag = act.option_strings[-1]
            by_key[act.dest] = by_key[flag[2:].replace("-", "_")] = (flag, act.nargs == 0)
    out = []
    for key, raw in parse_config_file(path).items():
        if key not in by_key:
            raise ConfigError(f"unknown config key {key!r}")
        flag, switch = by_key[key]
        if not switch:
            out.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes"):
            out.append(flag)
    return out


def _unread(ns) -> tuple:
    """Dests of flags the command takes but does not read in the mode chosen."""
    model = ("kappa", "lam", "q", "alpha", "d")
    if ns.command == "perc":
        if ns.mode == "indep":
            return model + ("box_l", "box_t", "block_n", "copies_s", "dump")
        return ("p",)
    if ns.command == "sweep":
        if ns.p_grid:
            return model + ("horizon", "cap_alive", "cap_events", "kappa_grid", "lam_grid")
        return ("rows",)
    return ()


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = ap.parse_args(argv)
        actions = ap._subparsers._group_actions[0].choices[ns.command]._actions
        file_flags = _config_flags(ns.config, actions) if ns.config else []
        if file_flags:  # before argv's own flags, so an explicit flag wins
            ns = ap.parse_args([argv[0], *file_flags, *argv[1:]])
        given = _explicit_dests(actions, [*file_flags, *argv])
        unread = [k for k in _unread(ns) if k in given]
        if unread:
            raise ConfigError(f"{ns.command} does not read "
                              f"{', '.join('--' + k.replace('_', '-') for k in unread)} in this mode")
        if ns.seed is None:
            raise ConfigError("--seed is required (reproducibility: no wall-clock default)")
        for name, check, msg in _RANGE_CHECKS:
            if hasattr(ns, name) and getattr(ns, name) is not None and not check(getattr(ns, name)):
                raise ConfigError(f"{name}: {msg}")
        for name in ("out", "dump"):  # before the run, so a typo neither wastes it nor leaves a file
            path = getattr(ns, name, None)
            if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
                raise ConfigError(f"{name}: {path!r} is a directory or lies in a missing one")
        records, code = ns.fn(ns)
    except ValueError as e:  # ConfigError included
        log(f"config error: {e}")
        return 1
    except brw_mod.CapTripped as e:
        log(f"cap tripped: {e}")
        return 3
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as fh:
            emit(records, fh, ns.fmt)
    else:
        emit(records, sys.stdout, ns.fmt)
    log(f"{ns.command}: {len(records)} record(s), exit {code}, {time.perf_counter() - start:.2f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
