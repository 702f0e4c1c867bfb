"""disasterbrw benchmark: drives the public CLI on three fixed workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of CLI invocations (``cli.main`` called in this
process, ``--threads 1``) that all receive ``--seed N``.  One pass runs the
list once.  The run repeats passes until S seconds have gone, and every pass
is checked against the recorded reference fields for that seed (see
``record.py``), or, for a seed without a reference, against the first pass.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over fresh
interpreters, see ``probe.py``), ``wall_norm_s`` (median pass time) and
``peak_rss_mb``.  Both times are rescaled to a reference machine speed by
``speedclock.py``, because the speed of a shared host drifts by a factor of
up to two; the raw medians go to stderr.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of ``tracer.py`` plus the
tracing overhead.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speedclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

ALWAYS_TWO = "2:1"
BINARY = "0:0.5,2:0.5"

# name -> [(invocation name, CLI arguments without --seed)].  Every config is
# one the acceptance battery uses; only the sample sizes are the benchmark's.
WORKLOADS = {
    # walk._survival_batch does nearly all the work; brw, percolation and
    # boxes never run.  kappa spans 4 to 640 jumps per walker.
    "walk-lyapunov": [
        *[(f"lyapunov-k{k}", ["lyapunov", "--kappa", k, "--t", "20", "--n-env", "2",
                              "--n-walkers", "10000"]) for k in ("0.2", "2", "8", "32")],
        ("lyapunov-k2-pin", ["lyapunov", "--kappa", "2", "--t", "20", "--n-env", "2",
                             "--n-walkers", "10000", "--pin"]),
        ("phase-super", ["phase", "--kappa", "8", "--lam", "2", "--q", ALWAYS_TWO,
                         "--t-lyap", "3", "--n-env", "20", "--n-walkers", "5000"]),
        ("phase-sub", ["phase", "--kappa", "1", "--lam", "0.2", "--q", ALWAYS_TWO,
                       "--t-lyap", "3", "--n-env", "20", "--n-walkers", "5000"]),
    ],
    # brw.simulate calls of 1 to about 50 ms: per-event cost (heap
    # loop, scalar env lookups, ParticleStream draws).  About 40% of the
    # replicas trip the cap of 50; the cap bounds each replica's work, and
    # 1200 replicas keep the total steady between seeds.  perc adds event
    # logging, truncation and one log scan per staircase window.  A perc
    # replica's work varies several-fold between seeds, so perc stays small
    # (lattice rows 0 and 1) to keep wall_norm_s steady; see README.md.
    "big-trees": [
        ("brw-survival-super", ["brw-survival", "--kappa", "8", "--lam", "2", "--q", ALWAYS_TWO,
                                "--alpha", "1", "--horizon", "6", "--n-reps", "1200",
                                "--cap-alive", "50"]),
        ("perc-brw", ["perc", "--mode", "brw", "--kappa", "2", "--lam", "2", "--q", ALWAYS_TWO,
                      "--alpha", "0.7", "--box-l", "2", "--box-t", "0.35", "--rows", "1",
                      "--n-reps", "8"]),
    ],
    # Thousands of short trees: per-call overhead (tree set-up, derive_seed,
    # cold-site materialization) and one exit_counts scan per short log.
    "small-trees": [
        ("embed", ["embed", "--kappa", "2", "--lam", "0.5", "--q", BINARY, "--period", "2",
                   "--n-fields", "40", "--n-reps", "300"]),
        ("boxes-fkg", ["boxes-fkg", "--kappa", "1", "--lam", "1", "--q", BINARY, "--box-l", "3",
                       "--box-t", "1.0", "--start-count", "2", "--n-batches", "12",
                       "--n-reps", "200"]),
    ],
}

# How strongly each workload's pass time follows the speed clock's kernel
# (``speedclock.SpeedClock``'s exponent).  Fitted on passes of one seed while
# the host's speed changed: walk-lyapunov's numpy batches slowed by the
# kernel's slowdown to the power 0.52 to 0.74, depending on the kernel's
# make-up, and its runs by 0.62; small-trees' interpreted trees by 1.05.
SPEED_EXPONENT = {"walk-lyapunov": 0.65, "big-trees": 1.0, "small-trees": 1.0}

# Result columns compared against the reference.  Echoed config and any
# column added later are ignored, so new columns never read as failures.
RESULT_FIELDS = ("value", "std_err", "p_hat", "censor_fraction", "cap_fraction",
                 "lhs", "lhs_se", "rhs", "rhs_se", "cov", "survives", "survival",
                 "criterion_value", "verdict")

SETUP_REPEATS = 5
MIN_PASSES = 2


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    return [(name, [*argv, "--seed", str(seed), "--threads", "1"])
            for name, argv in WORKLOADS[workload]]


def read_fields(path: Path) -> list[dict]:
    """The result fields of every record in a CLI CSV output."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: row[k] for k in RESULT_FIELDS if k in row} for row in csv.DictReader(fh)]


def mismatch(expected: list[dict], got: list[dict]) -> str | None:
    """Why `got` differs from `expected`, or None.  Extra columns are fine."""
    if len(got) != len(expected):
        return f"{len(got)} records, expected {len(expected)}"
    for i, (want, have) in enumerate(zip(expected, got)):
        for key, value in want.items():
            if have.get(key) != value:
                return f"record {i} {key}={have.get(key)!r}, expected {value!r}"
    return None


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(str(seed))


def run_pass(main, invs, out_dir: Path, clock=None, tracer=None):
    """Run every invocation once, timed by ``clock`` (a fresh ``SpeedClock``
    if None).

    Returns (clock, fields, errors): fields maps each invocation that exited
    0 to its result fields, errors maps the others to a reason.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    outs = {name: out_dir / f"{name}.csv" for name, _ in invs}
    for path in outs.values():
        path.unlink(missing_ok=True)
    codes = {}
    clock = clock or speedclock.SpeedClock()
    with clock:
        for name, argv in invs:
            args = [*argv, "--out", str(outs[name])]
            try:
                codes[name] = tracer.invoke(name, main, args) if tracer else main(args)
            except Exception:  # an invocation that raises is a failed one
                traceback.print_exc()
                codes[name] = "raised"
    fields, errors = {}, {}
    for name, code in codes.items():
        if code == 0:
            fields[name] = read_fields(outs[name])
        else:
            errors[name] = f"exit {code}"
    return clock, fields, errors


class Checker:
    """Counts invocations attempted and failed over the passes of one run."""

    def __init__(self, reference: dict | None):
        self.expected = reference
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, fields: dict, errors: dict) -> None:
        if self.expected is None:  # no reference: later passes must repeat the first
            self.expected = dict(fields)
        self.attempted += len(fields) + len(errors)
        for name, reason in errors.items():
            self._fail(label, name, reason)
        for name, got in fields.items():
            if name not in self.expected:
                self._fail(label, name, "no expected fields (earlier pass failed)")
                continue
            reason = mismatch(self.expected[name], got)
            if reason:
                self._fail(label, name, reason)

    def _fail(self, label: str, name: str, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {name} ({label}): {reason}", file=sys.stderr)


def setup_time(argv: list[str], out_dir: Path) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its first replica.

    Returns (raw, normalized).  The probe samples its own speed while it
    imports and parses (see ``probe.py``); the time before its clock starts
    is scaled by the same ratio, and its kernel time is left out of both.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), *argv,
           "--out", str(out_dir / "probe.csv")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    parts = line.split()
    if len(parts) != 4 or parts[0] != b"replica":
        raise RuntimeError(f"set-up probe exited {proc.returncode} before a replica began")
    norm, wall, kernel = (float(x) for x in parts[1:])
    raw = elapsed - kernel
    return raw, raw * norm / wall


def uncensored_frac(fields: dict, invs) -> float:
    """Useful over attempted Lyapunov environments, from censor_fraction."""
    n_env = {name: int(argv[argv.index("--n-env") + 1])
             for name, argv in invs if "--n-env" in argv}
    attempted = useful = 0.0
    for name, n in n_env.items():
        for rec in fields.get(name, []):
            attempted += n
            useful += n * (1.0 - float(rec["censor_fraction"]))
    return useful / attempted if attempted else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "disasterbrw" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from disasterbrw import cli

    invs = invocations(args.workload, args.seed)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    checker = Checker(load_reference(args.workload, args.seed))
    start = time.perf_counter()

    if args.trace == 0:
        setups = [setup_time(invs[0][1], out_dir) for _ in range(SETUP_REPEATS)]
        start = time.perf_counter()
        clocks = []
        # A pass starts only if a pass of median length still fits in the run.
        while len(clocks) < MIN_PASSES or (
                time.perf_counter() - start
                + statistics.median(c.wall_s for c in clocks) <= args.seconds):
            clock, fields, errors = run_pass(
                cli.main, invs, out_dir,
                speedclock.SpeedClock(exponent=SPEED_EXPONENT[args.workload]))
            checker.check(f"pass {len(clocks)}", fields, errors)
            clocks.append(clock)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"{len(clocks)} passes; raw medians: setup "
              f"{statistics.median(raw for raw, _ in setups):.4f} s, pass "
              f"{statistics.median(c.wall_s for c in clocks):.4f} s; median kernel "
              f"{statistics.median(k for c in clocks for k in c.samples):.5f} s", file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(norm for _, norm in setups), "s"),
            "wall_norm_s": (statistics.median(c.norm_s for c in clocks), "s"),
            "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        }
    else:
        from tracer import Tracer

        tracer = Tracer()
        walls = {False: [], True: []}
        while not walls[True] or (time.perf_counter() - start
                                  + statistics.median(walls[False] + walls[True]) <= args.seconds):
            traced = len(walls[False]) > len(walls[True])
            if traced:
                tracer.install()
            try:
                clock, fields, errors = run_pass(cli.main, invs, out_dir,
                                                 speedclock.SpeedClock(ticks=False),
                                                 tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            label = f"{'traced' if traced else 'untraced'} pass {len(walls[traced])}"
            checker.check(label, fields, errors)
            walls[traced].append(clock.wall_s)
        traced_wall = statistics.median(walls[True])
        layer = tracer.layer_metrics(len(walls[True]))
        layer["walk.uncensored_frac"] = uncensored_frac(checker.expected, invs)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - statistics.median(walls[False])
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (layer[name], unit) for name, unit in units.items()}

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
