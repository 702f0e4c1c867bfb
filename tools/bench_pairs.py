"""Alternating before/after runs of the benchmark: writes BENCH_<PR>.json.

Usage (from the root of the repository):

    python3 tools/bench_pairs.py --pr N --seeds 21,22,23,24,25,26,27,28,29,30

Each of the two revisions (`--base`, default HEAD~1, and `--head`, default
HEAD) is extracted from git into its own temporary directory with `git
archive`, so both sides run their committed files and the repository's own
`.git` and working tree are left alone. For every workload and every seed,
one pair runs the command of BENCHMARK.json (`perfbench/run.py --trace 0`,
for its `run_seconds`) once in each checkout; the side that goes first
alternates from pair to pair. The file written holds both shas, the machine,
every run's result line (the last line of its stdout) and, per workload and
end-to-end metric, each side's median and quartiles, the number of pairs
the head won (ties count for neither side), the mean paired log ratio
log(head / base) with its standard error (see `paired_log_ratio`) and a
verdict (see `verdict`); the log ratio is printed beside the verdict.
The same summary, as `raw_pass_s`, covers the raw median pass time that each
run prints on stderr, judged against `wall_norm_s`'s bound: a claimed
`wall_norm_s` gain must show there too, or it may be the speed clock's.
After the pairs, each side makes one traced run (`--trace 1`) per workload
on each of the first three seeds, the side that goes first alternating; the
file keeps those result lines too, and per workload and per-layer metric of
BENCHMARK.json the head's change on each seed and the median change, which
is also printed: one traced run per side cannot tell a layer's self time
from host noise. The temporary checkouts are removed at the end.
BENCH_<PR>.json is written in the root of the repository. Only the standard
library is used, and nothing under perfbench/ is written to.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "head")
TRACED_SEEDS = 3  # traced runs per side and workload, on the first seeds

# the pass median in run.py's "raw medians" stderr line
_RAW_PASS = re.compile(r"\bpass ([0-9.]+) s\b")


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(repo: Path, sha: str, dest: Path) -> None:
    """The committed files of `sha` under `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(repo), "archive", sha], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def machine() -> dict:
    return {
        "node": platform.node(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_once(checkout: Path, command: list, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run in `checkout`: its exit code, wall time, result line and raw medians."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    # run.py's last stderr line gives the raw (unnormalized) medians
    raw = proc.stderr.strip().splitlines()[-1:]
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - t0, "result": result,
            "raw_medians": raw[0] if raw else None}


def _spread(values: list) -> dict:
    if not values:
        return {"n": 0}
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def _value(run: dict, name: str):
    """Metric `name` of a run that exited 0 with a result line, else None."""
    res = run.get("result")
    return res["metrics"][name]["value"] if res and run["exit"] == 0 else None


def _raw_pass(run: dict):
    """The raw median pass time of a run that exited 0 with a result line, else None."""
    found = _RAW_PASS.search(run.get("raw_medians") or "")
    return float(found.group(1)) if found and run.get("result") and run["exit"] == 0 else None


def verdict(base: list, head: list, won: int, pairs: int, metric: dict) -> str | None:
    """Verdict on one metric from each side's values and the pairs the head won of `pairs`.

    `unresolved` when the base's spread, (q3 - q1) / median, exceeds the
    metric's bound (a relative change), unless every head run beats every
    base run; otherwise `worse` when the head median is past the base median
    by more than the bound, `better` when it beats the base median by more
    than the base's quartile distance in at least 9 of 10 pairs (the bar a
    claimed gain must clear), and `within bound` else.  None without values.
    """
    if not base or not head:
        return None
    b = _spread(base)
    sign = 1 if metric["better"] == "lower" else -1  # sign * value: lower is better
    gain = sign * (b["median"] - statistics.median(head))
    iqr, bound = b["q3"] - b["q1"], metric["bound"]
    if iqr > bound * abs(b["median"]) and min(sign * v for v in base) <= max(sign * v for v in head):
        return "unresolved"
    if -gain > bound * abs(b["median"]):
        return "worse"
    if gain > iqr and 10 * won >= 9 * pairs:
        return "better"
    return "within bound"


def paired_log_ratio(complete: list) -> dict:
    """Mean of log(head / base) over the pairs and its standard error (None below two pairs).

    `complete` holds one {"base": value, "head": value} per pair with both
    values known; pairs with a value <= 0 have no ratio and are left out.
    Each pair's ratio cancels what the two runs of a pair share (the seed,
    the host's speed at the time), so the mean reads the head's relative
    change, -0.1 being about 10% lower, with a standard error from the
    spread of the pairs.
    """
    logs = [math.log(v["head"] / v["base"]) for v in complete if v["base"] > 0 and v["head"] > 0]
    if not logs:
        return {"n": 0, "mean": None, "se": None}
    se = statistics.stdev(logs) / math.sqrt(len(logs)) if len(logs) > 1 else None
    return {"n": len(logs), "mean": statistics.fmean(logs), "se": se}


def _summary_row(pairs: dict, metric: dict, value) -> dict:
    """One metric's spreads, pairs won, paired log ratio and verdict; value(run) reads it from
    a run or gives None."""
    vals = [{s: value(p[s]) if s in p else None for s in SIDES} for p in pairs.values()]
    complete = [v for v in vals if None not in v.values()]
    decided = [v for v in complete if v["base"] != v["head"]]
    won = sum((v["head"] < v["base"]) == (metric["better"] == "lower") for v in decided)
    side = {s: [v[s] for v in vals if v[s] is not None] for s in SIDES}
    return {"unit": metric["unit"], "better": metric["better"],
            **{s: _spread(side[s]) for s in SIDES},
            "pairs_won": won, "pairs_lost": len(decided) - won,
            "log_ratio": paired_log_ratio(complete),
            "verdict": verdict(side["base"], side["head"], won, len(complete), metric)}


def summarize(runs: list, metrics: list) -> dict:
    """Per workload and end-to-end metric: each side's spread, the pairs the head won and
    a verdict; the same for `raw_pass_s` when `metrics` has `wall_norm_s`.

    `runs` are the entries of the output file; `metrics` the `end_to_end`
    entries of BENCHMARK.json (name, unit, better, bound).
    """
    out = {}
    wall = next((m for m in metrics if m["name"] == "wall_norm_s"), None)
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        rows = out[workload] = {}
        for m in metrics:
            rows[m["name"]] = _summary_row(pairs, m, lambda run, name=m["name"]: _value(run, name))
        if wall:
            rows["raw_pass_s"] = _summary_row(pairs, wall, _raw_pass)
        rows["runs_failed"] = {s: sum(1 for p in pairs.values() if s in p and (
            p[s]["exit"] != 0 or not p[s]["result"] or p[s]["result"]["failed"])) for s in SIDES}
    return out


def _median(values: list):
    known = [v for v in values if v is not None]
    return statistics.median(known) if known else None


def layer_deltas(traced: list, metrics: list) -> dict:
    """Per workload and per-layer metric: the head's change on each traced seed, and medians.

    `traced` are the traced entries of the output file, one per side,
    workload and seed; `metrics` the `per_layer` entries of BENCHMARK.json.
    A row holds, per seed, both sides' values, the change and the ratio, and
    over the seeds the median of each.  A side whose run failed or is
    missing reads None, and so do that seed's change and ratio; a zero base
    gives no ratio.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in traced):
        runs = {(r["seed"], r["side"]): r for r in traced if r["workload"] == workload}
        seeds = list(dict.fromkeys(seed for seed, _ in runs))
        rows = out[workload] = {}
        for m in metrics:
            per_seed = []
            for seed in seeds:
                b, h = (_value(runs[seed, s], m["name"]) if (seed, s) in runs else None for s in SIDES)
                known = None not in (b, h)
                per_seed.append({"seed": seed, "base": b, "head": h, "delta": h - b if known else None,
                                 "ratio": h / b if known and b != 0 else None})
            rows[m["name"]] = {"unit": m["unit"], "better": m["better"], "seeds": per_seed,
                               **{k: _median([p[k] for p in per_seed])
                                  for k in ("base", "head", "delta", "ratio")}}
    return out


def report_layers(layers: dict) -> str:
    """One line per workload and layer: the medians and the change, marked `equal` when
    every seed's change is 0 and `noise` when the seeds' changes do not share a sign."""
    lines = []
    for workload, rows in layers.items():
        for name, row in rows.items():
            if row["delta"] is None:
                lines.append(f"{workload:14s} {name:34s} base {row['base']}  head {row['head']}")
                continue
            signs = {(d > 0) - (d < 0) for d in (p["delta"] for p in row["seeds"]) if d is not None}
            if signs == {0}:
                change = "equal"
            else:
                change = f"{row['delta']:+.4g}" + (f" ({row['ratio'] - 1:+.1%})" if row["ratio"] is not None
                                                   else "")
                if len(signs) > 1:
                    change += "  noise"
            lines.append(f"{workload:14s} {name:34s} base {row['base']:.4g}  head {row['head']:.4g}"
                         f"  {change}")
    return "\n".join(lines)


def _log_ratio_text(log_ratio: dict) -> str:
    if log_ratio["mean"] is None:
        return ""
    se = f" +- {log_ratio['se']:.3f}" if log_ratio["se"] is not None else ""
    return f"  log(head/base) {log_ratio['mean']:+.3f}{se}"


def report(summary: dict) -> str:
    lines = []
    for workload, rows in summary.items():
        for name, row in rows.items():
            if name == "runs_failed":
                continue
            b, h = row["base"], row["head"]
            if not b["n"] or not h["n"]:
                lines.append(f"{workload:14s} {name:12s} no complete pairs")
                continue
            lines.append(f"{workload:14s} {name:12s} base {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g})"
                         f"  head {h['median']:.4g} ({h['q1']:.4g}-{h['q3']:.4g})"
                         f"  head better in {row['pairs_won']}/{row['pairs_won'] + row['pairs_lost']}"
                         f"  {row['verdict']}{_log_ratio_text(row['log_ratio'])}")
        lines.append(f"{workload:14s} runs failed: base {rows['runs_failed']['base']}, "
                     f"head {rows['runs_failed']['head']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, help="number in the output name BENCH_<PR>.json")
    ap.add_argument("--seeds", required=True, help="comma-separated; one pair per seed and workload")
    ap.add_argument("--base", default="HEAD~1")
    ap.add_argument("--head", default="HEAD")
    args = ap.parse_args(argv)

    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    shas = {s: _git(repo, "rev-parse", "--verify", f"{getattr(args, s)}^{{commit}}") for s in SIDES}
    seeds = [int(s) for s in args.seeds.split(",")]
    out = repo / f"BENCH_{args.pr}.json"
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        checkouts = {s: tmp / s for s in SIDES}
        for s in SIDES:
            extract(repo, shas[s], checkouts[s])
        bench = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        doc = {"pr": args.pr, "base": {"rev": args.base, "sha": shas["base"]},
               "head": {"rev": args.head, "sha": shas["head"]}, "machine": machine(),
               "command": bench["command"], "seconds": seconds, "seeds": seeds, "runs": [],
               "traced": []}
        for key, trace, run_seeds in (("runs", 0, seeds), ("traced", 1, seeds[:TRACED_SEEDS])):
            k = 0
            for workload in workloads:
                for i, seed in enumerate(run_seeds):
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    k += 1
                    for side in order:
                        run = run_once(checkouts[side], bench["command"], workload, seed, seconds, trace)
                        doc[key].append({"workload": workload, "seed": seed, "pair": i, "side": side,
                                         "first": side == order[0], **run})
                        print(f"{workload} seed {seed} {side}{' traced' * trace}: exit {run['exit']}, "
                              f"{run['wall_s']:.1f} s", file=sys.stderr, flush=True)
        doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
        doc["layers"] = layer_deltas(doc["traced"], bench["per_layer"])
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(report(doc["summary"]))
        print(report_layers(doc["layers"]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
