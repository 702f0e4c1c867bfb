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
the head won (ties count for neither side) and a verdict (see `verdict`).
The same summary, as `raw_pass_s`, covers the raw median pass time that each
run prints on stderr, judged against `wall_norm_s`'s bound: a claimed
`wall_norm_s` gain must show there too, or it may be the speed clock's.
After the pairs, each side makes one traced run (`--trace 1`) per workload
on the first seed; the file keeps those result lines too, and per workload
and per-layer metric of BENCHMARK.json the two sides' values and the head's
change, which is also printed. The temporary checkouts are removed at the end. BENCH_<PR>.json is
written in the root of the repository. Only the standard library is used, and nothing under perfbench/
is written to.
"""

from __future__ import annotations

import argparse
import json
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


def _summary_row(pairs: dict, metric: dict, value) -> dict:
    """One metric's spreads, pairs won and verdict; value(run) reads it from a run or gives None."""
    vals = [{s: value(p[s]) if s in p else None for s in SIDES} for p in pairs.values()]
    complete = [v for v in vals if None not in v.values()]
    decided = [v for v in complete if v["base"] != v["head"]]
    won = sum((v["head"] < v["base"]) == (metric["better"] == "lower") for v in decided)
    side = {s: [v[s] for v in vals if v[s] is not None] for s in SIDES}
    return {"unit": metric["unit"], "better": metric["better"],
            **{s: _spread(side[s]) for s in SIDES},
            "pairs_won": won, "pairs_lost": len(decided) - won,
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


def layer_deltas(traced: list, metrics: list) -> dict:
    """Per workload and per-layer metric: each side's traced value and the head's change.

    `traced` are the traced entries of the output file, one per side and
    workload; `metrics` the `per_layer` entries of BENCHMARK.json.  A side
    whose run failed reads None, and so do the change and the ratio then.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in traced):
        runs = {r["side"]: r for r in traced if r["workload"] == workload}
        rows = out[workload] = {}
        for m in metrics:
            b, h = (_value(runs[s], m["name"]) if s in runs else None for s in SIDES)
            known = None not in (b, h)
            rows[m["name"]] = {"unit": m["unit"], "better": m["better"], "base": b, "head": h,
                               "delta": h - b if known else None,
                               "ratio": h / b if known and b != 0 else None}
    return out


def report_layers(layers: dict) -> str:
    lines = []
    for workload, rows in layers.items():
        for name, row in rows.items():
            if row["delta"] is None:
                lines.append(f"{workload:14s} {name:34s} base {row['base']}  head {row['head']}")
                continue
            change = "equal" if row["delta"] == 0 else f"{row['delta']:+.4g}" + (
                f" ({row['ratio'] - 1:+.1%})" if row["ratio"] is not None else "")
            lines.append(f"{workload:14s} {name:34s} base {row['base']:.4g}  head {row['head']:.4g}"
                         f"  {change}")
    return "\n".join(lines)


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
                         f"  {row['verdict']}")
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
        k = 0
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                k += 1
                for side in order:
                    run = run_once(checkouts[side], bench["command"], workload, seed, seconds)
                    doc["runs"].append({"workload": workload, "seed": seed, "pair": i, "side": side,
                                        "first": side == order[0], **run})
                    print(f"{workload} seed {seed} {side}: exit {run['exit']}, "
                          f"{run['wall_s']:.1f} s", file=sys.stderr, flush=True)
        for k, workload in enumerate(workloads):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                run = run_once(checkouts[side], bench["command"], workload, seeds[0], seconds, trace=1)
                doc["traced"].append({"workload": workload, "seed": seeds[0], "side": side, **run})
                print(f"{workload} seed {seeds[0]} {side} traced: exit {run['exit']}, "
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
