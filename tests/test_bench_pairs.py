import importlib.util
import math
import statistics
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_norm_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "walkers_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _run(pair, side, wall, rate, exit_code=0):
    metrics = {"wall_norm_s": {"value": wall, "unit": "s"},
               "walkers_per_s": {"value": rate, "unit": "1/s"}}
    return {"workload": "w", "seed": 20 + pair, "pair": pair, "side": side, "exit": exit_code,
            "result": {"correct": True, "attempted": 4, "failed": 0, "metrics": metrics}}


def test_summary_counts_pairs_by_direction_and_skips_ties_and_failed_runs():
    runs = [
        _run(0, "base", 1.0, 10.0), _run(0, "head", 0.8, 12.0),  # head better on both
        _run(1, "head", 1.1, 9.0), _run(1, "base", 1.0, 10.0),   # head worse on both
        _run(2, "base", 1.0, 10.0), _run(2, "head", 1.0, 10.0),  # tie: counts for neither
        _run(3, "base", 1.2, 8.0), _run(3, "head", 0.1, 99.0, exit_code=1),  # failed run
    ]
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    wall = summary["wall_norm_s"]
    assert (wall["pairs_won"], wall["pairs_lost"]) == (1, 1)
    assert (summary["walkers_per_s"]["pairs_won"], summary["walkers_per_s"]["pairs_lost"]) == (1, 1)
    assert wall["base"]["n"] == 4 and wall["head"]["n"] == 3
    assert wall["base"]["median"] == 1.0
    assert wall["head"]["median"] == 1.0
    assert summary["runs_failed"] == {"base": 0, "head": 1}
    assert "head better in 1/2" in bench_pairs.report({"w": summary})


def test_verdict_weighs_the_head_against_the_base_spread_and_the_bound():
    lower, higher = ({"better": b, "bound": 0.1} for b in ("lower", "higher"))
    tight = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    wide = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    verdict = bench_pairs.verdict
    assert verdict(wide, [v * 1.02 for v in wide], 0, 10, lower) == "unresolved"
    assert verdict(wide, [0.3] * 10, 10, 10, lower) == "better"  # every head run beats every base run
    assert verdict(wide, [1.6] * 10, 0, 10, higher) == "within bound"  # as does each here, if by little
    assert verdict(tight, [1.15] * 10, 0, 10, lower) == "worse"
    assert verdict(tight, [0.85] * 10, 0, 10, higher) == "worse"
    assert verdict(tight, [1.05] * 10, 0, 10, lower) == "within bound"
    assert verdict(tight, [0.95] * 10, 10, 10, lower) == "better"
    assert verdict(tight, [0.95] * 10, 8, 10, lower) == "within bound"  # a gain needs 9 pairs in 10
    assert verdict(tight, [0.995] * 10, 10, 10, lower) == "within bound"  # inside the base quartiles
    assert verdict([], [1.0], 0, 0, lower) is None
    runs = [_run(i, side, 1.0 + 0.6 * (side == "head") * (i % 2), 10.0) for i in range(4)
            for side in ("base", "head")]
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    assert summary["wall_norm_s"]["verdict"] == "worse"
    assert summary["walkers_per_s"]["verdict"] == "within bound"
    assert "head better in 0/2  worse" in bench_pairs.report({"w": summary})


def test_raw_pass_medians_are_summarized_against_the_wall_bound():
    def run(pair, side, wall, raw, exit_code=0):
        line = f"30 passes; raw medians: setup 0.25 s, pass {raw} s; median kernel 0.01 s"
        return {**_run(pair, side, wall, 10.0, exit_code), "raw_medians": raw and line}

    # wall_norm_s claims a gain in every pair; the raw pass medians show none
    runs = [run(i, side, 1.0 - 0.2 * (side == "head"), f"{0.9 + 0.01 * i + 0.002 * (side == 'head'):.4f}")
            for i in range(10) for side in ("base", "head")]
    runs += [run(10, "base", 1.0, "0.5"), run(10, "head", 0.8, None),  # no raw line
             run(11, "base", 1.0, "0.5"), run(11, "head", 0.8, "0.1", exit_code=1)]  # failed run
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    assert summary["wall_norm_s"]["verdict"] == "better"
    raw = summary["raw_pass_s"]
    assert (raw["unit"], raw["better"], raw["pairs_won"], raw["pairs_lost"]) == ("s", "lower", 0, 10)
    assert (raw["base"]["n"], raw["head"]["n"]) == (12, 10)
    assert raw["head"]["median"] == 0.947 and raw["verdict"] == "within bound"
    assert "raw_pass_s   base" in bench_pairs.report({"w": summary})
    # without wall_norm_s there is no bound to judge raw_pass_s by
    assert "raw_pass_s" not in bench_pairs.summarize(runs, METRICS[1:])["w"]


def test_paired_log_ratio_averages_each_pairs_change_with_its_standard_error():
    # the head is 20% lower in two pairs and 10% higher in one; pair 3 failed, pair 4 is a tie
    runs = [_run(0, "base", 1.0, 10.0), _run(0, "head", 0.8, 10.0),
            _run(1, "head", 2.0, 10.0), _run(1, "base", 2.5, 10.0),
            _run(2, "base", 1.0, 10.0), _run(2, "head", 1.1, 10.0),
            _run(3, "base", 1.0, 10.0), _run(3, "head", 0.1, 10.0, exit_code=1),
            _run(4, "base", 3.0, 10.0), _run(4, "head", 3.0, 10.0)]
    summary = bench_pairs.summarize(runs, METRICS)["w"]
    logs = [math.log(0.8), math.log(0.8), math.log(1.1), 0.0]
    ratio = summary["wall_norm_s"]["log_ratio"]
    assert ratio["n"] == 4
    assert math.isclose(ratio["mean"], sum(logs) / 4)
    assert math.isclose(ratio["se"], statistics.stdev(logs) / 2)
    # equal values in every pair read 0 +- 0; the verdict is the same as without the column
    assert summary["walkers_per_s"]["log_ratio"] == {"n": 4, "mean": 0.0, "se": 0.0}
    text = bench_pairs.report({"w": summary}).splitlines()
    assert text[0].endswith(f"{summary['wall_norm_s']['verdict']}  log(head/base) {ratio['mean']:+.3f} "
                            f"+- {ratio['se']:.3f}")
    assert text[1].endswith("log(head/base) +0.000 +- 0.000")
    # one pair gives a mean but no standard error; none, or only values <= 0, give neither
    assert bench_pairs.paired_log_ratio([{"base": 2.0, "head": 1.0}]) == {
        "n": 1, "mean": math.log(0.5), "se": None}
    assert bench_pairs.paired_log_ratio([{"base": 0.0, "head": 1.0}]) == {"n": 0, "mean": None, "se": None}
    assert "log(head/base) -0.693" in bench_pairs._log_ratio_text({"n": 1, "mean": math.log(0.5), "se": None})
    assert bench_pairs._log_ratio_text({"n": 0, "mean": None, "se": None}) == ""


LAYERS = [{"name": "walk.survival_batch_self_s", "unit": "s", "better": "lower"},
          {"name": "env.sites_materialized", "unit": "count", "better": "lower"},
          {"name": "brw.simulate_p50_ms", "unit": "ms", "better": "lower"}]


def _traced(workload, side, self_s, sites, p50, exit_code=0):
    metrics = {"walk.survival_batch_self_s": {"value": self_s, "unit": "s"},
               "env.sites_materialized": {"value": sites, "unit": "count"},
               "brw.simulate_p50_ms": {"value": p50, "unit": "ms"}}
    return {"workload": workload, "seed": 20, "side": side, "exit": exit_code,
            "result": {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}}


def test_layer_deltas_compare_the_traced_runs_of_each_workload():
    traced = [
        _traced("w", "base", 2.0, 300, None), _traced("w", "head", 1.5, 300, None),
        _traced("v", "head", 0.0, 10, 4.0), _traced("v", "base", 0.0, 12, 5.0, exit_code=1),
        _traced("u", "base", 1.0, 5, 1.0),  # no head run
    ]
    layers = bench_pairs.layer_deltas(traced, LAYERS)
    assert list(layers) == ["w", "v", "u"]
    self_s = layers["w"]["walk.survival_batch_self_s"]
    assert (self_s["base"], self_s["head"], self_s["delta"], self_s["ratio"]) == (2.0, 1.5, -0.5, 0.75)
    assert layers["w"]["env.sites_materialized"]["delta"] == 0
    # a metric a side does not report, a failed side and a missing side read None
    assert layers["w"]["brw.simulate_p50_ms"]["delta"] is None
    assert layers["v"]["env.sites_materialized"]["base"] is None
    assert layers["v"]["env.sites_materialized"]["delta"] is None
    assert layers["u"]["walk.survival_batch_self_s"]["head"] is None
    # a zero base gives a change but no ratio
    assert layers["v"]["walk.survival_batch_self_s"]["ratio"] is None
    text = bench_pairs.report_layers(layers)
    assert "-0.5 (-25.0%)" in text
    assert "env.sites_materialized" in text and "equal" in text


def test_layer_deltas_take_the_median_change_over_traced_seeds():
    def traced(seed, side, self_s, sites, p50):
        return {**_traced("w", side, self_s, sites, p50), "seed": seed}

    # self time moves both ways across the seeds; the counts never move; the tail grows on each
    runs = [traced(20, "base", 1.0, 300, 4.0), traced(20, "head", 1.3, 300, 4.4),
            traced(21, "head", 0.9, 300, 4.2), traced(21, "base", 1.0, 300, 4.0),
            traced(22, "base", 2.0, 300, 4.0), traced(22, "head", 2.1, 300, 4.8)]
    rows = bench_pairs.layer_deltas(runs, LAYERS)["w"]
    self_s = rows["walk.survival_batch_self_s"]
    assert [p["seed"] for p in self_s["seeds"]] == [20, 21, 22]
    assert [round(p["delta"], 9) for p in self_s["seeds"]] == [0.3, -0.1, 0.1]
    assert (self_s["base"], self_s["head"], round(self_s["delta"], 9)) == (1.0, 1.3, 0.1)
    assert round(rows["brw.simulate_p50_ms"]["delta"], 9) == 0.4
    text = bench_pairs.report_layers({"w": rows}).splitlines()
    assert text[0].endswith("noise")
    assert text[1].endswith("equal")
    assert "+0.4 (+10.0%)" in text[2] and "noise" not in text[2]
    # a seed whose head run failed gives no change; the others still decide
    runs[-1]["exit"] = 1
    rows = bench_pairs.layer_deltas(runs, LAYERS)["w"]
    assert rows["walk.survival_batch_self_s"]["seeds"][2]["delta"] is None
    assert round(rows["walk.survival_batch_self_s"]["delta"], 9) == 0.1  # median of 0.3 and -0.1
    assert bench_pairs.report_layers({"w": rows}).splitlines()[1].endswith("equal")
