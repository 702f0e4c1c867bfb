import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_norm_s", "unit": "s", "better": "lower"},
           {"name": "walkers_per_s", "unit": "1/s", "better": "higher"}]


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
