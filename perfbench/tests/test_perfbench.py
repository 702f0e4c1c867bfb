"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q

Each workload runs one untraced and one traced pass at a seed that has a
reference.  The untraced pass runs under the speed clock's ticks and the
traced pass under the wrappers; both must give the reference's result fields
(neither perturbs draw order), every layer a workload exercises must record
calls, and the layers predicted idle must record none.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import signal
import time

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speedclock  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
from disasterbrw import cli  # noqa: E402

SEED = 1

# Call counters that must be positive (active) or zero (idle) per workload,
# as predicted in perfbench/README.md.
ACTIVE = {
    "walk-lyapunov": ["walk.survival_batch_calls", "env.sites_materialized",
                      "rng.derive_seed_calls", "gw_embed.phase_classify_calls", "cli.records"],
    "big-trees": ["brw.simulate_calls", "brw.log_events", "rng.particle_draws",
                  "env.point_queries", "percolation.detect_calls", "cli.records"],
    "small-trees": ["brw.simulate_calls", "rng.particle_draws", "rng.derive_seed_calls",
                    "env.point_queries", "env.sites_materialized", "walk.survival_batch_calls",
                    "boxes.exit_counts_calls", "cli.records"],
}
IDLE = {
    "walk-lyapunov": ["brw.simulate_calls", "rng.particle_draws", "env.point_queries",
                      "percolation.detect_calls", "boxes.exit_counts_calls"],
    "big-trees": ["walk.survival_batch_calls", "boxes.exit_counts_calls"],
    "small-trees": ["percolation.detect_calls", "gw_embed.phase_classify_calls"],
}


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def passes(request, tmp_path_factory):
    workload = request.param
    invs = run.invocations(workload, SEED)
    out = tmp_path_factory.mktemp(workload)
    _, plain, plain_errors = run.run_pass(cli.main, invs, out)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced, traced_errors = run.run_pass(cli.main, invs, out, tracer=tracer)
    finally:
        tracer.uninstall()
    assert not plain_errors and not traced_errors
    return workload, plain, traced, tracer.layer_metrics(1)


def test_traced_run_gives_identical_results(passes):
    workload, plain, traced, _ = passes
    assert traced == plain
    reference = run.load_reference(workload, SEED)
    assert reference is not None, "seed has no recorded reference"
    for name, fields in reference.items():
        assert run.mismatch(fields, plain[name]) is None, name


def test_active_layers_record_calls_and_idle_layers_none(passes):
    workload, _, _, layer = passes
    assert {k: layer[k] for k in ACTIVE[workload] if layer[k] <= 0} == {}
    assert {k: layer[k] for k in IDLE[workload] if layer[k] != 0} == {}


def test_tracer_restores_every_entry_point():
    from disasterbrw import brw, env, percolation

    before = (brw.simulate, percolation.simulate, env.DisasterField.first_disaster_after)
    tracer = Tracer()
    tracer.install()
    assert percolation.simulate is brw.simulate is not before[0]
    tracer.uninstall()
    assert (brw.simulate, percolation.simulate, env.DisasterField.first_disaster_after) == before


def test_speed_clock_ticks_and_disarms():
    with speedclock.SpeedClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 4 * speedclock.INTERVAL:
            sum(range(1000))
    assert len(clock.samples) >= 4  # one at each end and at least two ticks
    assert 0 < clock.wall_s <= time.perf_counter() - t0
    assert clock.norm_s > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_mismatch_compares_fields_not_columns():
    want = [{"value": "0.5", "std_err": "0.1"}]
    assert run.mismatch(want, [{"value": "0.5", "std_err": "0.1", "new_column": "7"}]) is None
    assert run.mismatch(want, [{"value": "0.50000000000000011", "std_err": "0.1"}])
    assert run.mismatch(want, [{"value": "0.5"}])
    assert run.mismatch(want, [])


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    layer = tracer.layer_metrics(1)
    layer.update({"walk.uncensored_frac": 0.0, "trace.wall_s": 0.0, "trace.overhead_s": 0.0})
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "small-trees",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
