"""Outside-in tracer for the benchmark's traced run.

The tracer wraps the package's public entry points at run time, from this
file, and leaves the package's source untouched.  A function that other
modules import by value (``simulate``, ``estimate_survival``,
``derive_seed``, ...) is rebound in every ``disasterbrw`` module that holds
it, or calls made through those copies would escape the trace.  Methods are
patched on their class.

Coarse boundaries (an invocation, ``brw.simulate``, ``walk._survival_batch``,
``percolation.detect_occupied_copy``, ``boxes.exit_counts`` and the
estimators and bulk stream reads around them) keep a full span each: name,
start, end, parent span and invocation.  Per-jump leaf calls (environment point queries and
``ParticleStream`` draws) and ``derive_seed`` keep only a call count and
self time, so memory stays bounded.  A layer's self time is its time minus
the time of the wrapped calls made inside it.

Work counts come from public return values where one exists
(``SimResult.records``, ``.events``, ``.capped``, ``.pop_counts``, the
length of the event log handed to a consumer, the records handed to
``cli.emit``).  ``env.sites_materialized`` and ``env.uniforms_generated``
read ``DisasterField._streams`` when a field is freed: they depend on that
private structure.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import weakref

# (module, attribute, stat name, keeps a span)
FUNCTIONS = [
    ("rng", "derive_seed", "rng.derive_seed", False),
    ("walk", "_survival_batch", "walk.survival_batch", True),
    ("walk", "estimate_survival", "walk.estimate_survival", True),
    ("brw", "simulate", "brw.simulate", True),
    ("gw_embed", "sample_offspring", "gw_embed.sample_offspring", True),
    ("gw_embed", "phase_classify", "gw_embed.phase_classify", True),
    ("percolation", "detect_occupied_copy", "percolation.detect", True),
    ("boxes", "exit_counts", "boxes.exit_counts", True),
    ("cli", "emit", "cli.emit", False),
]

# (module, class, method, stat name, keeps a span)
METHODS = [
    ("env", "DisasterField", "first_disaster_after", "env.point_query", False),
    ("env", "DisasterField", "disasters_in_window", "env.point_query", False),
    ("env", "DisasterField", "bulk_streams", "env.bulk_streams", True),
    ("rng", "ParticleStream", "uniform", "rng.particle_draw", False),
    ("rng", "ParticleStream", "exponential", "rng.particle_draw", False),
    ("rng", "ParticleStream", "index", "rng.particle_draw", False),
]

# Tail percentiles tried from the top; one is reported when at least ten
# calls lie beyond it.
_TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    """Wraps entry points while installed and aggregates what they report."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.spans: list[tuple] = []      # (id, name, start, end, parent, invocation)
        self.sim_ms: list[float] = []     # duration of every brw.simulate call
        self.counts = {
            "walkers": 0, "particles": 0, "log_events": 0, "capped": 0, "peak_alive": 0,
            "detect_events": 0, "exit_events": 0, "records": 0,
            "sites": 0, "uniforms": 0,
        }
        self.invocation: str | None = None
        self._stack: list[list] = []      # frames: [child_s, span id for children, name]
        self._next_span = 0
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, span: bool, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        nested_draw = name == "rng.particle_draw"

        def wrapper(*args, **kwargs):
            if nested_draw and stack and stack[-1][2] == name:
                return fn(*args, **kwargs)  # exponential -> uniform is one draw
            parent = stack[-1][1] if stack else None
            sid = parent
            if span:
                sid = self._next_span
                self._next_span += 1
            frame = [0.0, sid, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[0]
                stat[2] += dur
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans.append((sid, name, t0, t1, parent, self.invocation))
            if after is not None:
                after(args, kwargs, result, dur)
            return result

        return wrapper

    def _after_batch(self, args, kwargs, result, dur):
        self.counts["walkers"] += len(result[0])

    def _after_simulate(self, args, kwargs, result, dur):
        c = self.counts
        c["particles"] += len(result.records)
        c["log_events"] += len(result.events)
        c["capped"] += bool(result.capped)
        if len(result.pop_counts):
            c["peak_alive"] = max(c["peak_alive"], int(result.pop_counts.max()))
        self.sim_ms.append(dur * 1e3)

    def _count_log(self, key: str):
        """An `after` hook adding the length of the event log passed in."""
        def after(args, kwargs, result, dur):
            self.counts[key] += len(args[0] if args else kwargs["events"])
        return after

    def _after_emit(self, args, kwargs, result, dur):
        self.counts["records"] += len(args[0] if args else kwargs["records"])

    def _field_freed(self, streams) -> None:
        self.counts["sites"] += len(streams)
        self.counts["uniforms"] += sum(s.next_ctr for s in streams.values())

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point; warn about any the package no longer has."""
        import disasterbrw.cli  # noqa: F401  (loads every submodule)

        pkg = {n: m for n, m in sys.modules.items()
               if n == "disasterbrw" or n.startswith("disasterbrw.")}
        afters = {"walk.survival_batch": self._after_batch, "brw.simulate": self._after_simulate,
                  "percolation.detect": self._count_log("detect_events"),
                  "boxes.exit_counts": self._count_log("exit_events"), "cli.emit": self._after_emit}
        for mod_name, attr, name, span in FUNCTIONS:
            original = getattr(pkg[f"disasterbrw.{mod_name}"], attr, None)
            if original is None:
                print(f"tracer: disasterbrw.{mod_name}.{attr} not found; "
                      f"{name} reads zero", file=sys.stderr)
                continue
            wrapped = self._wrap(name, original, span, afters.get(name))
            for mod in pkg.values():  # rebind every by-value import
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)
        for mod_name, cls_name, attr, name, span in METHODS:
            cls = getattr(pkg[f"disasterbrw.{mod_name}"], cls_name)
            original = cls.__dict__.get(attr)
            if original is None:
                print(f"tracer: {cls_name}.{attr} not found; {name} reads zero", file=sys.stderr)
                continue
            self._set(cls, attr, self._wrap(name, original, span))

        field_cls = pkg["disasterbrw.env"].DisasterField
        init = field_cls.__init__

        def counted_init(fld, *args, **kwargs):
            init(fld, *args, **kwargs)
            weakref.finalize(fld, self._field_freed, fld._streams)

        self._set(field_cls, "__init__", counted_init)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        gc.collect()  # run the finalizers of fields still waiting on a cycle

    def invoke(self, label: str, fn, *args):
        """Call `fn` (the CLI entry point) as one traced invocation span."""
        self.invocation = label
        try:
            return self._wrap("invocation", fn, True)(*args)
        finally:
            self.invocation = None

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, n_passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (totals divided by `n_passes`)."""
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return self.stats.get(name, (0, 0.0, 0.0))[1] / n_passes

        def total_s(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        sims = sorted(self.sim_ms)
        p50 = _percentile(sims, 50.0) if sims else 0.0
        tail_pct = next((p for p in _TAIL_LADDER if len(sims) * (100.0 - p) / 100.0 >= 10),
                        50.0) if sims else 0.0
        tail = _percentile(sims, tail_pct) if sims else 0.0
        n_sim = calls("brw.simulate")
        return {
            "rng.particle_draws": calls("rng.particle_draw") / n_passes,
            "rng.particle_draws_self_s": self_s("rng.particle_draw"),
            "rng.derive_seed_calls": calls("rng.derive_seed") / n_passes,
            "rng.derive_seed_self_s": self_s("rng.derive_seed"),
            "env.point_queries": calls("env.point_query") / n_passes,
            "env.point_query_self_s": self_s("env.point_query"),
            "env.sites_materialized": c["sites"] / n_passes,
            "env.uniforms_generated": c["uniforms"] / n_passes,
            "env.bulk_streams_self_s": self_s("env.bulk_streams"),
            "walk.survival_batch_calls": calls("walk.survival_batch") / n_passes,
            "walk.survival_batch_self_s": self_s("walk.survival_batch"),
            "walk.walkers_per_s": rate(c["walkers"], total_s("walk.survival_batch")),
            "brw.simulate_calls": n_sim / n_passes,
            "brw.simulate_self_s": self_s("brw.simulate"),
            "brw.particles": c["particles"] / n_passes,
            "brw.particles_per_s": rate(c["particles"], total_s("brw.simulate")),
            "brw.peak_alive": c["peak_alive"],
            "brw.cap_trip_frac": c["capped"] / n_sim if n_sim else 0.0,
            "brw.simulate_p50_ms": p50,
            "brw.simulate_tail_ms": tail,
            "brw.simulate_tail_pct": tail_pct,
            "brw.log_events": c["log_events"] / n_passes,
            "gw_embed.sample_offspring_self_s": self_s("gw_embed.sample_offspring"),
            "gw_embed.phase_classify_calls": calls("gw_embed.phase_classify") / n_passes,
            "percolation.detect_calls": calls("percolation.detect") / n_passes,
            "percolation.events_scanned": c["detect_events"] / n_passes,
            "percolation.detect_self_s": self_s("percolation.detect"),
            "boxes.exit_counts_calls": calls("boxes.exit_counts") / n_passes,
            "boxes.events_scanned": c["exit_events"] / n_passes,
            "boxes.exit_counts_self_s": self_s("boxes.exit_counts"),
            "cli.records": c["records"] / n_passes,
            "cli.emit_self_s": self_s("cli.emit"),
        }

    def write(self, path) -> None:
        """Write the spans and per-name call statistics as one JSON file."""
        doc = {
            "span_fields": ["id", "name", "start", "end", "parent", "invocation"],
            "spans": self.spans,
            "stats": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                      for k, v in sorted(self.stats.items())},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
