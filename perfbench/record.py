"""Record the reference result fields that every benchmark pass is checked against.

Usage (from the root of a checkout):

    python3 perfbench/record.py --seeds 0-19

Runs one pass of each workload per seed and merges the result fields into
``perfbench/reference/<workload>.json`` as ``{seed: {invocation: [fields of
each record]}}``.  Outputs are meant to stay identical across changes, so
re-record only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    from disasterbrw import cli

    run.REFERENCE.mkdir(exist_ok=True)
    for workload in sorted(run.WORKLOADS):
        path = run.REFERENCE / f"{workload}.json"
        table = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        for seed in range(lo, hi + 1):
            _clock, fields, errors = run.run_pass(cli.main, run.invocations(workload, seed),
                                                  run.OUT / f"record-{workload}")
            if errors:
                print(f"{workload} seed {seed}: {errors}; not recorded", file=sys.stderr)
                continue
            table[str(seed)] = fields
        table = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
