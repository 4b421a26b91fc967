"""Freeze the reference output digests the benchmark checks against.

    python3 perfbench/freeze.py --workload pagerank6 --seeds 0-15

Runs one operation per seed and stores the digest of its outputs in
``perfbench/references.json``.  Run it only on the commit whose outputs
are the reference: a later commit must reproduce them bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0", help="e.g. 3 or 0-15")
    args = parser.parse_args(argv)
    run._prepare_import()
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    if not workload.seeded_reference:
        seeds = seeds[:1]
    references = run.load_references()
    frozen = references.setdefault(workload.name, {})
    for seed in seeds:
        state = workload.setup(seed, run.WORK)
        try:
            started = time.perf_counter()
            result = workload.run(state)
            wall = time.perf_counter() - started
            error = workload.sanity(state, result)
            if error is not None:
                print(f"seed {seed}: {error}", file=sys.stderr)
                return 1
            key = str(seed) if workload.seeded_reference else "*"
            frozen[key] = digest(workload.summarize(state, result))
            print(f"{workload.name} {key} {frozen[key]} {wall:.2f}s", flush=True)
        finally:
            workload.teardown(state)
    references[workload.name] = dict(sorted(frozen.items(), key=lambda kv: kv[0]))
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
