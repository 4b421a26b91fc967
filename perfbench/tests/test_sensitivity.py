"""Sensitivity check: a slowdown injected into one layer is flagged on
the workload that exercises the layer and nowhere else.

    python3 perfbench/tests/test_sensitivity.py      # about 4 minutes

A fixed loop of interpreter work added to every ``SlotScheduler.request``
call is sized so that, in total, it costs half of an untraced
``smoothing128`` operation.  It is work, not a wait on the clock, so the
benchmark's host-speed scaling treats it as it treats the program's own.
The benchmark's comparison must then report ``wall_s`` on
``smoothing128`` as worse than its bound. The same per-call work must
leave ``pagerank6`` within its bound: PageRank on six nodes makes a few
hundred slot requests, against tens of thousands on 128 nodes.

The injected cost is 50%, not 30%: a 30% injection sits just above the
25% bound, and with the few percent that medians of single operations
still move from run to run, plus the error of sizing the loop (a 40%
injection once read as +31.6%), it would be flagged only some of the
time. Base and slowed runs alternate, so
slow drift of the host hits both sides.
"""

from __future__ import annotations

import functools
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
from layers import Patcher  # noqa: E402

SLOWDOWN = 0.50
SEED = 1


def _spin(n: int) -> None:
    for _ in range(n):
        pass


def _spins_per_second() -> float:
    """Loop iterations per second at the benchmark's reference host speed."""
    n = 5_000_000
    with run.HostSpeed() as host:
        with host.timed() as timing:
            _spin(n)
    return n / timing.scaled


class InjectedSlowdownTest(unittest.TestCase):
    def test_scheduler_slowdown_is_flagged_on_smoothing128_only(self) -> None:
        run._prepare_import()
        from repro.mapreduce.scheduler import SlotScheduler
        from workloads import WORKLOADS

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        original = SlotScheduler.request
        calls = {"n": 0}
        patcher = Patcher()

        @functools.wraps(original)
        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        # Measured operations run in forked children, so the requests are
        # counted on one operation run here.
        smoothing = WORKLOADS["smoothing128"]
        state = smoothing.setup(SEED, run.WORK)
        patcher.replace(SlotScheduler, "request", counted)
        try:
            smoothing.run(state)
        finally:
            patcher.restore()
            smoothing.teardown(state)
        requests = calls["n"]
        first = run.measure("smoothing128", SEED, 0)
        spins = round(
            SLOWDOWN * first["metrics"]["wall_s"]["value"] * _spins_per_second() / requests
        )

        @functools.wraps(original)
        def slowed(*args, **kwargs):
            _spin(spins)
            return original(*args, **kwargs)

        def measure_slowed(workload: str) -> dict:
            patcher.replace(SlotScheduler, "request", slowed)
            try:
                return run.measure(workload, SEED, 0)
            finally:
                patcher.restore()

        base = {"smoothing128": [first], "pagerank6": []}
        head: dict[str, list[dict]] = {"smoothing128": [], "pagerank6": []}
        head["smoothing128"].append(measure_slowed("smoothing128"))
        for workload in ("pagerank6", "smoothing128", "pagerank6"):
            base[workload].append(run.measure(workload, SEED, 0))
            head[workload].append(measure_slowed(workload))

        rows = {
            r.workload: r
            for r in compare.compare(base, head, spec)
            if r.metric == "wall_s"
        }
        for r in rows.values():
            print(f"{r.workload}: wall_s {r.base:.3f} -> {r.head:.3f} s "
                  f"({r.worse_by:+.1%}, bound {r.bound:.0%})")
        for side in (base, head):
            self.assertTrue(all(r["correct"] for runs in side.values() for r in runs))
        self.assertTrue(rows["smoothing128"].worse)
        self.assertFalse(rows["pagerank6"].worse)


if __name__ == "__main__":
    unittest.main()
