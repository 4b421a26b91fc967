"""Compare two sets of untraced runs metric by metric, workload by workload.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds one file per run, named ``<workload>.<anything>.json``
and containing the run's last stdout line.  For every workload and every
end-to-end metric in ``BENCHMARK.json`` this prints both medians, the
change in the metric's "worse" direction as a share of the base median,
and the verdict: ``worse`` when that change exceeds the metric's bound.
Exits 1 when any pairing is worse or any run was incorrect.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Row:
    workload: str
    metric: str
    base: float
    head: float
    worse_by: float
    bound: float

    @property
    def worse(self) -> bool:
        return self.worse_by > self.bound


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Run results by workload name."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        line = path.read_text().strip().splitlines()[-1]
        runs.setdefault(path.name.split(".")[0], []).append(json.loads(line))
    return runs


def compare(base: dict[str, list[dict]], head: dict[str, list[dict]],
            spec: dict) -> list[Row]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in sorted(set(base) & set(head)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = [
                statistics.median(r["metrics"][name]["value"] for r in side[workload])
                for side in (base, head)
            ]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (medians[1] - medians[0]) / medians[0]
            rows.append(Row(workload, name, medians[0], medians[1], worse_by,
                            metric["bound"]))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, head = (load_runs(Path(a)) for a in args)
    rows = compare(base, head, spec)
    print(f"{'workload':<14} {'metric':<12} {'base':>12} {'head':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for r in rows:
        verdict = "worse" if r.worse else "ok"
        print(f"{r.workload:<14} {r.metric:<12} {r.base:>12.4f} {r.head:>12.4f} "
              f"{r.worse_by:>+9.3f} {r.bound:>6.2f}  {verdict}")
    incorrect = [
        w for side in (base, head) for w, runs in side.items()
        if not all(r["correct"] for r in runs)
    ]
    for workload in sorted(set(incorrect)):
        print(f"{workload}: a run's outputs did not match the reference")
    return 1 if incorrect or any(r.worse for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
