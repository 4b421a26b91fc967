"""Per-layer measurement for the traced run: a span recorder around each
layer's public entry points and a stdlib stack sampler.

Nothing here is imported by an untraced run.  The recorder patches each
entry point in its defining class or module and in every module that
imported the name, records spans (name, parent, start, end) in memory,
and restores the originals on :meth:`Recorder.uninstall`.  A layer's
self time is its spans' duration minus the time covered by child spans.
Exact counts come from the program's public counters, read once at the
end: ``Simulation.events_processed``/``events_cancelled``,
``NodeMemoryCache.snapshot()``, ``ResourceManager.containers_granted``
and ``TrafficMeter.snapshot()``; job and map-task counts come from each
job's dataset (one map task per split).

The sampler is ``signal.setitimer(ITIMER_PROF)`` plus a frame walk,
not cProfile: cProfile charges every Python call, which inflates
layers made of many small calls (it once put ``num_records`` at 44% of
a run whose real share was about 4%).
"""

from __future__ import annotations

import functools
import inspect
import json
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

#: Spans kept for the written trace; aggregates stay exact past the cap.
MAX_SPANS = 20_000


class Patcher:
    """Replaces attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new``; for a module-level function, also in
        every loaded module that imported it by name."""
        old = owner.__dict__[attr]
        owners = [owner]
        if inspect.ismodule(owner):
            owners += [
                m for m in list(sys.modules.values())
                if m is not None and m is not owner
                and getattr(m, "__dict__", {}).get(attr) is old
            ]
        for target in owners:
            self._saved.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, new)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._saved:
            target, attr, old = self._saved.pop()
            setattr(target, attr, old)


class Recorder:
    """Spans around the layers' public entry points."""

    def __init__(self) -> None:
        self._patcher = Patcher()
        self._stack: list[list[Any]] = []  # [id, name, layer, start, child s]
        self._ids = 0
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.job_ms: list[float] = []
        self.sim_wait: dict[str, list[float]] = defaultdict(list)
        self.objects: dict[str, dict[int, Any]] = defaultdict(dict)
        self._t0 = time.perf_counter()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str, collapse: bool = False,
              consume: bool = False, hook: Callable | None = None,
              pre: Callable | None = None) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``collapse``: a call made while a span of the same layer is open
        (recursion, helpers) is counted but not spanned.  ``consume``:
        ``fn`` returns an iterator whose iteration is the work.
        ``hook(args, kwargs, result, seconds)`` reads counts from the call;
        ``pre(args, kwargs)`` may rewrite the arguments.
        """
        stack, calls = self._stack, self.calls

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            calls[name] += 1
            if collapse and stack and stack[-1][2] == layer:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            self._ids += 1
            frame = [self._ids, name, layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    result = list(result)
            finally:
                end = time.perf_counter()
                stack.pop()
                seconds = end - frame[3]
                if stack:
                    stack[-1][4] += seconds
                self.self_s[name] += seconds - frame[4]
                self.total_s[name] += seconds
                if len(self.spans) < MAX_SPANS:
                    parent = stack[-1][0] if stack else 0
                    self.spans.append((frame[0], parent, name, frame[3], end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(args, kwargs, result, seconds)
            return result

        return span

    def _patch(self, owner: Any, attr: str, name: str, layer: str, **kw: Any) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self._wrap(raw.__func__, name, layer, **kw))
        elif isinstance(raw, property):
            new = property(self._wrap(raw.fget, name, layer, **kw))
        else:
            new = self._wrap(raw, name, layer, **kw)
        self._patcher.replace(owner, attr, new)

    def _register(self, kind: str) -> Callable:
        def hook(args: Any, kwargs: Any, result: Any, seconds: float) -> None:
            self.objects[kind][id(args[0])] = args[0]
        return hook

    def _waited(self, kind: str, arg: str, fn: Callable, node_of: Callable) -> Callable:
        """``pre`` that times a request from submission to grant on the
        simulated clock and notes whether the grant was on a preferred node."""
        signature = inspect.signature(fn)

        def pre(args: tuple, kwargs: dict) -> tuple[tuple, dict]:
            bound = signature.bind(*args, **kwargs)
            owner = bound.arguments["self"]
            self.objects[kind][id(owner)] = owner
            sim = owner.cluster.sim
            asked = sim.now
            preferred = tuple(bound.arguments.get("preferred", ()))
            granted = bound.arguments[arg]

            def on_grant(grant: Any) -> None:
                self.sim_wait[kind].append(sim.now - asked)
                if node_of(grant) in preferred:
                    self.counts[f"{kind}.local"] += 1
                granted(grant)

            bound.arguments[arg] = on_grant
            return bound.args, bound.kwargs

        return pre

    def install(self) -> None:
        """Patch every measured entry point (call after the workload's
        set-up, so its program classes are loaded)."""
        from repro.cluster.cache import NodeMemoryCache
        from repro.cluster.cluster import Cluster
        from repro.cluster.events import Simulation
        from repro.dfs.dfs import DistributedFileSystem
        from repro.lint import module as lint_module
        from repro.lint.project import analysis as lint_analysis
        from repro.lint.project import ir as lint_ir
        from repro.lint.rules import ProjectRule, all_rules
        from repro.mapreduce.columnar import ColumnBatch
        from repro.mapreduce.records import DistributedDataset
        from repro.mapreduce.runner import JobRunner
        from repro.mapreduce.scheduler import SlotScheduler
        from repro.pic import engine as pic_engine
        from repro.pic import runner as pic_runner
        from repro.pic.api import PICProgram
        from repro.util import sizing
        from repro.yarn.rm import ResourceManager

        p = self._patch
        p(pic_runner, "run_ic_baseline", "pic.ic", "pic")
        p(pic_runner.PICRunner, "run", "pic.run", "pic")
        p(pic_engine.BestEffortEngine, "run", "pic.be", "pic")

        programs, todo = [], [PICProgram]
        while todo:
            cls = todo.pop()
            programs.append(cls)
            todo.extend(cls.__subclasses__())
        for method in ("partition", "solve_in_memory", "merge", "build_model",
                       "model_bytes"):
            for cls in programs:
                if method in cls.__dict__:
                    p(cls, method, f"apps.{method}", "apps")

        def sized(args: Any, kwargs: Any, result: Any, seconds: float) -> None:
            records = args[0]
            self.counts["sizing.records"] += len(records) if hasattr(records, "__len__") else 0

        p(sizing, "sizeof_records", "sizing.sizeof_records", "sizing", collapse=True,
          hook=sized)
        p(sizing, "sizeof_record", "sizing.sizeof_record", "sizing", collapse=True,
          hook=lambda *_: self.counts.update(["sizing.records"]))
        p(sizing, "sizeof_value", "sizing.sizeof_value", "sizing", collapse=True)

        def batched(args: Any, kwargs: Any, result: Any, seconds: float) -> None:
            self.counts["columnar.from_rows_rows"] += len(args[1])

        p(ColumnBatch, "from_rows", "columnar.from_rows", "columnar", hook=batched)
        p(ColumnBatch, "to_rows", "columnar.to_rows", "columnar")
        p(DistributedDataset, "num_records", "records.num_records", "records")
        p(DistributedDataset, "materialize", "records.materialize", "records")

        def jobs(args: Any, kwargs: Any, result: Any, seconds: float) -> None:
            if isinstance(result, list):  # run_many(submissions)
                submissions = args[1] if len(args) > 1 else kwargs["submissions"]
                datasets = [s[1] for s in submissions]
            else:  # run(spec, dataset, ...)
                datasets = [args[2] if len(args) > 2 else kwargs["dataset"]]
            self.job_ms.extend([1e3 * seconds / len(datasets)] * len(datasets))
            self.counts["runner.jobs"] += len(datasets)
            self.counts["runner.map_tasks"] += sum(len(d.splits) for d in datasets)

        p(JobRunner, "run", "runner.run", "runner", hook=jobs)
        p(JobRunner, "run_many", "runner.run_many", "runner", hook=jobs)

        p(SlotScheduler, "request", "scheduler.request", "scheduler",
          pre=self._waited("scheduler", "callback", SlotScheduler.request,
                           lambda node: node))
        p(SlotScheduler, "release", "scheduler.release", "scheduler")
        p(ResourceManager, "request", "rm.request", "rm",
          pre=self._waited("rm", "callback", ResourceManager.request,
                           lambda container: container.node_id))
        p(ResourceManager, "try_allocate_on", "rm.try_allocate_on", "rm",
          hook=self._register("rm"))
        p(ResourceManager, "release", "rm.release", "rm")

        p(Cluster, "transfer", "flows.transfer", "flows", hook=self._register("cluster"))
        p(Cluster, "transfer_batch", "flows.transfer_batch", "flows",
          hook=self._register("cluster"))
        p(Simulation, "run", "events.run", "events", hook=self._register("sim"))
        p(Simulation, "run_until", "events.run_until", "events",
          hook=self._register("sim"))
        p(NodeMemoryCache, "lookup", "cache.lookup", "cache", hook=self._register("cache"))
        p(DistributedFileSystem, "write", "dfs.write", "dfs")
        p(DistributedFileSystem, "read", "dfs.read", "dfs")
        p(DistributedFileSystem, "read_block", "dfs.read_block", "dfs")

        p(lint_module.LintModule, "from_bytes", "lint.from_bytes", "lint.parse")
        p(lint_ir, "build_module_ir", "lint.build_module_ir", "lint.parse")
        seen: set[tuple[type, str]] = set()
        for rule in all_rules():
            method = "check_project" if isinstance(rule, ProjectRule) else "check"
            owner = next(c for c in type(rule).__mro__ if method in c.__dict__)
            if (owner, method) not in seen:
                seen.add((owner, method))
                layer = "lint.project" if method == "check_project" else "lint.file_rules"
                p(owner, method, f"lint.{method}", layer, consume=True)
        p(lint_analysis.ProjectAnalysis, "__init__", "lint.analysis", "lint.project")

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        self._patcher.restore()

    # -- results ---------------------------------------------------------

    def _self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def _calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def metrics(self, result: Any, untraced_wall: float) -> dict[str, float]:
        """Every per-layer metric except the sampler's shares.

        ``result`` is the traced operation's output; ``untraced_wall``
        the same operation's untraced time (the rate base for events).
        """
        m: dict[str, float] = {}
        # pic: inclusive phase times, so the split sums to the comparison.
        m["pic.ic_s"] = self.total_s["pic.ic"]
        m["pic.be_s"] = self.total_s["pic.be"]
        m["pic.topoff_s"] = self.total_s["pic.run"] - self.total_s["pic.be"]
        pic = getattr(result, "pic", None)
        m["pic.ic_iters"] = result.ic.iterations if pic else 0
        m["pic.be_rounds"] = pic.be_iterations if pic else 0
        m["pic.local_iters"] = (
            sum(sum(r) for r in pic.best_effort.local_iterations_by_round) if pic else 0
        )
        m["pic.topoff_iters"] = pic.topoff_iterations if pic else 0

        for method, key in (("partition", "partition_s"), ("solve_in_memory", "solve_s"),
                            ("merge", "merge_s"), ("build_model", "build_model_s"),
                            ("model_bytes", "model_bytes_s")):
            m[f"apps.{key}"] = self.self_s[f"apps.{method}"]
        m["apps.model_bytes_calls"] = self.calls["apps.model_bytes"]

        m["sizing.s"] = self._self("sizing.")
        m["sizing.calls"] = self._calls("sizing.")
        m["sizing.records"] = self.counts["sizing.records"]

        rows, batches = self.counts["columnar.from_rows_rows"], self.calls["columnar.from_rows"]
        m["columnar.from_rows_s"] = self.self_s["columnar.from_rows"]
        m["columnar.from_rows_rows"] = rows
        m["columnar.batches"] = batches
        m["columnar.rows_per_batch"] = rows / batches if batches else 0.0

        m["records.num_records_calls"] = self.calls["records.num_records"]
        m["records.num_records_s"] = self.self_s["records.num_records"]

        m["runner.s"] = self._self("runner.")
        m["runner.jobs"] = self.counts["runner.jobs"]
        m["runner.job_ms_p50"] = statistics.median(self.job_ms) if self.job_ms else 0.0
        m["runner.map_tasks"] = self.counts["runner.map_tasks"]

        grants = len(self.sim_wait["scheduler"])
        m["scheduler.s"] = self._self("scheduler.")
        m["scheduler.requests"] = self.calls["scheduler.request"]
        m["scheduler.wait_sim_s"] = sum(self.sim_wait["scheduler"])
        m["scheduler.local_frac"] = self.counts["scheduler.local"] / grants if grants else 0.0

        m["rm.s"] = self._self("rm.")
        m["rm.requests"] = self.calls["rm.request"]
        m["rm.grants"] = sum(rm.containers_granted for rm in self.objects["rm"].values())
        m["rm.wait_sim_s"] = sum(self.sim_wait["rm"])

        meters = [c.meter.snapshot() for c in self.objects["cluster"].values()]
        flows = [f for snap in meters for f in snap.values()]
        m["flows.started"] = sum(f["transfers"] for f in flows)
        m["flows.bytes"] = sum(f["total_bytes"] for f in flows)
        m["flows.core_bytes"] = sum(f["core_bytes"] for f in flows)

        sims = list(self.objects["sim"].values())
        processed = sum(s.events_processed for s in sims)
        m["events.processed"] = processed
        m["events.cancelled"] = sum(s.events_cancelled for s in sims)
        m["events.per_wall_s"] = processed / untraced_wall

        stats = [c.snapshot() for c in self.objects["cache"].values()]
        hits, misses = sum(s.hits for s in stats), sum(s.misses for s in stats)
        m["cache.hits"] = hits
        m["cache.misses"] = misses
        m["cache.evictions"] = sum(s.evictions for s in stats)
        m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

        m["dfs.s"] = self._self("dfs.")
        m["dfs.writes"] = self.calls["dfs.write"]
        m["dfs.reads"] = self.calls["dfs.read"] + self.calls["dfs.read_block"]

        lint = result if hasattr(result, "files_checked") else None
        m["lint.files"] = lint.files_checked if lint else 0
        m["lint.parse_s"] = self._self("lint.from_bytes") + self._self("lint.build_module_ir")
        m["lint.file_rules_s"] = self.self_s["lint.check"]
        m["lint.project_s"] = self.self_s["lint.analysis"] + self.self_s["lint.check_project"]
        m["lint.findings"] = len(lint.findings) if lint else 0
        return {k: float(v) for k, v in m.items()}

    def write(self, path: Path, untraced_wall: float, traced_wall: float) -> None:
        """Write the spans and per-name aggregates as JSON."""
        names = sorted(self.total_s)
        path.write_text(json.dumps({
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "aggregates": {
                n: {"calls": self.calls[n], "total_s": self.total_s[n],
                    "self_s": self.self_s[n]}
                for n in names
            },
            "spans_dropped": self.dropped,
            "spans": [
                {"id": i, "parent": parent, "name": name,
                 "start_s": start - self._t0, "end_s": end - self._t0}
                for i, parent, name, start, end in self.spans
            ],
        }))


#: Module prefix -> sampler bucket; first match wins.
SHARE_BUCKETS = (
    ("repro.apps.", "apps"),
    ("repro.pic.", "pic"),
    ("repro.mapreduce.columnar", "mapreduce.columnar"),
    ("repro.mapreduce.runner", "mapreduce.runner"),
    ("repro.mapreduce.scheduler", "mapreduce.scheduler"),
    ("repro.mapreduce.records", "mapreduce.records"),
    ("repro.util.sizing", "util.sizing"),
    ("repro.cluster.flows", "cluster.flows"),
    ("repro.cluster.events", "cluster.events"),
    ("repro.cluster.cache", "cluster.cache"),
    ("repro.yarn.", "yarn"),
    ("repro.dfs.", "dfs"),
    ("repro.lint.project.", "lint.project"),
    ("repro.lint.", "lint"),
)


class Sampler:
    """``ITIMER_PROF`` stack sampler: the innermost ``repro`` frame's layer.

    Samples taken in the recorder's own wrappers (before any ``repro``
    frame) are its overhead and are left out of the shares.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self.samples: Counter[str] = Counter()
        self._bucket_of: dict[Any, str | None] = {}

    def _bucket(self, code: Any, module: str) -> str | None:
        bucket = self._bucket_of.get(code, "?")
        if bucket == "?":
            bucket = None
            if module == __name__:
                bucket = "trace"
            elif module.startswith("repro."):
                bucket = next((b for p, b in SHARE_BUCKETS if module.startswith(p)), "other")
            self._bucket_of[code] = bucket
        return bucket

    def _on_sample(self, signum: int, frame: Any) -> None:
        while frame is not None:
            bucket = self._bucket(frame.f_code, frame.f_globals.get("__name__", ""))
            if bucket is not None:
                self.samples[bucket] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def shares(self) -> dict[str, float]:
        counted = sum(n for b, n in self.samples.items() if b != "trace")
        buckets = [b for _, b in SHARE_BUCKETS] + ["other"]
        return {
            f"share.{b}": self.samples[b] / counted if counted else 0.0 for b in buckets
        }
