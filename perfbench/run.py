"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload pagerank6 --seed 1 --seconds 25 --trace 0

Untraced (``--trace 0``): set up the inputs several times and report
the median set-up time (see ``SETUP_REPEATS``); then, each in a forked
child, set up and run operations while they fit in ``--seconds`` (at
least one) and report the median operation time, the median of the
children's peak RSS and the share of operations whose output matched.
Each set-up and operation time is scaled to a reference host speed by
:class:`HostSpeed`.  Traced (``--trace 1``): one untraced operation,
then one operation under the span recorder and the stack sampler, in
this process; prints the per-layer metrics and writes the spans to
``perfbench/out/``.

The program under test is ``src/repro`` of the checkout holding this
file; nothing outside the checkout is read or written.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json"
).is_file() else {}
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
WORK = ROOT / ".perfbench-work"

#: Set-ups before the first operation, so set-up time is a median over
#: at least this many, and over at least SETUP_SECONDS when set-up is fast.
SETUP_REPEATS = (5, 25)
SETUP_SECONDS = 2.0


class HostSpeed:
    """How fast the host runs fixed interpreter work, sampled all through a run.

    A shared host's speed changes by 30-50% in bursts of a few seconds,
    and a calibration loop before or after an operation does not track
    that.  So every ``INTERVAL`` seconds a ``SIGALRM`` handler runs a
    fixed probe twice and times the second, warm pass; :meth:`timed`
    also samples once as a block starts, so a short block has a sample
    too.  The probe reads, formats, hashes and stores over about a hundred
    kilobytes of objects of its own with the garbage collector off, so
    the program under test cannot change its time, only the host can.  A
    timed block's seconds are scaled by the reference probe time over the
    *mean* probe time during the block: a burst slows the block and the
    probes taken in it alike.  The probes cost about 1.5% of a run.
    """

    INTERVAL = 0.1
    #: Median warm-pass time on the reference host (2-core x86-64 VM,
    #: Python 3.11, in a quiet period).
    REFERENCE_S = 6.0e-4

    class _Item:
        __slots__ = ("a", "b")

        def __init__(self, a: int, b: int) -> None:
            self.a, self.b = a, b

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        # The probe's objects are built once, and each pass holds only one
        # new object at a time: a probe that grew the heap would do so at
        # random points of a run and move its peak RSS.
        self._items = [self._Item(i, (i * 7) % 13) for i in range(1500)]
        self._counts = dict.fromkeys(range(97), 0)

    def _probe(self) -> int:
        counts, total = self._counts, 0
        for item in self._items:
            counts[item.a % 97] = item.a * 3 + item.b
            total += hash((item.b, str(item.a)))
        return total

    def sample(self) -> None:
        """Time one warm pass of the probe."""
        if self._busy:  # an alarm inside an explicit sample
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._probe()
            started = time.perf_counter()
            self._probe()
            self.samples.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def timed(self) -> Iterator[Timing]:
        """Time the block; the yielded :class:`Timing` is filled in at its end."""
        self.sample()
        first = len(self.samples) - 1
        timing = Timing()
        started = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - started
            timing.speed = self.REFERENCE_S / statistics.fmean(self.samples[first:])


@dataclass
class Timing:
    """One timed block: host seconds and the host's speed during it."""

    seconds: float = 0.0
    speed: float = 1.0

    @property
    def scaled(self) -> float:
        """The block's seconds at the reference host speed."""
        return self.seconds * self.speed


def _prepare_import() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    # Host parallelism and the opt-in simulation modes come from the
    # workload, never from the caller's environment.
    for name in [n for n in os.environ if n.startswith("PIC_")]:
        del os.environ[name]
    # One host thread, set before numpy loads: OpenBLAS's pool would
    # otherwise spin on the second core, so a run would time the OS
    # scheduler, as the unmeasured process pool would.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"


def load_references() -> dict[str, dict[str, str]]:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def check(workload: Any, seed: int, state: Any, result: Any,
          references: dict[str, dict[str, str]]) -> str | None:
    """None when the output is right, else why it is not."""
    from workloads import digest

    refs = references.get(workload.name, {})
    key = str(seed) if workload.seeded_reference else "*"
    if key in refs:
        got = digest(workload.summarize(state, result))
        return None if got == refs[key] else f"digest {got} != reference {refs[key]}"
    return workload.sanity(state, result)


def _timed_op(workload: Any, seed: int, references: dict, host: HostSpeed,
              recorder: Any = None, sampler: Any = None
              ) -> tuple[Timing, Timing, str | None, Any]:
    """Set up, run one operation and check it.

    Returns (set-up timing, operation timing, error or None, operation result).
    """
    with host.timed() as setup:
        state = workload.setup(seed, WORK)
    try:
        gc.collect()
        if recorder is not None:
            recorder.install()
            sampler.start()
        error = None
        result = None
        with host.timed() as op:
            try:
                result = workload.run(state)
            except Exception as exc:  # a raising operation is a failed one
                error = f"{type(exc).__name__}: {exc}"
        if recorder is not None:
            sampler.stop()
            recorder.uninstall()
        if error is None:
            error = check(workload, seed, state, result, references)
        return setup, op, error, result
    finally:
        workload.teardown(state)


def _forked_op(workload: Any, seed: int, references: dict
               ) -> tuple[Timing, Timing, str | None, int]:
    """:func:`_timed_op` in a forked child, so that every operation of a
    run starts from the same heap: in one process, operations after the
    first ran 3-7% slower on the heap the earlier ones left.

    Returns (set-up timing, operation timing, error or None, the child's
    peak RSS in KiB).
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with HostSpeed() as host:
                setup, op, error, _ = _timed_op(workload, seed, references, host)
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with os.fdopen(write_fd, "w") as pipe:
                json.dump([setup.seconds, setup.speed, op.seconds, op.speed, error,
                           rss_kib], pipe)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        report = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the operation's process ended with status {status}")
    setup_s, setup_speed, op_s, op_speed, error, rss_kib = json.loads(report)
    return Timing(setup_s, setup_speed), Timing(op_s, op_speed), error, rss_kib


def measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """The untraced run: every end-to-end metric.

    Operations run while the next one, at the median operation's time,
    would end within ``seconds`` of the first; there is always one.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    references = load_references()
    setups: list[Timing] = []
    walls: list[Timing] = []
    peaks, errors = [], []
    fewest, most = SETUP_REPEATS
    with HostSpeed() as host:
        while len(setups) < most and (
            len(setups) < fewest or sum(t.seconds for t in setups) < SETUP_SECONDS
        ):
            with host.timed() as timing:
                state = workload.setup(seed, WORK)
            setups.append(timing)
            workload.teardown(state)
            del state
    gc.collect()
    deadline = time.perf_counter() + seconds
    while not walls or (
        time.perf_counter() + statistics.median(t.seconds for t in walls) <= deadline
    ):
        setup, wall, error, rss_kib = _forked_op(workload, seed, references)
        setups.append(setup)
        walls.append(wall)
        peaks.append(rss_kib)
        if error is not None:
            errors.append(error)
            print(f"perfbench: {name} seed {seed}: {error}", file=sys.stderr)
    attempted = len(walls)
    print(f"perfbench: {name} seed {seed}: {attempted} operations, unscaled "
          + " ".join(f"{t.seconds:.3f}" for t in walls)
          + " s, host speed " + " ".join(f"x{t.speed:.3f}" for t in walls),
          file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(t.scaled for t in walls), "s"),
        "setup_s": (statistics.median(t.scaled for t in setups), "s"),
        "peak_rss_mb": (statistics.median(peaks) / 1024.0, "MB"),
        "ok_frac": ((attempted - len(errors)) / attempted, "frac"),
    }
    return _result(attempted, len(errors), metrics)


def measure_traced(name: str, seed: int) -> dict[str, Any]:
    """The traced run: every per-layer metric."""
    from layers import Recorder, Sampler
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    references = load_references()
    recorder, sampler = Recorder(), Sampler()
    with HostSpeed() as host:
        _, untraced, error_a, _ = _timed_op(workload, seed, references, host)
        _, traced, error_b, result = _timed_op(
            workload, seed, references, host, recorder, sampler
        )
    errors = [e for e in (error_a, error_b) if e is not None]
    for error in errors:
        print(f"perfbench: {name} seed {seed}: {error}", file=sys.stderr)
    values = recorder.metrics(result, untraced.scaled)
    values.update(sampler.shares())
    values["trace.overhead_frac"] = traced.scaled / untraced.scaled - 1.0
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{name}-seed{seed}.json", untraced.scaled, traced.scaled)
    units = {m["name"]: m["unit"] for m in SPEC.get("per_layer", [])}
    metrics = {k: (v, units.get(k, "")) for k, v in values.items()}
    return _result(2, len(errors), metrics)


def _result(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC.get("run_seconds", 25))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare_import()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    try:
        if args.trace:
            result = measure_traced(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
