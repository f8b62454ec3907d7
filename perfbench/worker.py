"""One benchmark run in a fresh process: set up, run passes, check outputs.

Started by run.py, never by hand.  Prints one JSON object as the last line
of its standard output; everything else goes to standard error.

Untraced: passes repeat while another fits in ``--seconds`` (at least one).
Its times are scaled to a reference host speed by ``SpeedProbe``.
Traced: the workload's first ``trace_passes`` passes untraced, then the
same passes again with the span recorder installed; the difference in
their wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GARSIDE_STAGES = (
    "enumerate_group",
    "complete_garside",
    "garside_reduction_part",
    "validate_collapsible",
    "homotopical_reduce",
    "artin_tail",
)


class SpeedProbe:
    """How fast this host runs Python right now.

    The host is shared: a fixed loop runs at anywhere from 1.0 to 1.65 times
    its best time, changing from second to second.  A 20 ms interval timer
    therefore runs a fixed integer loop in the main thread and records its
    duration; the time spent in the probe is excluded from the work it
    interrupts.  ``factor`` turns a time measured over some samples into
    the time at the reference speed, REFERENCE_S per probe.
    """

    REFERENCE_S = 0.0003
    INTERVAL_S = 0.02
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        s = 0
        for i in range(3000):
            s += (i * i) & 1023
        done = time.perf_counter()
        self.samples.append(done - t)
        self.spent += done - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def factor(self, since: tuple[int, float], until=None, fallback: float = 1.0) -> float:
        end = None if until is None else until[0]
        window = self.samples[since[0] : end]
        if len(window) < self.MIN_SAMPLES:
            return fallback
        return self.REFERENCE_S / statistics.fmean(window)


class NoProbe:
    """Stands in for the probe on traced runs: raw times."""

    def mark(self) -> tuple[int, float]:
        return 0, 0.0

    def factor(self, since, until=None, fallback: float = 1.0) -> float:
        return 1.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_pass(wl, k: int, rec, probe) -> dict:
    """Time one pass of jobs, then check each job's output untimed.

    Times exclude the probe's own time and are scaled by its factor: a
    job's own samples when it has enough, else the whole pass's.
    """
    jobs = wl.jobs(k, rec)
    results, spans = [], []
    with rec.installed():
        pass_mark = probe.mark()
        t0 = time.perf_counter()
        for job in jobs:
            rec.begin_job()
            job_mark = probe.mark()
            tj = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception:
                out, err = None, traceback.format_exc(limit=4)
            spans.append((time.perf_counter() - tj, job_mark, probe.mark()))
            results.append((out, err))
        wall = time.perf_counter() - t0 - (probe.mark()[1] - pass_mark[1])
    pass_factor = probe.factor(pass_mark)
    job_times = [
        (dt - (end[1] - begin[1])) * probe.factor(begin, end, pass_factor)
        for dt, begin, end in spans
    ]
    problems, stages = [], []
    failed = 0
    for job, (out, err) in zip(jobs, results):
        found = [err] if err is not None else []
        if err is None:
            try:
                found = job.check(out)
            except Exception:
                found = [traceback.format_exc(limit=4)]
            if isinstance(out, dict) and "stages" in out:
                stages.append(out["stages"])
        if found:
            failed += 1
            problems += [f"{wl.name} job {job.label}: {p}" for p in found]
    return {
        "wall": wall * pass_factor,
        "raw_wall": wall,
        "job_times": job_times,
        "attempted": len(jobs),
        "failed": failed,
        "problems": problems,
        "stages": stages,
    }


def untraced(wl, seconds: float, null, probe) -> dict:
    """Passes, checks included, until another one would overrun ``seconds``."""
    passes = []
    start = last = time.perf_counter()
    while not passes or (time.perf_counter() - start) + (time.perf_counter() - last) <= seconds:
        last = time.perf_counter()
        passes.append(run_pass(wl, len(passes), null, probe))
    job_times = [t for p in passes for t in p["job_times"]]
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_p50_ms": 1000 * percentile(job_times, 0.5),
        "job_p90_ms": 1000 * percentile(job_times, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out = _summary(passes, metrics)
    out["raw_pass_s"] = [p["raw_wall"] for p in passes]
    out["scaled_pass_s"] = [p["wall"] for p in passes]
    return out


def traced(wl, spans_file: Path, null, rec) -> dict:
    """The workload's first ``trace_passes`` passes untraced, then again traced."""
    base = [run_pass(wl, k, null, NoProbe()) for k in range(wl.trace_passes)]
    again = [run_pass(wl, k, rec, NoProbe()) for k in range(wl.trace_passes)]
    metrics = rec.metrics()
    untraced_s = sum(p["wall"] for p in base)
    traced_s = sum(p["wall"] for p in again)
    metrics["trace.untraced_wall_s"] = untraced_s
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    for stage in GARSIDE_STAGES:
        times = [s[stage] for p in base for s in p["stages"]]
        metrics[f"stage.{stage}.s"] = statistics.median(times) if times else 0.0
    rec.write(spans_file)
    return _summary(base + again, metrics)


def _summary(passes: list[dict], metrics: dict) -> dict:
    return {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": [q for p in passes for q in p["problems"]][:20],
        "passes": len(passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args(argv)
    probe = SpeedProbe()
    probe.start()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import polycox

    if src.resolve() not in Path(polycox.__file__).resolve().parents:
        print(f"polycox was imported from {polycox.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    work_dir = args.out_dir / f"work-{os.getpid()}"
    stdout = sys.stdout
    try:
        with contextlib.redirect_stdout(sys.stderr):
            wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
            wl.setup()
            setup_s = time.monotonic() - args.spawned_at
            raw_setup_s = setup_s
            if not args.trace:
                setup_s *= probe.factor((0, 0.0))
            if args.setup_only:
                result = {}
            elif args.trace:
                probe.stop()
                spans = args.out_dir / f"spans-{args.workload}-{args.seed}.json.gz"
                result = traced(wl, spans, tracer.NullRecorder(), tracer.Recorder())
            else:
                result = untraced(wl, args.seconds, tracer.NullRecorder(), probe)
            result["setup_s"] = setup_s
            result["raw_setup_s"] = raw_setup_s
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), file=stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
