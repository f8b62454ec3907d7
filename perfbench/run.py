"""polycox benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

The first form runs one workload and prints, as the last line of standard
output, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1.  Every run happens in a fresh worker process (worker.py), one
at a time; set-up is measured in that process and in four more that only
set up, and setup_s is their median.  Untraced times are scaled to a
reference host speed (see worker.SpeedProbe); the unscaled pass and set-up
times are printed above the result line.  --all runs every workload both
ways and prints one table; --selftest runs every workload on tiny inputs.

Only files inside the checkout are read or written: scratch files and
span dumps go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
RUN_DEADLINE_S = 170
SETUP_SAMPLES = 5

# base of each per-layer ratio
RATIO_BASES = {
    "paths.normalize.memo_hit_ratio": "paths.normalize.calls",
    "paths.normalize_path.repeat_ratio": "paths.normalize_path.calls",
    "completion.overlap_recompute_ratio": "completion.branchings_final",
    "garside.alpha_path.repeat_ratio": "garside.alpha_path.calls",
    "garside.parabolic_type_repeat_ratio": "garside.parabolics_finite",
}
# ROADMAP baseline row for A3, single process
A3_BASELINE_S = {
    "complete_garside": 0.95,
    "garside_reduction_part": 4.5,
    "validate_collapsible": 2.6,
    "homotopical_reduce": 0.07,
}


class RunError(Exception):
    pass


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(started)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"worker did not finish before the deadline: {args}")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {args}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"worker printed no result: {args}")
    return json.loads(lines[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (ROOT / "src" / "polycox" / "__init__.py").is_file():
        raise RunError(f"no polycox sources under {ROOT / 'src'}")
    names = spec()["end_to_end" if trace == 0 else "per_layer"]
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    args = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", str(OUT_DIR),
    ] + (["--tiny"] if tiny else [])  # fmt: skip
    res = spawn(args, deadline)
    values = dict(res["metrics"])
    if trace == 0:
        setups = [res]
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args + ["--setup-only"], deadline))
        values["setup_s"] = statistics.median(r["setup_s"] for r in setups)
        print(
            f"{workload:13} unscaled: passes {[round(x, 3) for x in res['raw_pass_s']]} s, "
            f"set-up {[round(r['raw_setup_s'], 3) for r in setups]} s"
        )
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise RunError(f"worker did not report {missing}")
    for problem in res["problems"]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    return {
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_metrics(workload: str, res: dict) -> None:
    metrics = res["metrics"]
    for name, m in metrics.items():
        note = ""
        if name in RATIO_BASES:
            base = RATIO_BASES[name]
            note = f"  (base {base} = {_fmt(metrics[base]['value'])})"
        print(f"{workload:13} {name:44} {_fmt(m['value']):>14} {m['unit']}{note}")


def report_all(seed: int, seconds: float) -> int:
    ok = True
    for w in spec()["workloads"]:
        name = w["name"]
        e2e = run_one(name, seed, seconds, 0)
        layers = run_one(name, seed, seconds, 1)
        ok &= e2e["correct"] and layers["correct"]
        fail_ratio = e2e["failed"] / e2e["attempted"]
        print(f"== {name}: attempted {e2e['attempted']}, failed {e2e['failed']}")
        print(f"{name:13} {'fail_ratio':44} {_fmt(fail_ratio):>14} ratio")
        print_metrics(name, e2e)
        print_metrics(name, layers)
        if name == "garside_a3":
            print("A3 stage times, traced run's untraced pass vs ROADMAP baseline row:")
            for stage, base in A3_BASELINE_S.items():
                now = layers["metrics"][f"stage.{stage}.s"]["value"]
                print(f"  {stage:26} {now:8.3f} s   baseline {base:5.2f} s")
    return 0 if ok else 1


def selftest() -> int:
    """Every workload on tiny inputs (A2, B2, D4 and A3, rank-4 matrices),
    untraced and traced, through the same worker processes."""
    ok = True
    for w in spec()["workloads"]:
        for trace in (0, 1):
            t0 = time.monotonic()
            try:
                res = run_one(w["name"], 1, 0.1, trace, tiny=True)
                good = res["correct"] and (
                    trace == 1 or all(m["value"] > 0 for m in res["metrics"].values())
                )
            except RunError as exc:
                print(exc, file=sys.stderr)
                good = False
            ok &= good
            status = "ok" if good else "FAIL"
            print(f"selftest {w['name']:13} trace={trace}: {status} ({time.monotonic() - t0:.1f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, both runs")
    ap.add_argument("--selftest", action="store_true", help="tiny inputs, fast")
    args = ap.parse_args(argv)
    try:
        if args.selftest:
            return selftest()
        seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
        if args.all:
            return report_all(args.seed, seconds)
        if not args.workload:
            ap.error("give --workload, --all or --selftest")
        res = run_one(args.workload, args.seed, seconds, args.trace)
    except (RunError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print_metrics(args.workload, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
