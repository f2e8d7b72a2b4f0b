"""One benchmark child process: set up a workload, measure it, print JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

`setup` only times the set-up.  `measure` repeats passes until `--seconds`
have elapsed (at least enough passes for a p90 with ten samples beyond
it) and reports the end-to-end figures.  `trace` wraps the `pfo` entry
points, runs the set-up and one pass, writes the spans and reports the
per-layer figures.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed
import measure
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_OPS = 100  # a p90 with ten samples beyond it
TRACE_DIR = ROOT / ".perfbench"

# per-layer time metric -> span whose self time it sums
SELF_TIME_METRICS = {
    "lang.parse_s": "lang.parse",
    "ir.expand_s": "ir.expand",
    "ir.lower_s": "ir.lower",
    "exectree.build_s": "exectree.build",
    "exectree.balance_s": "exectree.balance",
    "exectree.check_s": "exectree.check",
    "layouts.layout_s": "layouts.layout",
    "transform.plan_s": "transform.plan",
    "optimize.o1_s": "optimize.o1",
    "optimize.o2_s": "optimize.o2",
    "optimize.o5_s": "optimize.o5",
    "labeling.label_s": "labeling.label",
    "interp.compile_s": "interp.compile",
    "leakage.verify_self_s": "leakage.verify",
    "contract.derive_self_s": "contract.derive",
    "contract.schedule_self_s": "contract.schedule",
    "contract.sweep_self_s": "contract.sweep",
}
# per-layer latency metric -> span whose median duration (µs) it reports
MEDIAN_US_METRICS = {
    "interp.run_us_p50": "interp.run",
    "leakage.attack_us_p50": "leakage.attack",
}
COUNTERS = ("lang.tokens", "interp.steps", "interp.trace_events")
PASS_COUNTS = (
    "exectree.blocks", "exectree.levels", "layouts.pages",
    "transform.scheduled_copy_ops", "leakage.classes",
    "contract.strategies_checked",
    "sim_steps_per_run", "sim_faults_per_run", "sim_copy_ops_per_run",
)


def load_workload(name: str, speed: hostspeed.HostSpeed):
    """Import `pfo` from this checkout and the workloads, timed by `speed`."""
    sys.path.insert(0, str(SRC))
    import pfo

    if Path(pfo.__file__).resolve().parent != (SRC / "pfo").resolve():
        raise SystemExit(f"pfo was imported from {pfo.__file__}, not from {SRC}")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"no workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def run_pass(wl, m, speed: hostspeed.HostSpeed) -> tuple[float, dict]:
    m.begin_pass()
    # every pass starts from the same heap: no garbage of the last pass
    # left for the collector to walk, and its counters reset
    gc.collect()
    t = speed.now()
    counts = wl.run_pass(m)
    seconds = speed.now() - t
    counts.update(m.sim_counts())
    return seconds, {k: counts.get(k, 0) for k in PASS_COUNTS}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cmd_setup(cls, seed: int, speed, t_start: float) -> dict:
    cls(seed)
    return {"setup_s": speed.now() - t_start}


def cmd_measure(cls, seed: int, speed, t_start: float, seconds: float) -> dict:
    from workloads import Meter  # imported by load_workload

    wl = cls(seed)
    setup_s = speed.now() - t_start
    tally = measure.Tally()
    m = Meter(tally, speed.now)
    min_passes = max(2, math.ceil(MIN_OPS / wl.ops_per_pass))
    pass_seconds: list[float] = []
    first_counts = None
    t_phase = speed.now()
    wall_phase = time.perf_counter()
    while True:
        dt, counts = run_pass(wl, m, speed)
        pass_seconds.append(dt)
        if first_counts is None:
            first_counts = counts
        else:
            diff = measure.count_mismatches(first_counts, counts)
            tally.check(not diff, f"pass {len(pass_seconds)} counts differ: {diff}")
        elapsed = time.perf_counter() - wall_phase
        if (len(pass_seconds) >= min_passes
                and elapsed + statistics.median(pass_seconds) > seconds):
            break
    timed_s = speed.now() - t_phase
    wl_final = getattr(wl, "final_checks", None)
    if wl_final is not None:
        wl_final(tally)
    rss = peak_rss_mb()  # before the summaries below allocate
    samples = m.op_seconds
    return {
        "setup_s": setup_s,
        "passes": len(pass_seconds),
        "timed_s": timed_s,
        "ops": m.ops,
        "op_samples": len(samples),
        "op_unit": wl.op_unit,
        "op_tail_permille": measure.tail_permille(len(samples)),
        "kernel_slices": speed.slices,
        "slice_ms": 1e3 * speed.slice_s,
        "e2e": {
            "wall_s": statistics.median(pass_seconds),
            "ops_per_s": m.ops / timed_s,
            "op_ms_p50": 1e3 * measure.percentile(samples, 500),
            "op_ms_p90": 1e3 * measure.tail_percentile(samples, 900),
            "build_s": statistics.median(m.build_seconds),
            "first_run_s": statistics.median(m.first_run_seconds),
            "us_per_step": 1e6 * m.steady_run_seconds / m.steady_steps,
            "peak_rss_mb": rss,
            "sim_steps_per_run": first_counts["sim_steps_per_run"],
        },
        "counts": first_counts,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    }


def cmd_trace(cls, seed: int, speed) -> dict:
    from workloads import Meter  # imported by load_workload

    recorder = spans.Recorder(clock=speed.now)
    spans.instrument(recorder)
    wl = cls(seed)
    tally = measure.Tally()
    m = Meter(tally, speed.now)
    pass_s, counts = run_pass(wl, m, speed)

    self_time = recorder.self_time_by_name()
    layer = {k: self_time.get(span, 0.0) for k, span in SELF_TIME_METRICS.items()}
    for k, span in MEDIAN_US_METRICS.items():
        d = recorder.durations(span)
        layer[k] = 1e6 * measure.percentile(d, 500) if d else 0.0
    for k in COUNTERS:
        layer[k] = recorder.counters.get(k, 0)
    layer.update(counts)

    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{cls.name}-seed{seed}.json"
    recorder.write(path, {"workload": cls.name, "seed": seed})
    return {
        "pass_s": pass_s,
        "layer": layer,
        "counts": counts,
        "spans": len(recorder.names),
        "spans_file": str(path.relative_to(ROOT)),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args(argv)
    # every duration is read from this clock; set-up time counts importing pfo
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        t_start = speed.now()
        cls = load_workload(args.workload, speed)
        if args.mode == "setup":
            out = cmd_setup(cls, args.seed, speed, t_start)
        elif args.mode == "measure":
            out = cmd_measure(cls, args.seed, speed, t_start, args.seconds)
        else:
            out = cmd_trace(cls, args.seed, speed)
    finally:
        speed.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
