"""Benchmark of the pfo toolkit: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `pfo` is imported from its `src/`.
Each workload runs in child processes, one at a time, so that imports and
peak memory do not carry over.  With `--trace 0` the set-up is timed in
several fresh processes (the median is `setup_s`) and one more process
measures the timed phase.  With `--trace 1` an untraced process measures
as above, then a traced process records spans over the set-up and one
pass; the per-layer metrics come from those spans, and the tracing
overhead is the traced pass minus the untraced median pass.

Times are reported at reference host speed: every process interleaves a
fixed kernel with its work and scales the time spent after each kernel
slice by how fast that slice ran, time in the garbage collector aside
(see `hostspeed`).  Memory and counts are not scaled.

Every output is checked; the last line of standard output is one JSON
object, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # extra fresh processes timing the set-up
CHILD_TIMEOUT_S = 170


def child(workload: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} process for {workload} exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_checkout() -> None:
    if not (ROOT / "src" / "pfo" / "__init__.py").is_file():
        raise SystemExit(f"no pfo sources under {ROOT / 'src'}; run from a checkout")


def report(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]}")


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_checkout()

    tally = measure.Tally()

    def absorb(out: dict) -> None:
        tally.merge(out["attempted"], out["failed"], out["failures"])

    if args.trace:
        measured = child(args.workload, args.seed, args.seconds, "measure")
        traced = child(args.workload, args.seed, args.seconds, "trace")
        absorb(measured)
        absorb(traced)
        # the exact counts must repeat between two processes of one seed
        diff = measure.count_mismatches(measured["counts"], traced["counts"])
        tally.check(not diff, f"untraced and traced counts differ: {diff}")
        metrics = dict(traced["layer"])
        metrics["trace.overhead_s"] = traced["pass_s"] - measured["e2e"]["wall_s"]
        wanted = spec["per_layer"]
        print(f"{args.workload} seed {args.seed}: traced pass "
              f"{traced['pass_s']:.4f} s, untraced median pass "
              f"{measured['e2e']['wall_s']:.4f} s, {traced['spans']} spans "
              f"written to {traced['spans_file']}")
    else:
        setups = [child(args.workload, args.seed, args.seconds, "setup")["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        measured = child(args.workload, args.seed, args.seconds, "measure")
        absorb(measured)
        setups.append(measured["setup_s"])
        metrics = dict(measured["e2e"])
        metrics["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
        tail = measured["op_tail_permille"]
        print(f"{args.workload} seed {args.seed}: {measured['passes']} passes in "
              f"{measured['timed_s']:.2f} s, {measured['ops']} ops "
              f"(op = {measured['op_unit']}), latency over "
              f"{measured['op_samples']} of them (highest percentile with ten "
              f"samples beyond: p{tail / 10:g}), {len(setups)} set-up samples; host "
              f"kernel slice {measured['slice_ms']:.4f} ms over "
              f"{measured['kernel_slices']} slices, times scaled piecewise to a "
              f"{1e3 * hostspeed.REF_SLICE_S:g} ms slice")

    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"metrics {missing} of BENCHMARK.json were not measured")
    report("metrics:", {k: metrics[k] for k in units}, units)
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed, "
          f"failed_frac {tally.failed_frac:.6g}")
    for f in tally.failures:
        print(f"  FAILED: {f}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
