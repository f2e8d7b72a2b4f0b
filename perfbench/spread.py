"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload verify-aes --seeds 10 [--out FILE]

For every end-to-end metric this prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the inter-quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  `--out` merges the summary into a JSON file keyed by
workload; `perfbench/baseline.json` was written this way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = measure.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": measure.relative_spread(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))

    summary = {}
    worst = 0.0
    for workload in args.workload:
        runs = [run_once(workload, s) for s in seeds]
        rows = {}
        print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}")
        for name, bound in bounds.items():
            row = summarize([r["metrics"][name]["value"] for r in runs])
            rows[name] = row
            share = row["spread"] / bound
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:<20} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {bound} "
                  f"({share:.2f} of bound)")
        summary[workload] = {"seeds": seeds, "metrics": rows}
    print(f"largest spread, setup_s aside: {worst:.2f} of its bound")

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc.setdefault("workloads", {}).update(summary)
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
