"""Run the benchmark once per seed and summarize each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 --out results.json

Every workload of BENCHMARK.json runs once per seed, for its `run_seconds`.
For every workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), and their distance as
a share of the median next to the bound in BENCHMARK.json.  `--trace 1`
summarizes the per-layer metrics instead.  Runs are sequential, one process
at a time, each from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write all values as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(spec, workload, seed, args.trace) for seed in args.seeds]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed {failed} of {sum(r['attempted'] for r in results)}")
        report[workload] = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            report[workload][name] = s
            bound = bounds.get(name) if not args.trace else None
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            verdict = "" if bound is None or s["spread"] is None else (
                f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:44s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{verdict}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": spec["run_seconds"],
                                        "trace": args.trace, "workloads": report}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
