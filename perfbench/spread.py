#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload greedy_tree --seeds 1-10 --seconds 20 [--trace 1] [--out F]

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the quartile distance as a share of the median, next to the bound that
BENCHMARK.json fixes for it.  ``--out`` also writes the raw runs and the
summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": vals}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        infos = [json.loads(ln.split(" ", 2)[2]) for ln in lines
                 if ln.startswith(f"[{args.workload}] info ")]
        result["info"] = infos[-1] if infos else None
        runs.append(result)
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}", flush=True)
    summary = summarise(runs)
    for name, s in summary.items():
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound:.2f}  spread/bound {s['spread'] / bound:.2f}"
        print(f"{name:36s} median {s['median']:12.6f} {s['unit']:9s} "
              f"q1 {s['q1']:12.6f} q3 {s['q3']:12.6f} spread {s['spread']:.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                              "trace": args.trace, "runs": runs,
                                              "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
