#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs BENCHMARK.json's command ten times per workload, each time with
another --seed, and prints for each end-to-end metric the distance between
the first and third quartile of its ten values as a share of their median,
next to the bound. Run it from the repo root:

    python3 perf/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Exit status is 1 if a spread (setup_s excepted) exceeds its bound or a run
is not correct.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for name in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: NOT CORRECT {result}", file=sys.stderr)
                bad = True
            for metric, samples in values.items():
                samples.append(result["metrics"][metric]["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            gated = m["name"] != "setup_s"
            verdict = "ok" if spread <= m["bound"] or not gated else "TOO WIDE"
            if spread > m["bound"] / 3 and verdict == "ok" and gated:
                verdict = "ok (above a third of the bound)"
            bad |= verdict == "TOO WIDE"
            print(
                f"{name:<11} {m['name']:<14} median {med:>14.4f} {m['unit']:<8}"
                f" spread {spread:7.4f}  bound {m['bound']:.2f}  {verdict}",
                flush=True,
            )
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
