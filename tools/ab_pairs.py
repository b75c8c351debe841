#!/usr/bin/env python3
"""Runs cleanbench on two checkouts in alternating pairs and compares them.

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload batch_clean --seeds 1 7 --pairs 10 --seconds 36

Each pair runs `cleanbench/run.py` once in each checkout (each builds its own
driver from its own sources), and the side that goes first alternates from
pair to pair, so drift in the machine's load lands on both sides alike. For
every metric the result reports both sides' median and quartiles, the
change's relative move, and in how many pairs the change was better (the
direction comes from BENCHMARK.json's `better`). The verdict reads "gain" when
at least 10 pairs ran, the change won at least nine tenths of them and the
medians differ by more than the parent's interquartile range, and "loss" in
the mirror case; with fewer pairs the same tests read "better" or "worse".
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # fewer pairs can show a direction but cannot support a claim


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout the change is measured against")
    parser.add_argument("--change", required=True, type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    return parser.parse_args()


def directions(checkout):
    """Metric name -> 'lower' or 'higher', from the checkout's BENCHMARK.json."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_once(checkout, args, seed):
    cmd = [sys.executable, "cleanbench/run.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"ab_pairs: {checkout} failed ({' '.join(cmd)})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(seed, runs, better):
    """Prints one seed's comparison table."""
    pairs = len(runs["change"])
    print(f"\n== seed {seed}: {pairs} pairs ==")
    for side in ("parent", "change"):
        failed = sum(r.get("failed", 0) for r in runs[side])
        attempted = sum(r.get("attempted", 0) for r in runs[side])
        wrong = sum(1 for r in runs[side] if not r.get("correct", False))
        print(f"{side}: {failed}/{attempted} operations failed, "
              f"{wrong} runs with a wrong digest")
    names = sorted(set(runs["parent"][0]["metrics"]) & set(runs["change"][0]["metrics"]))
    print(f"{'metric':34} {'parent median [q1, q3]':30} {'change median [q1, q3]':30}"
          f" {'move':>8} {'wins':>6}  verdict")
    for name in names:
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        move = f"{(cmed - pmed) / pmed * 100:+.1f}%" if pmed else "n/a"
        direction = better.get(name)
        wins = verdict = ""
        if direction in ("lower", "higher"):
            sign = -1 if direction == "lower" else 1
            won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
            wins = f"{won}/{pairs}"
            improved = sign * (cmed - pmed) > 0
            beyond_iqr = abs(cmed - pmed) > (pq3 - pq1)
            if improved and won * 10 >= 9 * pairs and beyond_iqr:
                verdict = "gain" if pairs >= MIN_PAIRS else "better"
            elif not improved and beyond_iqr and won * 10 <= pairs:
                verdict = "loss" if pairs >= MIN_PAIRS else "worse"
        print(f"{name:34} " + f"{pmed:.4g} [{pq1:.4g}, {pq3:.4g}]".ljust(31) +
              f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]".ljust(30) +
              f" {move:>8} {wins:>6}  {verdict}")


def main():
    args = parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "cleanbench" / "run.py").is_file():
            sys.exit(f"ab_pairs: no cleanbench/run.py under {side} checkout {path}")
    better = directions(sides["change"])
    everything = {}
    for seed in args.seeds:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args, seed))
            p50 = "latency_p50_ms"
            if p50 in runs["parent"][-1]["metrics"]:
                print(f"seed {seed} pair {pair + 1}/{args.pairs} ({order[0]} first): "
                      f"{p50} {runs['parent'][-1]['metrics'][p50]['value']:.3f} -> "
                      f"{runs['change'][-1]['metrics'][p50]['value']:.3f}", flush=True)
        report(seed, runs, better)
        everything[str(seed)] = runs
    if args.json:
        args.json.write_text(json.dumps(everything, indent=1))


if __name__ == "__main__":
    main()
