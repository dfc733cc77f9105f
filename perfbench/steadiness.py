#!/usr/bin/env python3
"""Run every workload repeatedly, interleaved, and report how steady
each end-to-end metric is.

    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--seconds S]
                                    [--workloads a,b]

Round r (1..runs) runs each workload once with seed r; the workload
order rotates every round, so a slow host period lands on all of them.
For each workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and
that spread as a share of the metric's bound in BENCHMARK.json. With
--sets 2 or more the whole schedule repeats and each later set's median
is compared with the first's. Every run's host probe time (a fixed 8 MiB
random walk) and the machine's CPU steal share during the run (from
/proc/stat) are collected, so a slow host period can be told apart from a
slower program. The full record goes to .bench_out/steadiness.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def run_once(workload, seed, seconds):
    ticks = cpu_ticks()
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    after = cpu_ticks()
    steal = None
    if ticks and after and after[1] > ticks[1]:
        steal = (after[0] - ticks[0]) / (after[1] - ticks[1])
    lines = proc.stdout.strip().splitlines()
    probe = re.search(r"host_probe_s=([0-9.eE+-]+)", proc.stderr)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "steal_share": steal,
            "host_probe_s": float(probe.group(1)) if probe else None,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs, bounds):
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound, "share_of_bound": spread / bound,
                     "values": values}
    return out


def main():
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seconds": args.seconds, "sets": []}
    for s in range(args.sets):
        runs = {w: [] for w in workloads}
        for r in range(args.runs):
            order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
            for w in order:
                run = run_once(w, r + 1, args.seconds)
                runs[w].append(run)
                print("set %d run %d %-20s seed %-3d %6.1fs probe %.4fs steal %4.1f%% %s"
                      % (s + 1, r + 1, w, run["seed"], run["wall_s"],
                         run["host_probe_s"] or 0.0,
                         100 * (run["steal_share"] or 0.0),
                         "ok" if run["correct"] else "INCORRECT"), flush=True)
        record["sets"].append({w: {"runs": runs[w],
                                   "summary": summarize(runs[w], bounds)}
                               for w in workloads})

    out = os.path.join(ROOT, ".bench_out", "steadiness.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(record, f, indent=1)

    worst = (0.0, None, None)
    for s, data in enumerate(record["sets"]):
        print("\n== set %d ==" % (s + 1))
        for w in workloads:
            runs = data[w]["runs"]
            probes = [r["host_probe_s"] for r in runs if r["host_probe_s"]]
            shares = {r["failed"] / r["attempted"] for r in runs}
            print("%s: host probe %.4f-%.4f s, failed share %s, run wall %.1f-%.1f s"
                  % (w, min(probes), max(probes), sorted(shares),
                     min(r["wall_s"] for r in runs),
                     max(r["wall_s"] for r in runs)))
            for name, m in data[w]["summary"].items():
                drift = ""
                if s > 0:
                    first = record["sets"][0][w]["summary"][name]["median"]
                    drift = "  drift %+.2f%%" % (100.0 * (m["median"] / first - 1.0))
                worst = max(worst, (m["share_of_bound"], w, name))
                print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%"
                      " (%4.0f%% of bound %.2f)%s"
                      % (name, m["median"], m["q1"], m["q3"], 100 * m["spread"],
                         100 * m["share_of_bound"], m["bound"], drift))
    print("\nlargest spread: %s on %s, %.0f%% of its bound"
          % (worst[2], worst[1], 100 * worst[0]))
    print("record written to %s" % os.path.relpath(out, ROOT))


if __name__ == "__main__":
    main()
