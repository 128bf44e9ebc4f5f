#!/usr/bin/env python3
"""Steadiness tool: runs sets of benchmark runs of the same code and
prints, per workload and metric, each set's median and quartiles, the
interquartile spread as a share of the median, and whether the sets
agree within the metric's bound. Use it to set and check the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py --workload fig6-wx128 --runs 5 --sets 1
    python3 perfbench/steady.py --runs 10 --sets 2 --out steady.json

Run i of every set uses seed first_seed + i, so the sets repeat the same
inputs, and with --trace 1 every exact count (benchlib.EXACT_METRICS)
must repeat across sets. Exits 1 when a run fails or is incorrect, 3
when a spread, an agreement (in either direction) or a count check
misses."""

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def run_once(root, workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited with %d" % (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    bench_path = HERE.parent / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every value measured here as JSON")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    # values[workload][metric][set] -> list of per-run values
    values = {w: {s["name"]: [[] for _ in range(args.sets)] for s in specs}
              for w in workloads}
    ok = True
    for set_index in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(HERE.parent, w, seed, args.seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    print("%s seed %d: correct=%s failed=%d of %d" % (
                        w, seed, result["correct"], result["failed"],
                        result["attempted"]), flush=True)
                    ok = False
                for name, m in result["metrics"].items():
                    values[w][name][set_index].append(m["value"])
                print("set %d %s seed %d done" % (set_index, w, seed),
                      file=sys.stderr, flush=True)

    within = True
    print("%-12s %-26s %3s %12s %12s %12s %8s %7s %s" % (
        "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
    for w in workloads:
        for spec in specs:
            bound = spec.get("bound")
            sets = values[w][spec["name"]]
            medians = []
            for set_index, vals in enumerate(sets):
                q1, q2, q3 = benchlib.quartiles(vals)
                medians.append(q2)
                sp = benchlib.spread(vals)
                verdict = ""
                if bound is not None:
                    if sp > bound:
                        verdict = "SPREAD > bound"
                        within = False
                    elif sp > bound / 3:
                        verdict = "spread > bound/3"
                    else:
                        verdict = "ok"
                print("%-12s %-26s %3d %12.6g %12.6g %12.6g %8.4f %7s %s" % (
                    w, spec["name"], set_index, q2, q1, q3, sp,
                    "" if bound is None else "%.3f" % bound, verdict))
            if bound is not None and len(medians) > 1:
                worst = max(benchlib.moved_by(medians[0], m) for m in medians[1:])
                agree = worst <= bound
                within = within and agree
                print("%-12s %-26s     sets agree: %s (moved by %.4f, bound %.3f)" % (
                    w, spec["name"], "yes" if agree else "NO", worst, bound))
    if args.sets > 1:
        for w in workloads:
            # values[w][name] is [set][run]; zip(*) pairs run i across sets.
            moved = [name for name in benchlib.EXACT_METRICS if name in values[w]
                     and any(len(set(same_seed)) > 1
                             for same_seed in zip(*values[w][name]))]
            print("%-12s counts repeat exactly across sets: %s" % (
                w, "yes" if not moved else "NO: " + ", ".join(moved)))
            within = within and not moved
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    if not ok:
        return 1
    return 0 if within else 3


if __name__ == "__main__":
    sys.exit(main())
