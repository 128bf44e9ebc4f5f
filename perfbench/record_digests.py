#!/usr/bin/env python3
"""Records the output oracle: for each workload and seed, every final
run's digest (FNV-1a of the final weights and the whole convergence
curve), divergence flag and exact counts, into perfbench/digests.json.

    python3 perfbench/record_digests.py --jobs 2

Workloads that run with more than one host thread are also run with
one, and a seed is recorded only when both agree bit for bit. Existing
entries for other seeds are kept. Re-record after any change to the
workloads in figbench.cc, and only from code whose outputs are trusted:
the recording is what later runs are judged against."""

import argparse
import concurrent.futures
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402


def finals(binary, workload, seed, host_threads):
    cmd = [str(binary), "--workload=%s" % workload, "--seed=%d" % seed,
           "--seconds=0.001", "--trace=0", "--host-threads=%d" % host_threads]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=run.RUN_TIMEOUT_S)
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    return raw["host_threads"], {f["system"]: benchlib.final_record(f)
                                 for f in raw["passes"][0]["finals"]}


def record(binary, workload, seed):
    threads, reference = finals(binary, workload, seed, 0)
    if threads > 1:
        _, sequential = finals(binary, workload, seed, 1)
        if sequential != reference:
            return workload, seed, None, "host_threads %d differs from 1" % threads
    return workload, seed, reference, "host_threads %d" % threads + (
        " == 1" if threads > 1 else "")


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-%d" % (benchlib.INPUTS - 1),
                        help="inclusive range, e.g. 0-9; default every input")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default every workload")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    binary = run.build(HERE.parent)
    path = HERE / "digests.json"
    digests = json.loads(path.read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    tasks = [(w, s) for w in workloads for s in parse_seeds(args.seeds)]
    bad = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for workload, seed, reference, note in pool.map(
                lambda t: record(binary, *t), tasks):
            print("%s seed %d: %s" % (workload, seed, note), flush=True)
            if reference is None:
                bad += 1
                continue
            digests.setdefault("workloads", {}).setdefault(workload, {})[str(seed)] = reference
    for table in digests.get("workloads", {}).values():
        ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        table.clear()
        table.update(ordered)
    path.write_text(json.dumps(digests, indent=1, sort_keys=False) + "\n")
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
