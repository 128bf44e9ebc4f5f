#!/usr/bin/env python3
"""Figure-suite benchmark: builds perfbench/figbench from the checkout's
sources, runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload fig4-kdd12 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to .bench_build/. The
last stdout line is one JSON object {correct, attempted, failed,
metrics}: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. Exits non-zero, printing no result,
when the program cannot be built or run."""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_group(cmd, timeout, stderr):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (make and compiler children too) is killed and reaped."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


def build(root):
    """Configures (once) and builds figbench; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("no library sources at %s; run from the root of "
                           "a full checkout" % (root / "src"))
    build_dir = root / ".bench_build"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "figbench",
                  "-j", jobs])
    for cmd in steps:
        code, out, _ = run_group(cmd, BUILD_TIMEOUT_S, subprocess.STDOUT)
        if code != 0:
            log(out[-4000:])
            raise RuntimeError("build step failed: %s" % " ".join(cmd))
    return build_dir / "figbench"


def run_program(binary, args, input_seed):
    cmd = [str(binary), "--workload=%s" % args.workload, "--seed=%d" % input_seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    code, out, err = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        log(err[-4000:])
        raise RuntimeError("figbench exited with %d" % code)
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = benchlib.validate_benchmark(bench)
    if problems:
        log("BENCHMARK.json: %s" % "; ".join(problems))
        return 2
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log("unknown workload %s" % args.workload)
        return 2
    if args.seed < 0:
        log("seed must be >= 0")
        return 2
    # Every input the benchmark can run has a recorded oracle: seed n
    # selects input n mod INPUTS, and record_digests.py records them all.
    input_seed = args.seed % benchlib.INPUTS
    try:
        binary = build(root)
        raw = run_program(binary, args, input_seed)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as e:
        log("perfbench: %s" % e)
        return 1

    digests = json.loads((HERE / "digests.json").read_text())
    reference = benchlib.reference_for(digests, args.workload, input_seed)
    passes = raw["passes"]
    problems = benchlib.count_problems(passes, raw.get("grid"))
    failed, status = benchlib.compare_to_reference(passes, reference)
    correct = benchlib.is_correct(failed, problems, status)

    if args.trace:
        specs = bench["per_layer"]
        values = benchlib.per_layer(raw)
    else:
        specs = bench["end_to_end"]
        values = benchlib.end_to_end(raw)

    print("workload %s seed %d (input %d): %d passes (%d traced), host_threads %d"
          % (args.workload, args.seed, input_seed, len(passes),
             sum(p["traced"] for p in passes), raw["host_threads"]))
    if status == "checked":
        print("oracle: checked against the recorded digests for input %d" % input_seed)
    else:
        print("oracle: UNCHECKED, no recorded digest for input %d, so the run "
              "is not correct; runs are compared with the first pass only"
              % input_seed)
    for problem in problems:
        print("count check: %s" % problem)
    for spec in specs:
        print("  %-28s %16.6g %s" % (spec["name"], values[spec["name"]], spec["unit"]))
    line = benchlib.result_line(correct, benchlib.attempted(passes), failed,
                                values, specs)
    malformed = benchlib.validate_result(json.loads(line), specs)
    if malformed:
        log("result line is malformed: %s" % "; ".join(malformed))
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
