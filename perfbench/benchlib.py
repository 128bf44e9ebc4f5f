"""Pure logic of the figure-suite benchmark: metrics from raw figbench
measurements, the output oracle, count determinism, and the schemas of
BENCHMARK.json and of the result line. run.py, steady.py,
record_digests.py and the tests import it; it runs no processes."""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

# Inputs per workload. The benchmark's --seed n runs input n mod INPUTS,
# and digests.json records every one of them.
INPUTS = 64

# The host-speed probe's time (figbench's HostProbe::Run) on the
# reference host, a 4-vCPU Xeon VM, in its usual state. Every reported
# time is scaled by PROBE_REF_S / the probe time measured around it, so
# it reads as seconds on the reference host at that speed.
PROBE_REF_S = 0.03

# Profiler subsystems reported per layer, in EngineProfiler order.
# (checkpoint is always idle in these workloads and is left out.)
SUBSYSTEMS = ("kernels", "engine", "ps", "codec")

# Final-run systems that own a train.final.<system>_s metric. SystemName
# spells MLlib* and Petuum* with '*', which metric names cannot hold.
SYSTEM_METRIC = {
    "mllib": "mllib",
    "mllib*": "mllib_star",
    "petuum*": "petuum_star",
    "angel": "angel",
}

# Per-layer metrics that must repeat exactly for a given workload and
# seed, run after run (profiler events are counts of work items).
EXACT_METRICS = ("train.runs", "train.search_trials", "train.trials_diverged",
                 "kernels.events", "engine.events", "ps.events", "codec.events",
                 "comm.bytes", "host.threads", "train.comm_steps",
                 "train.model_updates", "sim.seconds")

# What a final run must repeat exactly, pass after pass and against the
# recorded reference.
FINAL_KEYS = ("digest", "diverged", "comm_steps", "model_updates", "bytes",
              "sim_seconds")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def scaled(seconds, probe_s):
    """A measured time at the reference host speed: the host's drift, as
    the probe measured it around the same section, divided out."""
    return seconds * PROBE_REF_S / probe_s


def pass_scaled(p, seconds):
    return scaled(seconds, p["probe_s"])


def moved_by(first, second):
    """How far the second median is from the first, either way, as a
    share of the first: sets agree only if they would in either order."""
    return abs(second - first) / first if first else 0.0


def ratio_with_base(numerator, base):
    """A ratio and the base it was taken over, reported together."""
    return {"value": numerator / base if base else 0.0, "base": base}


def self_time_residual(train_wall_s, profiler):
    """Train wall time the profiler did not attribute to a subsystem:
    evaluation, driver-side updates, partitioning. Exact by
    construction: subsystem self-times plus this equal the wall time."""
    attributed = sum(layer["host_us"] for layer in profiler.values()) / 1e6
    return train_wall_s - attributed


def final_record(final):
    return {k: final[k] for k in FINAL_KEYS}


def pass_counts(p):
    """Everything about a pass that must repeat exactly."""
    return {
        "train_calls": p["train_calls"],
        "search_trials": p["search_trials"],
        "finals": [(f["system"], final_record(f)) for f in p["finals"]],
    }


def traced_counts(p):
    return {name: layer["events"] for name, layer in p["profiler"].items()}


def count_problems(passes, grid=None):
    """Counts that moved between passes: finals and call counts across
    every pass, profiler events across the traced passes. `grid` is the
    replay that counted diverged trials; it must have run as many trials
    as every pass's grid search."""
    problems = []
    if grid is not None and grid["trials"] != passes[0]["search_trials"]:
        problems.append("grid replay ran %d trials, the passes' grid search %d"
                        % (grid["trials"], passes[0]["search_trials"]))
    first = pass_counts(passes[0])
    for i, p in enumerate(passes[1:], start=1):
        if pass_counts(p) != first:
            problems.append("pass %d: final-run outputs or call counts differ "
                            "from pass 0" % i)
    traced = [p for p in passes if p["traced"]]
    if traced:
        first_traced = traced_counts(traced[0])
        for i, p in enumerate(traced[1:], start=1):
            if traced_counts(p) != first_traced:
                problems.append("traced pass %d: profiler events differ from "
                                "traced pass 0" % i)
    return problems


def compare_to_reference(passes, reference):
    """Failed final runs over all passes. Each final run is compared
    with the recorded reference for this seed, or, when the seed has no
    recording (reference is None), with the same run of pass 0. Returns
    (failed, status) with status "checked" or "unchecked"."""
    if reference is None:
        expected = {f["system"]: final_record(f) for f in passes[0]["finals"]}
        status = "unchecked"
    else:
        expected = reference
        status = "checked"
    failed = 0
    for p in passes:
        for f in p["finals"]:
            ref = expected.get(f["system"])
            if ref is None or final_record(f) != ref:
                failed += 1
    return failed, status


def is_correct(failed, problems, status):
    """A run is correct only when its outputs were checked against a
    recording, none differed, and no count moved. An unchecked run is
    not a passed one."""
    return failed == 0 and not problems and status == "checked"


def reference_for(digests, workload, seed):
    return digests.get("workloads", {}).get(workload, {}).get(str(seed))


def attempted(passes):
    return sum(p["train_calls"] for p in passes)


def setup_scaled(raw, key):
    """Median over set-up reps of a set-up time list, each rep scaled by
    its own probe. partition_s holds two calls per rep."""
    setup = raw["setup"]
    per_rep = len(setup[key]) // len(setup["probe_s"])
    return statistics.median([scaled(t, setup["probe_s"][i // per_rep])
                              for i, t in enumerate(setup[key])])


def end_to_end(raw):
    plain = [p for p in raw["passes"] if not p["traced"]]
    return {
        "wall_s": statistics.median([pass_scaled(p, p["wall_s"]) for p in plain]),
        "cpu_s": statistics.median([pass_scaled(p, p["cpu_s"]) for p in plain]),
        "setup_s": setup_scaled(raw, "setup_s"),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    passes = raw["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = traced[0]
    runs = first["train_calls"]

    def med(fn):
        """Median over traced passes of a time, scaled by the pass's probe."""
        return statistics.median([pass_scaled(p, fn(p)) for p in traced])

    m = {
        "data.generate_s": setup_scaled(raw, "generate_s"),
        "data.partition_s": setup_scaled(raw, "partition_s") * runs,
        "train.runs": runs,
        "train.search_s": med(lambda p: p["search_s"]),
        "train.search_trials": first["search_trials"],
        "train.trials_diverged": raw["grid"]["diverged"],
        "train.final_s": med(lambda p: p["final_s"]),
        "train.other_s": med(lambda p: self_time_residual(
            p["search_s"] + p["final_s"], p["profiler"])),
    }
    for system, metric in SYSTEM_METRIC.items():
        m["train.final.%s_s" % metric] = med(lambda p: sum(
            f["wall_s"] for f in p["finals"] if f["system"] == system))
    for name in SUBSYSTEMS:
        m["%s.host_s" % name] = med(lambda p: p["profiler"][name]["host_us"] / 1e6)
        m["%s.events" % name] = first["profiler"][name]["events"]
    m["comm.bytes"] = sum(f["bytes"] for f in first["finals"])
    untraced_wall = statistics.median([pass_scaled(p, p["wall_s"]) for p in plain])
    m["host.raw_wall_s"] = statistics.median([p["wall_s"] for p in plain])
    m["host.probe_s"] = statistics.median([p["probe_s"] for p in passes])
    m["host.parallelism"] = statistics.median([p["cpu_s"] / p["wall_s"] for p in plain])
    m["host.threads"] = raw["host_threads"]
    m["mem.minflt"] = statistics.median([p["minflt"] for p in plain])
    overhead = ratio_with_base(med(lambda p: p["wall_s"]), untraced_wall)
    m["obs.trace_overhead"] = overhead["value"]
    m["obs.untraced_wall_s"] = overhead["base"]
    m["train.comm_steps"] = sum(f["comm_steps"] for f in first["finals"])
    m["train.model_updates"] = sum(f["model_updates"] for f in first["finals"])
    m["sim.seconds"] = sum(f["sim_seconds"] for f in first["finals"])
    return m


def result_line(correct, attempted_ops, failed_ops, values, metric_specs):
    """The final stdout line: every metric in `metric_specs` (the
    BENCHMARK.json entries for this mode) with its unit."""
    metrics = {}
    for spec in metric_specs:
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted_ops),
                       "failed": int(failed_ops), "metrics": metrics})


def validate_result(obj, metric_specs):
    """Problems with a parsed result line, [] when it is well formed."""
    problems = []
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys are %s" % sorted(obj))
        return problems
    if not isinstance(obj["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            problems.append("%s is not a whole number" % key)
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        problems.append("attempted < 1")
    expected = {s["name"]: s["unit"] for s in metric_specs}
    if set(obj["metrics"]) != set(expected):
        problems.append("metric names differ from BENCHMARK.json")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"}:
            problems.append("%s: keys %s" % (name, sorted(m)))
        elif not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append("%s: value is not a number" % name)
        elif expected.get(name) not in (None, m["unit"]):
            problems.append("%s: unit %s, expected %s" % (name, m["unit"], expected[name]))
    return problems


def validate_benchmark(doc):
    """Problems with a parsed BENCHMARK.json, [] when it meets the
    contract the benchmark is written to."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        return ["top-level keys are %s" % sorted(doc)]
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be a list of 1..32 strings")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must hold 1..16 entries")
    else:
        for p in paths:
            if not (isinstance(p, str) and PATH_RE.match(p)) or p.startswith("/") \
                    or ".." in p.split("/"):
                problems.append("bad path %r" % (p,))
    for c in cmd if isinstance(cmd, list) else []:
        if isinstance(c, str) and (c.startswith("/") or ".." in c.split("/")):
            problems.append("command names an absolute or escaping path %r" % c)
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = set()

    def check_name(n):
        if not (isinstance(n, str) and NAME_RE.match(n)):
            problems.append("bad name %r" % (n,))
        elif n in names:
            problems.append("name %s used twice" % n)
        names.add(n)

    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        problems.append("workloads must hold 2..8 entries")
    else:
        for w in wl:
            if set(w) != {"name", "why"}:
                problems.append("workload keys %s" % sorted(w))
                continue
            check_name(w["name"])
            if not isinstance(w["why"], str) or "\n" in w["why"] or len(w["why"]) > 200:
                problems.append("why of %s must be one line of <= 200 chars" % w["name"])
    e2e = doc["end_to_end"]
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        problems.append("end_to_end must hold 1..16 entries")
        e2e = []
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            problems.append("end_to_end keys %s" % sorted(m))
            continue
        check_name(m["name"])
        if not (isinstance(m["bound"], (int, float)) and 0 < m["bound"] <= 0.25):
            problems.append("%s: bound must be in (0, 0.25]" % m["name"])
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("setup_s must be an end_to_end metric in s, lower is better")
    pl = doc["per_layer"]
    if not (isinstance(pl, list) and 1 <= len(pl) <= 128):
        problems.append("per_layer must hold 1..128 entries")
        pl = []
    for m in pl:
        if set(m) != {"name", "unit", "better"}:
            problems.append("per_layer keys %s" % sorted(m))
            continue
        check_name(m["name"])
    for m in list(e2e) + list(pl):
        if isinstance(m, dict):
            if not (isinstance(m.get("unit"), str) and UNIT_RE.match(m["unit"])):
                problems.append("%s: bad unit" % m.get("name"))
            if m.get("better") not in ("lower", "higher"):
                problems.append("%s: better must be lower or higher" % m.get("name"))
    return problems
