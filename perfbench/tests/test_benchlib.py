"""Tests of the benchmark's own logic. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

import json
import pathlib
import statistics
import sys
import unittest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERFBENCH))
import benchlib  # noqa: E402

BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


def final(system="mllib", digest="00ff", **over):
    f = {"system": system, "digest": digest, "diverged": False, "comm_steps": 10,
         "model_updates": 10, "bytes": 1000, "sim_seconds": 12.5, "wall_s": 0.3}
    f.update(over)
    return f


def profiler(kernels_us=0, engine_us=0, ps_us=0, codec_us=0, events=5):
    return {"kernels": {"host_us": kernels_us, "events": events},
            "engine": {"host_us": engine_us, "events": events},
            "ps": {"host_us": ps_us, "events": 0},
            "codec": {"host_us": codec_us, "events": events},
            "checkpoint": {"host_us": 0, "events": 0}}


def a_pass(traced=False, wall=2.0, cpu=2.0, finals=None, prof=None):
    p = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "minflt": 100,
         "probe_s": benchlib.PROBE_REF_S,
         "search_s": 1.2, "final_s": 0.6, "search_trials": 3, "train_calls": 5,
         "finals": finals or [final("mllib*", "aa"), final("mllib", "bb")]}
    if traced:
        p["profiler"] = prof or profiler(kernels_us=1_000_000, engine_us=300_000,
                                         codec_us=100_000)
    return p


def raw_run(passes, host_threads=1):
    return {"workload": "fig4-kdd12", "seed": 0, "host_threads": host_threads,
            "setup": {"setup_s": [1.0, 1.2, 1.1], "probe_s": [benchlib.PROBE_REF_S] * 3,
                      "generate_s": [0.4, 0.5, 0.45],
                      "partition_s": [0.02, 0.03, 0.01, 0.02, 0.02, 0.02]},
            "grid": {"trials": 3, "diverged": 1},
            "passes": passes, "peak_rss_mb": 80.5}


class SelfTimeResidualTest(unittest.TestCase):
    def test_residual_is_wall_minus_attributed_self_time(self):
        prof = profiler(kernels_us=1_000_000, engine_us=250_000, codec_us=50_000)
        self.assertAlmostEqual(benchlib.self_time_residual(1.8, prof), 0.5)

    def test_residual_and_self_times_sum_to_wall(self):
        prof = profiler(kernels_us=700_001, ps_us=123_456)
        wall = 0.9
        attributed = sum(v["host_us"] for v in prof.values()) / 1e6
        self.assertAlmostEqual(benchlib.self_time_residual(wall, prof) + attributed, wall)

    def test_per_layer_other_s_uses_search_plus_final(self):
        raw = raw_run([a_pass(), a_pass(traced=True)])
        m = benchlib.per_layer(raw)
        # search 1.2 + final 0.6 - (1.0 + 0.3 + 0.1) attributed
        self.assertAlmostEqual(m["train.other_s"], 0.4)


class RatioWithBaseTest(unittest.TestCase):
    def test_ratio_reports_its_base(self):
        r = benchlib.ratio_with_base(3.0, 2.0)
        self.assertEqual(r, {"value": 1.5, "base": 2.0})

    def test_zero_base_gives_zero_not_an_error(self):
        self.assertEqual(benchlib.ratio_with_base(1.0, 0.0)["value"], 0.0)

    def test_trace_overhead_and_parallelism(self):
        raw = raw_run([a_pass(wall=2.0, cpu=3.0), a_pass(wall=2.0, cpu=3.0),
                       a_pass(traced=True, wall=2.2), a_pass(traced=True, wall=2.2)],
                      host_threads=2)
        m = benchlib.per_layer(raw)
        self.assertAlmostEqual(m["obs.trace_overhead"], 1.1)
        self.assertAlmostEqual(m["obs.untraced_wall_s"], 2.0)
        self.assertAlmostEqual(m["host.parallelism"], 1.5)
        self.assertEqual(m["host.threads"], 2)
        self.assertAlmostEqual(m["data.partition_s"], 0.02 * 5)


class HostProbeScalingTest(unittest.TestCase):
    def test_time_is_scaled_by_the_probe_around_it(self):
        slow = a_pass(wall=4.0, cpu=4.0)
        slow["probe_s"] = 2 * benchlib.PROBE_REF_S
        m = benchlib.end_to_end(raw_run([slow, a_pass(wall=2.0), slow]))
        self.assertAlmostEqual(m["wall_s"], 2.0)
        self.assertAlmostEqual(m["cpu_s"], 2.0)

    def test_each_setup_rep_is_scaled_by_its_own_probe(self):
        raw = raw_run([a_pass()])
        raw["setup"]["setup_s"] = [1.0, 2.0, 3.0]
        raw["setup"]["probe_s"] = [benchlib.PROBE_REF_S * k for k in (1.0, 2.0, 3.0)]
        # partition_s holds two calls per rep; rep 2's pair is scaled by 1/3
        raw["setup"]["partition_s"] = [0.1, 0.1, 0.2, 0.2, 0.6, 0.6]
        self.assertAlmostEqual(benchlib.end_to_end(raw)["setup_s"], 1.0)
        self.assertAlmostEqual(benchlib.setup_scaled(raw, "partition_s"), 0.1)

    def test_raw_wall_and_probe_are_reported(self):
        slow = a_pass(wall=3.0, traced=False)
        slow["probe_s"] = 1.5 * benchlib.PROBE_REF_S
        m = benchlib.per_layer(raw_run([slow, a_pass(traced=True)]))
        self.assertAlmostEqual(m["host.raw_wall_s"], 3.0)
        self.assertAlmostEqual(m["obs.untraced_wall_s"], 2.0)
        self.assertAlmostEqual(m["host.probe_s"], 1.25 * benchlib.PROBE_REF_S)


class DigestCompareTest(unittest.TestCase):
    def reference(self):
        return {"mllib*": benchlib.final_record(final("mllib*", "aa")),
                "mllib": benchlib.final_record(final("mllib", "bb"))}

    def test_matching_runs_pass(self):
        passes = [a_pass(), a_pass()]
        self.assertEqual(benchlib.compare_to_reference(passes, self.reference()),
                         (0, "checked"))

    def test_each_mismatching_final_run_fails(self):
        bad = a_pass(finals=[final("mllib*", "aa"), final("mllib", "bc")])
        self.assertEqual(benchlib.compare_to_reference([a_pass(), bad, bad],
                                                       self.reference()),
                         (2, "checked"))

    def test_divergence_the_reference_lacks_fails(self):
        bad = a_pass(finals=[final("mllib*", "aa", diverged=True), final("mllib", "bb")])
        self.assertEqual(benchlib.compare_to_reference([bad], self.reference())[0], 1)

    def test_moved_count_fails_even_with_same_digest(self):
        bad = a_pass(finals=[final("mllib*", "aa", bytes=1001), final("mllib", "bb")])
        self.assertEqual(benchlib.compare_to_reference([bad], self.reference())[0], 1)

    def test_unrecorded_seed_is_unchecked_not_passed(self):
        failed, status = benchlib.compare_to_reference([a_pass(), a_pass()], None)
        self.assertEqual((failed, status), (0, "unchecked"))
        drift = a_pass(finals=[final("mllib*", "aa"), final("mllib", "zz")])
        self.assertEqual(benchlib.compare_to_reference([a_pass(), drift], None),
                         (1, "unchecked"))

    def test_unchecked_run_is_not_correct(self):
        self.assertTrue(benchlib.is_correct(0, [], "checked"))
        self.assertFalse(benchlib.is_correct(0, [], "unchecked"))
        self.assertFalse(benchlib.is_correct(1, [], "checked"))
        self.assertFalse(benchlib.is_correct(0, ["pass 1: moved"], "checked"))

    def test_reference_lookup_by_workload_and_seed(self):
        digests = {"workloads": {"fig4-kdd12": {"3": self.reference()}}}
        self.assertIsNotNone(benchlib.reference_for(digests, "fig4-kdd12", 3))
        self.assertIsNone(benchlib.reference_for(digests, "fig4-kdd12", 4))
        self.assertIsNone(benchlib.reference_for(digests, "fig5-kddb", 3))

    def test_recorded_digests_file_is_well_formed(self):
        digests = json.loads((PERFBENCH / "digests.json").read_text())
        names = {w["name"] for w in BENCHMARK["workloads"]}
        for workload, seeds in digests["workloads"].items():
            self.assertIn(workload, names)
            for seed, systems in seeds.items():
                self.assertGreaterEqual(int(seed), 0)
                for record in systems.values():
                    self.assertEqual(set(record), set(benchlib.FINAL_KEYS))

    def test_every_input_of_every_workload_is_recorded(self):
        digests = json.loads((PERFBENCH / "digests.json").read_text())
        for w in BENCHMARK["workloads"]:
            self.assertEqual(set(digests["workloads"][w["name"]]),
                             {str(i) for i in range(benchlib.INPUTS)}, w["name"])


class CountDeterminismTest(unittest.TestCase):
    def test_identical_passes_have_no_problems(self):
        passes = [a_pass(), a_pass(traced=True), a_pass(traced=True)]
        self.assertEqual(benchlib.count_problems(passes), [])

    def test_moved_final_count_is_reported(self):
        moved = a_pass(finals=[final("mllib*", "aa", comm_steps=11), final("mllib", "bb")])
        self.assertEqual(len(benchlib.count_problems([a_pass(), moved])), 1)

    def test_moved_profiler_events_are_reported(self):
        other = a_pass(traced=True, prof=profiler(kernels_us=1, events=6))
        problems = benchlib.count_problems([a_pass(traced=True), other])
        self.assertEqual(len(problems), 1)
        self.assertIn("profiler events", problems[0])

    def test_grid_replay_must_match_the_search(self):
        passes = [a_pass(), a_pass(traced=True)]
        self.assertEqual(benchlib.count_problems(passes, {"trials": 3, "diverged": 1}), [])
        self.assertEqual(len(benchlib.count_problems(passes, {"trials": 4, "diverged": 1})), 1)

    def test_diverged_trials_come_from_the_replay(self):
        m = benchlib.per_layer(raw_run([a_pass(), a_pass(traced=True)]))
        self.assertEqual(m["train.trials_diverged"], 1)

    def test_timings_may_move(self):
        self.assertEqual(benchlib.count_problems([a_pass(wall=1.0), a_pass(wall=3.0)]), [])


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_meets_the_contract(self):
        self.assertEqual(benchlib.validate_benchmark(BENCHMARK), [])

    def test_required_metrics_and_workloads_are_named(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]],
                         ["fig4-kdd12", "fig5-kddb", "fig6-wx128"])
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(e2e, {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"})
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_validator_rejects_contract_breaks(self):
        broken = json.loads(json.dumps(BENCHMARK))
        broken["end_to_end"][0]["bound"] = 0.5
        broken["paths"] = ["../elsewhere"]
        self.assertEqual(len(benchlib.validate_benchmark(broken)), 2)
        no_setup = json.loads(json.dumps(BENCHMARK))
        no_setup["end_to_end"] = [m for m in no_setup["end_to_end"] if m["name"] != "setup_s"]
        self.assertTrue(benchlib.validate_benchmark(no_setup))

    def result_round_trip(self, trace):
        passes = [a_pass(), a_pass(), a_pass(traced=True), a_pass(traced=True)]
        raw = raw_run(passes)
        specs = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
        values = benchlib.per_layer(raw) if trace else benchlib.end_to_end(raw)
        line = benchlib.result_line(True, benchlib.attempted(passes), 0, values, specs)
        parsed = json.loads(line)
        self.assertEqual(benchlib.validate_result(parsed, specs), [])
        self.assertEqual(parsed["attempted"], 20)
        return parsed

    def test_end_to_end_result_parses_back(self):
        parsed = self.result_round_trip(trace=False)
        self.assertEqual(parsed["metrics"]["wall_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(parsed["metrics"]["setup_s"]["value"], 1.1)

    def test_per_layer_result_parses_back(self):
        parsed = self.result_round_trip(trace=True)
        self.assertEqual(parsed["metrics"]["train.final.mllib_star_s"]["value"], 0.3)
        self.assertEqual(parsed["metrics"]["train.final.angel_s"]["value"], 0)
        self.assertEqual(parsed["metrics"]["train.comm_steps"]["value"], 20)

    def test_validator_rejects_a_missing_metric(self):
        parsed = self.result_round_trip(trace=False)
        del parsed["metrics"]["cpu_s"]
        self.assertTrue(benchlib.validate_result(parsed, BENCHMARK["end_to_end"]))


class QuartileTest(unittest.TestCase):
    def test_spread_matches_statistics_quantiles(self):
        vals = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
        q1, q2, q3 = benchlib.quartiles(vals)
        self.assertEqual((q1, q2, q3), tuple(statistics.quantiles(vals, n=4)))
        self.assertAlmostEqual(benchlib.spread(vals), (q3 - q1) / q2)
        self.assertEqual(q2, 1.005)

    def test_agreement_is_checked_in_both_directions(self):
        self.assertAlmostEqual(benchlib.moved_by(2.0, 1.5), 0.25)
        self.assertAlmostEqual(benchlib.moved_by(2.0, 2.5), 0.25)


if __name__ == "__main__":
    unittest.main()
