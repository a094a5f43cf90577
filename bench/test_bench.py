"""Checks of the benchmark itself: known answers, row classification, tracer.

Run from the root of the checkout with ``python3 -m pytest bench`` or
``python3 bench/test_bench.py``. The |Con| table is cross-checked against
the independent partition-scan oracle in tests/oracles.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import answers  # noqa: E402
import run  # noqa: E402


def _carrier_names(carriers) -> list[str]:
    names, per_size = [], {}
    for s in carriers:
        k = per_size.get(s.n, 0)
        per_size[s.n] = k + 1
        names.append(f"S{s.n}-{k}")
    return names


def _workload_process(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"), workload, str(seed),
           repr(time.monotonic()), "run"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    env.pop("EQLAT_BUDGET", None)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class KnownAnswers(unittest.TestCase):
    def test_con_sizes_match_the_partition_oracle(self):
        import oracles
        from eqlat.corpus import enumerate_semilattices

        carriers = enumerate_semilattices(6)
        self.assertEqual(_carrier_names(carriers), list(answers.CON_SIZES))
        for name, s in zip(answers.CON_SIZES, carriers):
            self.assertEqual(len(oracles.oracle_congruences(s)), answers.CON_SIZES[name], name)

    def test_catalog_names_match_the_acceptance_catalog(self):
        from eqlat.checks import catalog_for_acceptance

        for seed in (0, 1):
            names = [name for name, _ in catalog_for_acceptance(seed)]
            self.assertEqual(names, answers.catalog_names())
        self.assertEqual(len(answers.eio_instance_names()), 382)

    def test_row_counts_per_workload(self):
        counts = {w: len(answers.expected_rows(w)) for w in answers.WORKLOAD_SUITES}
        self.assertEqual(counts, {"natural-maps": 1203, "con-scan": 75,
                                  "eio-search": 46 + 5 * 382 + 40 + 1})


def _right_note(check: str, structure: str) -> str | None:
    if check == "coatomistic":
        return f"|Con|={answers.CON_SIZES[structure]}"
    want = answers.CLAIMS.get(structure, {}).get(check)
    if want is None or want is ...:
        return None
    return f"observed={want!r}; finite-truncation evidence, not asserted"


class Classification(unittest.TestCase):
    def _rows(self, workload):
        return [(check, structure, verdict, _right_note(check, structure))
                for (check, structure), verdict in answers.expected_rows(workload).items()]

    def test_expected_rows_have_no_errors(self):
        self.assertEqual(answers.check_rows("con-scan", self._rows("con-scan")), ([], 0))
        self.assertEqual(answers.check_rows("eio-search", self._rows("eio-search")), ([], 0))

    def test_flip_missing_and_wrong_count_are_errors(self):
        rows = self._rows("con-scan")
        flipped = [(rows[0][0], rows[0][1], "fail", None)] + rows[1:]
        self.assertEqual(len(answers.check_rows("con-scan", flipped)[0]), 1)
        self.assertEqual(len(answers.check_rows("con-scan", rows[1:])[0]), 1)
        wrong = [(c, s, v, "|Con|=0" if c == "coatomistic" and s == "S6-14" else n)
                 for c, s, v, n in rows]
        self.assertEqual(len(answers.check_rows("con-scan", wrong)[0]), 1)

    def test_sampled_and_budget_skips_are_undecided_not_errors(self):
        rows = [(c, s, v, "sampled: sizes <= 2 exhaustive" if c == "twelve" else None)
                for c, s, v, _ in self._rows("natural-maps")]
        self.assertEqual(answers.check_rows("natural-maps", rows), ([], 401))
        rows = [(c, s, "skip", "evidence search skipped: 9 image candidates exceed cap 8")
                if c == "eio_count" and s == "m2(1)" else (c, s, v, n)
                for c, s, v, n in self._rows("eio-search")]
        self.assertEqual(answers.check_rows("eio-search", rows), ([], 1))

    def test_hypothesis_skips_are_decided(self):
        self.assertFalse(answers.is_undecided("skip: dagger fails"))
        self.assertFalse(answers.is_undecided("skipped: I9 hypothesis not established"))
        rows = [(c, s, "pass" if v == "skip" else v, n) for c, s, v, n in self._rows("eio-search")]
        self.assertEqual(len(answers.check_rows("eio-search", rows)[0]), 9)

    def test_wrong_observation_is_an_error(self):
        rows = [(c, s, v, "observed=2; finite-truncation evidence, not asserted")
                if c == "eio_count" and s == "m2(2)" else (c, s, v, n)
                for c, s, v, n in self._rows("eio-search")]
        self.assertEqual(len(answers.check_rows("eio-search", rows)[0]), 1)


class Tracer(unittest.TestCase):
    SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, TRACED
t = Tracer("test")
t.install(names=TRACED + ("congruence.no_such_function", "nomodule.f"))
import eqlat.checks, eqlat.congruence
same = eqlat.checks.all_congruences is eqlat.congruence.all_congruences
with t.span("root"):
    eqlat.checks.run_suite("coatomistic")
print(json.dumps({"same": same, "absent": t.absent, "calls": t.calls, "busy": t.busy,
                  "self": t.self_time, "cons": t.results["congruence.all_congruences"]}))
"""

    def test_every_binding_is_wrapped_and_missing_names_are_absent(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, BENCH], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out = json.loads(proc.stdout)
        self.assertTrue(out["same"])
        self.assertEqual(out["absent"], ["congruence.no_such_function", "nomodule.f"])
        calls = out["calls"]
        self.assertEqual(calls["checks.run_suite"], 1)
        self.assertEqual(calls["congruence.all_congruences"], 25)
        # Module-global calls inside congruence.py are caught as well.
        self.assertGreater(calls["congruence.congruence_generated"], 0)
        self.assertEqual(out["cons"], sum(answers.CON_SIZES.values()))
        # Self times add up to the root span.
        self.assertAlmostEqual(sum(out["self"].values()), out["busy"]["root"], places=6)


class Benchmark(unittest.TestCase):
    def test_benchmark_json_lists_the_reported_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_names())

    def test_natural_maps_on_seed_1(self):
        report = _workload_process("natural-maps", 1)
        self.assertEqual((report["rows"], report["errors"]), (1203, 0), report["error_samples"])
        # Seed 1 samples I9 on 85 lattices today; exact checks may replace them.
        self.assertLessEqual(report["sampled"], 85)
        self.assertEqual(report["undecided"], report["sampled"])


if __name__ == "__main__":
    unittest.main()
