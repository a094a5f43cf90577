"""Benchmark for eqlat: verdict time, exactness and per-layer cost.

Usage (from the root of a checkout that holds ``src/eqlat``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, with a table

Workloads (see BENCHMARK.json for why each was chosen):

* ``natural-maps``: suites equaint, prop, twelve (1,203 rows); Con lattices
  of the 401-entry acceptance catalog plus the interior-axiom battery.
* ``con-scan``: suites simple-scan, coatomistic, consl (75 rows);
  congruence enumeration alone.
* ``eio-search``: suites bicoatom, four-coatom, june1/2/5/6, the claims of
  the eleven truncations and k_lattice, and the interior-map search on
  m_infinity(4).

Each workload runs in fresh ``python`` processes (bench/workload.py), one
at a time, with EQLAT_BUDGET removed and PYTHONHASHSEED fixed. The seed
picks the acceptance catalog and the I9 sampling seed. Every verdict is
checked against the hand-written answers in bench/answers.py.

``--trace 0`` first times set-up alone in a few processes, then runs the
workload in fresh processes until ``--seconds`` is spent, and reports the
medians:

* ``setup_s``: process start to ``import eqlat`` done and inputs built;
* ``verdict_s``: inputs ready to last verdict;
* ``cpu_s``: user+sys CPU of a workload process and its children;
* ``peak_rss_mb``: peak resident memory of a workload process;
* ``decided_share``: rows decided exactly / rows (sampled and
  budget-skipped rows are undecided).

``attempted`` and ``failed`` count rows; failed / attempted is the error
share, which must be 0. ``--trace 1`` runs the workload once with the
tracer (bench/tracer.py) and then untraced, and reports per-layer calls,
busy and self times; spans go to ``bench/out/trace-<workload>.tsv.gz``.
Each result, with the run environment, is also written to ``bench/out``.

Exit status: 0 when every verdict is right, 1 when one is wrong or a
workload process fails, 2 when the checkout holds no eqlat sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from answers import WORKLOAD_SUITES
from tracer import TRACED

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SRC = os.path.join(ROOT, "src")

WORKLOADS = tuple(WORKLOAD_SUITES)
SETUP_PROBES = 5
# Every workload process must end before this many seconds from start.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "ratio"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for fn in TRACED:
        names += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"), (f"{fn}.self_s", "s")]
    for suites in WORKLOAD_SUITES.values():
        names += [(f"checks.{suite}.busy_s", "s") for suite in suites]
    names += [
        ("congruence.generated_per_con", "ratio"),
        ("interior.check_axioms.p50_ms", "ms"),
        ("interior.check_axioms.p95_ms", "ms"),
        ("interior.enumerate_eios.maps_found", "count"),
        ("corpus.run_claims.skipped", "count"),
        ("trace.verdict_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_share", "ratio"),
    ]
    return names


class BenchError(Exception):
    """A workload process failed to run or to report."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("EQLAT_BUDGET", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, mode: str, started: float,
          trace_out: str | None = None) -> dict:
    """Run bench/workload.py in a fresh process and return its JSON report."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before the next workload process")
    extra = [trace_out] if trace_out else []
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"), workload, str(seed),
           repr(time.monotonic()), mode, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if os.path.realpath(report["eqlat"]) != os.path.realpath(SRC):
        raise BenchError(f"imported eqlat from {report['eqlat']}, not from {SRC}")
    return report


def _git_rev() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
        "loadavg": list(os.getloadavg()),
    }


def _run_until(workload, seed, seconds, started) -> list[dict]:
    """Fresh workload processes, one at a time, while another one fits in ``seconds``."""
    runs = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        runs.append(spawn(workload, seed, "run", started))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - started + longest > seconds:
            return runs


def _tally(runs: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["rows"] for r in runs)
    failed = sum(r["errors"] for r in runs)
    samples = [s for r in runs for s in r["error_samples"]]
    return attempted, failed, samples


def _decided_share(run: dict) -> float:
    return max(0, run["rows"] - run["undecided"] - run["errors"]) / run["rows"]


def measure(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    setups = [spawn(workload, seed, "setup", started)["setup_s"] for _ in range(SETUP_PROBES)]
    runs = _run_until(workload, seed, seconds, started)
    setups += [r["setup_s"] for r in runs]
    values = {
        "setup_s": statistics.median(setups),
        "verdict_s": statistics.median(r["verdict_s"] for r in runs),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "decided_share": statistics.median(_decided_share(r) for r in runs),
    }
    attempted, failed, samples = _tally(runs)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    extra = {"verdicts": [r["verdict_s"] for r in runs], "setups": setups,
             "sampled": runs[0]["sampled"], "undecided": runs[0]["undecided"],
             "error_samples": samples}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": extra}


def measure_traced(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    os.makedirs(OUT, exist_ok=True)
    spans_out = os.path.join(OUT, f"trace-{workload}.tsv.gz")
    traced = spawn(workload, seed, "trace", started, spans_out)
    untraced = _run_until(workload, seed, seconds, started)
    t = traced["trace"]
    calls, busy, self_s, results = t["calls"], t["busy_s"], t["self_s"], t["results"]
    values: dict[str, float] = {}
    for fn in TRACED:
        values[f"{fn}.calls"] = calls.get(fn, 0)
        values[f"{fn}.busy_s"] = busy.get(fn, 0.0)
        values[f"{fn}.self_s"] = self_s.get(fn, 0.0)
    for suites in WORKLOAD_SUITES.values():
        for suite in suites:
            values[f"checks.{suite}.busy_s"] = busy.get(f"checks.{suite}", 0.0)
    cons = results.get("congruence.all_congruences", 0)
    values["congruence.generated_per_con"] = (
        calls.get("congruence.congruence_generated", 0) / cons if cons else 0.0)
    values["interior.check_axioms.p50_ms"] = t["check_axioms_p50_ms"]
    values["interior.check_axioms.p95_ms"] = t["check_axioms_p95_ms"]
    values["interior.enumerate_eios.maps_found"] = results.get("interior.enumerate_eios", 0)
    values["corpus.run_claims.skipped"] = results.get("corpus.run_claims", 0)
    values["trace.verdict_s"] = t["verdict_s"]
    values["trace.unattributed_s"] = t["unattributed_s"]
    base = statistics.median(r["verdict_s"] for r in untraced)
    values["trace.overhead_share"] = t["verdict_s"] / base - 1.0
    attempted, failed, samples = _tally([traced, *untraced])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}
    extra = {"verdicts": [r["verdict_s"] for r in untraced], "absent": t["absent"],
             "spans": t["spans"], "trace_setup_s": t["setup_s"],
             "spans_file": os.path.relpath(spans_out, ROOT), "error_samples": samples}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": extra}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = environment()
    result = (measure_traced if trace else measure)(workload, seed, seconds)
    env["loadavg_end"] = list(os.getloadavg())
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, **result}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return record


def _print_table(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}) "
          f"env {json.dumps(record['env'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    share = record["failed"] / record["attempted"]
    print(f"  {'error_share':45s} {share:14.6g} ratio "
          f"({record['failed']}/{record['attempted']} rows)")
    for sample in record["detail"]["error_samples"]:
        print(f"  error: {sample}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="eqlat benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eqlat", "__init__.py")):
        print(f"no eqlat sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "eqlat"), quiet=1)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in workloads:
            records.append(run_one(workload, args.seed, args.seconds, args.trace))
            if args.workload == "all":
                _print_table(records[-1])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    ok = all(r["failed"] == 0 for r in records)
    if args.workload != "all":
        r = records[0]
        print("# " + json.dumps({"env": r["env"], **r["detail"]}))
        print(json.dumps({"correct": ok, "attempted": r["attempted"], "failed": r["failed"],
                          "metrics": r["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
