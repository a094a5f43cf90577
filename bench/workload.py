"""One benchmark workload in a fresh process.

Usage: python3 bench/workload.py WORKLOAD SEED SPAWNED_AT MODE [TRACE_OUT]

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process, so set-up time includes interpreter start. MODE is ``setup``
(build the inputs and stop), ``run`` (also produce and check every
verdict) or ``trace`` (``run`` with the tracer installed before the inputs
are built; spans go to TRACE_OUT). The last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import answers


def _build_inputs(workload: str, seed: int):
    """Build the workload's inputs.

    eqlat.checks caches the acceptance catalog, so run_suite reuses the one
    built here; the con-scan suites enumerate their carriers again.
    """
    from eqlat import checks, corpus

    if workload == "natural-maps":
        return checks.catalog_for_acceptance(seed)
    if workload == "con-scan":
        return corpus.enumerate_semilattices(6)
    entries = [corpus.m_infinity(k) for k in range(2, 6)]
    entries += [corpus.m2(k) for k in range(1, 5)]
    entries += [corpus.p1(k) for k in range(1, 4)]
    entries.append(corpus.k_lattice())
    return corpus.enumerate_semilattices(7), corpus.boolean(3), entries


def _verdict(o) -> str:
    return "skip" if o.passed is None else ("pass" if o.passed else "fail")


def _run(workload: str, seed: int, inputs, span) -> list[tuple]:
    """Every verdict of the workload as (check, structure, verdict, note) rows."""
    from eqlat import checks, corpus, interior
    from eqlat.errors import SearchBudgetExceeded

    rows = []
    for suite in answers.WORKLOAD_SUITES[workload]:
        with span(f"checks.{suite}"):
            outcomes = checks.run_suite(suite, seed=seed)
        rows.extend((o.check, o.structure, _verdict(o), o.note) for o in outcomes)
    if workload != "eio-search":
        return rows
    entries = inputs[2]
    for entry in entries:
        with span("bench.claims"):
            results = corpus.run_claims(entry)
        rows.extend((r.name, entry.name, _verdict(r), r.note) for r in results)
    lattice = next(e for e in entries if e.name == "m_infinity(4)").structure
    with span("bench.m_infinity(4)"):
        try:
            found = len(interior.enumerate_eios(lattice))
        except SearchBudgetExceeded as exc:
            rows.append(("enumerate_eios", "m_infinity(4)", "skip", str(exc)))
        else:
            ok = found == answers.M_INFINITY_4_EIOS
            rows.append(("enumerate_eios", "m_infinity(4)", "pass" if ok else "fail",
                         f"maps={found}"))
    return rows


def main(argv: list[str]) -> int:
    workload, seed, spawned_at, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}")
        tracer.install()
        span = tracer.span
    else:
        span = lambda name: contextlib.nullcontext()  # noqa: E731

    import eqlat

    src = os.path.dirname(os.path.dirname(os.path.abspath(eqlat.__file__)))
    with span("bench.setup"):
        inputs = _build_inputs(workload, seed)
    ready = time.monotonic()
    out: dict = {"setup_s": ready - spawned_at, "eqlat": src}
    if mode != "setup":
        started = time.perf_counter()
        error = None
        rows: list[tuple] = []
        with span("bench.verdict"):
            try:
                rows = _run(workload, seed, inputs, span)
            except Exception as exc:  # a raising workload is reported, not hidden
                error = f"{type(exc).__name__}: {exc}"
        out["verdict_s"] = time.perf_counter() - started
        errors, undecided = answers.check_rows(workload, rows)
        if error is not None:
            errors.insert(0, f"raised {error}")
        expected = len(answers.expected_rows(workload))
        out.update(
            rows=expected,
            errors=min(len(errors), expected),
            error_samples=errors[:5],
            undecided=undecided,
            sampled=sum(1 for r in rows if r[3] and r[3].startswith("sampled")),
        )
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime + children.ru_utime + children.ru_stime
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = _trace_summary(tracer)
        tracer.write(argv[4])
    print(json.dumps(out))
    return 0


def _percentile_ms(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _trace_summary(tracer) -> dict:
    from tracer import TRACED

    axioms = tracer.durations("interior.check_axioms")
    own = [name for name in tracer.names if name not in TRACED]
    return {
        "calls": tracer.calls,
        "busy_s": tracer.busy,
        "self_s": tracer.self_time,
        "results": tracer.results,
        "absent": tracer.absent,
        "check_axioms_p50_ms": _percentile_ms(axioms, 0.50),
        "check_axioms_p95_ms": _percentile_ms(axioms, 0.95),
        "setup_s": tracer.busy["bench.setup"],
        "verdict_s": tracer.busy["bench.verdict"],
        # Time inside the benchmark's own spans but in no traced function.
        "unattributed_s": sum(tracer.self_time[name] for name in own),
        "spans": len(tracer.span_id),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
