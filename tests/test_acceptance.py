"""Acceptance gate: ten exact criteria, one visible pass/fail line each.

Each test computes its verdict, prints a single ``PASS criterion-N`` or
``FAIL criterion-N`` line outside the capture machinery, then asserts.
"""

from __future__ import annotations

import time

import oracles
from eqlat.checks import all_passed, catalog_for_acceptance, run_suite
from eqlat.congruence import all_congruences, all_don, all_eon, con_of_don, don_of, don_of_eon, eon_of_don
from eqlat.corpus import boolean, build_named, enumerate_semilattices, omega, run_claims, m2, m_infinity, p1
from eqlat.interior import check_axioms, check_bicoatomic, check_four_coatom, enumerate_eios, natural_eta


def _report(capsys, number: int, ok: bool, detail: str, started: float) -> None:
    elapsed = time.time() - started
    line = f"{'PASS' if ok else 'FAIL'} criterion-{number}: {detail} ({elapsed:.1f}s)"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_galois_duality(capsys):
    t0 = time.time()
    outcomes = run_suite("consl")
    ok = len(outcomes) == 25 and all_passed(outcomes)
    _report(
        capsys, 1, ok,
        f"congruence/subset-family duality exact on {len(outcomes)} carriers up to 6 elements",
        t0,
    )


def test_criterion_2_relation_transforms(capsys):
    t0 = time.time()
    failures = []
    entries = list(catalog_for_acceptance(0))
    for name, s in entries:
        cons = all_congruences(s).congruences
        dons = all_don(s)
        eons = all_eon(s)
        if not (len(cons) == len(dons) == len(eons)):
            failures.append(f"{name}: counts differ")
            continue
        don_map = {}
        for theta in cons:
            d = don_of(s, theta)
            if con_of_don(s, d).rep != theta.rep:
                failures.append(f"{name}: con round trip")
            e = eon_of_don(s, d)
            if don_of_eon(s, e).rows != d.rows:
                failures.append(f"{name}: eon round trip")
            don_map[theta.rep] = (d, e)
        for d in dons:
            if don_of(s, con_of_don(s, d)).rows != d.rows:
                failures.append(f"{name}: don round trip")
        for e in eons:
            if eon_of_don(s, don_of_eon(s, e)).rows != e.rows:
                failures.append(f"{name}: eon closure round trip")
        for a in cons:
            for b in cons:
                da, ea = don_map[a.rep]
                db, eb = don_map[b.rep]
                if a.refines(b) != db.contains(da) or a.refines(b) != eb.contains(ea):
                    failures.append(f"{name}: order mismatch")
        if failures:
            break
    ok = not failures
    _report(
        capsys, 2, ok,
        f"four relation round-trips and three isomorphic lattices on {len(entries)} structures"
        + (f"; first failure {failures[0]}" if failures else ""),
        t0,
    )


def test_criterion_3_natural_map_axioms(capsys):
    t0 = time.time()
    details = []
    ok = True
    for suite in ("equaint", "prop", "twelve"):
        outcomes = run_suite(suite)
        ok = ok and all_passed(outcomes) and len(outcomes) == 401
        details.append(f"{suite}:{len(outcomes)}")
    _report(
        capsys, 3, ok,
        "natural interior maps pass I1-I7, both closing conditions, and finite-family I9 "
        + "on every catalog congruence lattice [" + ", ".join(details) + "]",
        t0,
    )


def test_criterion_4_predecessor_chains(capsys):
    t0 = time.time()
    ok = True
    for n in range(1, 7):
        s = omega(n).structure
        conl = all_congruences(s)
        reps = {t.rep for t in conl.congruences}
        ok = ok and reps == oracles.oracle_congruences(s)
        ok = ok and len(reps) == n + 1
        lat = conl.lattice
        ok = ok and all(
            lat.leq(i, j) or lat.leq(j, i) for i in range(lat.n) for j in range(lat.n)
        )
        im = natural_eta(s, conl)
        ok = ok and im.h == im.tau
    _report(
        capsys, 4, ok,
        "predecessor chains have (n+1)-chain congruence lattices with least = greatest, "
        "matching the partition-filter oracle for n = 1..6",
        t0,
    )


def test_criterion_5_nine_element_reconstruction(capsys):
    t0 = time.time()
    entry = build_named("k_lattice")
    results = run_claims(entry)
    ok = all(r.passed for r in results)

    b3 = boolean(3).structure
    universe = oracles.oracle_congruences(b3)

    def least_containing(pairs):
        above = [
            r for r in universe if all(r[x] == r[y] for x, y in pairs)
        ]
        least = [r for r in above if all(oracles.refines(r, o) for o in above)]
        assert len(least) == 1
        return least[0]

    def orac_join(a, b):
        return least_containing(
            [(x, y) for x in range(8) for y in range(8) if a[x] == a[y] or b[x] == b[y]]
        )

    def orac_meet(a, b):
        blocks: dict[tuple[int, int], list[int]] = {}
        for x in range(8):
            blocks.setdefault((a[x], b[x]), []).append(x)
        rep = [0] * 8
        for mem in blocks.values():
            for x in mem:
                rep[x] = mem[0]
        return tuple(rep)

    idx = b3.index
    seeds = {
        least_containing([(0, idx["p"])]),
        least_containing([(0, idx["q"])]),
        least_containing([(0, idx["pq"])]),
        tuple([0] + [1] * 7),
    }
    closure = set(seeds)
    changed = True
    while changed:
        changed = False
        for a in list(closure):
            for b in list(closure):
                for c in (orac_join(a, b), orac_meet(a, b)):
                    if c not in closure:
                        closure.add(c)
                        changed = True
    ok = ok and len(closure) == 9
    ok = ok and closure == {t.rep for t in entry.extra["members"]}

    lat = entry.structure if hasattr(entry.structure, "meet_table") else entry.structure.lattice
    label_index = {lab: i for i, lab in enumerate(lat.labels)}
    seed_idx = {label_index[lab] for lab in ("a", "c", "x", "z")}
    ok = ok and oracles.oracle_closed_sublattices(lat, seed_idx) == [(1 << lat.n) - 1]

    eios = enumerate_eios(lat)
    ok = ok and len(eios) == 1
    a_i = label_index["a"]
    if ok:
        h = eios[0].h
        ok = all((h[t] == lat.bottom) == lat.leq(t, a_i) for t in range(lat.n))
    report = check_axioms(lat, eios[0]) if ok else None
    ok = ok and report.verdict("dagger").witness == {"zeta": "z", "gamma": "c", "chi": "x"}
    bic = check_bicoatomic(lat)
    ok = ok and bic.passed is False and bic.witness == {"p": "a", "u": "x", "v": "z"}
    _report(
        capsys, 5, ok,
        "nine-element reconstruction: closure size, membership, unique threshold operator, "
        "first closing-condition failure (z, c, x), non-bicoatomic witness (a, x, z), "
        "all cross-checked against partition and subset-scan oracles",
        t0,
    )


def test_criterion_6_boolean_counterexample(capsys):
    t0 = time.time()
    s = boolean(3).structure
    h = list(range(s.n))
    h[s.index["q"]] = s.index["0"]
    report = check_axioms(s.lattice, tuple(h))
    ok = all(report.verdict(f"I{k}").passed for k in range(1, 9))
    dd = report.verdict("ddagger")
    ok = ok and dd.passed is False and dd.witness == {"x": "p", "z": "r"}
    count = len(enumerate_eios(s.lattice))
    ok = ok and count >= 1
    _report(
        capsys, 6, ok,
        f"atom-collapse map on the three-atom Boolean lattice fails the second closing "
        f"condition at (p, r) while {count} full interior operators exist",
        t0,
    )


def _implication_instances():
    lattices = [(f"L{s.n}-{i}", s.lattice) for i, s in enumerate(enumerate_semilattices(7))]
    lattices.append(("boolean(3)", boolean(3).structure.lattice))
    for lname, lat in lattices:
        for im in enumerate_eios(lat):
            yield lname, lat, im


def test_criterion_7_implication_sweep(capsys):
    t0 = time.time()
    total = 0
    dagger_passing = 0
    failures = []
    for lname, lat, im in _implication_instances():
        total += 1
        report = check_axioms(lat, im)
        if not report.verdict("dagger").passed:
            continue
        dagger_passing += 1
        if not check_bicoatomic(lat).passed:
            failures.append(f"{lname}: bicoatomic")
        if not check_four_coatom(lat, im).passed:
            failures.append(f"{lname}: four-coatom")
        if not report.verdict("I9").passed:
            failures.append(f"{lname}: finite families")
    ok = not failures and total == 382
    _report(
        capsys, 7, ok,
        f"first closing condition implies bicoatomicity, the four-coatom condition, and "
        f"finite-family stability on {dagger_passing}/{total} passing instances up to 8 elements"
        + (f"; first failure {failures[0]}" if failures else ""),
        t0,
    )


def test_criterion_8_coatom_dependence(capsys):
    t0 = time.time()
    details = []
    ok = True
    for suite in ("june1", "june2", "june5", "june6"):
        outcomes = run_suite(suite)
        skips = sum(1 for o in outcomes if o.passed is None)
        ok = ok and all_passed(outcomes)
        details.append(f"{suite}:{len(outcomes)}" + (f"({skips} skipped)" if skips else ""))
    _report(
        capsys, 8, ok,
        "coatom dependence conclusions hold on every instance passing the hypotheses ["
        + ", ".join(details) + "]",
        t0,
    )


def test_criterion_9_simplicity_and_coatomisticity(capsys):
    t0 = time.time()
    simple = run_suite("simple-scan")
    coat = run_suite("coatomistic")
    ok = all_passed(simple) and all_passed(coat)
    ok = ok and len(simple) == 25 and len(coat) == 25
    _report(
        capsys, 9, ok,
        "every simple single-operator instance has two elements and every operator-free "
        "congruence lattice up to 6 elements is coatomistic",
        t0,
    )


def test_criterion_10_truncation_evidence_only(capsys):
    t0 = time.time()
    ok = True
    observed = 0
    skipped = 0
    for entry in [m_infinity(k) for k in range(2, 6)] + [m2(k) for k in range(1, 5)] + [
        p1(k) for k in range(1, 4)
    ]:
        ok = ok and entry.truncated
        evidence = [c for c in entry.claims if not c.assertive]
        ok = ok and len(evidence) >= 2 and all(c.expected is None for c in evidence)
        for result in run_claims(entry):
            ok = ok and result.passed
            note = result.note or ""
            if "not asserted" in note:
                observed += 1
            if "evidence search skipped" in note:
                skipped += 1
    ok = ok and observed > 0 and skipped > 0
    _report(
        capsys, 10, ok,
        f"infinite-family truncations carry evidence-only claims "
        f"({observed} observations reported, {skipped} searches skipped on budget, none asserted)",
        t0,
    )
