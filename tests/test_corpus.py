from __future__ import annotations

import hashlib
import traceback
from collections import Counter

import pytest

import oracles
from eqlat import corpus, interior
from eqlat.corpus import (
    boolean,
    build_named,
    enumerate_semilattices,
    generate_catalog,
    k_lattice,
    m2,
    m_infinity,
    omega,
    p1,
    run_claims,
)
from eqlat.errors import BudgetExceeded, ParamOutOfRange
from eqlat.order import canonical_key, dot_hasse
from eqlat.semilattice import semilattice_from_json

# OEIS A006966: finite lattices, equivalently join-semilattices with zero.
SIZE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}


def test_enumeration_counts_up_to_seven():
    pool = enumerate_semilattices(7)
    assert Counter(s.n for s in pool) == {n: k for n, k in SIZE_COUNTS.items() if n <= 7}


def test_enumeration_matches_relation_scan_oracle():
    pool = enumerate_semilattices(4)
    counts = Counter(s.n for s in pool)
    for n in range(1, 5):
        assert counts[n] == oracles.oracle_semilattice_count(n)


def test_enumeration_has_no_isomorphic_pair():
    pool = [s for s in enumerate_semilattices(6) if s.n == 6]
    for i, a in enumerate(pool):
        for b in pool[i + 1 :]:
            assert not oracles.oracle_isomorphic(a.lattice.up, b.lattice.up)
    assert len({canonical_key(s.join_t) for s in pool}) == len(pool)


def test_enumeration_is_deterministic():
    first = [s.join_t for s in enumerate_semilattices(6)]
    second = [s.join_t for s in enumerate_semilattices.__wrapped__(6)]
    assert first == second
    assert enumerate_semilattices(6) is enumerate_semilattices(6)


# sha256 of repr([s.join_t for s in enumerate_semilattices(7)]): the order
# of the carriers fixes every S{n}-{k} and L{n}-{k} name in the suites.
ENUMERATION_DIGEST = "449dd8c8c1be313cf941126db5ddc19c3ea9c425d878df23e54546091f6ac311"


def test_enumeration_order_and_tables_are_pinned():
    pool = enumerate_semilattices(7)
    digest = hashlib.sha256(repr([s.join_t for s in pool]).encode()).hexdigest()
    assert digest == ENUMERATION_DIGEST
    for s in pool:
        for x in range(s.n):
            for y in range(s.n):
                upper = [w for w in range(s.n) if s.leq(x, w) and s.leq(y, w)]
                assert s.join(x, y) in upper
                assert all(s.leq(s.join(x, y), w) for w in upper)


# sha256 of repr() of the join tables of the 8-element carriers, in order.
EIGHT_ELEMENT_DIGEST = "fe6a2825364b84b26d047637dac1ea0c7c82510da21dcba317a091431feeb46c"


def test_eight_element_carriers_are_counted_and_pinned():
    pool = enumerate_semilattices(8)
    assert Counter(s.n for s in pool) == SIZE_COUNTS
    eight = [s.join_t for s in pool if s.n == 8]
    assert hashlib.sha256(repr(eight).encode()).hexdigest() == EIGHT_ELEMENT_DIGEST


def test_enumeration_walks_only_toward_complete_leaves(monkeypatch):
    """The top is placed last, so no leaf is partial and the last level needs no walk."""
    counts = Counter()
    walk, key = corpus.closed_sets, corpus.canonical_key

    def counted_walk(*args, **kwargs):
        counts["walks"] += 1
        return walk(*args, **kwargs)

    def counted_key(table):
        counts["keys"] += 1
        counts["partial"] += any(None in row for row in table)
        return key(table)

    monkeypatch.setattr(corpus, "closed_sets", counted_walk)
    monkeypatch.setattr(corpus, "canonical_key", counted_key)
    enumerate_semilattices.__wrapped__(7)
    assert (counts["walks"], counts["keys"], counts["partial"]) == (68, 370, 0)


def test_enumeration_bounds():
    with pytest.raises(ParamOutOfRange):
        enumerate_semilattices(0)
    with pytest.raises(BudgetExceeded):
        enumerate_semilattices(9)


def test_catalog_is_deterministic_for_a_seed():
    a = generate_catalog(5, max_operators=2, seed=3)
    b = generate_catalog(5, max_operators=2, seed=3)
    assert [name for name, _ in a] == [name for name, _ in b]
    assert [s.to_json() for _, s in a] == [s.to_json() for _, s in b]
    assert a.parameters == b.parameters


def test_catalog_small_decorations_cover_all_endomorphisms():
    cat = generate_catalog(2, max_operators=1, seed=0)
    two_ops = [
        s.operators[0][1]
        for name, s in cat
        if s.n == 2 and len(s.operators) == 1
    ]
    assert (0, 0) in two_ops and (0, 1) in two_ops


def test_catalog_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRange):
        generate_catalog(3, max_operators=-1)


@pytest.mark.parametrize(
    "name,params",
    [("boolean", range(0, 6)), ("chain", range(0, 13)), ("omega", range(1, 11)),
     ("m_infinity", range(2, 6)), ("m2", range(1, 5)), ("p1", range(1, 4))],
)
def test_all_parameterized_builders_verify_their_claims(name, params):
    for n in params:
        entry = build_named(name, n)
        for result in run_claims(entry):
            assert result.passed, (name, n, result)


def test_reconstruction_entry_claims(k_entry):
    for result in run_claims(k_entry):
        assert result.passed, result


def test_reconstruction_seeds_generate_the_whole_lattice(k_entry):
    lat = k_entry.structure if hasattr(k_entry.structure, "meet_table") else k_entry.structure.lattice
    idx = {lab: i for i, lab in enumerate(lat.labels)}
    seeds = {idx["a"], idx["c"], idx["x"], idx["z"]}
    closed = oracles.oracle_closed_sublattices(lat, seeds)
    assert closed == [(1 << lat.n) - 1]


def test_truncation_flags_and_evidence_notes():
    assert m_infinity(3).truncated and m2(2).truncated and p1(1).truncated
    assert not boolean(2).truncated and not k_lattice().truncated
    for entry in (m_infinity(3), m2(2), p1(1)):
        notes = [r.note for r in run_claims(entry) if r.note]
        assert any("not asserted" in n for n in notes)
        evidence_claims = [c for c in entry.claims if not c.assertive]
        assert evidence_claims and all(c.expected is None for c in evidence_claims)


def test_oversized_truncation_evidence_is_skipped_not_crashed():
    entry = p1(3)
    results = run_claims(entry)
    assert all(r.passed for r in results)
    assert any("evidence search skipped" in (r.note or "") for r in results)


def test_truncation_evidence_within_the_cap_is_observed():
    cases = (
        (m_infinity(4), 1, True), (m_infinity(5), 1, True), (m2(3), 22, False), (p1(2), 29, False),
    )
    for entry, count, i9_all in cases:
        notes = {r.name: r.note for r in run_claims(entry)}
        assert notes["eio_count"].startswith(f"observed={count};"), entry.name
        assert notes["eio_i9_all"].startswith(f"observed={i9_all};"), entry.name


def test_i9_evidence_past_the_state_cap_is_skipped_not_false(monkeypatch):
    monkeypatch.setattr(interior, "_I9_STATE_CAP", 1)
    result = {r.name: r for r in run_claims(m2(2))}["eio_i9_all"]
    assert result.passed
    assert result.note.startswith("evidence search skipped") and "exceed cap" in result.note


def _count_calls(monkeypatch, name: str) -> list:
    calls: list = []
    real = getattr(corpus, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(corpus, name, counting)
    return calls


def test_run_claims_builds_each_search_once(monkeypatch):
    eios = _count_calls(monkeypatch, "enumerate_eios")
    cons = _count_calls(monkeypatch, "all_congruences")
    for entry in (m2(2), k_lattice()):
        eios.clear()
        assert all(r.passed for r in run_claims(entry))
        assert len(eios) == 1, entry.name
    cons.clear()
    assert all(r.passed for r in run_claims(omega(3)))
    assert len(cons) == 1
    # A blown search budget is remembered too: both evidence claims skip
    # with the same note after one search.
    monkeypatch.setattr(corpus, "_EVIDENCE_CAP", 1)
    eios.clear()
    notes = [r.note for r in run_claims(m2(2)) if r.name != "element_count"]
    assert len(eios) == 1
    assert len(notes) == 2 and notes[0] == notes[1]
    assert notes[0].startswith("evidence search skipped: more than 1 search nodes")


def test_a_memoized_budget_error_keeps_no_traceback():
    def build():
        raise BudgetExceeded("search nodes", 7)

    memo: dict = {}
    raised = []
    for _ in range(3):
        with pytest.raises(BudgetExceeded) as exc:
            corpus._once(memo, "eios", build)
        raised.append(exc.value)
    assert memo["eios"].__traceback__ is None
    assert {str(e) for e in raised} == {"more than 7 search nodes exceed cap 7"}
    assert len({len(traceback.extract_tb(e.__traceback__)) for e in raised}) == 1


def test_truncation_element_counts():
    for k in range(2, 6):
        assert m_infinity(k).structure.n == 2**k + k + 1
    for k in range(1, 5):
        assert m2(k).structure.n == 3 * 2**k + 1
    assert p1(1).structure.n == 14


def test_builder_errors():
    for name, bad in [("boolean", 6), ("chain", 13), ("omega", 0),
                      ("m_infinity", 1), ("m2", 5), ("p1", 4)]:
        with pytest.raises(ParamOutOfRange):
            build_named(name, bad)
    with pytest.raises(ParamOutOfRange):
        build_named("bogus")
    with pytest.raises(ParamOutOfRange):
        build_named("omega")
    with pytest.raises(ParamOutOfRange):
        build_named("k_lattice", 3)


def test_json_round_trip_on_catalog_entries():
    for _, s in generate_catalog(4, max_operators=1, seed=1):
        again = semilattice_from_json(s.to_json())
        assert again.labels == s.labels
        assert again.join_t == s.join_t
        assert again.operators == s.operators


def test_dot_export_covers_every_edge():
    s = omega(3).structure
    text = dot_hasse(s.lattice.poset)
    assert text.startswith("digraph")
    for i, j in s.lattice.poset.covers:
        assert f'"{s.labels[i]}" -> "{s.labels[j]}"' in text
