from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

import oracles
from eqlat import checks, congruence, interior, order
from eqlat.congruence import all_congruences, congruence_generated, eta, tau
from eqlat.corpus import (
    boolean, chain, enumerate_semilattices, k_lattice, m2, m_infinity, named_by_size, omega, p1,
)
from eqlat.errors import BudgetExceeded, InvariantViolation, SearchBudgetExceeded
from eqlat.interior import (
    DEFAULT_EIO_AXIOMS,
    InteriorMap,
    Verdict,
    check_axioms,
    check_coatom_dependence,
    check_four_coatom,
    enumerate_eios,
    natural_eta,
    normalize_map,
    tau_of_map,
)
from eqlat.order import FinitePoset, as_lattice, iter_bits, lattice_from_covers, lattice_of


def m3():
    return lattice_from_covers(
        ("0", "a", "b", "c", "1"),
        (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")),
    )


def n5():
    return lattice_from_covers(
        ("0", "a", "b", "c", "1"),
        (("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")),
    )


def b3_counterexample_map():
    s = boolean(3).structure
    h = list(range(s.n))
    h[s.index["q"]] = s.index["0"]
    return s, tuple(h)


def test_enumeration_matches_full_map_scan(small_semilattices):
    checked = 0
    for s in small_semilattices:
        l = s.lattice
        if l.n > 5:
            continue
        got = {im.h for im in enumerate_eios(l)}
        assert got == oracles.oracle_eios(l)
        checked += 1
    assert checked >= 10


def test_known_eio_counts():
    assert len(enumerate_eios(boolean(2).structure.lattice)) == 3
    assert len(enumerate_eios(boolean(3).structure.lattice)) == 22


def test_enumeration_requires_the_generating_axioms():
    with pytest.raises(InvariantViolation):
        enumerate_eios(boolean(2).structure.lattice, axioms=("I1", "I2", "I3"))
    with pytest.raises(InvariantViolation):
        enumerate_eios(boolean(2).structure.lattice, axioms=("I1", "I2", "I3", "I4", "bogus"))


def test_enumeration_budget_guard():
    l = chain(6).structure.lattice
    with pytest.raises(SearchBudgetExceeded):
        enumerate_eios(l, max_nodes=16)


def test_the_distributive_filter_does_not_stall_a_large_search():
    # The I6 filter runs inside the search, once per element it asks about;
    # on a 500-element chain an O(n^3) filter kept the node cap from
    # tripping for seconds.
    n = 500
    full = (1 << n) - 1
    up = tuple(full ^ ((1 << i) - 1) for i in range(n))
    l = as_lattice(FinitePoset(tuple(map(str, range(n))), up))
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_eios(l, max_nodes=3000)
    assert str(exc.value) == "more than 3000 search nodes exceed cap 3000"


_BASIC = ("I1", "I2", "I3", "I4")


def _filtered_scan(l, axioms, check_i5_i6=False):
    """The image-scan oracle, keeping the maps that pass the given axioms."""
    return [
        h for h in oracles.oracle_eios_by_image_scan(l, check_i5_i6)
        if check_axioms(l, h).passed_all(axioms)
    ]


def test_enumeration_matches_the_image_scan_oracle_in_order():
    lattices = [s.lattice for s in enumerate_semilattices(7)] + [boolean(3).structure.lattice]
    closing = DEFAULT_EIO_AXIOMS | {"I9", "dagger", "ddagger"}
    for l in lattices:
        assert [im.h for im in enumerate_eios(l)] == oracles.oracle_eios_by_image_scan(l)
        basic = enumerate_eios(l, axioms=_BASIC)
        assert [im.h for im in basic] == oracles.oracle_eios_by_image_scan(l, check_i5_i6=False)
        for extra in ("I5", "I6"):
            got = enumerate_eios(l, axioms=_BASIC + (extra,))
            assert [im.h for im in got] == _filtered_scan(l, (extra,)), (l.labels, extra)
        got = enumerate_eios(l, axioms=closing)
        want = _filtered_scan(l, ("I9", "dagger", "ddagger"), check_i5_i6=True)
        assert [im.h for im in got] == want


def test_enumeration_budget_counts_search_nodes():
    l = boolean(2).structure.lattice
    assert len(enumerate_eios(l, max_nodes=11)) == 3
    with pytest.raises(SearchBudgetExceeded, match="more than 10 search nodes exceed cap 10"):
        enumerate_eios(l, max_nodes=10)


@pytest.mark.parametrize(
    "entry, nodes",
    [(lambda: boolean(2), 11), (lambda: m2(1), 15), (lambda: p1(2), 827),
     (lambda: m2(4), 6155), (lambda: p1(3), 20116)],
    ids=["boolean(2)", "m2(1)", "p1(2)", "m2(4)", "p1(3)"],
)
def test_search_node_counts_are_pinned(entry, nodes):
    # Any change to the pruning shows here first: the search visits exactly
    # this many nodes with the default axioms.
    l = entry().structure
    l = getattr(l, "lattice", l)
    enumerate_eios(l, max_nodes=nodes)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_eios(l, max_nodes=nodes - 1)


# sha256 of json.dumps of the label maps of enumerate_eios(m2(4)), in order.
M2_4_LABEL_MAPS_DIGEST = "b95aee92e1a5918d0a01839fbb0b9637dcffd6a5330b0145ffbfb01b40389fdc"


def test_search_maps_of_m2_4_are_pinned():
    maps = [im.as_label_map() for im in enumerate_eios(m2(4).structure)]
    assert len(maps) == 485
    assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == M2_4_LABEL_MAPS_DIGEST


def test_search_leaves_hold_the_registry_verdicts_the_search_decided():
    lattices = [s.lattice for s in enumerate_semilattices(7)] + [boolean(3).structure.lattice]
    cases = [(l, axioms) for l in lattices for axioms in (_BASIC, _BASIC + ("I5",), _BASIC + ("I6",), None)]
    # m2(3) has 134,364 maps passing I1 to I4; p1(2)'s search passes the
    # default node cap unless I6 prunes it.
    cases += [(m2(3).structure, axioms) for axioms in (_BASIC + ("I5",), _BASIC + ("I6",), None)]
    cases += [(p1(2).structure, axioms) for axioms in (_BASIC + ("I6",), None)]
    for l, axioms in cases:
        decided = interior._DECIDED_BY_SEARCH & frozenset(axioms or DEFAULT_EIO_AXIOMS)
        for im in enumerate_eios(l, axioms):
            stored = {name: v for name, v in im._store.items() if name in interior._AXIOMS}
            assert stored.keys() == decided, (l.labels, axioms, im.h)
            for name, v in stored.items():
                assert v == interior._AXIOMS[name](interior._MapData(im.lattice, im.h)), (name, im.h)


def test_search_leaves_re_decide_nothing(monkeypatch):
    def refuse(m):
        raise AssertionError("a search leaf re-decided an axiom")

    for name in interior._DECIDED_BY_SEARCH:
        monkeypatch.setitem(interior._AXIOMS, name, refuse)
    maps = [im.as_label_map() for im in enumerate_eios(m2(4).structure)]
    assert len(maps) == 485
    assert hashlib.sha256(json.dumps(maps).encode()).hexdigest() == M2_4_LABEL_MAPS_DIGEST


def test_the_search_tests_an_i6_point_only_when_a_branch_asks(monkeypatch):
    # p1(3) has 146 elements and m2(4) 49; a forced image point is a join
    # of distributive ones, so it needs no test.
    asked = []
    is_distributive = interior._is_distributive
    monkeypatch.setattr(interior, "_is_distributive", lambda l, d: asked.append(d) or is_distributive(l, d))
    with pytest.raises(SearchBudgetExceeded):
        enumerate_eios(p1(3).structure, max_nodes=16384)
    assert (len(asked), len(set(asked))) == (49, 49)
    asked.clear()
    enumerate_eios(m2(4).structure)
    assert (len(asked), len(set(asked))) == (21, 21)


def _glued_chains(k):
    """k chains 0 < m_i < c_i < x sharing their ends."""
    labels = ("0",) + tuple(f"{p}{i}" for i in range(1, k + 1) for p in "mc") + ("x",)
    covers = []
    for i in range(1, k + 1):
        covers += [("0", f"m{i}"), (f"m{i}", f"c{i}"), (f"c{i}", "x")]
    return lattice_from_covers(labels, covers)


def test_an_i5_tie_below_the_lower_covers_prunes():
    # Image {0, c1, x}: h(m1) = h(c2) = 0 and m1 v c2 = x, so I5 fails at x
    # though h(c1) = c1 and h(c2) = 0 differ on the lower covers of x.
    l = _glued_chains(2)
    image = {l.labels.index(e) for e in ("0", "c1", "x")}
    h = tuple(max((w for w in image if l.leq(w, y)), key=lambda w: l.down[w].bit_count())
              for y in range(l.n))
    assert h in {im.h for im in enumerate_eios(l, axioms=_BASIC)}
    assert not check_axioms(l, h).verdict("I5").passed
    assert h not in {im.h for im in enumerate_eios(l, axioms=_BASIC + ("I5",))}


@pytest.mark.parametrize(
    "make",
    [lambda: _glued_chains(2), lambda: _glued_chains(3), lambda: m_infinity(3).structure,
     lambda: m2(2).structure, lambda: p1(1).structure],
    ids=["two-chains", "three-chains", "m_infinity(3)", "m2(2)", "p1(1)"],
)
def test_i5_pruning_matches_the_image_scan_oracle(make):
    l = make()
    got = enumerate_eios(l, axioms=_BASIC + ("I5",))
    assert [im.h for im in got] == _filtered_scan(l, ("I5",))
    assert [im.h for im in enumerate_eios(l)] == oracles.oracle_eios_by_image_scan(l)


def test_truncation_map_counts():
    # p1(3) needs 20,116 search nodes, above the evidence cap of run_claims
    # but well inside enumerate_eios' default.
    for entry, count in ((m2(4), 485), (p1(2), 29), (p1(3), 473)):
        assert len(enumerate_eios(entry.structure)) == count, entry.name


def test_implication_instances_are_pinned():
    # Digest of every (name, map, battery report) row of the implication
    # corpus, taken before the interior-map search became a backtracking one.
    # The suites read only dagger, I5 and I9, so the full battery runs here.
    rows = [
        (name, im.h, check_axioms(lat, im).as_dict())
        for name, _, lat, im in checks._implication_instances()
    ]
    assert len(rows) == 382
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "de52766fb7b9e10e0c3ea6d3fb1f534fe8837f68ef5a84f64decc059ac3e7aeb"
    )


def test_enumeration_budget_trips_before_any_map_is_built(monkeypatch):
    def no_maps(*args):
        raise AssertionError("a candidate map was built")

    monkeypatch.setattr(interior, "InteriorMap", no_maps)
    l = boolean(3).structure.lattice
    for axioms in (None, _BASIC):
        with pytest.raises(SearchBudgetExceeded, match="exceed cap 5"):
            enumerate_eios(l, axioms=axioms, max_nodes=5)


def test_interior_map_validates_basic_axioms():
    l = boolean(2).structure.lattice
    with pytest.raises(InvariantViolation):
        InteriorMap(l, (0, 3, 0, 3))
    with pytest.raises(InvariantViolation):
        InteriorMap(l, (0, 1, 2, 0))


def test_normalize_map_accepts_label_dicts():
    s = boolean(2).structure
    h = normalize_map(s.lattice, {"0": "0", "p": "0", "q": "0", "1": "1"})
    assert h == (0, 0, 0, 3)


@pytest.mark.parametrize("h,message", [
    ({"0": "0", "p": "zz", "q": "0", "1": "1"}, "unknown label in map entry 'p' -> 'zz'"),
    ({"0": "0", "1": "1"}, "map does not cover every element"),
    ((0, 0, 3), "map is not a total map on the carrier"),
])
def test_normalize_map_rejects_maps_that_are_not_total(h, message):
    with pytest.raises(InvariantViolation, match=message):
        normalize_map(boolean(2).structure.lattice, h)


def test_identity_passes_on_distributive_lattices():
    for l in (boolean(2).structure.lattice, chain(4).structure.lattice):
        report = check_axioms(l, tuple(range(l.n)))
        assert report.passed
        assert report.failing() == ()


def test_identity_fails_the_distributivity_axiom_on_m3_and_n5():
    for l in (m3(), n5()):
        report = check_axioms(l, tuple(range(l.n)))
        verdict = report.verdict("I6")
        assert verdict.passed is False
        assert set(verdict.witness) == {"x", "y", "z"}


def test_counterexample_map_fails_only_the_closing_axioms():
    s, h = b3_counterexample_map()
    report = check_axioms(s.lattice, h)
    for name in ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"):
        assert report.verdict(name).passed, name
    dd = report.verdict("ddagger")
    assert dd.passed is False
    assert dd.witness == {"x": "p", "z": "r"}
    d = report.verdict("dagger")
    assert d.passed is False
    assert d.witness == {"zeta": "r", "gamma": "pr", "chi": "p"}
    nine = report.verdict("I9")
    assert nine.passed is False
    assert nine.witness is not None and set(nine.witness) == {"x", "c", "zs"}


def test_tau_of_counterexample_map_identifies_the_collapsed_fiber():
    s, h = b3_counterexample_map()
    t = tau_of_map(s.lattice, h)
    q = s.index["q"]
    assert t[0] == q and t[q] == q
    assert all(t[x] == x for x in range(s.n) if x not in (0, q))


def test_fiber_blocks_are_intervals_from_value_to_tau():
    l = boolean(2).structure.lattice
    for im in enumerate_eios(l):
        assert im.satisfies_i5
        blocks = im.blocks
        assert len(blocks) == len(set(im.h))
        for lo, hi in blocks:
            assert l.leq(lo, hi) and im.h[lo] == lo and im.tau[lo] == hi


def test_natural_map_on_the_three_chain_is_not_the_identity():
    s = chain(2).structure
    conl = all_congruences(s)
    im = natural_eta(s, conl)
    upper = make_upper_collapse_index(s, conl)
    assert im.apply(upper) == 0
    assert im.h != tuple(range(conl.lattice.n))


def make_upper_collapse_index(s, conl):
    theta = congruence_generated(s, [(1, 2)])
    return conl.index_of(theta)


def test_natural_map_tau_matches_congruence_tau(small_semilattices):
    for s in small_semilattices[:6]:
        conl = all_congruences(s)
        im = natural_eta(s, conl)
        for i, theta in enumerate(conl.congruences):
            expected = conl.index_of(tau(s, theta))
            assert im.tau[i] == expected
            assert im.apply(i) == conl.index_of(eta(s, theta))


def test_natural_map_is_eta_on_the_acceptance_catalog():
    for _, s in checks.catalog_for_acceptance(0):
        conl = all_congruences(s)
        im = natural_eta(s, conl)
        for i, theta in enumerate(conl.congruences):
            assert im.apply(i) == conl.index_of(eta(s, theta))


def test_distributive_elements_match_the_pair_scan():
    lattices = [s.lattice for s in enumerate_semilattices(7)] + [boolean(3).structure.lattice]
    lattices += [all_congruences(s).lattice for _, s in checks.catalog_for_acceptance(0)]
    truncations = [m_infinity(k) for k in range(2, 6)] + [m2(k) for k in range(1, 5)]
    truncations += [p1(k) for k in range(1, 4)] + [k_lattice()]
    lattices += [getattr(e.structure, "lattice", e.structure) for e in truncations]
    for l in lattices:
        mask = sum(1 << d for d in range(l.n) if interior._is_distributive(l, d))
        assert mask == oracles.oracle_distributive_elements(l)


def test_natural_map_builds_the_closure_system_once(monkeypatch):
    # all_congruences keeps the residual rows of its walk, and natural_eta
    # reads them there.
    s = omega(3).structure
    calls = []
    real = congruence._closure_system

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(congruence, "_closure_system", counting)
    conl = all_congruences(s)
    assert len({theta.zero_class_mask(s) for theta in conl.congruences}) >= 2
    natural_eta(s, conl)
    assert calls == [s]


def test_natural_eta_calls_on_one_con_share_its_store(monkeypatch):
    s = omega(3).structure
    conl = all_congruences(s)
    first = natural_eta(s, conl)
    report = check_axioms(conl.lattice, first)
    computed = []
    for name, check in list(interior._AXIOMS.items()):
        monkeypatch.setitem(interior._AXIOMS, name, lambda m, check=check: computed.append(1) or check(m))
    second = natural_eta(s, conl)
    assert second is not first and second._store is first._store
    assert list(conl._stores.values()) == [first._store]
    assert check_axioms(conl.lattice, second) == report
    assert computed == []


def test_a_shared_store_labels_each_witness_in_its_own_lattice():
    # M3 twice, with equal up rows and different labels: one store holds the
    # index verdicts, and each report reads them in its own labels.
    h, stores = (0, 1, 2, 0, 4), {}
    lattices = [lattice_of(lambda labels=labels: labels, [0, 1, 2, 4, 7]) for labels in ("0abc1", "zpqrt")]
    maps = [InteriorMap(l, h, stores.setdefault((l.up, h), {})) for l in lattices]
    assert len(stores) == 1 and maps[0]._store is maps[1]._store
    reports = [check_axioms(l, im).as_dict() for l, im in zip(lattices, maps)]
    assert [r["I6"]["witness"] for r in reports] == [
        {"x": "a", "y": "b", "z": "c"}, {"x": "p", "y": "q", "z": "r"}]
    assert [r["I9"]["witness"] for r in reports] == [
        {"x": "b", "c": "b", "zs": "0,a"}, {"x": "q", "c": "q", "zs": "z,p"}]
    assert [name for name, v in reports[1].items() if not v["passed"]] == ["I6", "I9"]


def test_natural_reports_run_one_battery_per_order_and_map(monkeypatch):
    # 401 catalog entries; 218 distinct Con orders (up rows) and 274 distinct
    # (up rows, eta) at seed 0, 205 and 256 at seed 1.
    for seed, batteries, orders in ((0, 274, 218), (1, 256, 205)):
        checks.catalog_for_acceptance(seed)
        i9, built = [], []
        check_i9, build = interior._AXIOMS["I9"], order.as_lattice
        monkeypatch.setitem(interior._AXIOMS, "I9", lambda m: i9.append(1) or check_i9(m))
        monkeypatch.setattr(order, "as_lattice", lambda p: built.append(1) or build(p))
        rows = checks._natural_reports.__wrapped__(seed)
        monkeypatch.undo()
        assert (len(rows), len(i9), len(built)) == (401, batteries, orders)
        # Each entry on its own, with no store or tables shared.
        assert rows == [(name, check_axioms(c.lattice, natural_eta(s, c)))
                        for name, s in checks.catalog_for_acceptance(seed) for c in [all_congruences(s)]]


# {p, q, 1} has no least member; {0, p, q} has 0 least, but up(0) is no longer listed.
@pytest.mark.parametrize("foreign", [0b1110, 0b0111])
def test_natural_map_rejects_closed_sets_foreign_to_its_lattice(b2, foreign):
    conl = all_congruences(b2)
    assert conl.closed[0] == 0b1111
    stale = dataclasses.replace(conl, closed=(foreign,) + conl.closed[1:])
    with pytest.raises(InvariantViolation, match="closed sets do not match"):
        natural_eta(b2, stale)


def test_natural_map_rejects_residual_rows_foreign_to_its_lattice():
    # Under g = (0, 0, 2) the closure of {0, top} is the whole carrier, the
    # identity's T; on the bare chain it is {0, top}, whose congruence [0][1 2]
    # is the fiber join of eta at the identity.
    s = chain(2).structure
    conl = all_congruences(s)
    stale = dataclasses.replace(conl, _rows=all_congruences(s.with_operators([("g", (0, 0, 2))]))._rows)
    with pytest.raises(InvariantViolation, match="derived tau disagrees .* at index 0"):
        natural_eta(s, stale)


def test_natural_map_when_the_operators_generate_every_atom_map(atom_maps_b6):
    s = atom_maps_b6
    conl = all_congruences(s)
    assert [theta.block_count for theta in conl.congruences] == [64, 2, 1]
    assert tau(s, [0]).rep == (0,) + (1,) * 63
    assert eta(s, [0]).rep == tuple(range(64))
    im = natural_eta(s, conl)
    assert (im.h, im.tau) == ((0, 0, 2), (1, 1, 2))


def test_natural_map_passes_the_full_battery_on_small_carriers():
    for s in (chain(3).structure, boolean(2).structure, omega(4).structure):
        conl = all_congruences(s)
        report = check_axioms(conl.lattice, natural_eta(s, conl))
        assert report.passed, report.failing()


def test_i9_is_exact_on_every_carrier():
    s = boolean(2).structure
    conl = all_congruences(s)
    report = check_axioms(conl.lattice, natural_eta(s, conl))
    verdict = report.verdict("I9")
    assert verdict.passed
    assert verdict.note == "exact: 12 family states"

    # Sixteen elements: 2^16 - 1 families, decided through 16 states.
    big = boolean(4).structure.lattice
    report = check_axioms(big, tuple(range(big.n)))
    verdict = report.verdict("I9")
    assert verdict.passed
    assert verdict.note == "exact: 16 family states"
    assert all("sampled" not in (v.note or "") for _, v in report.entries)


def _assert_i9_matches_oracle(l, h):
    verdict = check_axioms(l, h).verdict("I9")
    assert verdict.passed == oracles.oracle_i9(l, h)
    if verdict.passed:
        return
    idx = l.poset.index
    w = verdict.witness
    zs = [idx[z] for z in w["zs"].split(",")]
    assert oracles.oracle_i9_violated(l, h, idx[w["x"]], idx[w["c"]], zs)
    assert oracles.oracle_i9(l, h, max_size=len(zs) - 1)


def test_i9_matches_the_oracle_on_small_maps(tiny_semilattices):
    for s in enumerate_semilattices(6):
        for im in enumerate_eios(s.lattice):
            _assert_i9_matches_oracle(s.lattice, im.h)
    for s in tiny_semilattices:
        conl = all_congruences(s)
        _assert_i9_matches_oracle(conl.lattice, natural_eta(s, conl).h)
    s, h = b3_counterexample_map()
    _assert_i9_matches_oracle(s.lattice, h)
    assert check_axioms(s.lattice, h).verdict("I9").witness == {"x": "r", "c": "pr", "zs": "p"}


_LATTICES_UP_TO_6 = [s.lattice for s in enumerate_semilattices(6)]
_LATTICES_UP_TO_5 = [l for l in _LATTICES_UP_TO_6 if l.n <= 5]
_LATTICE_AND_MAP = st.sampled_from(_LATTICES_UP_TO_5).flatmap(
    lambda l: st.tuples(st.just(l), st.tuples(*[st.integers(0, l.n - 1)] * l.n))
)
# 0 < e4 < e2, e3 < e1. The map below fails I2 and I9, and its failing slot
# x = e2 is one that slot masks applied as if I2 held would skip.
_E_LATTICE = next(l for l in _LATTICES_UP_TO_5 if l.up == (0b11111, 0b10, 0b110, 0b1010, 0b11110))


@given(_LATTICE_AND_MAP)
@example((_E_LATTICE, (0, 1, 0, 4, 4)))
def test_i9_matches_the_oracle_on_drawn_arbitrary_maps(case):
    # Non-monotone maps included: the per-slot pruning of the I9 walk holds
    # only under I2, so a map failing I2 must have every slot tested.
    l, h = case
    _assert_i9_matches_oracle(l, h)


def test_i9_verdicts_of_the_first_maps_of_m2_4_are_pinned():
    maps = enumerate_eios(m2(4).structure)[:10]
    notes = [im.verdict("I9").note for im in maps[:9]]
    assert notes == [f"exact: {k} family states" for k in (89, 89, 85, 89, 89, 85, 89, 91, 91)]
    assert all(im.verdict("I9").passed for im in maps[:9])
    assert maps[9].verdict("I9") == Verdict(False, {"x": "{m1,m3}", "c": "{m1}", "zs": "{m1,m2}"})


def test_i9_failure_on_p1_2_is_pinned():
    im = enumerate_eios(p1(2).structure)[1]
    assert im.verdict("I9") == Verdict(False, {"x": "{b1}", "c": "{b0}", "zs": "{a0,b0}"})


@pytest.mark.parametrize("entry, counts, digest", [
    (m2(3), (19, 3), "e1e391e04195cdeb21e61bb2f8b6a29754944b162fbe69b90b33be2f24c39349"),
    (p1(2), (3, 26), "7b61064e270007027a1f26f246922036025805839a62ffde79c36736a05af46a"),
], ids=["m2(3)", "p1(2)"])
def test_i9_on_every_map_of_the_truncations_is_pinned(entry, counts, digest):
    # n = 25 and 46: slots of several bytes, and elements whose generators
    # repeat an earlier one's. Digest taken while each generator was packed
    # bit by bit, in n-bit slots.
    rows = [(im.h, im.verdict("I9").as_dict()) for im in enumerate_eios(entry.structure)]
    assert tuple(sum(v["passed"] is p for _, v in rows) for p in (True, False)) == counts
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


@given(st.data())
def test_i9_matches_the_oracle_on_drawn_decreasing_maps(data):
    l = data.draw(st.sampled_from(_LATTICES_UP_TO_6))
    h = tuple(data.draw(st.sampled_from(list(iter_bits(l.down[x])))) for x in range(l.n))
    _assert_i9_matches_oracle(l, h)


def _assert_witnesses_match_the_plain_scans(l, h):
    report = check_axioms(l, h)
    for name, oracle in (("I2", oracles.oracle_first_i2_failure),
                         ("I5", oracles.oracle_first_i5_failure),
                         ("I6", oracles.oracle_first_i6_failure),
                         ("dagger", oracles.oracle_first_dagger_failure),
                         ("ddagger", oracles.oracle_first_ddagger_failure)):
        witness = oracle(l, h)
        assert report.verdict(name) == Verdict(witness is None, witness), (name, h)
    return report


def test_witnesses_match_the_plain_scans_on_image_maps():
    # Image-induced maps are monotone, so I2 passes; the other four go both ways.
    outcomes = set()
    names = ("I5", "I6", "dagger", "ddagger")
    for l in _LATTICES_UP_TO_6:
        for im in enumerate_eios(l, ("I1", "I2", "I3", "I4")):
            report = _assert_witnesses_match_the_plain_scans(l, im.h)
            outcomes.update((name, report.verdict(name).passed) for name in names)
    assert outcomes == {(name, ok) for name in names for ok in (True, False)}


@given(st.data())
def test_witnesses_match_the_plain_scans_on_drawn_maps(data):
    for l in _LATTICES_UP_TO_6:
        if data.draw(st.booleans()):
            h = tuple(data.draw(st.integers(0, l.n - 1)) for _ in range(l.n))
        else:
            h = tuple(data.draw(st.sampled_from(list(iter_bits(l.down[x])))) for x in range(l.n))
        _assert_witnesses_match_the_plain_scans(l, h)


# sha256 of the reports below, taken before the battery moved to table rows
# and packed I9 states; it pins every verdict, witness and note.
REPORT_DIGEST = "3262cc1cdd102da265a5d66ceafa27b89c691da7053555b05664a4fc48e3265f"


def test_battery_reports_are_pinned():
    reports = [report.to_json() for *_, report in checks._natural_reports(0)]
    for k, s in enumerate(enumerate_semilattices(7)):
        l = s.lattice
        rng = random.Random(k)
        for j in range(8):
            if j % 2:
                h = tuple(rng.randrange(l.n) for _ in range(l.n))
            else:
                h = tuple(rng.choice(list(iter_bits(l.down[x]))) for x in range(l.n))
            reports.append(check_axioms(l, h).to_json())
    assert len(reports) == 401 + 8 * 78
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == REPORT_DIGEST


def test_i9_past_its_state_cap_is_a_skip_everywhere(monkeypatch):
    monkeypatch.setattr(interior, "_I9_STATE_CAP", 2)
    l = boolean(3).structure.lattice
    im = InteriorMap(l, tuple(range(l.n)))
    verdict = check_axioms(l, im).verdict("I9")
    assert verdict.passed is None
    assert verdict.note == "skipped: 3 family states exceed cap 2"

    dep = check_coatom_dependence(l, im)
    for name in ("june5", "june6"):
        assert dep.verdict(name).passed is None
        assert "exceed cap" in dep.verdict(name).note
    with pytest.raises(SearchBudgetExceeded, match="exceed cap"):
        enumerate_eios(l, axioms=DEFAULT_EIO_AXIOMS | {"I9"})

    def no_second_run(m):
        raise AssertionError("I9 ran again")

    monkeypatch.setitem(interior._AXIOMS, "I9", no_second_run)
    assert check_coatom_dependence(l, im) == dep


def test_four_coatom_requires_matching_carrier():
    l = boolean(2).structure.lattice
    other = chain(3).structure.lattice
    im = enumerate_eios(l)[0]
    with pytest.raises(InvariantViolation):
        check_four_coatom(other, im)


def test_an_interior_map_of_another_lattice_is_rejected():
    im = enumerate_eios(boolean(2).structure.lattice)[0]
    # chain(3) has as many elements as boolean(2); boolean(3) has more.
    for other in (chain(3).structure.lattice, boolean(3).structure.lattice):
        for read in (check_axioms, normalize_map):
            with pytest.raises(InvariantViolation, match="belongs to a different lattice"):
                read(other, im)


_LATTICE_NAMED = {name: s.lattice for name, s in named_by_size(enumerate_semilattices(6), "L")}
_SKIPPED_ON_I9 = (None, None, "skipped: I9 hypothesis not established")


@pytest.mark.parametrize("name, h, expected", [
    ("L5-0", (0, 1, 2, 3, 0), {
        "june2": (False, {"x": "e2", "z": "e4", "a": "e3", "part": "eta(a) <= x^z"}, "instances=6"),
        "june1": (False, {"x": "e2", "zs": "e3,e4"}, "maximal families=1"),
        "june5": _SKIPPED_ON_I9,
        "june6": _SKIPPED_ON_I9,
    }),
    ("L6-0", (0, 1, 2, 3, 4, 5), {
        "june2": (False, {"x": "e2", "z": "e3", "a": "e4", "part": "eta(a) <= x^z"}, "instances=24"),
        "june1": (False, {"x": "e2", "zs": "e3,e4,e5"}, "maximal families=1"),
        "june5": (False, {"x": "e2", "a": "e3", "zs": "e4,e5"}, "maximal families=1"),
        "june6": (False, {"x": "e2", "m": "e3", "zs": "e4,e5"}, "family scan over meet lower bounds"),
    }),
])
def test_coatom_dependence_failures_are_pinned(name, h, expected):
    l = _LATTICE_NAMED[name]
    im = InteriorMap(l, h)
    assert im in enumerate_eios(l, axioms=_BASIC + ("I5",))
    report = check_coatom_dependence(l, im)
    assert {key: (v.passed, v.witness, v.note) for key, v in report.entries} == expected


def test_every_coatom_dependence_report_up_to_seven_elements_is_pinned():
    # Every I1-I5 map on every lattice of enumerate_semilattices(7); the
    # digest of the rows was taken before june1, june5 and june6 shared one
    # family scan over one scope table.
    rows = []
    for name, s in named_by_size(enumerate_semilattices(7), "L"):
        lat = s.lattice
        rows += [(name, im.h, check_coatom_dependence(lat, im).as_dict())
                 for im in enumerate_eios(lat, axioms=_BASIC + ("I5",))]
    assert len(rows) == 1054
    outcomes = Counter((key, v["passed"]) for *_, report in rows for key, v in report.items())
    assert {key: n for key, n in outcomes.items() if key[1] is not True} == {
        ("june1", False): 211, ("june2", False): 270, ("june5", False): 42, ("june6", False): 12,
        ("june5", None): 224, ("june6", None): 224,
    }
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "00ca0a16d8930ac97bc52381c363527455b12bfca45f3b8187b85334d6975799"
    )


def test_four_coatom_failure_is_pinned():
    l = _LATTICE_NAMED["L6-4"]
    im = InteriorMap(l, (0, 1, 0, 3, 4, 0))
    assert im in enumerate_eios(l, axioms=_BASIC)
    v = check_four_coatom(l, im)
    assert (v.passed, v.witness, v.note) == (False, {"a": "e3", "b": "e4", "c": "e2", "d": "e4"}, None)


def test_report_serialization_round_trips():
    s, h = b3_counterexample_map()
    report = check_axioms(s.lattice, h)
    data = json.loads(report.to_json())
    assert set(data) == {name for name, _ in report.entries}
    assert data["ddagger"]["passed"] is False
    assert data["I1"]["passed"] is True
