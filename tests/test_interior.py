from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from eqlat import checks, congruence, interior
from eqlat.congruence import all_congruences, congruence_generated, eta, tau
from eqlat.corpus import (
    boolean, chain, enumerate_semilattices, k_lattice, m2, m_infinity, omega, p1,
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
from eqlat.order import FinitePoset, as_lattice, iter_bits, lattice_from_covers


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
    # The I6 filter runs before the first search node; on a 500-element
    # chain an O(n^3) filter kept the node cap from tripping for seconds.
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
    rows = [
        (name, im.h, report.as_dict())
        for name, _, _, im, report in checks._implication_instances()
    ]
    assert len(rows) == 382
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "de52766fb7b9e10e0c3ea6d3fb1f534fe8837f68ef5a84f64decc059ac3e7aeb"
    )


def test_enumeration_budget_trips_before_any_map_is_built(monkeypatch):
    def no_maps(*args):
        raise AssertionError("a candidate map was built")

    monkeypatch.setattr(interior, "_MapData", no_maps)
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
    for _, conl, im, _ in checks._natural_reports(0):
        s = conl.semilattice
        for i, theta in enumerate(conl.congruences):
            assert im.apply(i) == conl.index_of(eta(s, theta))


def test_distributive_elements_match_the_pair_scan():
    lattices = [s.lattice for s in enumerate_semilattices(7)] + [boolean(3).structure.lattice]
    lattices += [conl.lattice for _, conl, _, _ in checks._natural_reports(0)]
    truncations = [m_infinity(k) for k in range(2, 6)] + [m2(k) for k in range(1, 5)]
    truncations += [p1(k) for k in range(1, 4)] + [k_lattice()]
    lattices += [getattr(e.structure, "lattice", e.structure) for e in truncations]
    for l in lattices:
        assert interior._distributive_elements(l) == oracles.oracle_distributive_elements(l)


def test_natural_map_builds_the_closure_system_once(monkeypatch):
    s = omega(3).structure
    conl = all_congruences(s)
    assert len({theta.zero_class_mask(s) for theta in conl.congruences}) >= 2
    calls = []
    real = congruence._closure_system

    def counting(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(congruence, "_closure_system", counting)
    natural_eta(s, conl)
    assert calls == [s]


# {p, q, 1} has no least member; {0, p, q} has 0 least, but up(0) is no longer listed.
@pytest.mark.parametrize("foreign", [0b1110, 0b0111])
def test_natural_map_rejects_closed_sets_foreign_to_its_lattice(b2, foreign):
    conl = all_congruences(b2)
    assert conl.closed[0] == 0b1111
    stale = dataclasses.replace(conl, closed=(foreign,) + conl.closed[1:])
    with pytest.raises(InvariantViolation, match="closed sets do not match"):
        natural_eta(b2, stale)


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
                         ("ddagger", oracles.oracle_first_ddagger_failure)):
        witness = oracle(l, h)
        assert report.verdict(name) == Verdict(witness is None, witness), (name, h)
    return report


def test_witnesses_match_the_plain_scans_on_image_maps():
    # Image-induced maps are monotone, so I2 passes; I5, I6 and ddagger go both ways.
    outcomes = set()
    for l in _LATTICES_UP_TO_6:
        for im in enumerate_eios(l, ("I1", "I2", "I3", "I4")):
            report = _assert_witnesses_match_the_plain_scans(l, im.h)
            outcomes.update((name, report.verdict(name).passed) for name in ("I5", "I6", "ddagger"))
    assert outcomes == {(name, ok) for name in ("I5", "I6", "ddagger") for ok in (True, False)}


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
    assert check_coatom_dependence(l, im, i9=verdict) == dep


def test_four_coatom_requires_matching_carrier():
    l = boolean(2).structure.lattice
    other = chain(3).structure.lattice
    im = enumerate_eios(l)[0]
    with pytest.raises(InvariantViolation):
        check_four_coatom(other, im)


def test_report_serialization_round_trips():
    s, h = b3_counterexample_map()
    report = check_axioms(s.lattice, h)
    data = json.loads(report.to_json())
    assert set(data) == {name for name, _ in report.entries}
    assert data["ddagger"]["passed"] is False
    assert data["I1"]["passed"] is True
