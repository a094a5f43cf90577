from __future__ import annotations

from dataclasses import replace

import pytest

import oracles
from eqlat import galois
from eqlat.congruence import Congruence, all_congruences, make_congruence
from eqlat.corpus import boolean, chain, omega
from eqlat.errors import InvariantViolation, UnknownLabel
from eqlat.galois import (
    AlgebraicSubsetFamily,
    QuasiOrder,
    algebraic_subsets,
    check_distributive_quasiorder,
    check_filterable,
    check_sub_duality,
    galois_h,
    galois_rho,
    ideal_lattice,
    quasiorder_from_pairs,
    quasiorder_from_sublattice,
    sub_closed_lattice,
    sublattice_interior,
    verify_consl,
)


def test_ideal_lattice_of_boolean_two_is_a_diamond():
    il = ideal_lattice(boolean(2).structure)
    assert il.n == 4
    assert oracles.oracle_isomorphic(il.up, boolean(2).structure.lattice.up)


def test_algebraic_subset_counts_match_congruence_counts():
    il3 = ideal_lattice(chain(2).structure)
    assert len(algebraic_subsets(il3).members) == 4
    il_b2 = ideal_lattice(boolean(2).structure)
    assert len(algebraic_subsets(il_b2).members) == 7


def test_algebraic_subsets_match_subset_scan(tiny_semilattices):
    for s in tiny_semilattices:
        l = s.lattice
        fam = algebraic_subsets(l)
        assert set(fam.members) == oracles.oracle_algebraic_subsets(l)


def test_family_validation_rejects_bad_members():
    l = boolean(2).structure.lattice
    with pytest.raises(InvariantViolation):
        AlgebraicSubsetFamily(l, (1 << l.bottom,))
    full = (1 << l.n) - 1
    no_meet = (1 << l.top) | (1 << 1) | (1 << 2)
    with pytest.raises(InvariantViolation):
        AlgebraicSubsetFamily(l, (full, no_meet))


def test_galois_round_trip_on_every_congruence():
    for s in (chain(2).structure, boolean(2).structure, omega(3).structure):
        for theta in all_congruences(s).congruences:
            family = galois_h(s, theta)
            back = galois_rho(s, family)
            assert back.rep == theta.rep


def test_galois_is_order_reversing():
    s = boolean(2).structure
    cons = all_congruences(s).congruences
    for a in cons:
        for b in cons:
            fa = {i.mask for i in galois_h(s, a)}
            fb = {i.mask for i in galois_h(s, b)}
            if a.refines(b):
                assert fb <= fa


def test_verify_consl_reports_the_bijection():
    for s in (
        chain(2).structure,
        boolean(2).structure,
        omega(3).structure,
        omega(5).structure,
    ):
        result = verify_consl(s)
        assert result.passed, result.note
        count = len(all_congruences(s.reduct()).congruences)
        assert str(count) in (result.note or "")


def test_verify_consl_on_a_nondistributive_carrier(small_semilattices):
    pool = [s for s in small_semilattices if s.n == 5]
    assert pool
    for s in pool:
        assert verify_consl(s).passed


def test_verify_consl_needs_con_closed_under_cover_principal_joins(monkeypatch):
    # Con(2 x 2) without its join-reducible congruence [0][p q 1].
    s = boolean(2).structure
    idx = s.index
    missing = make_congruence(s, [[idx["0"]], [idx["p"], idx["q"], idx["1"]]])
    conl = all_congruences(s)
    stub = replace(conl, congruences=tuple(t for t in conl.congruences if t != missing))
    monkeypatch.setattr(galois, "all_congruences", lambda _: stub)
    result = verify_consl(s)
    assert not result.passed
    assert result.note == "a join with a cover principal is missing"
    assert result.witness == {"theta": "[0][p 1][q]"}


def test_subalgebra_family_of_boolean_two():
    carrier = boolean(2).structure
    subs = galois._closed_sub_members(quasiorder_from_pairs(carrier, []))
    assert len(subs) == 7
    q = quasiorder_from_sublattice(carrier, subs)
    report = check_distributive_quasiorder(q)
    assert report.passed, report.failing()
    assert sub_closed_lattice(q).n == 7
    assert check_sub_duality(carrier, subs).passed


def test_proper_subfamily_round_trips():
    carrier = boolean(2).structure
    subs = list(galois._closed_sub_members(quasiorder_from_pairs(carrier, [])))
    p_only = next(
        m for m in subs if m == (1 << carrier.zero) | (1 << carrier.index["p"])
    )
    family = [m for m in subs if m != p_only]
    result = check_sub_duality(carrier, family)
    assert result.passed, result.note
    q = quasiorder_from_sublattice(carrier, family)
    assert len(sub_closed_lattice(q).labels) == 6


def test_quasiorder_validation():
    carrier = boolean(2).structure
    with pytest.raises(InvariantViolation):
        quasiorder_from_pairs(carrier, [("p", "q"), ("q", "1")])
    q = quasiorder_from_pairs(carrier, [("p", "q")])
    assert q.holds(carrier.index["p"], carrier.index["q"])
    assert not q.holds(carrier.index["q"], carrier.index["p"])


@pytest.mark.parametrize("pair,error", [
    ((-1, 0), InvariantViolation),
    ((0, 9), InvariantViolation),
    ((1.7, 0), InvariantViolation),
    ((None, 0), InvariantViolation),
    (("zz", "0"), UnknownLabel),
])
def test_relation_pairs_get_typed_errors(pair, error):
    carrier = boolean(2).structure
    with pytest.raises(error):
        quasiorder_from_pairs(carrier, [pair])
    with pytest.raises(error):
        algebraic_subsets(carrier.lattice, [pair])


def test_unit_condition_failure_is_reported():
    carrier = boolean(2).structure
    q = quasiorder_from_pairs(carrier, [("0", "p")])
    report = check_distributive_quasiorder(q)
    assert report.verdict("2").passed is False


def test_filterable_family_on_the_reconstruction(k_entry):
    ambient = k_entry.extra["ambient"]
    members = k_entry.extra["members"]
    assert check_filterable(ambient, members).passed


def test_unfilterable_family_is_detected():
    b3 = boolean(3).structure
    top_collapse = make_congruence(b3, [[0], list(range(1, 8))])
    full = make_congruence(b3, [list(range(8))])
    result = check_filterable(b3, [top_collapse, full])
    assert result.passed is False
    assert result.witness is not None
    with pytest.raises(InvariantViolation):
        sublattice_interior(b3, [top_collapse, full])


def test_filterable_family_closure_is_enforced():
    b3 = boolean(3).structure
    x = make_congruence(b3, [[0, 1], [2, 4], [3, 5], [6, 7]])
    z = make_congruence(b3, [[0, 2], [1, 4], [3, 6], [5, 7]])
    with pytest.raises(InvariantViolation):
        check_filterable(b3, [x, z])


def test_induced_interior_on_the_reconstruction(k_entry):
    ambient = k_entry.extra["ambient"]
    members = k_entry.extra["members"]
    lat, im, sorted_members = sublattice_interior(ambient, members)
    assert lat.n == 9
    assert len(sorted_members) == 9
    assert len(set(im.h)) == 5
    assert im.h == k_entry.extra["interior"].h


def test_filterable_rejects_a_congruence_of_the_wrong_length(b2):
    with pytest.raises(InvariantViolation, match="rep vector has wrong length"):
        check_filterable(b2, [Congruence((0, 1, 2))])


@pytest.mark.parametrize("rows", [(1 | 1 << 9, 2, 4, 8), (-1, 2, 4, 8)])
def test_quasiorder_rows_outside_the_carrier_are_rejected(b2, rows):
    with pytest.raises(InvariantViolation, match="rows do not match the carrier"):
        QuasiOrder(b2, rows)


def test_subset_family_members_outside_the_carrier_are_rejected(b2):
    l = b2.lattice
    with pytest.raises(InvariantViolation, match="outside the carrier"):
        AlgebraicSubsetFamily(l, (1 << 20 | 1 << l.top,))
