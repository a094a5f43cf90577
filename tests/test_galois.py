from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

import oracles
from eqlat import galois
from eqlat.congruence import (
    Congruence,
    all_congruences,
    eta,
    join_congruences,
    make_congruence,
    meet_congruences,
)
from eqlat.corpus import boolean, chain, enumerate_semilattices, omega
from eqlat.errors import InvariantViolation, UnknownLabel
from eqlat.galois import (
    AlgebraicSubsetFamily,
    QuasiOrder,
    _filterable_interior,
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
from eqlat.interior import InteriorMap
from eqlat.order import FinitePoset, as_lattice, dual, iter_bits
from eqlat.semilattice import ideals


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


def test_galois_maps_match_the_literal_oracles():
    # Every congruence and every algebraic family of the carriers up to 5 elements.
    congruences = families = 0
    for s in enumerate_semilattices(5):
        for rep in oracles.oracle_congruences(s):
            got = [i.mask for i in galois_h(s, Congruence(rep))]
            assert got == sorted(oracles.oracle_galois_h(s, rep), key=lambda m: (m.bit_count(), m))
            congruences += 1
        masks = [i.mask for i in ideals(s)]
        for fam in algebraic_subsets(ideal_lattice(s)).members:
            family = [masks[k] for k in iter_bits(fam)]
            assert galois_rho(s, family).rep == oracles.oracle_galois_rho(s.n, family)
            families += 1
    assert congruences == families == 91


def test_verify_consl_reports_the_bijection():
    for s in (
        chain(2).structure,
        boolean(2).structure,
        omega(3).structure,
        omega(5).structure,
    ):
        conl = all_congruences(s.reduct())
        result = verify_consl(conl)
        assert result.passed, result.note
        assert str(len(conl.congruences)) in (result.note or "")


def test_verify_consl_on_a_nondistributive_carrier(small_semilattices):
    pool = [s for s in small_semilattices if s.n == 5]
    assert pool
    for s in pool:
        assert verify_consl(all_congruences(s.reduct())).passed


def test_verify_consl_rejects_the_con_of_a_structure_with_operators():
    # The duality is stated for plain semilattices; omega(3) has an operator.
    with pytest.raises(InvariantViolation, match="without operators"):
        verify_consl(all_congruences(omega(3).structure))


def test_verify_consl_needs_con_closed_under_cover_principal_joins():
    # Con(2 x 2) without its join-reducible congruence [0][p q 1].
    s = boolean(2).structure
    idx = s.index
    missing = make_congruence(s, [[idx["0"]], [idx["p"], idx["q"], idx["1"]]])
    conl = all_congruences(s)
    stub = replace(conl, congruences=tuple(t for t in conl.congruences if t != missing))
    result = verify_consl(stub)
    assert not result.passed
    assert result.note == "a join with a cover principal is missing"
    assert result.witness == {"theta": "[0][p 1][q]"}


_IDENTITY_B2 = Congruence((0, 1, 2, 3))


def _all_as_identity(theta):
    """The identity of 2 x 2 in place of its all-in-one congruence."""
    return _IDENTITY_B2 if theta == Congruence((0, 0, 0, 0)) else theta


@pytest.mark.parametrize("name, fake, witness, note", [
    # Every congruence's family misses the improper ideal.
    ("galois_h", lambda real: lambda s, t: real(s, t)[:-1],
     {"theta": "[0][p][q][1]"}, "image is not an algebraic subset"),
    # Every congruence gets the identity's family.
    ("galois_h", lambda real: lambda s, t: real(s, _IDENTITY_B2),
     None, "not a bijection: 1 images vs 7 subsets"),
    ("galois_rho", lambda real: lambda s, family: _IDENTITY_B2,
     {"theta": "[0][p 1][q]"}, "round trip through ideals does not return"),
    # Only the all-in-one congruence gets the identity's family.
    ("galois_h", lambda real: lambda s, t: real(s, _all_as_identity(t)),
     None, "not a bijection: 6 images vs 7 subsets"),
    # The all-in-one congruence's family comes back as the identity.
    ("galois_rho", lambda real: lambda s, family: _all_as_identity(real(s, family)),
     {"theta": "[0 p q 1]"}, "round trip through ideals does not return"),
])
def test_verify_consl_reports_a_wrong_galois_map(monkeypatch, name, fake, witness, note):
    monkeypatch.setattr(galois, name, fake(getattr(galois, name)))
    result = verify_consl(all_congruences(boolean(2).structure))
    assert (result.passed, result.witness, result.note) == (False, witness, note)


def test_verify_consl_reports_an_order_that_is_not_reversed():
    conl = all_congruences(boolean(2).structure)
    result = verify_consl(replace(conl, lattice=dual(conl.lattice)))
    assert (result.passed, result.witness, result.note) == (
        False, {"theta": "[0][p 1][q]", "phi": "[0][p][q][1]"}, "containment is not reversed"
    )


def test_check_sub_duality_reports_a_wrong_induced_quasiorder(monkeypatch):
    carrier = boolean(2).structure
    subs = list(galois._closed_sub_members(quasiorder_from_pairs(carrier, [])))
    full = (1 << carrier.n) - 1
    total = QuasiOrder(carrier, (full,) * carrier.n)
    monkeypatch.setattr(galois, "quasiorder_from_sublattice", lambda c, f: total)
    result = check_sub_duality(carrier, subs)
    assert (result.passed, result.witness, result.note) == (
        False, {"conditions": "2"}, "induced quasiorder fails required conditions"
    )
    # The quasiorder of all seven subalgebras, for a family of six.
    all_seven = quasiorder_from_sublattice(carrier, subs)
    monkeypatch.setattr(galois, "quasiorder_from_sublattice", lambda c, f: all_seven)
    p_only = (1 << carrier.zero) | (1 << carrier.index["p"])
    result = check_sub_duality(carrier, [m for m in subs if m != p_only])
    assert (result.passed, result.witness, result.note) == (
        False, None, "round trip returns 7 members, expected 6"
    )


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


def test_interior_of_a_family_not_closed_under_join_is_refused(b2):
    # [0][p 1][q] v [0][p][q 1] = [0][p q 1], which the family lacks.
    family = [[[0], [1], [2], [3]], [[0], [1, 3], [2]], [[0], [1], [2, 3]], [[0, 1, 2, 3]]]
    for build in (check_filterable, sublattice_interior):
        with pytest.raises(InvariantViolation, match="not closed under congruence join"):
            build(b2, family)


def _b3_blocks(*blocks):
    b3 = boolean(3).structure
    return make_congruence(b3, [[b3.index[x] for x in block.split()] for block in blocks])


def test_filterable_witness_is_the_first_failure_coarsest_last():
    b3 = boolean(3).structure
    top = _b3_blocks("0 p q r pq pr qr 1")
    two = _b3_blocks("0 p", "q r pq pr qr 1")
    three = _b3_blocks("0 p", "q pq qr 1", "r pr")
    identity = make_congruence(b3, [[i] for i in range(8)])
    # Both middle members collapse off the chain; input order would name `two`.
    result = check_filterable(b3, [top, two, three, identity])
    assert result.passed is False
    assert result.witness == {"theta": "[0 p][q pq qr 1][r pr]"}


def test_filterable_counts_distinct_members():
    b3 = boolean(3).structure
    top = _b3_blocks("0 p q r pq pr qr 1")
    identity = make_congruence(b3, [[i] for i in range(8)])
    assert check_filterable(b3, [top, identity, top.rep]).note == "members=2"


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


def test_family_members_are_validated_as_congruences(b2):
    # [0][p q][1] is a partition, but p ~ q forces p = p + p ~ q + p = 1.
    family = [Congruence((0, 1, 2, 3)), Congruence((0, 1, 1, 3)), Congruence((0, 0, 0, 0))]
    for build in (check_filterable, sublattice_interior):
        with pytest.raises(InvariantViolation, match=r"not a congruence: \('p', '1'\) is forced"):
            build(b2, family)


def _reference_sublattice(s, family):
    """Closure by union-find and collapse by ``eta``: (first error, members, collapse)."""
    members = sorted({t.rep: t for t in family}.values(), key=lambda t: (-t.block_count, t.rep))
    index = {t.rep: i for i, t in enumerate(members)}
    for i, a in enumerate(members):
        for b in members[i:]:
            if meet_congruences(a, b).rep not in index:
                return "family is not closed under congruence meet", members, None
            if join_congruences(s, a, b).rep not in index:
                return "family is not closed under congruence join", members, None
    return None, members, [index.get(eta(s, t).rep) for t in members]


def test_closed_set_reading_matches_union_find_on_random_subfamilies():
    rng = random.Random(0)
    outcomes = set()
    for s in enumerate_semilattices(5):
        cons = all_congruences(s).congruences
        for _ in range(30):
            family = rng.sample(cons, min(len(cons), rng.randint(1, 5)))
            error, members, collapse = _reference_sublattice(s, family)
            if error is not None:
                outcomes.add("error")
                for build in (check_filterable, sublattice_interior, _filterable_interior):
                    with pytest.raises(InvariantViolation) as info:
                        build(s, family)
                    assert str(info.value) == error
                continue
            result = check_filterable(s, family)
            if None in collapse:
                outcomes.add("fail")
                assert (result.passed, result.note) == (False, "zero-class collapse leaves the family")
                assert result.witness == {"theta": members[collapse.index(None)].block_string(s)}
                assert _filterable_interior(s, family) == (result, None)
                continue
            assert (result.passed, result.witness, result.note) == (True, None, f"members={len(members)}")
            # The collapse need not be an interior map (a family without the
            # top congruence fails I4); then both builds raise alike.
            up = tuple(sum(1 << j for j, b in enumerate(members) if a.refines(b)) for a in members)
            ref = as_lattice(FinitePoset(tuple(t.block_string(s) for t in members), up))
            try:
                InteriorMap(ref, tuple(collapse))
            except InvariantViolation as exc:
                outcomes.add("no interior map")
                for build in (sublattice_interior, _filterable_interior):
                    with pytest.raises(InvariantViolation, match=re.escape(str(exc))):
                        build(s, family)
                continue
            outcomes.add("pass")
            lat, im, sorted_members = sublattice_interior(s, family)
            assert sorted_members == tuple(members) and im.h == tuple(collapse)
            assert all(lat.leq(i, j) == a.refines(b)
                       for i, a in enumerate(members) for j, b in enumerate(members))
            assert lat.labels == ref.labels and lat == ref
            assert _filterable_interior(s, family) == (result, (lat, im, sorted_members))
    assert outcomes == {"error", "fail", "no interior map", "pass"}


@pytest.mark.parametrize("rows", [(1 | 1 << 9, 2, 4, 8), (-1, 2, 4, 8)])
def test_quasiorder_rows_outside_the_carrier_are_rejected(b2, rows):
    with pytest.raises(InvariantViolation, match="rows do not match the carrier"):
        QuasiOrder(b2, rows)


@pytest.mark.parametrize("build,message", [
    (lambda s: QuasiOrder(s, (0b0001, 0b0000, 0b0100, 0b1000)), "not reflexive at p"),
    (lambda s: quasiorder_from_sublattice(s, []), "empty family"),
    (lambda s: quasiorder_from_sublattice(s, [0b1110, 0b1111]), "not a meet-subsemilattice with unit"),
    (lambda s: quasiorder_from_sublattice(s, [0b0001]), "misses the full subalgebra"),
    (lambda s: quasiorder_from_sublattice(s, [0b1011, 0b1101, 0b1111]), "not closed under intersection"),
    (lambda s: AlgebraicSubsetFamily(s.lattice, (0b1111, 0b1111)), "duplicate members"),
])
def test_malformed_quasiorders_and_families_are_rejected(b2, build, message):
    with pytest.raises(InvariantViolation, match=message):
        build(b2)


def test_subset_family_members_outside_the_carrier_are_rejected(b2):
    l = b2.lattice
    with pytest.raises(InvariantViolation, match="outside the carrier"):
        AlgebraicSubsetFamily(l, (1 << 20 | 1 << l.top,))
