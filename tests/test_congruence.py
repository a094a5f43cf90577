from __future__ import annotations

import functools
import hashlib
import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from eqlat import checks, congruence, corpus, galois, order
from eqlat.checks import catalog_for_acceptance, suite_simple_scan
from eqlat.congruence import (
    Congruence,
    OrderedRelation,
    all_congruences,
    all_don,
    all_eon,
    con_of_don,
    congruence_generated,
    don_generated,
    don_of,
    don_of_eon,
    eon_generated,
    eon_of_don,
    eta,
    is_simple,
    join_congruences,
    make_congruence,
    meet_congruences,
    quotient,
    tau,
    validate_don,
    validate_eon,
)
from eqlat.corpus import boolean, chain, enumerate_semilattices, named_by_size, omega
from eqlat.errors import BudgetExceeded, InvariantViolation
from eqlat.interior import check_axioms, natural_eta
from eqlat.semilattice import IdealSet, all_endomorphisms, ideal, ideals

SMALL_CARRIERS = enumerate_semilattices(5)


def _decorations(max_elements: int, arity: int):
    """Every structure up to the bound with ``arity`` operators drawn from its endomorphisms."""
    for s in SMALL_CARRIERS:
        if s.n <= max_elements:
            endos = all_endomorphisms(s)
            for fs in itertools.product(endos, repeat=arity):
                yield s.with_operators([(f"f{i}", f) for i, f in enumerate(fs)])


def _oracle_order(universe):
    return sorted(universe, key=lambda r: (-len(set(r)), r))


def _oracle_join(universe, a, b):
    above = [r for r in universe if oracles.refines(a, r) and oracles.refines(b, r)]
    least = [r for r in above if all(oracles.refines(r, o) for o in above)]
    assert len(least) == 1
    return least[0]


def _assert_engine_matches_oracle(s, batch=None):
    universe = oracles.oracle_congruences(s)
    conl = all_congruences(s)
    assert [c.rep for c in conl.congruences] == _oracle_order(universe)
    assert is_simple(s) == (len(universe) == 2)
    # The batch path: the carrier's Con filtered by the residual rows.
    got = (congruence._Batch() if batch is None else batch).con(s)
    assert [c.rep for c in got.congruences] == _oracle_order(universe)
    assert got.closed == conl.closed


def _cover_pairs(s):
    return [
        (a, b) for a in range(s.n) for b in range(s.n)
        if a != b and s.leq(a, b)
        and not any(c not in (a, b) and s.leq(a, c) and s.leq(c, b) for c in range(s.n))
    ]


def test_congruences_match_partition_oracle(tiny_semilattices):
    for s in tiny_semilattices:
        got = {t.rep for t in all_congruences(s).congruences}
        assert got == oracles.oracle_congruences(s)


def test_known_congruence_counts():
    assert len(all_congruences(chain(2).structure).congruences) == 4
    assert len(all_congruences(boolean(2).structure).congruences) == 7
    for n in range(1, 6):
        assert len(all_congruences(chain(n).structure).congruences) == 2**n


def test_congruence_lattice_order_is_refinement(tiny_semilattices):
    # tiny_semilattices includes omega(3).
    for s in itertools.chain(tiny_semilattices, _decorations(4, 1)):
        conl = all_congruences(s)
        lat = conl.lattice
        for i, a in enumerate(conl.congruences):
            for j, b in enumerate(conl.congruences):
                assert lat.leq(i, j) == a.refines(b)


def test_con_lattices_are_pinned():
    # Digest of reps, labels, order and tables on the seed-0 acceptance
    # catalog and every carrier up to 6 elements, taken before Con joins
    # became partition joins and its order generator-set containment.
    pool = [s for _, s in catalog_for_acceptance(0)] + list(enumerate_semilattices(6))
    data = []
    for s in pool:
        conl = all_congruences(s)
        lat = conl.lattice
        reps = tuple(theta.rep for theta in conl.congruences)
        data.append((reps, lat.labels, lat.up, lat.meet_table, lat.join_table))
    assert hashlib.sha256(repr(data).encode()).hexdigest() == (
        "f02f9a9f67a6730e6c6bb726fab42798972bbd0d77c8f428fcb7f7745382c0c0"
    )


def test_make_congruence_rejects_incompatible_partition():
    b2 = boolean(2).structure
    with pytest.raises(InvariantViolation, match=r"not a congruence: \('q', '1'\) is forced"):
        make_congruence(b2, [[0, b2.index["p"]], [b2.index["q"]], [b2.index["1"]]])


def _accepts(validate, *args) -> bool:
    try:
        validate(*args)
    except InvariantViolation:
        return False
    return True


def test_make_congruence_accepts_exactly_the_partition_scan():
    # Every partition of every carrier up to 5 elements, bare and with each
    # single operator.
    checks = 0
    for s in itertools.chain(SMALL_CARRIERS, _decorations(5, 1)):
        for rep in oracles.all_partitions(s.n):
            assert _accepts(make_congruence, s, rep) == oracles.is_congruence(s, rep)
            checks += 1
    assert checks == 14_549


def test_validators_accept_exactly_the_relation_scans():
    # Every relation on every carrier up to 3 elements, bare and with each
    # single operator.
    checks = 0
    for s in itertools.chain(enumerate_semilattices(3), _decorations(3, 1)):
        dons, eons = oracles.oracle_don(s), oracles.oracle_eon(s)
        for bits in range(1 << s.n * s.n):
            rows = tuple(bits >> s.n * x & (1 << s.n) - 1 for x in range(s.n))
            assert _accepts(validate_don, s, OrderedRelation(rows)) == (rows in dons)
            assert _accepts(validate_eon, s, OrderedRelation(rows)) == (rows in eons)
            checks += 2
    assert checks == 7_272


def test_ideal_accepts_exactly_the_subset_scan():
    for s in enumerate_semilattices(6):
        found = {mask for mask in range(1 << s.n) if _accepts(ideal, s, mask)}
        assert found == oracles.oracle_ideals(s)


def test_eta_and_tau_accept_exactly_the_closed_ideals():
    for s in itertools.chain(SMALL_CARRIERS, _decorations(5, 1)):
        closed = oracles.oracle_ideals(s, f_closed_only=True)
        for mask in range(1 << s.n):
            assert _accepts(eta, s, mask) == _accepts(tau, s, mask) == (mask in closed)


def test_rejections_name_the_first_differing_pair():
    s = chain(2).structure
    reverse = OrderedRelation((0b001, 0b011, 0b100))
    with pytest.raises(InvariantViolation, match=r"not a valid eon relation: \('1', '0'\) is not generated"):
        validate_eon(s, reverse)
    with pytest.raises(InvariantViolation, match=r"not a valid don relation: \('2', '2'\) is forced"):
        validate_don(s, OrderedRelation((0b001, 0b011, 0b011)))
    with pytest.raises(InvariantViolation, match="not an ideal: '1' is forced"):
        ideal(s, [0, 2])
    up = s.with_operators([("f", (0, 2, 2))])
    with pytest.raises(InvariantViolation, match="not closed under operator 'f' at '1'"):
        eta(up, [0, 1])


@pytest.mark.parametrize("bad", [
    IdealSet(0b0110, 4),  # {p, q} is not down-closed
    IdealSet(1 << 9, 10),
    IdealSet(1, 10),  # an ideal of a 10-element carrier
    IdealSet(-1, 4),
    Congruence((0, 1, 2, 3, 4, 5)),
])
@pytest.mark.parametrize("fn", [eta, tau])
def test_malformed_zero_classes_are_rejected(fn, bad):
    with pytest.raises(InvariantViolation):
        fn(boolean(2).structure, bad)


@pytest.mark.parametrize("rows", [(0b0001,) * 3, (0b0001,) * 5, (0b0001, 0b0011, 0b0101, 0b11111)])
@pytest.mark.parametrize("validate", [validate_don, validate_eon])
def test_relations_of_the_wrong_shape_are_rejected(validate, rows):
    with pytest.raises(InvariantViolation, match="rows do not fit a carrier of 4 elements"):
        validate(boolean(2).structure, OrderedRelation(rows))


@pytest.mark.parametrize("blocks", [[[0, 1], [2, 3, 9]], [[0, 1], [2], [3, -1]]])
def test_block_members_outside_the_carrier_are_rejected(blocks):
    with pytest.raises(InvariantViolation, match="is not an element index"):
        make_congruence(boolean(2).structure, blocks)


@pytest.mark.parametrize("members", [[0, 9], [-1], 1 << 9, -1])
def test_ideal_members_outside_the_carrier_are_rejected(members):
    with pytest.raises(InvariantViolation, match="not an element index|mask is negative"):
        ideal(boolean(2).structure, members)


@pytest.mark.parametrize("items,message", [
    ([[0, 1], 2, 3], "block 2 is not an iterable"),
    ([[0, 1], [2, 3.0]], "block member 3.0 is not an element index"),
    ([0, 0, 9, 9], "rep value 9 is not an element index"),
    ([0, 0, 2.0, 2], "rep value 2.0 is not an element index"),
    ([[0, 1], [1, 2, 3]], "blocks overlap"),
    ([[0, 1], [2]], "blocks do not cover the carrier"),
    ([0, 0, 2], "rep vector has wrong length"),
])
def test_make_congruence_names_the_first_bad_item(items, message):
    with pytest.raises(InvariantViolation, match=message):
        make_congruence(boolean(2).structure, items)


def test_make_congruence_accepts_a_generator_of_blocks():
    b2 = boolean(2).structure
    idx = b2.index
    blocks = [[idx["0"], idx["p"]], [idx["q"], idx["1"]]]
    theta = make_congruence(b2, blocks)
    assert make_congruence(b2, (b for b in blocks)) == theta
    assert make_congruence(b2, (r for r in theta.rep)) == theta


def test_congruence_cap_holds_while_principals_are_collected(monkeypatch):
    b2 = boolean(2).structure
    monkeypatch.setattr(congruence, "_CON_CAP", 7)
    assert len(all_congruences(b2).congruences) == 7
    for cap in (5, 6):
        monkeypatch.setattr(congruence, "_CON_CAP", cap)
        with pytest.raises(BudgetExceeded, match=f"more than {cap} congruences exceed cap {cap}"):
            all_congruences(b2)


def test_congruence_generated_is_least_in_the_oracle(tiny_semilattices):
    for s in tiny_semilattices:
        universe = oracles.oracle_congruences(s)
        for x in range(s.n):
            for y in range(s.n):
                gen = congruence_generated(s, [(x, y)]).rep
                above = [r for r in universe if r[x] == r[y]]
                least = [r for r in above if all(oracles.refines(r, o) for o in above)]
                assert len(least) == 1 and gen == least[0]


def test_join_and_meet_agree_with_refinement(tiny_semilattices):
    for s in tiny_semilattices:
        cons = all_congruences(s).congruences
        for a in cons:
            for b in cons:
                m = meet_congruences(a, b)
                j = join_congruences(s, a, b)
                assert m.refines(a) and m.refines(b)
                assert a.refines(j) and b.refines(j)
                for c in cons:
                    if c.refines(a) and c.refines(b):
                        assert c.refines(m)
                    if a.refines(c) and b.refines(c):
                        assert j.refines(c)


def test_eta_tau_match_partition_oracle(tiny_semilattices):
    for s in itertools.chain(tiny_semilattices, _decorations(3, 2)):
        for i in ideals(s, f_closed_only=True):
            least, greatest = oracles.oracle_eta_tau(s, i.mask)
            assert eta(s, i).rep == least
            assert tau(s, i).rep == greatest


def test_eta_tau_bound_every_congruence(small_semilattices):
    for s in small_semilattices:
        for theta in all_congruences(s).congruences:
            lo = eta(s, theta)
            hi = tau(s, theta)
            assert oracles.is_congruence(s, hi.rep)
            assert lo.refines(theta) and theta.refines(hi)
            assert lo.zero_class_mask(s) == theta.zero_class_mask(s)
            assert hi.zero_class_mask(s) == theta.zero_class_mask(s)


def test_equa_partition_intervals_are_disjoint_and_cover(small_semilattices):
    for s in small_semilattices:
        cons = all_congruences(s).congruences
        by_zero_class: dict[int, list] = {}
        for theta in cons:
            by_zero_class.setdefault(theta.zero_class_mask(s), []).append(theta)
        assert sum(len(v) for v in by_zero_class.values()) == len(cons)
        for mask, group in by_zero_class.items():
            lo = eta(s, group[0])
            hi = tau(s, group[0])
            for theta in group:
                assert lo.refines(theta) and theta.refines(hi)


def _relation_scan_pool(tiny_semilattices):
    """The tiny pool plus every one- and two-operator decoration up to 3 elements."""
    decorated = list(itertools.chain(_decorations(3, 1), _decorations(3, 2)))
    assert len(decorated) == 9 + 41
    return list(tiny_semilattices) + decorated


def test_don_enumeration_matches_relation_scan(tiny_semilattices):
    for s in _relation_scan_pool(tiny_semilattices):
        got = [r.rows for r in all_don(s)]
        assert len(got) == len(set(got)) and set(got) == oracles.oracle_don(s)


def test_eon_enumeration_matches_relation_scan(tiny_semilattices):
    for s in _relation_scan_pool(tiny_semilattices):
        got = [r.rows for r in all_eon(s)]
        assert len(got) == len(set(got)) and set(got) == oracles.oracle_eon(s)


def test_relation_views_are_pinned():
    # Digest of both views, in order, on every carrier up to 6 elements and
    # the predecessor chains omega(1..6).
    pool = list(enumerate_semilattices(6)) + [omega(n).structure for n in range(1, 7)]
    views = [(tuple(d.rows for d in all_don(s)), tuple(e.rows for e in all_eon(s))) for s in pool]
    assert hashlib.sha256(repr(views).encode()).hexdigest() == (
        "600a7b8a76953c8d89058980f64807baacd2b7697de388b1f0753d7f4f9064e8"
    )


def test_con_don_eon_round_trips(small_semilattices):
    for s in small_semilattices:
        for theta in all_congruences(s).congruences:
            d = don_of(s, theta)
            validate_don(s, d)
            assert con_of_don(s, d).rep == theta.rep
            e = eon_of_don(s, d)
            validate_eon(s, e)
            assert don_of_eon(s, e).rows == d.rows
        for d in all_don(s):
            assert don_of(s, con_of_don(s, d)).rows == d.rows
        for e in all_eon(s):
            assert eon_of_don(s, don_of_eon(s, e)).rows == e.rows


def _oracle_least(universe, pairs):
    above = [r for r in universe if all((r[a] >> b) & 1 for a, b in pairs)]
    least = [r for r in above if all(all(x & ~y == 0 for x, y in zip(r, o)) for o in above)]
    assert len(least) == 1
    return least[0]


def test_generated_relations_are_least(tiny_semilattices):
    # The empty set and every one- and two-pair generator set, against the
    # relation-scan oracles.
    sets = 0
    for s in tiny_semilattices:
        dons, eons = oracles.oracle_don(s), oracles.oracle_eon(s)
        don_pairs = list(itertools.product(range(s.n), repeat=2))
        eon_pairs = [(a, b) for a, b in don_pairs if s.leq(a, b)]
        for size in (0, 1, 2):
            for pairs in itertools.combinations(don_pairs, size):
                assert don_generated(s, pairs).rows == _oracle_least(dons, pairs)
                sets += 1
            for pairs in itertools.combinations(eon_pairs, size):
                assert eon_generated(s, pairs).rows == _oracle_least(eons, pairs)
                sets += 1
    assert sets == 2 * len(tiny_semilattices) + 647


def test_eon_generators_must_lie_in_the_order():
    s = chain(2).structure
    assert eon_generated(s, [(0, 2)]).holds(0, 1)
    with pytest.raises(InvariantViolation, match="a <= b"):
        eon_generated(s, [(0, 1), (2, 1)])


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda s: join_congruences(s, Congruence((0, 1, 2)), Congruence((0, 0))),
                 "given on 3 and 2 elements, not 3", id="join-length"),
    pytest.param(lambda s: meet_congruences(Congruence((0, 1, 2)), Congruence((0, 0))),
                 "given on 3 and 2 elements", id="meet-length"),
    pytest.param(lambda s: quotient(s, Congruence((0, 1, 0))), r"not a congruence: \('0', '1'\) is forced",
                 id="quotient-partition"),
    pytest.param(lambda s: congruence_generated(s, [(0, 1), (0, 9)]), r"^pair \(0, 9\)", id="generated-pair"),
    pytest.param(lambda s: don_generated(s, [(0, 9)]), r"^pair \(0, 9\)", id="don-pair"),
    pytest.param(lambda s: eon_generated(s, [(0, 9)]), r"^pair \(0, 9\)", id="eon-pair"),
    pytest.param(lambda s: galois.galois_rho(s, ["x"]), "family member 'x'", id="rho-member"),
])
def test_malformed_congruence_inputs_raise_typed_errors(call, message):
    with pytest.raises(InvariantViolation, match=message):
        call(chain(2).structure)


def test_quotient_by_congruence():
    b2 = boolean(2).structure
    theta = congruence_generated(b2, [(0, b2.index["p"])])
    q = quotient(b2, theta)
    assert q.n == theta.block_count
    assert q.join_all(range(q.n)) == q.top


def test_quotient_of_omega_keeps_operator():
    s = omega(3).structure
    theta = congruence_generated(s, [(0, 1)])
    q = quotient(s, theta)
    assert len(q.operators) == 1
    assert q.n == theta.block_count


@given(st.data())
def test_congruence_relation_properties(small_semilattices, data):
    s = data.draw(st.sampled_from(small_semilattices))
    cons = all_congruences(s).congruences
    theta = data.draw(st.sampled_from(cons))
    x = data.draw(st.integers(0, s.n - 1))
    y = data.draw(st.integers(0, s.n - 1))
    z = data.draw(st.integers(0, s.n - 1))
    assert theta.relates(x, x)
    assert theta.relates(x, y) == theta.relates(y, x)
    if theta.relates(x, y):
        assert theta.relates(s.join(x, z), s.join(y, z))
        assert theta.relates(x, s.join(x, y))
        for _, images in s.operators:
            assert theta.relates(images[x], images[y])


def test_engine_matches_the_oracle_on_every_small_decoration():
    # Every single operator up to 5 elements (the 1-element carrier included),
    # and every ordered operator pair up to 4 elements. Only operators reach
    # the residual rows of the closed-set walk, and of the batch path's filter.
    count, batch = 0, congruence._Batch()
    for s in itertools.chain(_decorations(5, 1), _decorations(4, 2)):
        _assert_engine_matches_oracle(s, batch)
        count += 1
    assert count == 308 + 697
    assert len(batch.carriers) == len(SMALL_CARRIERS)


def test_batch_con_equals_the_direct_walk_on_the_catalog():
    # _natural_reports reads each entry's Con off its carrier's; the direct
    # walk of all_congruences and the per-entry least members must agree,
    # index order, eta and tau included.
    for seed in (0, 1, 2):
        batch = congruence._Batch()
        for _, s in catalog_for_acceptance(seed):
            got, conl = batch.con(s), all_congruences(s)
            assert (got.congruences, got.closed) == (conl.congruences, conl.closed)
            assert (got._least, got._rows) == (conl._least, conl._rows)
            im = natural_eta(s, got)
            assert (im.h, im.tau) == (natural_eta(s, conl).h, natural_eta(s, conl).tau)
            assert im.h == tuple(conl.index_of(eta(s, c)) for c in conl.congruences)
            assert im.tau == tuple(conl.index_of(tau(s, c)) for c in conl.congruences)
        assert len(batch.carriers) == 31


def _literal_residual_rows(s, within):
    """Residual rows by a scan of every x per (operator, t): f*(t) = join{x : f(x) <= t}."""
    rows = [0] * s.n
    for _, images in s.operators:
        for t in order.iter_bits(within):
            rows[t] |= 1 << s.join_all(x for x in range(s.n) if s.leq(images[x], t))
    return rows


def test_residual_rows_match_a_literal_scan_on_the_catalog():
    # _closure_system builds each row from preimage masks; it must equal the
    # scan on every catalog entry, on the whole carrier and on each up(t).
    count = 0
    for seed in (0, 1, 2):
        for _, s in catalog_for_acceptance(seed):
            full = (1 << s.n) - 1
            assert congruence._closure_system(s)[1] == _literal_residual_rows(s, full)
            for t in range(s.n):
                assert congruence._closure_system(s, s.up[t])[1] == _literal_residual_rows(s, s.up[t])
            count += 1
    assert count == 3 * 401


def test_con_lattice_order_and_tables_match_the_partition_oracle():
    # lattice_of reads Con's order off the closed sets without re-checking
    # it; this sweep guards that path beyond the pinned digests.
    count = 0
    for s in _decorations(5, 1):
        conl = all_congruences(s)
        lat, reps = conl.lattice, [c.rep for c in conl.congruences]
        assert set(reps) == oracles.oracle_congruences(s)
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                assert lat.leq(i, j) == oracles.refines(a, b)
                assert reps[lat.join(i, j)] == oracles.partition_join(a, b)
                assert reps[lat.meet(i, j)] == oracles.partition_meet(a, b)
        count += 1
    assert count == 308


def test_con_labels_are_built_only_when_read(monkeypatch):
    calls = []
    block_string = Congruence.block_string
    monkeypatch.setattr(Congruence, "block_string",
                        lambda theta, s: calls.append(theta) or block_string(theta, s))
    # Every natural-map verdict passes, so no report reads a label.
    assert len(checks._natural_reports.__wrapped__(0)) == 401 and calls == []
    for _, s in catalog_for_acceptance(0)[::40]:
        conl = all_congruences(s)
        assert check_axioms(conl.lattice, natural_eta(s, conl)).passed
        assert calls == []
        assert conl.lattice.labels == tuple(block_string(c, s) for c in conl.congruences)
        assert calls == list(conl.congruences)
        assert conl.lattice.labels == conl.lattice.poset.labels and len(calls) == conl.n
        calls.clear()


def test_con_is_read_without_its_tables(monkeypatch):
    # Size, JSON and positions read the congruences and the order's rows;
    # the meet and join tables are built on the first read of one of them.
    built, build = [], order.as_lattice
    monkeypatch.setattr(order, "as_lattice", lambda p: built.append(1) or build(p))
    conl = all_congruences(chain(10).structure)
    assert conl.n == 1024 and json.loads(conl.to_json())["count"] == 1024
    assert conl.index_of(conl.congruences[-1]) == 1023 and built == []
    assert conl.lattice.top == 1023 and built == [1]
    assert conl.lattice.top == 1023 and conl.lattice.meet(1, 2) == 0 and built == [1]


@given(st.data())
def test_engine_matches_the_oracle_on_operator_pairs(data):
    s = data.draw(st.sampled_from(SMALL_CARRIERS))
    endos = all_endomorphisms(s)
    f = data.draw(st.sampled_from(endos))
    g = data.draw(st.sampled_from(endos))
    _assert_engine_matches_oracle(s.with_operators([("f", f), ("g", g)]))


def test_is_simple_sees_the_operators():
    # The 3-chain with the predecessor map and 1 -> 2: each cover pair
    # generates everything, though the bare chain has four congruences.
    s = omega(2).structure
    s = s.with_operators(list(s.operators) + [("g", (0, 2, 2))])
    assert is_simple(s) and len(oracles.oracle_congruences(s)) == 2
    assert not is_simple(s.reduct())
    assert not is_simple(chain(0).structure)
    assert is_simple(chain(1).structure)


def test_join_is_the_oracle_least_upper_bound_on_decorated_structures():
    for s in itertools.chain(_decorations(4, 1), [omega(3).structure]):
        universe = sorted(oracles.oracle_congruences(s))
        for a in universe:
            for b in universe:
                got = join_congruences(s, Congruence(a), Congruence(b)).rep
                assert got == _oracle_join(universe, a, b)


def test_cover_principals_reach_the_cap_exactly(monkeypatch):
    s = chain(3).structure
    covers = {congruence_generated(s, [p]).rep for p in _cover_pairs(s)}
    pairs = {congruence_generated(s, [(a, b)]).rep for a in range(s.n) for b in range(a + 1, s.n)}
    assert len(covers) < len(pairs)
    monkeypatch.setattr(congruence, "_CON_CAP", 8)
    assert len(all_congruences(s).congruences) == 8
    monkeypatch.setattr(congruence, "_CON_CAP", 7)
    with pytest.raises(BudgetExceeded, match="exceed cap 7"):
        all_congruences(s)


def _count_calls(monkeypatch, name: str = "_extend", module=congruence) -> list:
    calls: list = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_con_enumeration_work_is_bounded(monkeypatch):
    # One propagating _extend per cover pair (the cross-check); the
    # Close-by-One walk makes one closure for its base and at most one per
    # (congruence found, element).
    s = boolean(3).structure
    size = len(oracles.oracle_congruences(s))
    calls = _count_calls(monkeypatch)
    closures = _count_calls(monkeypatch, "closure", order)
    assert len(all_congruences(s).congruences) == size
    assert len(calls) == len(_cover_pairs(s))
    assert 0 < len(closures) <= 1 + size * s.n


def test_natural_reports_walk_each_carrier_once(monkeypatch):
    # The 401 seed-0 entries share 31 carrier join tables: one closed-set
    # walk and one _congruence_of per carrier congruence (597), where a walk
    # per entry made 401 and 4,368. Cover principals are generated for each
    # carrier walk and each decorated entry, not again for the 26 bare
    # entries (2,403 with them).
    walks = _count_calls(monkeypatch, "closed_sets")
    built = _count_calls(monkeypatch, "_congruence_of")
    generated = _count_calls(monkeypatch, "congruence_generated")
    assert len(checks._natural_reports.__wrapped__(0)) == 401
    assert (len(walks), len(built), len(generated)) == (31, 597, 2267)
    # 31 walks over 31 distinct carrier meet tables: each carrier once.
    assert {w[0] for w in walks} == {s.lattice.meet_table for _, s in catalog_for_acceptance(0)}


def test_con_scan_suites_build_each_carrier_con_and_ideal_list_once(monkeypatch):
    # simple-scan, coatomistic and consl share one Con per carrier (75 walks
    # when each suite walked its own), and consl's 516 ideals calls return one
    # sorted list per carrier (516 sorts when each call sorted). Fresh carriers
    # and a fresh shared list, so nothing is cached from other tests.
    fresh = corpus.enumerate_semilattices.__wrapped__(6)
    monkeypatch.setattr(checks, "enumerate_semilattices", lambda _: fresh)
    monkeypatch.setattr(checks, "_scan_carriers", functools.cache(checks._scan_carriers.__wrapped__))
    walks = _count_calls(monkeypatch, "_walk")
    lists, ideals_of = [], galois.ideals
    monkeypatch.setattr(galois, "ideals", lambda s: lists.append(ideals_of(s)) or lists[-1])
    rows = [o for name in ("consl", "coatomistic", "simple-scan") for o in checks.run_suite(name)]
    assert len(rows) == 75 and checks.all_passed(rows)
    assert (len(walks), len(lists), len({id(found) for found in lists})) == (25, 516, 25)


def test_is_simple_stops_at_the_first_compatible_proper_congruence(monkeypatch):
    # Con(chain(3)) holds six proper congruences, indices 1-6. Under
    # f = (0, 2, 3, 3) the first two are not f-compatible and [0][1][2 3] is.
    s = chain(3).structure
    conl, read = all_congruences(s), []

    class Spy:
        def __init__(self, i, theta):
            self.i, self.theta = i, theta

        @property
        def rep(self):
            read.append(self.i)
            return self.theta.rep

    spied = tuple(Spy(i, t) for i, t in enumerate(conl.congruences))
    monkeypatch.setattr(congruence, "_walk", lambda *_: (spied, conl.closed))
    assert conl.congruences[3].rep == (0, 1, 2, 2)
    assert not is_simple(s.with_operators([("f", (0, 2, 3, 3))]))
    assert read == [1, 2, 3]
    read.clear()
    assert not is_simple(s)
    assert read == [1]


def test_is_simple_builds_no_congruence_lattice(monkeypatch):
    # _simple_over reads Con's congruences only; chain(8) has 256 of them.
    # A lattice builds its tables on first read, so the control reads one.
    def refuse(poset):
        raise AssertionError("is_simple built a lattice")

    monkeypatch.setattr(order, "as_lattice", refuse)
    assert not is_simple(chain(8).structure)
    assert not is_simple(omega(8).structure)
    assert is_simple(chain(1).structure)
    with pytest.raises(AssertionError, match="built a lattice"):
        all_congruences(chain(8).structure).lattice.top


def test_simple_scan_path_matches_the_cover_pair_criterion():
    # simple-scan asks _simple_over about each endomorphism with the carrier's
    # Con built once. The reference decides each decoration by union-find:
    # simple iff n >= 2 and every cover pair generates the all-in-one congruence.
    notes = {o.structure: o.note for o in suite_simple_scan()}
    count = 0
    for name, s in named_by_size(enumerate_semilattices(6)):
        carrier_con, simple = all_congruences(s), 0
        for f in all_endomorphisms(s):
            d = s.with_operators([("f", f)])
            expected = s.n >= 2 and all(
                congruence_generated(d, [p]).rep == (0,) * s.n for p in s.poset.covers)
            assert congruence._simple_over(carrier_con.congruences, d.operators) == is_simple(d) == expected
            simple += expected
            count += 1
        assert notes[name].endswith(f"simple instances={simple}")
    assert count == 2526


def test_eta_and_tau_match_the_oracle_on_every_small_one_operator_structure():
    # Every operator-closed ideal is the 0-class of some congruence.
    count = 0
    for s in _decorations(5, 1):
        universe = oracles.oracle_congruences(s)
        for mask in {oracles.zero_class_mask(s, rep) for rep in universe}:
            assert (eta(s, mask).rep, tau(s, mask).rep) == oracles.oracle_eta_tau(s, mask, universe)
        count += 1
    assert count == 308
