from __future__ import annotations

import functools
import hashlib
import itertools
import json

import pytest

import oracles
from eqlat.congruence import all_congruences, eta, tau
from eqlat.errors import InvariantViolation, NotJoinHomomorphism, UnknownLabel, ZeroNotPreserved
from eqlat.corpus import boolean, chain, enumerate_semilattices, omega
from eqlat.interior import natural_eta
from eqlat.semilattice import (
    OpSemilattice,
    all_endomorphisms,
    from_join_table,
    from_lattice,
    ideal,
    ideals,
    join_irreducibles,
    operator_monoid,
    semilattice_from_json,
)


def test_from_join_table_rejects_bad_tables():
    with pytest.raises(InvariantViolation):
        from_join_table(("0", "a"), ((0, 1), (1, 0)), "0")
    with pytest.raises(ZeroNotPreserved):
        from_join_table(("0", "a"), ((0, 1), (1, 1)), "0", operators=(("f", (1, 1)),))
    with pytest.raises(NotJoinHomomorphism):
        b2 = boolean(2).structure
        b2.with_operators((("g", (0, 2, 1, 1)),))


def test_zero_and_join_entries_are_range_checked():
    table = ((0, 1), (1, 1))
    for zero in (5, -1):
        with pytest.raises(InvariantViolation, match="zero index"):
            from_join_table(("0", "a"), table, zero)
    with pytest.raises(InvariantViolation, match="entry out of range"):
        from_join_table(("0", "a", "b"), ((0, 1, 2), (1, 1, 9), (2, 9, 2)), 0)


@pytest.mark.parametrize("labels,table,message", [
    ((), (), "empty carrier"),
    (("0", "0"), ((0, 1), (1, 1)), "labels must be unique"),
    (("0", "a"), ((0, 1),), "join table must be n by n"),
    (("0", "a", "b"), ((0, 1, 2), (1, 1, 1), (2, 2, 2)), r"join not commutative at \(1, 2\)"),
    (("0", "a", "b", "c"), ((0, 1, 2, 3), (1, 1, 3, 1), (2, 3, 2, 2), (3, 1, 2, 3)),
     "join not associative"),
])
def test_tables_that_are_not_semilattices_are_rejected(labels, table, message):
    with pytest.raises(InvariantViolation, match=message):
        from_join_table(labels, table, 0)


def test_zero_must_be_neutral():
    with pytest.raises(InvariantViolation):
        from_join_table(("0", "a"), ((0, 0), (0, 1)), "0")


def test_known_ideal_counts():
    assert len(ideals(chain(2).structure)) == 3
    assert len(ideals(boolean(2).structure)) == 4
    assert len(ideals(boolean(3).structure)) == 8


def test_ideals_match_subset_scan_oracle(tiny_semilattices):
    for s in tiny_semilattices:
        got = {i.mask for i in ideals(s)}
        assert got == oracles.oracle_ideals(s)
        got_closed = {i.mask for i in ideals(s, f_closed_only=True)}
        assert got_closed == oracles.oracle_ideals(s, f_closed_only=True)


def test_operator_closed_ideals_of_omega():
    s = omega(4).structure
    closed = ideals(s, f_closed_only=True)
    assert {i.mask for i in closed} <= {i.mask for i in ideals(s)}
    for i in closed:
        for _, images in s.operators:
            assert all(images[x] in i for x in i.members())


def test_ideal_constructor_validates():
    b2 = boolean(2).structure
    with pytest.raises(InvariantViolation):
        ideal(b2, [b2.index["p"]])
    with pytest.raises(InvariantViolation):
        ideal(b2, [0, b2.index["1"]])
    i = ideal(b2, [0, b2.index["p"]])
    assert i.member_labels(b2) == ("0", "p")


def test_join_irreducibles_of_boolean_are_atoms():
    b3 = boolean(3).structure
    irr = join_irreducibles(b3)
    assert sorted(b3.labels[i] for i in irr) == ["p", "q", "r"]


def test_operator_monoid_of_omega_is_the_power_chain():
    s = omega(5).structure
    monoid = operator_monoid(s)
    ident = tuple(range(s.n))
    assert ident in monoid
    (_, p) = s.operators[0]
    powers = {ident}
    cur = ident
    for _ in range(s.n):
        cur = tuple(p[x] for x in cur)
        powers.add(cur)
    assert set(monoid) == powers


def _reversed(s):
    """The same semilattice with its indices reversed: zero last, no linear extension."""
    r = [s.n - 1 - i for i in range(s.n)]
    table = [[r[s.join_t[r[i]][r[j]]] for j in range(s.n)] for i in range(s.n)]
    return from_join_table(s.labels[::-1], table, r[s.zero])


def test_all_endomorphisms_against_direct_filter():
    for s in enumerate_semilattices(5):
        for t in (s, _reversed(s)):
            assert all_endomorphisms(t) == tuple(oracles.oracle_endomorphisms(t))
    assert len(all_endomorphisms(chain(2).structure)) == 6


def test_json_round_trip_preserves_everything():
    s = omega(3).structure
    t = semilattice_from_json(s.to_json())
    assert t.labels == s.labels
    assert t.join_t == s.join_t
    assert t.zero == s.zero
    assert t.operators == s.operators


@pytest.mark.parametrize("text,message", [
    ('{"elements": 5}', "'elements' must be a list of labels"),
    ('{"elements": "0a", "covers": []}', "'elements' must be a list of labels"),
    ('{"elements": ["0", "a"], "covers": [["0"]]}', "'covers' must be a list of lists of 2 labels"),
    ('{"elements": ["0", "a"], "joins": 3}', "'joins' must be a list of lists of 3 labels"),
    ('{"elements": ["0"], "covers": [], "operators": ["f"]}', "'operators' must map names"),
    ('{"elements": ["0"], "covers": [], "operators": {"f": "0"}}', "'f' must be a list of labels"),
    ('{"elements": ["0"]}', "needs 'joins' or 'covers'"),
    ('{"elements": ["a", "b", "c"], "joins": [["a", "b", "c"], ["a", "c", "c"], ["b", "c", "c"]]}',
     "cannot infer zero"),
    ('{"elements": ["0", "a", "b"], "joins": [["0", "a", "a"], ["0", "b", "b"], ["a", "b", "b"], ["b", "a", "a"]]}',
     "the join of 'b' and 'a' is given two values"),
    ('{"elements": ["0", "a", "b"], "joins": [["0", "a", "a"], ["0", "b", "b"], ["a", "b", "b"], ["a", "a", "b"]]}',
     "the join of 'a' and 'a' is given two values"),
])
def test_json_of_the_wrong_shape_is_an_invariant_violation(text, message):
    with pytest.raises(InvariantViolation, match=message):
        semilattice_from_json(text)


@pytest.mark.parametrize("load", [
    lambda: from_join_table(("0", "a"), ((0, 1), (1, 1)), "z"),
    lambda: semilattice_from_json('{"elements": ["0", "a"], "covers": [["0", "a"]], "zero": "z"}'),
    lambda: semilattice_from_json('{"elements": ["0", "a"], "joins": [["0", "z", "a"]]}'),
])
def test_unknown_labels_are_typed(load):
    with pytest.raises(UnknownLabel, match="unknown (zero )?label 'z'"):
        load()


def test_the_diamond_loads_from_its_joins():
    b2 = boolean(2).structure
    joins = [["0", "p", "p"], ["0", "q", "q"], ["0", "1", "1"], ["p", "q", "1"], ["p", "1", "1"], ["q", "1", "1"]]
    s = semilattice_from_json(json.dumps({"elements": ["0", "p", "q", "1"], "joins": joins}))
    assert s.labels == b2.labels
    assert s.join_t == b2.join_t
    assert s.zero == 0


def test_from_lattice_matches_join_table():
    b2 = boolean(2).structure
    again = from_lattice(b2.lattice)
    assert again.join_t == b2.join_t and again.labels == b2.labels


def test_reduct_drops_operators():
    s = omega(3).structure
    r = s.reduct()
    assert r.operators == () and r.join_t == s.join_t


# sha256 of repr([all_endomorphisms(s) for s in enumerate_semilattices(7)]):
# seeded catalog samples index into this order, so it must not drift.
ENDOMORPHISM_DIGEST = "0d4a0429e58963f03123956c1a6608b1f8af9915436b854d0227c305254ca09d"


def test_endomorphism_order_is_pinned():
    found = [all_endomorphisms(s) for s in enumerate_semilattices(7)]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == ENDOMORPHISM_DIGEST
    assert sum(map(len, found)) == 23_436


def test_decorations_equal_a_fully_validated_structure():
    for s in enumerate_semilattices(4):
        for f in all_endomorphisms(s):
            ops = (("f", f),)
            fresh = OpSemilattice(s.labels, s.join_t, s.zero, ops)
            got = s.with_operators(ops)
            assert got == fresh and hash(got) == hash(fresh)
            assert (got.up, got.down, got.top) == (fresh.up, fresh.down, fresh.top)
            assert got.reduct() == s and got.reduct().lattice == s.lattice


def test_decorations_still_check_their_operators():
    b2 = boolean(2).structure
    with pytest.raises(ZeroNotPreserved):
        b2.with_operators([("f", (1, 1, 1, 1))])
    with pytest.raises(NotJoinHomomorphism):
        b2.with_operators([("g", (0, 2, 1, 1))])
    with pytest.raises(InvariantViolation, match="duplicate operator name 'f'"):
        b2.with_operators([("f", (0, 1, 2, 3)), ("f", (0, 1, 2, 3))])
    with pytest.raises(InvariantViolation, match="not a map on the carrier"):
        b2.with_operators([("f", (0, 1, 2))])
    assert b2.operators == ()


def _first_failing_join(s, f):
    """The row-major scan of all n^2 pairs: the first (x, y) with f(x + y) != f(x) + f(y)."""
    return next(((x, y) for x in range(s.n) for y in range(s.n)
                 if f[s.join(x, y)] != s.join(f[x], f[y])), None)


def test_with_operators_accepts_exactly_the_oracle_endomorphisms():
    # with_operators tests joins on cover and incomparable pairs only; every
    # zero-fixing map it rejects must fail at the pair the full scan names.
    accepted = rejected = 0
    for s in enumerate_semilattices(4):
        for t in (s, _reversed(s)):
            maps = [f for f in itertools.product(range(t.n), repeat=t.n) if f[t.zero] == t.zero]
            homs = []
            for f in maps:
                pair = _first_failing_join(t, f)
                try:
                    t.with_operators([("f", f)])
                except NotJoinHomomorphism as exc:
                    x, y = pair
                    assert str(exc) == f"operator 'f' fails at ({t.labels[x]!r}, {t.labels[y]!r})"
                    rejected += 1
                else:
                    assert pair is None
                    homs.append(f)
            assert homs == oracles.oracle_endomorphisms(t)
            accepted += len(homs)
    assert (accepted, rejected) == (90, 190)


def test_decorations_share_only_carrier_data():
    # Every cached value of the bare carrier exists before decorating, so a
    # decoration that inherited an operator-dependent one would show here.
    checked = 0
    for s in enumerate_semilattices(4):
        for name, attr in vars(OpSemilattice).items():
            if isinstance(attr, functools.cached_property):
                getattr(s, name)
        for f in all_endomorphisms(s):
            ops = (("f", f),)
            got = s.with_operators(ops)
            fresh = OpSemilattice(s.labels, s.join_t, s.zero, ops)
            conl = all_congruences(got)
            assert conl == all_congruences(fresh)
            assert natural_eta(got, conl) == natural_eta(fresh, all_congruences(fresh))
            for theta in conl.congruences:
                lo, hi = eta(got, theta), tau(got, theta)
                assert (lo, hi) == (eta(fresh, theta), tau(fresh, theta))
                assert (lo.rep, hi.rep) == oracles.oracle_eta_tau(got, theta.zero_class_mask(got))
                checked += 1
    assert checked > 100
