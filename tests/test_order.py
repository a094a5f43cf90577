from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from eqlat.corpus import enumerate_semilattices
from eqlat.errors import BudgetExceeded, CycleError, InvariantViolation, NotALattice, UnknownLabel
from eqlat.order import (
    FinitePoset,
    as_lattice,
    build_poset,
    canonical_key,
    closed_sets,
    complete_sublattice_closure,
    dot_hasse,
    dual,
    lattice_from_covers,
    lattice_of,
    poset_from_json,
)

DIAMOND = (("0", "p"), ("0", "q"), ("p", "1"), ("q", "1"))


def diamond():
    return lattice_from_covers(("0", "p", "q", "1"), DIAMOND)


def test_build_poset_order():
    p = build_poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.covers == ((0, 1), (1, 2))


def test_build_poset_rejects_unknown_label_and_cycle():
    with pytest.raises(UnknownLabel):
        build_poset(("a", "b"), (("a", "zz"),))
    with pytest.raises(UnknownLabel, match="unknown label 'zz' in cover"):
        build_poset(("a", "b"), (("zz", "a"),))
    with pytest.raises(InvariantViolation, match="labels must be unique"):
        build_poset(("a", "a"), ())
    with pytest.raises(CycleError):
        build_poset(("a", "b"), (("a", "b"), ("b", "a")))


@pytest.mark.parametrize("labels,up,message", [
    ((), (), "empty poset"),
    (("a", "b"), (0b01,), "up rows do not match label count"),
    (("a", "a"), (0b01, 0b10), "labels must be unique"),
    (("a",), (0b11,), "has bits outside the carrier"),
    (("a", "b"), (0b10, 0b10), "missing reflexivity at 0"),
    (("a", "b"), (0b11, 0b11), r"antisymmetry fails at \(0, 1\)"),
    (("a", "b", "c"), (0b011, 0b110, 0b100), r"transitivity fails at \(0, 1\)"),
])
def test_poset_rows_that_are_not_an_order_are_rejected(labels, up, message):
    with pytest.raises(InvariantViolation, match=message):
        FinitePoset(labels, up)


def test_as_lattice_rejects_non_lattice():
    cases = [
        (("a", "b", "c", "d"), (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")), "no meet for 'a', 'b'"),
        (("a", "b", "c", "d"), (("a", "b"), ("c", "d")), "no meet for 'a', 'c'"),
        (("0", "a", "b"), (("0", "a"), ("0", "b")), "no join for 'a', 'b'"),
    ]
    for labels, covers, message in cases:
        with pytest.raises(NotALattice, match=f"^{message}$"):
            as_lattice(build_poset(labels, covers))


def test_lattice_of_keeps_its_typed_errors():
    with pytest.raises(InvariantViolation, match="masks must be distinct"):
        lattice_of(lambda: ("a", "b", "c"), (0b00, 0b01, 0b01))
    with pytest.raises(InvariantViolation, match="masks must be distinct, and at least one"):
        lattice_of(lambda: (), ())
    with pytest.raises(NotALattice, match="^no meet for 'a', 'b'$"):
        lattice_of(lambda: ("a", "b", "c"), (0b01, 0b10, 0b11))
    with pytest.raises(NotALattice, match="^no join for 'a', 'b'$"):
        lattice_of(lambda: ("a", "b", "c"), (0b01, 0b10, 0b00))


def test_lattice_of_builds_labels_once_and_only_when_read():
    calls = []

    def labels():
        calls.append(1)
        return ["0", "p", "q", "1"]

    l = lattice_of(labels, (0b00, 0b01, 0b10, 0b11))
    assert (l.meet(1, 2), l.join(1, 2), l.bottom, l.top, l.poset.covers) == (0, 3, 0, 3, (
        (0, 1), (0, 2), (1, 3), (2, 3)))
    assert calls == []
    assert l.labels == ("0", "p", "q", "1") and l.poset.index == {"0": 0, "p": 1, "q": 2, "1": 3}
    assert l == diamond() and calls == [1]
    with pytest.raises(AttributeError):
        l.poset.missing


def test_diamond_tables():
    l = diamond()
    assert l.bottom == 0 and l.top == 3
    assert l.join(1, 2) == 3 and l.meet(1, 2) == 0
    assert l.join_all([]) == l.bottom and l.meet_all([]) == l.top
    assert set(l.coatoms) == {1, 2} and set(l.atoms) == {1, 2}


def test_dual_is_involutive_and_flips_order():
    l = diamond()
    d = dual(l)
    assert d.leq(l.top, l.bottom) and not d.leq(l.bottom, l.top)
    assert d.meet(1, 2) == l.join(1, 2)
    assert d.up == l.down and (d.bottom, d.top) == (l.top, l.bottom)
    assert (d.meet_table, d.join_table) == (l.join_table, l.meet_table)
    dd = dual(d)
    assert dd.leq(0, 3) and dd.join_table == l.join_table


def test_complete_sublattice_closure_of_two_incomparables():
    l = diamond()
    closed = complete_sublattice_closure(l, (1, 2))
    assert closed.labels == l.labels
    assert closed.up == l.up
    assert closed.join_table == l.join_table and closed.meet_table == l.meet_table


def test_complete_sublattice_closure_keeps_the_induced_order():
    l = diamond()
    closed = complete_sublattice_closure(l, (1,))
    assert closed.labels == ("0", "p", "1")
    assert closed.leq(0, 2) and closed.leq(1, 2) and not closed.leq(2, 1)
    assert (closed.bottom, closed.top) == (0, 2)
    assert closed.join(0, 1) == 1 and closed.meet(1, 2) == 1


@pytest.mark.parametrize("seed", [99, -1, "p", 1.0])
def test_complete_sublattice_closure_rejects_a_seed_that_is_no_element(seed):
    with pytest.raises(InvariantViolation, match=f"seed {seed!r} is not an element index"):
        complete_sublattice_closure(diamond(), (seed,))


def test_canonical_key_tells_isomorphic_lattices_apart():
    l = diamond()
    relabeled = lattice_from_covers(
        ("z", "y", "x", "w"), (("z", "y"), ("z", "x"), ("y", "w"), ("x", "w"))
    )
    chain4 = lattice_from_covers(("0", "1", "2", "3"), (("0", "1"), ("1", "2"), ("2", "3")))
    assert oracles.oracle_isomorphic(l.up, relabeled.up)
    assert canonical_key(l.join_table) == canonical_key(relabeled.join_table)
    assert not oracles.oracle_isomorphic(l.up, chain4.up)
    assert canonical_key(l.join_table) != canonical_key(chain4.join_table)


# {a < c < t, b < t} has no zero; labelled a, b, c, t or b, a, c, t, a
# different minimal element would pass for the bottom.
_ZERO_FREE = (
    [[0, 3, 2, 3], [3, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
    [[0, 3, 3, 3], [3, 1, 2, 3], [3, 2, 2, 3], [3, 3, 3, 3]],
)


@pytest.mark.parametrize(
    "table", [[], [[0, 1], [1]], *_ZERO_FREE], ids=["empty", "ragged", "zero-free", "zero-free-relabelled"]
)
def test_canonical_key_rejects_tables_outside_its_domain(table):
    with pytest.raises(InvariantViolation):
        canonical_key(table)


_KEY_POOL = list(enumerate_semilattices(6))


def test_canonical_key_agrees_with_the_oracle_up_to_five_elements():
    pool = [s for s in _KEY_POOL if s.n <= 5]
    for i, a in enumerate(pool):
        for b in pool[i:]:
            same = canonical_key(a.join_t) == canonical_key(b.join_t)
            assert same == oracles.oracle_isomorphic(a.lattice.up, b.lattice.up)


@given(st.data())
def test_canonical_key_agrees_with_the_oracle_on_relabellings(data):
    a = data.draw(st.sampled_from(_KEY_POOL))
    b = data.draw(st.sampled_from([a] + [s for s in _KEY_POOL if s.n == a.n]))
    perm = data.draw(st.permutations(range(b.n)))
    table = [[0] * b.n for _ in range(b.n)]
    for x in range(b.n):
        for y in range(b.n):
            table[perm[x]][perm[y]] = perm[b.join(x, y)]
    up = [sum(1 << y for y in range(b.n) if table[x][y] == y) for x in range(b.n)]
    same = canonical_key(a.join_t) == canonical_key(table)
    assert same == oracles.oracle_isomorphic(a.lattice.up, up)


def test_dot_output_is_a_digraph_over_covers():
    text = dot_hasse(diamond().poset)
    assert text.startswith("digraph")
    assert '"0" -> "p"' in text and '"q" -> "1"' in text


def test_poset_json_round_trip():
    p = diamond().poset
    again = poset_from_json(p.to_json())
    assert again.labels == p.labels and again.up == p.up
    json.loads(p.to_json())


@given(st.data())
def test_lattice_laws_on_small_pool(data):
    from eqlat.corpus import enumerate_semilattices

    pool = [s.lattice for s in enumerate_semilattices(5)]
    l = data.draw(st.sampled_from(pool))
    x = data.draw(st.integers(0, l.n - 1))
    y = data.draw(st.integers(0, l.n - 1))
    z = data.draw(st.integers(0, l.n - 1))
    assert l.join(x, y) == l.join(y, x)
    assert l.meet(x, y) == l.meet(y, x)
    assert l.join(x, l.join(y, z)) == l.join(l.join(x, y), z)
    assert l.meet(x, l.meet(y, z)) == l.meet(l.meet(x, y), z)
    assert l.join(x, l.meet(x, y)) == x
    assert l.meet(x, l.join(x, y)) == x
    assert l.leq(x, y) == (l.join(x, y) == y) == (l.meet(x, y) == x)


_CLOSED_SET_POOL = [s.lattice for s in enumerate_semilattices(5)]


@given(st.data())
def test_closed_sets_match_the_subset_scan(data):
    l = data.draw(st.sampled_from(_CLOSED_SET_POOL))
    table = data.draw(st.sampled_from((l.join_table, l.meet_table)))
    full = (1 << l.n) - 1
    base = data.draw(st.integers(0, full))
    relation = st.lists(st.integers(0, full), min_size=l.n, max_size=l.n)
    rows = data.draw(st.one_of(st.none(), relation))
    want = oracles.oracle_closed_sets(table, base, rows)
    got = list(closed_sets(table, base, rows=rows))
    assert sorted(got) == want
    assert sorted(closed_sets(table, base, rows=rows, cap=len(want))) == want
    if want:
        with pytest.raises(BudgetExceeded, match=f"more than {len(want) - 1} closed sets"):
            closed_sets(table, base, rows=rows, cap=len(want) - 1)
