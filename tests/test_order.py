from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from eqlat.corpus import enumerate_semilattices
from eqlat.errors import BudgetExceeded, CycleError, NotALattice, UnknownLabel
from eqlat.order import (
    as_lattice,
    build_poset,
    canonical_key,
    closed_sets,
    complete_sublattice_closure,
    dot_hasse,
    dual,
    lattice_from_covers,
    poset_from_json,
    sub_poset,
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
    with pytest.raises(CycleError):
        build_poset(("a", "b"), (("a", "b"), ("b", "a")))


def test_as_lattice_rejects_non_lattice():
    cases = [
        (("a", "b", "c", "d"), (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")), "no meet for 'a', 'b'"),
        (("a", "b", "c", "d"), (("a", "b"), ("c", "d")), "no meet for 'a', 'c'"),
        (("0", "a", "b"), (("0", "a"), ("0", "b")), "no join for 'a', 'b'"),
    ]
    for labels, covers, message in cases:
        with pytest.raises(NotALattice, match=f"^{message}$"):
            as_lattice(build_poset(labels, covers))


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
    dd = dual(d)
    assert dd.leq(0, 3) and dd.join_table == l.join_table


def test_sub_poset_keeps_induced_order():
    l = diamond()
    p = sub_poset(l.poset, (0, 1, 3))
    assert p.labels == ("0", "p", "1")
    assert p.leq(0, 2) and p.leq(1, 2) and not p.leq(2, 1)


def test_complete_sublattice_closure_of_two_incomparables():
    l = diamond()
    closed = complete_sublattice_closure(l, (1, 2))
    assert closed.n == 4


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
