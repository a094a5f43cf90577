"""Finite posets and lattices over indexed elements.

Elements are identified by index 0..n-1; labels are presentation only. The
order relation is stored as bitmask rows: ``up[i]`` has bit j set iff i <= j,
and ``down[i]`` has bit j set iff j <= i. All derived structure (covers,
meet/join tables, atoms, coatoms) is computed from those rows.

Conventions
-----------
* masks are plain ints; bit k corresponds to element k
* ``iter_bits(m)`` yields set bit positions in increasing order
* cover lists are pairs (lower, upper)
* ``closure`` closes a mask under a binary operation table; ``closed_sets``
  enumerates every closed mask (Close-by-One) and serves every subset search,
  the congruence lattice included
* ``lattice_of`` is the one way the package builds a lattice from its own
  masks, ordered by containment, its labels built when first read;
  ``as_lattice`` reads posets from outside (``FinitePoset``, ``build_poset``, JSON)
* ``canonical_key`` is the one isomorphism test: equal keys, isomorphic
  join-semilattices with zero
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceeded, CycleError, InvariantViolation, NotALattice, UnknownLabel


def iter_bits(mask: int):
    """Yield the positions of set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure(
    table: Sequence[Sequence[int]] | None,
    mask: int,
    rows: Sequence[int] | None = None,
    todo: int | None = None,
    bad: int = 0,
) -> int | None:
    """Least superset of ``mask`` closed under ``table`` and ``rows``.

    ``table[a][b]`` is a binary operation on element indices (None for
    none); ``rows[a]`` is the mask a member a forces in. Only the members in
    ``todo`` (default: all) are combined with the others, so the rest of
    ``mask`` must already be closed. Returns None as soon as a member of
    ``bad`` would come in.
    """
    todo = mask if todo is None else todo
    while todo:
        low = todo & -todo
        todo ^= low
        x = low.bit_length() - 1
        add = rows[x] if rows is not None else 0
        if table is not None:
            row = table[x]
            for y in iter_bits(mask):
                add |= 1 << row[y]
        add &= ~mask
        if add & bad:
            return None
        mask |= add
        todo |= add
    return mask


def closed_sets(
    table: Sequence[Sequence[int]] | None,
    base: int = 0,
    *,
    rows: Sequence[int] | None = None,
    cap: int | None = None,
):
    """Every set that contains ``base`` and is closed under ``table`` and ``rows``.

    Sets come as a list of masks in walk order, not sorted. The walk is
    Close-by-One (Kuznetsov): a closed set S spawns closure(S + e) for each
    e outside S above the element S was spawned with, kept only if it adds
    nothing below e. Every closed set is visited once and no other set is,
    so ``cap`` counts closed sets: BudgetExceeded is raised as soon as more
    than ``cap`` are found, with at most ``cap`` + 1 of them stored.
    """
    full = (1 << len(table if table is not None else rows)) - 1
    stack = [(closure(table, base, rows), 0)]
    found = []
    while stack:
        closed, first = stack.pop()
        found.append(closed)
        if cap is not None and len(found) > cap:
            raise BudgetExceeded("closed sets", cap)
        for e in iter_bits(full & ~closed & -(1 << first)):
            bit = 1 << e
            child = closure(table, closed | bit, rows, bit, (bit - 1) & ~closed)
            if child is not None:
                stack.append((child, e + 1))
    return found


def set_label(labels: Sequence[str], mask: int) -> str:
    return "{" + ",".join(labels[i] for i in iter_bits(mask)) + "}"


class _LabelsOnFirstRead:
    """Builds the labels that ``lattice_of`` was given as a function, the first time they are read."""

    def __get__(self, poset, owner=None):
        if poset is None:  # read on the class: the dataclass field gets no default
            raise AttributeError("labels")
        return poset.__dict__.setdefault("labels", tuple(poset.__dict__.pop("_labels_of")()))


@dataclass(frozen=True)
class FinitePoset:
    """A finite partial order: labels plus an up-set bitmask per element."""

    labels: tuple[str, ...] = _LabelsOnFirstRead()
    up: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise InvariantViolation("empty poset")
        if len(self.up) != n:
            raise InvariantViolation("up rows do not match label count")
        if len(set(self.labels)) != n:
            raise InvariantViolation("labels must be unique")
        full = (1 << n) - 1
        for i, row in enumerate(self.up):
            if row & ~full:
                raise InvariantViolation(f"up[{i}] has bits outside the carrier")
            if not (row >> i) & 1:
                raise InvariantViolation(f"missing reflexivity at {i}")
        for i in range(n):
            for j in iter_bits(self.up[i]):
                if i != j and (self.up[j] >> i) & 1:
                    raise InvariantViolation(f"antisymmetry fails at ({i}, {j})")
                if self.up[j] & ~self.up[i]:
                    raise InvariantViolation(f"transitivity fails at ({i}, {j})")

    @property
    def n(self) -> int:
        return len(self.up)

    @cached_property
    def down(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for i in range(self.n):
            for j in iter_bits(self.up[i]):
                rows[j] |= 1 << i
        return tuple(rows)

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """All cover pairs (i, j) with i < j and nothing strictly between."""
        out = []
        for i in range(self.n):
            strict_up = self.up[i] & ~(1 << i)
            for j in iter_bits(strict_up):
                between = strict_up & self.down[j] & ~(1 << j)
                if not between:
                    out.append((i, j))
        return tuple(out)

    @cached_property
    def join_pairs(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs, then incomparable pairs (i, j) with i < j.

        A map preserving the joins of covers is monotone, so one preserving these preserves every join.
        """
        up = self.up
        return self.covers + tuple((i, j) for i in range(self.n) for j in range(i + 1, self.n)
                                   if not (up[i] >> j | up[j] >> i) & 1)

    def to_json(self) -> str:
        data = {
            "elements": list(self.labels),
            "covers": [[self.labels[i], self.labels[j]] for i, j in self.covers],
        }
        return json.dumps(data, indent=2)


def build_poset(labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> FinitePoset:
    """Build a poset from labels and cover pairs (lower, upper).

    Raises UnknownLabel for a cover mentioning a missing label and CycleError
    if the cover relation is not acyclic.
    """
    labels = tuple(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise InvariantViolation("labels must be unique")
    n = len(labels)
    succ = [0] * n
    for lo, hi in covers:
        if lo not in index:
            raise UnknownLabel(f"unknown label {lo!r} in cover")
        if hi not in index:
            raise UnknownLabel(f"unknown label {hi!r} in cover")
        succ[index[lo]] |= 1 << index[hi]
    up = [closure(None, 1 << i, succ) for i in range(n)]
    for i in range(n):
        for j in iter_bits(up[i]):
            if i != j and (up[j] >> i) & 1:
                raise CycleError(f"cycle through {labels[i]!r} and {labels[j]!r}")
    return FinitePoset(labels, tuple(up))


@dataclass(frozen=True)
class FiniteLattice:
    """A finite lattice: a poset together with total meet and join tables."""

    poset: FinitePoset
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    @property
    def up(self) -> tuple[int, ...]:
        return self.poset.up

    @property
    def down(self) -> tuple[int, ...]:
        return self.poset.down

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def meet_all(self, items: Iterable[int]) -> int:
        """Meet of a family; the empty family meets to the top."""
        acc = self.top
        for x in items:
            acc = self.meet_table[acc][x]
        return acc

    def join_all(self, items: Iterable[int]) -> int:
        """Join of a family; the empty family joins to the bottom."""
        acc = self.bottom
        for x in items:
            acc = self.join_table[acc][x]
        return acc

    @cached_property
    def coatoms(self) -> tuple[int, ...]:
        return tuple(i for i, j in self.poset.covers if j == self.top)

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(j for i, j in self.poset.covers if i == self.bottom)

    def to_json(self) -> str:
        return self.poset.to_json()


def as_lattice(poset: FinitePoset) -> FiniteLattice:
    """Interpret a poset as a lattice; NotALattice names the first bad pair.

    The common lower bounds of i and j form a downset, and meet(i, j) exists
    exactly when that downset is principal, ``down[m]`` for the meet m; so a
    lookup from downset mask to element replaces a search. Joins work the
    same way over ``up``.
    """
    up, down = poset.up, poset.down
    by_down = {m: i for i, m in enumerate(down)}
    by_up = {m: i for i, m in enumerate(up)}
    meet = tuple(tuple(map(by_down.get, map(a.__and__, down))) for a in down)
    join = tuple(tuple(map(by_up.get, map(a.__and__, up))) for a in up)
    if any(None in row for row in meet + join):
        for i, j in itertools.product(range(poset.n), repeat=2):
            for kind, table in (("meet", meet), ("join", join)):
                if table[i][j] is None:
                    raise NotALattice(f"no {kind} for {poset.labels[i]!r}, {poset.labels[j]!r}")
    full = (1 << poset.n) - 1
    return FiniteLattice(poset, meet, join, by_up[full], by_down[full])


def lattice_of(labels: Callable[[], Sequence[str]], masks: Sequence[int]) -> FiniteLattice:
    """The lattice of ``masks`` ordered by containment, element i being masks[i].

    Containment is a partial order once the masks are distinct, so the poset
    skips ``FinitePoset``'s full check. ``labels`` builds one distinct label
    per mask; it runs the first time something reads them. Column k holds the
    masks with bit k: up[i] meets the columns of masks[i]'s bits, down[i] avoids the rest.
    """
    return _lattice_of(labels, masks, {})


def _lattice_of(labels: Callable[[], Sequence[str]], masks: Sequence[int], tables: dict) -> FiniteLattice:
    """``lattice_of``; lattices with equal up rows share the tables kept in ``tables`` (never a lattice)."""
    masks, n = tuple(masks), len(masks)
    if not n or len(set(masks)) != n:
        raise InvariantViolation("masks must be distinct, and at least one")
    up, down = [(1 << n) - 1] * n, [(1 << n) - 1] * n
    for k in range(max(masks).bit_length()):
        column = sum(1 << i for i, a in enumerate(masks) if a >> k & 1)
        for i, a in enumerate(masks):
            if a >> k & 1:
                up[i] &= column
            else:
                down[i] &= ~column
    poset = object.__new__(FinitePoset)
    poset.__dict__.update(_labels_of=labels, up=tuple(up), down=tuple(down))
    if poset.up in tables:
        return FiniteLattice(poset, *tables[poset.up])
    lat = as_lattice(poset)
    tables[poset.up] = lat.meet_table, lat.join_table, lat.bottom, lat.top
    return lat


def lattice_from_covers(labels: Sequence[str], covers: Iterable[tuple[str, str]]) -> FiniteLattice:
    return as_lattice(build_poset(labels, covers))


def complete_sublattice_closure(lat: FiniteLattice, seeds: Iterable[int]) -> FiniteLattice:
    """Smallest complete sublattice of ``lat`` containing the seeds.

    Contains bottom and top and is closed under pairwise meet and join, which
    for a finite carrier is the full completeness condition. Labels carry over,
    so closure elements can be located in the ambient lattice by label. A seed
    that is not an element index raises InvariantViolation.
    """
    members = (1 << lat.bottom) | (1 << lat.top)
    for x in seeds:
        if not isinstance(x, int) or x not in range(lat.n):
            raise InvariantViolation(f"seed {x!r} is not an element index")
        members |= 1 << x
    while True:
        grown = closure(lat.join_table, closure(lat.meet_table, members))
        if grown == members:
            kept = list(iter_bits(members))
            return lattice_of(lambda: [lat.labels[x] for x in kept], [lat.down[x] for x in kept])
        members = grown


def dual(lat: FiniteLattice) -> FiniteLattice:
    """The order-dual lattice: same labels, reversed order, tables swapped."""
    return lattice_of(lambda: lat.labels, lat.up)


def _is_label(x) -> bool:
    return isinstance(x, (str, int, float))


def json_list(data: dict, key: str, width: int = 0) -> list:
    """``data[key]`` (empty when absent): a list of labels, or of ``width``-label lists.

    A label is a JSON string or number; any other shape raises
    InvariantViolation.
    """
    items = data.get(key, [])
    if not isinstance(items, list) or not all(
        isinstance(x, list) and len(x) == width and all(map(_is_label, x)) if width else _is_label(x)
        for x in items
    ):
        shape = f"lists of {width} labels" if width else "labels"
        raise InvariantViolation(f"{key!r} must be a list of {shape}")
    return items


def json_label_map(data, key: str) -> dict[str, str]:
    """``data[key]``, or ``data`` itself without that key: an object from labels to labels.

    Labels come back as strings; any other shape raises InvariantViolation.
    """
    items = data.get(key, data) if isinstance(data, dict) else data
    if not isinstance(items, dict) or not all(map(_is_label, items.values())):
        raise InvariantViolation(f"{key!r} must be an object from labels to labels")
    return {k: str(v) for k, v in items.items()}


def poset_from_json(text: str) -> FinitePoset:
    data = json.loads(text)
    if not isinstance(data, dict) or "elements" not in data:
        raise InvariantViolation("poset JSON needs an 'elements' key")
    labels = [str(x) for x in json_list(data, "elements")]
    covers = [(str(lo), str(hi)) for lo, hi in json_list(data, "covers", 2)]
    return build_poset(labels, covers)


def dot_hasse(poset: FinitePoset, name: str = "hasse") -> str:
    """Graphviz DOT for the Hasse diagram, drawn bottom to top."""
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;", "  node [shape=plaintext];"]
    for lab in poset.labels:
        lines.append(f"  {json.dumps(lab)};")
    for i, j in poset.covers:
        lines.append(f"  {json.dumps(poset.labels[i])} -> {json.dumps(poset.labels[j])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# Bound on the relabellings canonical_key tries: the product of the
# factorials of its invariant class sizes. Carriers up to 8 elements need at
# most 720.
_RELABEL_CAP = 1 << 16


def canonical_key(join_table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Isomorphism key of a finite join-semilattice with zero, given by its join table.

    The key is the least row-major relabelled join table over the relabellings
    that fix the zero at 0 and keep each element within its invariant class
    (own up/down sizes, then those of its up- and downset), classes laid out
    in sorted order. Two tables get equal keys exactly when they are
    isomorphic. Raises InvariantViolation on an empty or non-square table or
    one without a zero (an element below all others), and BudgetExceeded when
    more than ``_RELABEL_CAP`` relabellings would be tried.
    """
    n = len(join_table)
    if not n or any(len(row) != n for row in join_table):
        raise InvariantViolation("join table must be square and non-empty")
    ups = [[y for y in range(n) if row[y] == y] for row in join_table]
    downs: list[list[int]] = [[] for _ in range(n)]
    for x, up in enumerate(ups):
        for y in up:
            downs[y].append(x)
    bottom = next((x for x in range(n) if len(ups[x]) == n), None)
    if bottom is None:
        raise InvariantViolation("join table has no zero: no element lies below all others")
    inv0 = [(len(ups[x]), len(downs[x])) for x in range(n)]
    get = inv0.__getitem__
    groups: dict = {}
    for x in range(n):
        if x != bottom:
            inv1 = (inv0[x], tuple(sorted(map(get, ups[x]))), tuple(sorted(map(get, downs[x]))))
            groups.setdefault(inv1, []).append(x)
    ordered_groups = [[bottom]] + [groups[k] for k in sorted(groups)]
    if math.prod(math.factorial(len(g)) for g in ordered_groups) > _RELABEL_CAP:
        raise BudgetExceeded("relabellings", _RELABEL_CAP)
    best = None
    sigma = [0] * n
    for perms in itertools.product(*map(itertools.permutations, ordered_groups)):
        # labelling[p] is the element relabelled p; sigma is its inverse.
        labelling = [x for perm in perms for x in perm]
        for p, x in enumerate(labelling):
            sigma[x] = p
        enc = tuple([sigma[row[c]] for row in map(join_table.__getitem__, labelling) for c in labelling])
        if best is None or enc < best:
            best = enc
    return best
