"""Finite join-semilattices with zero, optionally carrying operators.

An operator is a unary map f with f(0) = 0 and f(x + y) = f(x) + f(y). The
carrier is indexed 0..n-1; the join table is total. Because the carrier is
finite and has a top (the join of everything), pairwise meets always exist as
well, so every structure here also has a lattice view.

Ideals are down-closed, join-closed subsets containing zero, stored as masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    InvariantViolation,
    NotJoinHomomorphism,
    UnknownLabel,
    ZeroNotPreserved,
)
from .order import FiniteLattice, FinitePoset, as_lattice, build_poset, iter_bits, json_list

_MONOID_CAP = 10_000
# The cached properties of OpSemilattice that read only the carrier.
_CARRIER_DATA = ("up", "down", "top", "poset", "lattice", "index")


@dataclass(frozen=True)
class OpSemilattice:
    """Join-semilattice with zero and a (possibly empty) tuple of named operators."""

    labels: tuple[str, ...]
    join_t: tuple[tuple[int, ...], ...]
    zero: int
    operators: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        self._check_carrier()
        self._check_operators()

    def _check_carrier(self) -> None:
        n = len(self.labels)
        if n == 0:
            raise InvariantViolation("empty carrier")
        if len(set(self.labels)) != n:
            raise InvariantViolation("labels must be unique")
        if len(self.join_t) != n or any(len(r) != n for r in self.join_t):
            raise InvariantViolation("join table must be n by n")
        if not 0 <= self.zero < n:
            raise InvariantViolation(f"zero index {self.zero} is out of range")
        if any(not 0 <= v < n for row in self.join_t for v in row):
            raise InvariantViolation("join table has an entry out of range")
        jt = self.join_t
        for i in range(n):
            if jt[i][i] != i:
                raise InvariantViolation(f"join not idempotent at {i}")
            if jt[self.zero][i] != i:
                raise InvariantViolation(f"zero is not neutral at {i}")
            for j in range(i + 1, n):
                if jt[i][j] != jt[j][i]:
                    raise InvariantViolation(f"join not commutative at ({i}, {j})")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if jt[jt[i][j]][k] != jt[i][jt[j][k]]:
                        raise InvariantViolation(f"join not associative at ({i}, {j}, {k})")

    def _check_operators(self) -> None:
        n, jt = self.n, self.join_t
        seen = set()
        for name, images in self.operators:
            if name in seen:
                raise InvariantViolation(f"duplicate operator name {name!r}")
            seen.add(name)
            if len(images) != n or any(not (0 <= v < n) for v in images):
                raise InvariantViolation(f"operator {name!r} is not a map on the carrier")
            if images[self.zero] != self.zero:
                raise ZeroNotPreserved(f"operator {name!r} moves zero")
            # The poset's join pairs decide it; on a failure the row-major scan names the first pair.
            if all(images[jt[i][j]] == jt[images[i]][images[j]] for i, j in self.poset.join_pairs):
                continue
            for i in range(n):
                for j in range(n):
                    if images[jt[i][j]] != jt[images[i]][images[j]]:
                        raise NotJoinHomomorphism(
                            f"operator {name!r} fails at ({self.labels[i]!r}, {self.labels[j]!r})"
                        )

    @property
    def n(self) -> int:
        return len(self.labels)

    def join(self, i: int, j: int) -> int:
        return self.join_t[i][j]

    def join_all(self, items: Iterable[int]) -> int:
        acc = self.zero
        for x in items:
            acc = self.join_t[acc][x]
        return acc

    def leq(self, i: int, j: int) -> bool:
        return self.join_t[i][j] == j

    @cached_property
    def up(self) -> tuple[int, ...]:
        return tuple(sum(1 << j for j, v in enumerate(row) if v == j) for row in self.join_t)

    @cached_property
    def down(self) -> tuple[int, ...]:
        return tuple(sum(1 << i for i, row in enumerate(self.up) if row >> j & 1)
                     for j in range(self.n))

    @cached_property
    def top(self) -> int:
        return self.join_all(range(self.n))

    @cached_property
    def poset(self) -> FinitePoset:
        return FinitePoset(self.labels, self.up)

    @cached_property
    def lattice(self) -> FiniteLattice:
        """The lattice view; meets exist because the carrier is finite with a top."""
        return as_lattice(self.poset)

    @cached_property
    def index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def _ideals(self) -> tuple["IdealSet", ...]:
        return tuple(IdealSet(m, self.n) for m in sorted(self.down, key=lambda m: (m.bit_count(), m)))

    def reduct(self) -> "OpSemilattice":
        """The same semilattice with all operators removed."""
        return self.with_operators(()) if self.operators else self

    def with_operators(self, operators: Sequence[tuple[str, Sequence[int]]]) -> "OpSemilattice":
        """The same carrier with these operators; only the operators are checked.

        The copy shares the carrier's order data (``_CARRIER_DATA``), built
        here on first use, and nothing else, so every decoration of one carrier
        reads the same lattice tables and no operator-dependent value carries
        over.
        """
        out = object.__new__(OpSemilattice)
        ops = tuple((name, tuple(images)) for name, images in operators)
        shared = {k: getattr(self, k) for k in _CARRIER_DATA}
        out.__dict__.update(shared, labels=self.labels, join_t=self.join_t, zero=self.zero,
                            operators=ops)
        out._check_operators()
        return out

    def to_json(self) -> str:
        covers = [[self.labels[i], self.labels[j]] for i, j in self.poset.covers]
        data: dict = {
            "elements": list(self.labels),
            "covers": covers,
            "zero": self.labels[self.zero],
        }
        if self.operators:
            data["operators"] = {
                name: [self.labels[v] for v in images] for name, images in self.operators
            }
        return json.dumps(data, indent=2)


def from_join_table(
    labels: Sequence[str],
    join_table: Sequence[Sequence[int]],
    zero: int | str,
    operators: Sequence[tuple[str, Sequence[int]]] = (),
) -> OpSemilattice:
    labels = tuple(labels)
    if isinstance(zero, str):
        if zero not in labels:
            raise UnknownLabel(f"unknown zero label {zero!r}")
        zero = labels.index(zero)
    return OpSemilattice(
        labels,
        tuple(tuple(row) for row in join_table),
        zero,
        tuple((name, tuple(images)) for name, images in operators),
    )


def from_lattice(
    lat: FiniteLattice, operators: Sequence[tuple[str, Sequence[int]]] = ()
) -> OpSemilattice:
    """View a finite lattice as a join-semilattice with zero = lattice bottom."""
    return from_join_table(lat.labels, lat.join_table, lat.bottom, operators)


def semilattice_from_json(text: str) -> OpSemilattice:
    """Parse {"elements", "covers" or "joins", "zero", "operators"?} JSON."""
    data = json.loads(text)
    if not isinstance(data, dict) or "elements" not in data:
        raise InvariantViolation("semilattice JSON needs an 'elements' key")
    labels = tuple(str(x) for x in json_list(data, "elements"))
    index = {lab: i for i, lab in enumerate(labels)}

    def look(lab) -> int:
        lab = str(lab)
        if lab not in index:
            raise UnknownLabel(f"unknown label {lab!r}")
        return index[lab]

    if "joins" in data:
        n = len(labels)
        table = [[i if i == j else None for j in range(n)] for i in range(n)]
        for a, b, c in json_list(data, "joins", 3):
            ia, ib, ic = look(a), look(b), look(c)
            if table[ia][ib] not in (None, ic):
                raise InvariantViolation(f"the join of {a!r} and {b!r} is given two values")
            table[ia][ib] = table[ib][ia] = ic
        if any(v is None for row in table for v in row):
            raise InvariantViolation("joins list does not cover every pair")
        join_table = table
    elif "covers" in data:
        poset = build_poset(labels, [(str(lo), str(hi)) for lo, hi in json_list(data, "covers", 2)])
        lat = as_lattice(poset)
        join_table = [list(r) for r in lat.join_table]
    else:
        raise InvariantViolation("semilattice JSON needs 'joins' or 'covers'")

    zero = look(data["zero"]) if "zero" in data else None
    if zero is None:
        candidates = [i for i in range(len(labels)) if all(join_table[i][j] == j for j in range(len(labels)))]
        if len(candidates) != 1:
            raise InvariantViolation("cannot infer zero; provide a 'zero' key")
        zero = candidates[0]

    named = data.get("operators") or {}
    if not isinstance(named, dict):
        raise InvariantViolation("'operators' must map names to lists of labels")
    operators = [(str(name), [look(v) for v in json_list(named, name)]) for name in named]
    return from_join_table(labels, join_table, zero, operators)


def operator_monoid(s: OpSemilattice) -> tuple[tuple[int, ...], ...]:
    """Closure of the operator set plus identity under composition.

    Breadth-first from the identity, deterministic order. Raises
    BudgetExceeded when the monoid has more than ``_MONOID_CAP`` maps.
    Nothing in the package calls it: ``congruence.tau`` and ``natural_eta``
    read the 0-class interval off Con's closed sets instead. It stays public
    while ``bench/tracer.py`` traces it by name.
    """
    ident = tuple(range(s.n))
    generators = [images for _, images in s.operators]
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for f in generators:
                h = tuple(f[x] for x in g)
                if h not in seen:
                    seen.add(h)
                    order.append(h)
                    new.append(h)
                    if len(order) > _MONOID_CAP:
                        raise BudgetExceeded("monoid maps", _MONOID_CAP)
        frontier = new
    return tuple(order)


@dataclass(frozen=True)
class IdealSet:
    """An ideal stored as a bitmask over the carrier.

    Direct construction checks nothing; ``ideal`` validates and wraps.
    """

    mask: int
    n: int

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.mask))

    def member_labels(self, s: OpSemilattice) -> tuple[str, ...]:
        return tuple(s.labels[i] for i in iter_bits(self.mask))

    def __contains__(self, i: int) -> bool:
        return bool((self.mask >> i) & 1)


def ideal(s: OpSemilattice, members: int | Iterable[int]) -> IdealSet:
    """Validate and wrap an ideal given as a mask or an iterable of indices.

    Every member lies below the join of the members, and an ideal holds that
    join and all below it, so a set is an ideal iff it is the downset of its join.
    """
    n = s.n
    if isinstance(members, int):
        if members < 0:
            raise InvariantViolation("ideal mask is negative")
        members = iter_bits(members)
    mask = 0
    for i in members:
        if i not in range(n):
            raise InvariantViolation(f"ideal member {i!r} is not an element index")
        mask |= 1 << i
    forced = s.down[s.join_all(iter_bits(mask))] & ~mask
    if forced:
        label = s.labels[(forced & -forced).bit_length() - 1]
        raise InvariantViolation(f"not an ideal: {label!r} is forced")
    return IdealSet(mask, n)


def ideals(s: OpSemilattice, f_closed_only: bool = False) -> tuple[IdealSet, ...]:
    """All ideals, sorted by (size, mask).

    On a finite carrier every ideal is the principal downset of its join, so
    the ideals are the n distinct downsets ``s.down[x]``. They are sorted once
    per structure, and every later call returns the same tuple (``IdealSet``
    is frozen). With ``f_closed_only`` keep only ideals closed under every
    operator; operators are monotone, so ``s.down[x]`` is closed iff it holds
    each f(x).
    """
    if not f_closed_only:
        return s._ideals
    closed = {s.down[x] for x in range(s.n) if all(s.down[x] >> f[x] & 1 for _, f in s.operators)}
    return tuple(i for i in s._ideals if i.mask in closed)


def join_irreducibles(s: OpSemilattice) -> tuple[int, ...]:
    """Elements with exactly one lower cover (zero excluded)."""
    lower_count = [0] * s.n
    for _, j in s.poset.covers:
        lower_count[j] += 1
    return tuple(i for i in range(s.n) if i != s.zero and lower_count[i] == 1)


def all_endomorphisms(s: OpSemilattice) -> tuple[tuple[int, ...], ...]:
    """Every map with f(0) = 0 and f(x + y) = f(x) + f(y), sorted.

    A backtracking search over a linear extension. Zero maps to zero; a
    join-irreducible x with lower cover c may go anywhere above f(c); any
    other x is the join of its lower covers, so f(x) is forced to the join of
    f over them. Either way the placed prefix is monotone, so f(a) + f(b) =
    f(x) holds when a <= b = x. Placing x checks each incomparable pair a, b
    with a + b = x (a join-irreducible x has none), so each pair is checked
    once, when its join is placed, and a branch reaches the last element
    exactly when f is an endomorphism.
    """
    n, jt, up = s.n, s.join_t, s.up
    steps = []
    for x in sorted(range(n), key=lambda x: s.down[x].bit_count())[1:]:
        covers = [c for c, y in s.poset.covers if y == x]
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if jt[a][b] == x not in (a, b)]
        steps.append((x, covers, pairs))
    f = [s.zero] * n
    found = []

    def place(k: int) -> None:
        if k == len(steps):
            found.append(tuple(f))
            return
        x, covers, pairs = steps[k]
        if len(covers) == 1:
            values = iter_bits(up[f[covers[0]]])
        else:
            values = (s.join_all(f[c] for c in covers),)
        for v in values:
            f[x] = v
            if all(jt[f[a]][f[b]] == v for a, b in pairs):
                place(k + 1)

    place(0)
    return tuple(sorted(found))
