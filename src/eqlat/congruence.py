"""Congruences of finite join-semilattices with operators.

A congruence is an equivalence relation compatible with join translation
(x ~ y implies x + z ~ y + z) and with every operator (x ~ y implies
f(x) ~ f(y)). It is stored by representative: ``rep[i]`` is the least index of
the block containing i, so equality and hashing are structural.

The module also covers the two relation views of the congruence lattice:

* ``don``: reflexive transitive compatible relations containing >=
* ``eon``: compatible partial orders inside <= that are interval-closed

with the four transforms between Con, Don and Eon. The congruences are
enumerated once; ``all_don``/``all_eon`` and the generated relations are their
images under these bijections (a R b iff a ~ a + b), so all three views share
one engine and one cap. ``tests/oracles.py`` enumerates the relations
independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BudgetExceeded, InvariantViolation
from .order import FiniteLattice, iter_bits, lattice_of, popcount
from .semilattice import IdealSet, OpSemilattice, ideal, operator_monoid

# One cap for the congruence family, shared by its three views (Con, Don, Eon).
_CON_CAP = 100_000


@dataclass(frozen=True)
class Congruence:
    """A congruence as a representative map (least block member per element)."""

    rep: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rep)

    def relates(self, x: int, y: int) -> bool:
        return self.rep[x] == self.rep[y]

    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Blocks in order of least member, grouped in one pass: a block starts at its rep."""
        by_rep: dict[int, list[int]] = {}
        for i, r in enumerate(self.rep):
            by_rep.setdefault(r, []).append(i)
        return tuple(map(tuple, by_rep.values()))

    @property
    def block_count(self) -> int:
        return len(set(self.rep))

    def zero_class_mask(self, s: OpSemilattice) -> int:
        r = self.rep[s.zero]
        mask = 0
        for i, ri in enumerate(self.rep):
            if ri == r:
                mask |= 1 << i
        return mask

    def zero_class(self, s: OpSemilattice) -> IdealSet:
        return ideal(s, self.zero_class_mask(s))

    @property
    def pair_mask(self) -> int:
        """Bit x * n + y set iff x ~ y; theta refines phi iff theta's mask lies inside phi's."""
        blocks: dict[int, int] = {}
        for i, r in enumerate(self.rep):
            blocks[r] = blocks.get(r, 0) | 1 << i
        return sum(blocks[r] << self.n * x for x, r in enumerate(self.rep))

    def refines(self, other: "Congruence") -> bool:
        """self <= other in the congruence order."""
        return all(other.rep[r] == other.rep[i] for i, r in enumerate(self.rep))

    def meet(self, other: "Congruence") -> "Congruence":
        """Common refinement (block intersection)."""
        first: dict[tuple[int, int], int] = {}
        rep = []
        for i in range(self.n):
            key = (self.rep[i], other.rep[i])
            rep.append(first.setdefault(key, i))
        return Congruence(tuple(rep))

    def block_string(self, s: OpSemilattice) -> str:
        return "".join("[" + " ".join(s.labels[i] for i in cls) + "]" for cls in self.classes())

    def block_lists(self, s: OpSemilattice) -> list[list[str]]:
        return [[s.labels[i] for i in cls] for cls in self.classes()]


def make_congruence(
    s: OpSemilattice, blocks_or_rep: Sequence[int] | Iterable[Iterable[int]]
) -> Congruence:
    """Build and validate a congruence from a rep vector or an iterable of blocks."""
    items = list(blocks_or_rep)
    if items and not isinstance(items[0], int):
        rep = [-1] * s.n
        for block in items:
            members = sorted(block)
            for m in members:
                if rep[m] != -1:
                    raise InvariantViolation("blocks overlap")
                rep[m] = members[0]
        if any(r == -1 for r in rep):
            raise InvariantViolation("blocks do not cover the carrier")
    else:
        rep = items  # type: ignore[assignment]
        if len(rep) != s.n:
            raise InvariantViolation("rep vector has wrong length")
    first: dict[int, int] = {}
    theta = Congruence(tuple(first.setdefault(r, i) for i, r in enumerate(rep)))
    n = s.n
    jt = s.join_t
    rep = theta.rep
    for x in range(n):
        for y in range(x + 1, n):
            if rep[x] != rep[y]:
                continue
            for z in range(n):
                if rep[jt[x][z]] != rep[jt[y][z]]:
                    raise InvariantViolation(
                        f"not join-compatible at ({s.labels[x]!r}, {s.labels[y]!r}) + {s.labels[z]!r}"
                    )
            for name, images in s.operators:
                if rep[images[x]] != rep[images[y]]:
                    raise InvariantViolation(
                        f"not compatible with operator {name!r} at ({s.labels[x]!r}, {s.labels[y]!r})"
                    )
    return theta


def _union(parent: list[int], a: int, b: int) -> bool:
    """Merge the blocks of a and b in a union-find forest; False if already one block.

    Links point to smaller indices (a rep vector's do; a union hangs the larger
    root under the smaller), so roots are least members and ``_roots`` is one pass.
    """
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]  # path halving
    while parent[b] != b:
        parent[b] = b = parent[parent[b]]
    if a == b:
        return False
    parent[max(a, b)] = min(a, b)
    return True


def _roots(parent: list[int]) -> tuple[int, ...]:
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    return tuple(parent)


def _extend(s: OpSemilattice, rep: Sequence[int], pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The rep vector of the least congruence above ``rep`` relating every pair.

    ``rep`` is a congruence's rep vector (``range(n)`` for the identity). Its
    blocks are already compatible, so only the pairs that merge two blocks
    are pushed through the join table and the operators.
    """
    parent = list(rep)
    jt = s.join_t
    ops = [images for _, images in s.operators]
    queue = [(a, b) for a, b in pairs if _union(parent, a, b)]
    while queue:
        a, b = queue.pop()
        for x, y in zip(jt[a], jt[b]):
            if x != y and _union(parent, x, y):
                queue.append((x, y))
        for images in ops:
            if _union(parent, images[a], images[b]):
                queue.append((images[a], images[b]))
    return _roots(parent)


def _join(rep: Sequence[int], pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The rep vector of the partition join of ``rep`` with the blocks the pairs span."""
    parent = list(rep)
    for a, b in pairs:
        _union(parent, a, b)
    return _roots(parent)


def congruence_generated(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence relating every given pair."""
    return Congruence(_extend(s, range(s.n), pairs))


def join_congruences(s: OpSemilattice, a: Congruence, b: Congruence) -> Congruence:
    """The join of a and b as partitions: Con is a sublattice of Eq.

    If x = z0, z1, ..., zk = y alternate a- and b-related steps, so do
    z0 + w, ..., zk + w and f(z0), ..., f(zk); the partition join is compatible.
    """
    return Congruence(_join(a.rep, [(r, i) for i, r in enumerate(b.rep) if r != i]))


def meet_congruences(a: Congruence, b: Congruence) -> Congruence:
    return a.meet(b)


@dataclass(frozen=True)
class CongruenceLattice:
    """All congruences of a structure, with their lattice order.

    ``congruences[i]`` corresponds to element i of ``lattice``; index 0 is the
    identity congruence and the last index the all-in-one congruence. Labels in
    the lattice are the block strings.
    """

    semilattice: OpSemilattice
    congruences: tuple[Congruence, ...]
    lattice: FiniteLattice

    @property
    def n(self) -> int:
        return len(self.congruences)

    @cached_property
    def _position(self) -> dict[tuple[int, ...], int]:
        return {theta.rep: i for i, theta in enumerate(self.congruences)}

    def index_of(self, theta: Congruence) -> int:
        try:
            return self._position[theta.rep]
        except KeyError:
            raise InvariantViolation("congruence not in this lattice") from None

    def to_json(self) -> str:
        data = {
            "count": self.n,
            "elements": [c.block_lists(self.semilattice) for c in self.congruences],
            "covers": [
                [self.lattice.labels[i], self.lattice.labels[j]]
                for i, j in self.lattice.poset.covers
            ],
        }
        return json.dumps(data, indent=2)


def all_congruences(s: OpSemilattice) -> CongruenceLattice:
    """The full congruence lattice via join closure of cover-pair principals.

    A congruence relating a < b relates all of [a, b], since x = x + a ~ x + b
    = b for a <= x <= b. So Cg(a, b) is the join of the principals of the cover pairs
    along any maximal chain from a to b, and an incomparable pair reduces to
    (a, a + b) and (b, a + b). The principals of the cover pairs therefore
    generate Con under joins; one generator pair is kept per distinct
    principal, with the principal's non-root pairs. Each congruence found is
    joined with one generator at a time as partitions (see
    ``join_congruences``), skipping the generators it already relates.
    Every congruence is thus the join of the generators it relates, so
    theta <= phi iff G(theta) is inside G(phi): those bit masks give the order.
    Raises BudgetExceeded exactly when there are more than ``_CON_CAP``.
    """
    delta = tuple(range(s.n))
    seen = {delta}
    generators = []
    for a, b in s.poset.covers:
        p = congruence_generated(s, [(a, b)]).rep
        if p not in seen:
            seen.add(p)
            generators.append((a, b, [(r, i) for i, r in enumerate(p) if r != i]))
    if len(seen) > _CON_CAP:
        raise BudgetExceeded("congruences", _CON_CAP)
    masks = {delta: 0}
    work = list(seen - {delta})
    while work:
        rep = work.pop()
        mask = 0
        for k, (a, b, pairs) in enumerate(generators):
            if rep[a] == rep[b]:
                mask |= 1 << k
                continue
            j = _join(rep, pairs)
            if j not in seen:
                seen.add(j)
                work.append(j)
                if len(seen) > _CON_CAP:
                    raise BudgetExceeded("congruences", _CON_CAP)
        masks[rep] = mask
    ordered = sorted((Congruence(r) for r in seen), key=lambda c: (-c.block_count, c.rep))
    lattice = lattice_of([c.block_string(s) for c in ordered], [masks[c.rep] for c in ordered])
    return CongruenceLattice(s, tuple(ordered), lattice)


def is_simple(s: OpSemilattice) -> bool:
    """Whether Con(s) has exactly two elements, decided without building it.

    True iff n >= 2 and every cover pair generates the all-in-one congruence;
    the scan stops at the first cover pair that does not. Proof: a cover
    principal other than the all-in-one congruence is a third congruence.
    Conversely, a congruence theta other than the identity relates some
    x != y, hence x < x + y or y < x + y; say a < b, both related by theta.
    Then theta relates all of [a, b], so it relates a cover pair a < c <= b,
    and theta contains Cg(a, c), which is everything.
    """
    everything = (0,) * s.n
    return s.n >= 2 and all(
        congruence_generated(s, [p]).rep == everything for p in s.poset.covers
    )


def _as_ideal_mask(s: OpSemilattice, theta) -> int:
    """Normalize a Congruence / IdealSet / mask / iterable to an ideal mask."""
    if isinstance(theta, Congruence):
        return theta.zero_class_mask(s)
    if isinstance(theta, IdealSet):
        return theta.mask
    if isinstance(theta, int):
        return ideal(s, theta).mask
    return ideal(s, list(theta)).mask


def _require_operator_closed(s: OpSemilattice, mask: int) -> None:
    for name, images in s.operators:
        for i in iter_bits(mask):
            if not (mask >> images[i]) & 1:
                raise InvariantViolation(
                    f"ideal is not closed under operator {name!r} at {s.labels[i]!r}"
                )


def eta(s: OpSemilattice, theta) -> Congruence:
    """Least congruence whose 0-class is the 0-class of ``theta``.

    x ~ y iff x + i = y + i for some i in the 0-class, that is, iff
    x + t = y + t for the top t of the class: the principal congruence
    Cg(0, t). Accepts a congruence, an IdealSet, a mask, or an iterable of
    indices; the class must be closed under the operators.
    """
    mask = _as_ideal_mask(s, theta)
    _require_operator_closed(s, mask)
    return congruence_generated(s, [(s.zero, s.join_all(iter_bits(mask)))])


def tau(s: OpSemilattice, theta) -> Congruence:
    """Greatest congruence whose 0-class is the 0-class of ``theta``.

    x ~ y iff x and y land inside the class under exactly the same members of
    the operator monoid (identity included).
    """
    mask = _as_ideal_mask(s, theta)
    _require_operator_closed(s, mask)
    return _tau(s, mask, operator_monoid(s))


def _tau(s: OpSemilattice, mask: int, monoid: Sequence[Sequence[int]]) -> Congruence:
    """``tau`` of an operator-closed 0-class mask, given ``operator_monoid(s)``."""
    first: dict[tuple[int, ...], int] = {}
    return Congruence(tuple(
        first.setdefault(tuple((mask >> h[x]) & 1 for h in monoid), x) for x in range(s.n)
    ))


@dataclass(frozen=True)
class OrderedRelation:
    """A binary relation as bitmask rows; ``kind`` is 'don' or 'eon'."""

    rows: tuple[int, ...]
    kind: str

    @property
    def n(self) -> int:
        return len(self.rows)

    def holds(self, x: int, y: int) -> bool:
        return bool((self.rows[x] >> y) & 1)

    def pair_count(self) -> int:
        return sum(popcount(r) for r in self.rows)

    def contains(self, other: "OrderedRelation") -> bool:
        return all(o & ~r == 0 for r, o in zip(self.rows, other.rows))


def validate_don(s: OpSemilattice, rel: OrderedRelation) -> None:
    """Reflexive, transitive, compatible, and containing >=."""
    n = s.n
    rows = rel.rows
    for x in range(n):
        if s.down[x] & ~rows[x]:
            raise InvariantViolation(f"relation misses >= at {s.labels[x]!r}")
        for y in iter_bits(rows[x]):
            if rows[y] & ~rows[x]:
                raise InvariantViolation(f"not transitive at ({s.labels[x]!r}, {s.labels[y]!r})")
    _check_compatible(s, rows)


def validate_eon(s: OpSemilattice, rel: OrderedRelation) -> None:
    """Reflexive, transitive, compatible, inside <=, and interval-closed."""
    n = s.n
    rows = rel.rows
    for x in range(n):
        if not (rows[x] >> x) & 1:
            raise InvariantViolation(f"not reflexive at {s.labels[x]!r}")
        if rows[x] & ~s.up[x]:
            raise InvariantViolation(f"relation leaves <= at {s.labels[x]!r}")
        for y in iter_bits(rows[x]):
            if rows[y] & ~rows[x]:
                raise InvariantViolation(f"not transitive at ({s.labels[x]!r}, {s.labels[y]!r})")
            between = s.up[x] & s.down[y]
            if between & ~rows[x]:
                raise InvariantViolation(
                    f"not interval-closed at ({s.labels[x]!r}, {s.labels[y]!r})"
                )
    _check_compatible(s, rows)


def _check_compatible(s: OpSemilattice, rows: Sequence[int]) -> None:
    n = s.n
    jt = s.join_t
    for x in range(n):
        for y in iter_bits(rows[x]):
            for z in range(n):
                if not (rows[jt[x][z]] >> jt[y][z]) & 1:
                    raise InvariantViolation(
                        f"not join-compatible at ({s.labels[x]!r}, {s.labels[y]!r}) + {s.labels[z]!r}"
                    )
            for name, images in s.operators:
                if not (rows[images[x]] >> images[y]) & 1:
                    raise InvariantViolation(
                        f"not compatible with operator {name!r} at ({s.labels[x]!r}, {s.labels[y]!r})"
                    )


def don_of(s: OpSemilattice, theta: Congruence) -> OrderedRelation:
    """Compose the congruence with >= : x R y iff x is congruent to some w >= y."""
    rows = []
    for x in range(s.n):
        acc = 0
        for w in range(s.n):
            if theta.rep[w] == theta.rep[x]:
                acc |= s.down[w]
        rows.append(acc)
    return OrderedRelation(tuple(rows), "don")


def con_of_don(s: OpSemilattice, rel: OrderedRelation) -> Congruence:
    """x ~ y iff both x R x+y and y R x+y."""
    validate_don(s, rel)
    jt = s.join_t
    pairs = [
        (x, y) for x in range(s.n) for y in range(x + 1, s.n)
        if rel.holds(x, jt[x][y]) and rel.holds(y, jt[x][y])
    ]
    return congruence_generated(s, pairs)


def eon_of_don(s: OpSemilattice, rel: OrderedRelation) -> OrderedRelation:
    """Intersect with <=."""
    validate_don(s, rel)
    return OrderedRelation(tuple(rel.rows[x] & s.up[x] for x in range(s.n)), "eon")


def don_of_eon(s: OpSemilattice, rel: OrderedRelation) -> OrderedRelation:
    """Compose with >= : x R y iff x S w for some w >= y."""
    validate_eon(s, rel)
    rows = []
    for x in range(s.n):
        acc = 0
        for w in iter_bits(rel.rows[x]):
            acc |= s.down[w]
        rows.append(acc)
    return OrderedRelation(tuple(rows), "don")


def don_generated(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> OrderedRelation:
    """Least don relation holding every pair; a R b iff a ~ a + b, so it is don_of Cg(a, a + b)."""
    jt = s.join_t
    return don_of(s, congruence_generated(s, [(a, jt[a][b]) for a, b in pairs]))


def eon_generated(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> OrderedRelation:
    """Least eon relation holding every pair a <= b."""
    pairs = list(pairs)
    if not all(s.leq(a, b) for a, b in pairs):
        raise InvariantViolation("eon generators must satisfy a <= b")
    return eon_of_don(s, don_generated(s, pairs))


def _by_size(relations: Iterable[OrderedRelation]) -> tuple[OrderedRelation, ...]:
    return tuple(sorted(relations, key=lambda r: (r.pair_count(), r.rows)))


def all_don(s: OpSemilattice) -> tuple[OrderedRelation, ...]:
    """Every don relation: the image of Con under ``don_of``, by pair count then rows."""
    return _by_size(don_of(s, theta) for theta in all_congruences(s).congruences)


def all_eon(s: OpSemilattice) -> tuple[OrderedRelation, ...]:
    """Every eon relation: the image of Con under ``eon_of_don . don_of``, same order.

    Each ``don_of`` image is valid by construction, so its rows are met with <= directly.
    """
    return _by_size(
        OrderedRelation(tuple(r & u for r, u in zip(don_of(s, theta).rows, s.up)), "eon")
        for theta in all_congruences(s).congruences
    )


def quotient(s: OpSemilattice, theta: Congruence) -> OpSemilattice:
    """The quotient semilattice; classes become elements labeled by their members."""
    classes = theta.classes()
    class_of = {}
    for k, cls in enumerate(classes):
        for m in cls:
            class_of[m] = k
    labels = []
    for cls in classes:
        if len(cls) == 1:
            labels.append(s.labels[cls[0]])
        else:
            labels.append("{" + ",".join(s.labels[m] for m in cls) + "}")
    n = len(classes)
    table = [[0] * n for _ in range(n)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            table[i][j] = class_of[s.join_t[ci[0]][cj[0]]]
    operators = []
    for name, images in s.operators:
        operators.append((name, [class_of[images[cls[0]]] for cls in classes]))
    return OpSemilattice(
        tuple(labels),
        tuple(tuple(r) for r in table),
        class_of[s.zero],
        tuple((nm, tuple(im)) for nm, im in operators),
    )
