"""Congruences of finite join-semilattices with operators.

A congruence is an equivalence relation compatible with join translation
(x ~ y implies x + z ~ y + z) and with every operator (x ~ y implies
f(x) ~ f(y)). It is stored by representative: ``rep[i]`` is the least index of
the block containing i, so equality and hashing are structural.

The module also covers the two relation views of the congruence lattice:

* ``don``: reflexive transitive compatible relations containing >=
* ``eon``: compatible partial orders inside <= that are interval-closed

with the four transforms between Con, Don and Eon. The congruences are
enumerated once, as the closed sets of the largest block members (see
``all_congruences``); ``all_don``/``all_eon`` and the generated relations are
their images under these bijections (a R b iff a ~ a + b), so all three views
share one enumeration and one cap. ``tests/oracles.py`` enumerates the
relations independently.

The 0-class of a congruence is the downset of the least member t of its
closed set T (``_closed_of``; ``_congruence_of`` inverts it); the least with
that 0-class has T = up(t) and the greatest (``tau``) T = closure({t, top}).

One ``_Batch`` shares a suite call's Con work: each Con(S, F) read off its
carrier's walk, and the battery stores each Con carries along.

Validity is decided by union-find: an input is valid iff it equals what
its own pairs generate. A partition is a congruence iff generating from its
pairs returns it; a don or eon relation is valid iff it is the view of the
congruence generated by its pairs (a, a + b). A failure names the first pair,
in index order, where the input and its regeneration differ.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import NoReturn

from .errors import BudgetExceeded, InvariantViolation
from .order import FiniteLattice, closed_sets, closure, iter_bits, lattice_of
from .semilattice import IdealSet, OpSemilattice, ideal

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

    @property
    def _block_masks(self) -> tuple[int, ...]:
        """``_block_masks[x]`` is the mask of the block of x."""
        blocks: dict[int, int] = {}
        for i, r in enumerate(self.rep):
            blocks[r] = blocks.get(r, 0) | 1 << i
        return tuple(blocks[r] for r in self.rep)

    def zero_class_mask(self, s: OpSemilattice) -> int:
        return self._block_masks[s.zero]

    def refines(self, other: "Congruence") -> bool:
        """self <= other in the congruence order."""
        return all(other.rep[r] == other.rep[i] for i, r in enumerate(self.rep))

    def block_string(self, s: OpSemilattice) -> str:
        return "".join("[" + " ".join(s.labels[i] for i in cls) + "]" for cls in self.classes())

    def block_lists(self, s: OpSemilattice) -> list[list[str]]:
        return [[s.labels[i] for i in cls] for cls in self.classes()]


def make_congruence(
    s: OpSemilattice, blocks_or_rep: Sequence[int] | Iterable[Iterable[int]]
) -> Congruence:
    """Build and validate a congruence from a rep vector or an iterable of blocks.

    The input is blocks if any item is iterable. The first item or member that
    is not an element index is named in an InvariantViolation. A partition is
    a congruence iff it is the congruence its own pairs generate.
    """
    n = s.n
    items = list(blocks_or_rep)

    def index(m, what: str) -> int:
        if not isinstance(m, int) or m not in range(n):
            raise InvariantViolation(f"{what} {m!r} is not an element index")
        return m

    if any(isinstance(x, Iterable) for x in items):
        rep = [-1] * n
        for block in items:
            if not isinstance(block, Iterable):
                raise InvariantViolation(f"block {block!r} is not an iterable of element indices")
            members = sorted(index(m, "block member") for m in block)
            for m in members:
                if rep[m] != -1:
                    raise InvariantViolation("blocks overlap")
                rep[m] = members[0]
        if -1 in rep:
            raise InvariantViolation("blocks do not cover the carrier")
    else:
        rep = [index(r, "rep value") for r in items]
        if len(rep) != n:
            raise InvariantViolation("rep vector has wrong length")
    first: dict[int, int] = {}
    theta = Congruence(tuple(first.setdefault(r, i) for i, r in enumerate(rep)))
    generated = _extend(s, range(n), [(r, i) for i, r in enumerate(theta.rep) if r != i])
    if generated != theta.rep:
        _reject(s, "a congruence", theta._block_masks, Congruence(generated)._block_masks)
    return theta


def _reject(s: OpSemilattice, what: str, given: Sequence[int], regenerated: Sequence[int]) -> NoReturn:
    """Name the first pair, in index order, where two relations given as row masks differ."""
    x, diff = next((x, a ^ b) for x, (a, b) in enumerate(zip(given, regenerated)) if a != b)
    y = (diff & -diff).bit_length() - 1
    held = "forced" if regenerated[x] >> y & 1 else "not generated"
    raise InvariantViolation(f"not {what}: ({s.labels[x]!r}, {s.labels[y]!r}) is {held}")


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
    are pushed through the join table and the operators. Two elements with
    one parent share a root, so ``_union`` is called only on other pairs.
    """
    parent = list(rep)
    jt = s.join_t
    ops = [images for _, images in s.operators]
    queue = [(a, b) for a, b in pairs if _union(parent, a, b)]
    while queue:
        a, b = queue.pop()
        for x, y in zip(jt[a], jt[b]):
            if parent[x] != parent[y] and _union(parent, x, y):
                queue.append((x, y))
        for images in ops:
            x, y = images[a], images[b]
            if parent[x] != parent[y] and _union(parent, x, y):
                queue.append((x, y))
    return _roots(parent)


def _index_pairs(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """``pairs`` as a list; InvariantViolation names the first that is not two element indices."""
    pairs = list(pairs)
    for p in pairs:
        if len(p) != 2 or not all(isinstance(x, int) and x in range(s.n) for x in p):
            raise InvariantViolation(f"pair {p!r} is not two element indices")
    return pairs


def congruence_generated(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence relating every given pair."""
    return Congruence(_extend(s, range(s.n), _index_pairs(s, pairs)))


def join_congruences(s: OpSemilattice, a: Congruence, b: Congruence) -> Congruence:
    """The join of a and b as partitions: Con is a sublattice of Eq.

    If x = z0, z1, ..., zk = y alternate a- and b-related steps, so do
    z0 + w, ..., zk + w and f(z0), ..., f(zk); the partition join is compatible.
    """
    if a.n != s.n or b.n != s.n:
        raise InvariantViolation(f"congruences are given on {a.n} and {b.n} elements, not {s.n}")
    parent = list(a.rep)
    for i, r in enumerate(b.rep):
        _union(parent, r, i)
    return Congruence(_roots(parent))


def meet_congruences(a: Congruence, b: Congruence) -> Congruence:
    """Common refinement (block intersection)."""
    if a.n != b.n:
        raise InvariantViolation(f"congruences are given on {a.n} and {b.n} elements")
    first: dict[tuple[int, int], int] = {}
    return Congruence(tuple(map(first.setdefault, zip(a.rep, b.rep), range(a.n))))


@dataclass(frozen=True)
class CongruenceLattice:
    """All congruences of a structure, with their lattice order.

    ``congruences[i]`` corresponds to element i of ``lattice``; index 0 is the
    identity congruence and the last index the all-in-one congruence. Labels in
    the lattice are the block strings. ``closed[i]`` is the mask of the largest
    block members of ``congruences[i]``, its closed set in ``all_congruences``.
    The walk's least members and residual rows, and the battery stores of the
    batch that built it (``_stores``), are kept for ``natural_eta``.
    """

    semilattice: OpSemilattice
    congruences: tuple[Congruence, ...]
    lattice: FiniteLattice
    closed: tuple[int, ...]
    _least: tuple[int, ...] = field(repr=False, compare=False)
    _rows: Sequence[int] = field(repr=False, compare=False)
    _stores: dict = field(default_factory=dict, repr=False, compare=False)

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


def _closure_system(
    s: OpSemilattice, within: int | None = None
) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """The meet table and, per element t, the mask of each f*(t) = join{x : f(x) <= t}.

    {x : f(x) <= t} is a join-closed downset holding 0, so it is down(f*(t)),
    the union of the preimages f^-1(v) over v in down(t). The meet table is
    the carrier lattice's, which decorations of one carrier share. Given
    ``within``, the mask of an up-set closed under meets and residuals, only
    its members get residuals; closures of its subsets never leave it.
    """
    n, down = s.n, s.down
    within = (1 << n) - 1 if within is None else within
    at = {d: x for x, d in enumerate(down)}
    meet = s.lattice.meet_table
    rows = [0] * n
    for _, images in s.operators:
        pre = [0] * n
        for x, v in enumerate(images):
            pre[v] |= 1 << x
        for t in iter_bits(within):
            rows[t] |= 1 << at[sum(map(pre.__getitem__, iter_bits(down[t])))]
    return meet, rows


def _congruence_of(s: OpSemilattice, t: int) -> Congruence:
    """The congruence whose largest block members are the closed set t."""
    first: dict[int, int] = {}
    return Congruence(tuple(first.setdefault(u & t, x) for x, u in enumerate(s.up)))


def _closed_of(s: OpSemilattice, theta: Congruence) -> int:
    """The closed set of theta: every x whose block meets up(x) only in x."""
    return sum(1 << x for x, (b, u) in enumerate(zip(theta._block_masks, s.up)) if b & u == 1 << x)


def all_congruences(s: OpSemilattice) -> CongruenceLattice:
    """The full congruence lattice, enumerated as a closure system on the carrier.

    A block of a congruence theta is join-closed, so it has a largest member;
    let T be the set of these. Then x ~ y iff up(x) meets T where up(y) does,
    so T fixes theta, and theta <= phi iff T_phi lies inside T_theta. The sets
    that arise are exactly those that hold the top and are closed under meets
    and under each residual f*(t) = join{x : f(x) <= t} (Papert; Freese and
    Nation), so one ``closed_sets`` walk over ``_closure_system`` finds them
    all. As a cross-check by the union-find engine, every cover principal
    must be among them. Raises BudgetExceeded exactly when there are more
    than ``_CON_CAP``.
    """
    return _Batch().lattice(s, *_walk(s))


def _walk(s: OpSemilattice):
    """``all_congruences``' congruences, closed sets, least members and residual rows, in index order.

    A closed set is closed under meets, so its least member is the one it lies above.
    """
    meet, rows = _closure_system(s)
    try:
        found = closed_sets(meet, 1 << s.top, rows=rows, cap=_CON_CAP)
    except BudgetExceeded:
        raise BudgetExceeded("congruences", _CON_CAP) from None
    keyed = sorted((-t.bit_count(), c.rep, t, c) for t in found for c in [_congruence_of(s, t)])
    closed = tuple(t for _, _, t, _ in keyed)
    least = tuple(next(x for x in iter_bits(t) if not t & ~s.up[x]) for t in closed)
    return _cross_checked(s, tuple(c for *_, c in keyed)), closed, least, rows


def _cross_checked(s: OpSemilattice, congruences: tuple) -> tuple:
    """``congruences``, once the union-find engine finds every cover principal among them."""
    reps = {c.rep for c in congruences}
    for a, b in s.poset.covers:
        if congruence_generated(s, [(a, b)]).rep not in reps:
            raise InvariantViolation(f"Cg({s.labels[a]!r}, {s.labels[b]!r}) was not enumerated")
    return congruences


class _Batch:
    """The Con work that the structures of one suite call share; nothing keeps it after the call.

    ``carriers`` keeps, per join table, the carrier's ``_walk`` and columns
    ``has`` (the indices whose T holds x); ``stores`` one battery store per
    (up rows, eta), which every Con built here carries as ``_stores``.
    """

    def __init__(self) -> None:
        self.carriers, self.stores = {}, {}

    def con(self, s: OpSemilattice) -> CongruenceLattice:
        """Con(s), read off its carrier's walk.

        The closed sets of s are its carrier's that are also closed under the
        residual rows of s; the sort key depends on T alone, so they keep
        their order, congruences and least members. T_i is dropped iff
        has[t] & ~has[u] has bit i for some u in rows[t]. A bare s is its own
        carrier, whose walk has already been cross-checked, so only
        decorations are checked again.
        """
        carrier = self.carriers.get(s.join_t)
        if carrier is None:
            ordered, closed, least, _ = _walk(s.reduct())
            has = [sum(1 << i for i, t in enumerate(closed) if t >> x & 1) for x in range(s.n)]
            carrier = self.carriers[s.join_t] = ordered, closed, least, has
        ordered, closed, least, has = carrier
        rows = _closure_system(s)[1]
        drop = 0
        for t, r in enumerate(rows):
            for u in iter_bits(r):
                drop |= has[t] & ~has[u]
        if drop:
            kept = [not drop >> i & 1 for i in range(len(closed))]
            ordered, closed, least = (tuple(compress(c, kept)) for c in (ordered, closed, least))
        return self.lattice(s, _cross_checked(s, ordered) if s.operators else ordered, closed, least, rows)

    def lattice(self, s: OpSemilattice, ordered, closed, least, rows) -> CongruenceLattice:
        """Con on a walk's output."""
        masks = [((1 << s.n) - 1) & ~t for t in closed]
        lattice = lattice_of(lambda: [c.block_string(s) for c in ordered], masks)
        return CongruenceLattice(s, ordered, lattice, closed, least, rows, self.stores)


def _simple_over(congruences: Sequence[Congruence], operators) -> bool:
    """Whether a carrier with Con ``congruences`` (in index order) and these operators is simple.

    Con(S, F) is the part of Con(S) compatible with each f in F; theta is
    compatible with f iff f(x) ~ f(rep[x]) for every x. The identity and the
    all-in-one congruence always are, and differ iff n >= 2, so Con(S, F) has
    two elements iff m >= 2 and no proper congruence (Con indices 1 .. m - 2)
    is compatible. The scan stops at the first that is.
    """
    ops = [images for _, images in operators]
    for theta in congruences[1:-1]:
        rep = theta.rep
        if not any(rep[fx] != rep[f[r]] for f in ops for fx, r in zip(f, rep)):
            return False
    return len(congruences) > 1


def is_simple(s: OpSemilattice) -> bool:
    """Whether Con(s) has exactly two elements, read off the carrier's congruences.

    The identity and the all-in-one congruence are compatible with every
    operator, so s is simple iff n >= 2 and no proper one is (``_simple_over``).
    """
    return _simple_over(_walk(s.reduct())[0], s.operators)


def _closed_ideal_top(s: OpSemilattice, theta) -> int:
    """The top of the ideal given as a Congruence (its 0-class) / IdealSet / mask / iterable.

    Every form is validated by ``ideal``, and a congruence or IdealSet must
    be sized for the carrier. The ideal is the downset of its top t. It must
    be closed under the operators; they are monotone, so it is closed iff it
    holds each f(t).
    """
    if isinstance(theta, (Congruence, IdealSet)) and theta.n != s.n:
        raise InvariantViolation(f"0-class is given on {theta.n} elements, not {s.n}")
    if isinstance(theta, Congruence):
        theta = theta.zero_class_mask(s)
    elif isinstance(theta, IdealSet):
        theta = theta.mask
    mask = ideal(s, theta).mask
    top = s.join_all(iter_bits(mask))
    for name, images in s.operators:
        if not mask >> images[top] & 1:
            raise InvariantViolation(
                f"ideal is not closed under operator {name!r} at {s.labels[top]!r}"
            )
    return top


def eta(s: OpSemilattice, theta) -> Congruence:
    """Least congruence whose 0-class is the 0-class of ``theta``.

    x ~ y iff x + i = y + i for some i in the 0-class, that is, iff
    x + t = y + t for the top t of the class: the principal congruence
    Cg(0, t). Accepts a congruence, an IdealSet, a mask, or an iterable of
    indices; the class must be closed under the operators.
    """
    return congruence_generated(s, [(s.zero, _closed_ideal_top(s, theta))])


def tau(s: OpSemilattice, theta) -> Congruence:
    """Greatest congruence whose 0-class is the 0-class of ``theta``.

    Its largest block members are the closure T of {t, top}, for the top t
    of the class. Every member of T lies at or above t: meets of such
    elements do, and f*(u) >= t for u >= t because f(t) <= t. So the least
    member of T is t and the 0-class is down(t). Any closed set with that
    0-class holds t and the top, hence T; the least closed set is the
    greatest congruence, and the closure system is built on up(t) alone.
    Accepts the same forms as ``eta``.
    """
    t = _closed_ideal_top(s, theta)
    meet, rows = _closure_system(s, s.up[t])
    return _congruence_of(s, closure(meet, 1 << t | 1 << s.top, rows))


@dataclass(frozen=True)
class OrderedRelation:
    """A binary relation as bitmask rows."""

    rows: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def holds(self, x: int, y: int) -> bool:
        return bool((self.rows[x] >> y) & 1)

    def pair_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def contains(self, other: "OrderedRelation") -> bool:
        return all(o & ~r == 0 for r, o in zip(self.rows, other.rows))


def _con_of_relation(s: OpSemilattice, rel: OrderedRelation, kind: str) -> Congruence:
    """The congruence whose ``kind`` view ('don' or 'eon') is ``rel``.

    The don view of ~ holds a R b iff a ~ a + b, and the eon view is its part
    inside <=. So a valid relation is the view of the congruence generated by
    its pairs (a, a + b). Every view is valid, so ``rel`` is valid iff it
    equals the view of that congruence.
    """
    n, rows = s.n, tuple(rel.rows)
    if len(rows) != n or any(not 0 <= r < 1 << n for r in rows):
        raise InvariantViolation(f"relation rows do not fit a carrier of {n} elements")
    jt = s.join_t
    theta = congruence_generated(s, [(a, jt[a][b]) for a in range(n) for b in iter_bits(rows[a])])
    view = (don_of if kind == "don" else _eon_of)(s, theta).rows
    if view != rows:
        _reject(s, f"a valid {kind} relation", rows, view)
    return theta


def validate_don(s: OpSemilattice, rel: OrderedRelation) -> None:
    """Reflexive, transitive, compatible, and containing >=."""
    _con_of_relation(s, rel, "don")


def validate_eon(s: OpSemilattice, rel: OrderedRelation) -> None:
    """Reflexive, transitive, compatible, inside <=, and interval-closed."""
    _con_of_relation(s, rel, "eon")


def don_of(s: OpSemilattice, theta: Congruence) -> OrderedRelation:
    """Compose the congruence with >= : x R y iff x is congruent to some w >= y."""
    below: dict[int, int] = {}
    for w, r in enumerate(theta.rep):
        below[r] = below.get(r, 0) | s.down[w]
    return OrderedRelation(tuple(below[r] for r in theta.rep))


def _eon_of(s: OpSemilattice, theta: Congruence) -> OrderedRelation:
    """Meet the congruence with <= : x R y iff x <= y and x ~ y."""
    return OrderedRelation(tuple(b & u for b, u in zip(theta._block_masks, s.up)))


def con_of_don(s: OpSemilattice, rel: OrderedRelation) -> Congruence:
    """The congruence relating x and y iff x R x + y and y R x + y."""
    return _con_of_relation(s, rel, "don")


def eon_of_don(s: OpSemilattice, rel: OrderedRelation) -> OrderedRelation:
    """Intersect with <=."""
    return _eon_of(s, _con_of_relation(s, rel, "don"))


def don_of_eon(s: OpSemilattice, rel: OrderedRelation) -> OrderedRelation:
    """Compose with >= : x R y iff x S w for some w >= y."""
    return don_of(s, _con_of_relation(s, rel, "eon"))


def don_generated(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> OrderedRelation:
    """Least don relation holding every pair; a R b iff a ~ a + b, so it is don_of Cg(a, a + b)."""
    jt = s.join_t
    return don_of(s, congruence_generated(s, [(a, jt[a][b]) for a, b in _index_pairs(s, pairs)]))


def eon_generated(s: OpSemilattice, pairs: Iterable[tuple[int, int]]) -> OrderedRelation:
    """Least eon relation holding every pair a <= b: the eon view of Cg(pairs)."""
    pairs = _index_pairs(s, pairs)
    if not all(s.leq(a, b) for a, b in pairs):
        raise InvariantViolation("eon generators must satisfy a <= b")
    return _eon_of(s, congruence_generated(s, pairs))


def _by_size(relations: Iterable[OrderedRelation]) -> tuple[OrderedRelation, ...]:
    return tuple(sorted(relations, key=lambda r: (r.pair_count(), r.rows)))


def all_don(s: OpSemilattice) -> tuple[OrderedRelation, ...]:
    """Every don relation: the image of Con under ``don_of``, by pair count then rows."""
    return _by_size(don_of(s, theta) for theta in all_congruences(s).congruences)


def all_eon(s: OpSemilattice) -> tuple[OrderedRelation, ...]:
    """Every eon relation: the image of Con under the eon view, same order."""
    return _by_size(_eon_of(s, theta) for theta in all_congruences(s).congruences)


def quotient(s: OpSemilattice, theta: Congruence) -> OpSemilattice:
    """The quotient semilattice; classes become elements labeled by their members."""
    classes = make_congruence(s, theta.rep).classes()
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
