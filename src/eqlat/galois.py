"""Congruences versus families of ideals, and two appendix dualities.

Three strands share this module:

* the order-reversing bijection between congruences of a finite
  join-semilattice with zero and the meet-closed families of its ideals
  that contain the improper ideal (``galois_h`` / ``galois_rho``, checked
  by ``verify_consl`` on the Con it is given);
* distributive quasiorders on a finite meet-semilattice with unit and
  their lattices of closed subalgebras (``QuasiOrder``,
  ``sub_closed_lattice``, ``quasiorder_from_sublattice``);
* filterable sublattices of the congruence lattice and the interior map
  they induce (``check_filterable``, ``sublattice_interior``, or both from
  ``_filterable_interior``). Each reads the family once, through ``_sublattice``,
  which validates its members as congruences and checks, on their closed sets,
  that it is a sublattice of Con before it looks at the zero-class collapse.

The families of the first two strands are one ``closed_sets`` walk,
``_closed_family``: the meet-closed subsets of the ideal lattice that hold
its top, and the relation-closed subalgebras that hold the unit. The other
side of each duality (``galois_h`` / ``galois_rho``, the quasiorder induced
by a family) is computed independently, so the round trips are checks.

Meet-semilattices with unit are represented by their dual join-semilattice:
the structure's meet is the carrier's join and the structure's unit is the
carrier's zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .congruence import (
    Congruence,
    CongruenceLattice,
    _closed_of,
    congruence_generated,
    join_congruences,
    make_congruence,
)
from .errors import InvariantViolation, UnknownLabel
from .interior import AxiomReport, InteriorMap, Verdict
from .order import FiniteLattice, closed_sets, closure, iter_bits, lattice_of, set_label
from .semilattice import IdealSet, OpSemilattice, ideals

# Cap on the closed sets of one _closed_family walk: the meet-closed subsets
# of an ideal lattice (consl) and the closed subalgebras of a quasiorder.
_SUBSET_CAP = 1 << 22


def ideal_lattice(s: OpSemilattice) -> FiniteLattice:
    """All ideals of the semilattice reduct, ordered by containment."""
    masks = [i.mask for i in ideals(s)]
    return lattice_of(lambda: [set_label(s.labels, m) for m in masks], masks)


@dataclass(frozen=True)
class AlgebraicSubsetFamily:
    """Meet-closed subsets of a finite lattice that contain its top.

    On a finite carrier this is the whole content of "closed under
    arbitrary meets and nonempty directed joins": directed subsets have
    maxima, and the empty meet contributes the top.
    """

    ambient: FiniteLattice
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        l = self.ambient
        for m in self.members:
            if not 0 <= m < 1 << l.n:
                raise InvariantViolation(f"member mask {m:#x} has bits outside the carrier")
            if not (m >> l.top) & 1:
                raise InvariantViolation(f"member {set_label(l.labels, m)} misses the top")
            if closure(l.meet_table, m) != m:
                raise InvariantViolation(f"member {set_label(l.labels, m)} is not meet-closed")
        if len(set(self.members)) != len(self.members):
            raise InvariantViolation("duplicate members")


def _closed_family(table, base: int, rows=None) -> tuple[int, ...]:
    """Every set over ``base`` closed under ``table`` and ``rows``, by (size, mask).

    Raises BudgetExceeded when more than ``_SUBSET_CAP`` such sets exist;
    they are counted before any is kept.
    """
    found = closed_sets(table, base, rows=rows, cap=_SUBSET_CAP)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))


def algebraic_subsets(l: FiniteLattice) -> AlgebraicSubsetFamily:
    """Every meet-closed subset of ``l`` that contains its top, by (size, mask)."""
    return AlgebraicSubsetFamily(l, _closed_family(l.meet_table, 1 << l.top))


def _ideal_mask_of(item) -> int:
    if isinstance(item, IdealSet):
        return item.mask
    return int(item)


def galois_h(s: OpSemilattice, theta: Congruence) -> tuple[IdealSet, ...]:
    """The family of theta-closed ideals, ordered by (size, membership mask).

    An ideal is a union of blocks iff it is the union of the blocks of the reps it holds.
    """
    blocks, reps = theta._block_masks, sum(1 << r for r in set(theta.rep))
    return tuple(i for i in ideals(s)
                 if sum(map(blocks.__getitem__, iter_bits(i.mask & reps))) == i.mask)


def galois_rho(s: OpSemilattice, family: Iterable) -> Congruence:
    """Equal-membership congruence: x and y lie in the same family members.

    Bit k of ``sig[x]`` is set iff x lies in member k; one pass over the
    members' bits fills them all. Equal signatures form a block.
    """
    sig, first, full = [0] * s.n, {}, (1 << s.n) - 1
    for k, i in enumerate(family):
        for x in iter_bits(_ideal_mask_of(i) & full):
            sig[x] |= 1 << k
    return make_congruence(s.reduct(), [first.setdefault(key, x) for x, key in enumerate(sig)])


def verify_consl(conl: CongruenceLattice) -> Verdict:
    """Confirm the congruence/ideal-family duality on the semilattice whose Con is ``conl``.

    Builds every meet-closed top-containing family of ideals, then checks
    that the two maps are mutually inverse order-reversing bijections. Both
    sides are ``closed_sets`` walks, so Con is first checked by union-find:
    it must hold theta v Cg(a, b) for each congruence theta and each cover
    pair a < b that theta does not relate. The duality is stated for plain
    semilattices, so the Con of a structure with operators is rejected.
    The round trip from families is not run: the checks before it make h a
    bijection onto the families with rho(h(theta)) = theta, so h(rho) = id.
    """
    reduct = conl.semilattice
    if reduct.operators:
        raise InvariantViolation("the consl duality needs the Con of a semilattice without operators")
    reps = {t.rep for t in conl.congruences}
    covers = [(p, congruence_generated(reduct, [p])) for p in reduct.poset.covers]
    for theta in conl.congruences:
        for (a, b), principal in covers:
            if not theta.relates(a, b) and join_congruences(reduct, theta, principal).rep not in reps:
                return Verdict(False, {"theta": theta.block_string(reduct)},
                               "a join with a cover principal is missing")
    ideal_masks = [i.mask for i in ideals(reduct)]
    index_of_ideal = {m: k for k, m in enumerate(ideal_masks)}
    sp = algebraic_subsets(ideal_lattice(reduct))
    # h(theta) as a mask over the ideals; its ideals are distinct, so sum is or.
    images = [sum(1 << index_of_ideal[i.mask] for i in galois_h(reduct, theta))
              for theta in conl.congruences]
    member_set = set(sp.members)
    for theta, img in zip(conl.congruences, images):
        if img not in member_set:
            return Verdict(False, {"theta": theta.block_string(reduct)},
                           "image is not an algebraic subset")
    if len(set(images)) != len(images) or len(images) != len(sp.members):
        return Verdict(False, None,
                       f"not a bijection: {len(set(images))} images vs {len(sp.members)} subsets")
    for theta, img in zip(conl.congruences, images):
        back = galois_rho(reduct, [ideal_masks[k] for k in iter_bits(img)])
        if back != theta:
            return Verdict(False, {"theta": theta.block_string(reduct)},
                           "round trip through ideals does not return")
    for i, above in enumerate(conl.lattice.up):
        for j in iter_bits(above):
            if images[j] & ~images[i]:
                return Verdict(False, {"theta": conl.congruences[i].block_string(reduct),
                                       "phi": conl.congruences[j].block_string(reduct)},
                               "containment is not reversed")
    return Verdict(True, None,
                   f"|Con| = {len(conl.congruences)} = |families| = {len(sp.members)}")


@dataclass(frozen=True)
class QuasiOrder:
    """A reflexive transitive relation on a meet-semilattice with unit.

    The carrier is the dual join-semilattice: ``carrier.join`` is the
    structure's meet and ``carrier.zero`` is the structure's unit.
    ``rows[c]`` is the bitmask of all d with c related to d.
    """

    carrier: OpSemilattice
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.carrier.n
        if len(self.rows) != n or any(not 0 <= r < 1 << n for r in self.rows):
            raise InvariantViolation("relation rows do not match the carrier")
        for c in range(n):
            if not (self.rows[c] >> c) & 1:
                raise InvariantViolation(f"not reflexive at {self.carrier.labels[c]}")
            for d in iter_bits(self.rows[c]):
                if self.rows[d] & ~self.rows[c]:
                    raise InvariantViolation(
                        f"not transitive through {self.carrier.labels[c]} and {self.carrier.labels[d]}"
                    )

    def holds(self, c: int, d: int) -> bool:
        return bool((self.rows[c] >> d) & 1)

    @property
    def unit(self) -> int:
        return self.carrier.zero


def _relation_pairs(index: dict[str, int], rel) -> list[tuple[int, int]]:
    """Index pairs of a relation given as (source, target) labels or indices.

    Raises UnknownLabel for a label outside ``index`` and InvariantViolation
    for anything else that is not an index in 0..n-1.
    """
    n = len(index)

    def end(x, pair) -> int:
        if isinstance(x, str):
            if x not in index:
                raise UnknownLabel(f"unknown label {x!r} in relation pair {pair!r}")
            return index[x]
        if not isinstance(x, int) or not 0 <= x < n:
            raise InvariantViolation(f"relation pair {pair!r} is out of range")
        return x

    return [(end(a, (a, b)), end(b, (a, b))) for a, b in rel]


def quasiorder_from_pairs(carrier: OpSemilattice, pairs: Iterable) -> QuasiOrder:
    """Build a quasiorder from related pairs; adds reflexivity, checks transitivity."""
    rows = [1 << c for c in range(carrier.n)]
    for ia, ib in _relation_pairs(carrier.index, pairs):
        rows[ia] |= 1 << ib
    return QuasiOrder(carrier, tuple(rows))


def check_distributive_quasiorder(q: QuasiOrder) -> AxiomReport:
    """Report on the four quasiorder conditions, each with its first witness.

    (1) a meet related to d splits: c1 ^ c2 related to d implies d = d1 ^ d2
        with c1 related to d1 and c2 related to d2;
    (2) the unit is related only to the unit;
    (3) common targets are meet-closed: c related to d1 and d2 implies
        c related to d1 ^ d2;
    (4) everything is related to the unit.

    Condition (1) compares the targets of c1 ^ c2 with one split mask per
    pair (c1, c2): every meet d1 ^ d2 of a target of c1 and a target of c2.
    Witnesses are the first failures in the order c1, c2, d (resp. c, d1, d2)
    with each index increasing.
    """
    s = q.carrier
    labs, meet, rows, unit, n = s.labels, s.join_t, q.rows, q.unit, s.n

    def split(c1: int, c2: int) -> int:
        out = 0
        for d1 in iter_bits(rows[c1]):
            row = meet[d1]
            for d2 in iter_bits(rows[c2]):
                out |= 1 << row[d2]
        return out

    w1 = next(({"c1": labs[c1], "c2": labs[c2], "d": labs[d]}
               for c1 in range(n) for c2 in range(n)
               for d in iter_bits(rows[meet[c1][c2]] & ~split(c1, c2))), None)
    w2 = next(({"d": labs[d]} for d in iter_bits(rows[unit] & ~(1 << unit))), None)
    w3 = next(({"c": labs[c], "d1": labs[d1], "d2": labs[d2]}
               for c in range(n) for d1 in iter_bits(rows[c]) for d2 in iter_bits(rows[c])
               if not (rows[c] >> meet[d1][d2]) & 1), None)
    w4 = next(({"c": labs[c]} for c in range(n) if not (rows[c] >> unit) & 1), None)
    return AxiomReport(tuple((name, Verdict(w is None, w)) for name, w in zip("1234", (w1, w2, w3, w4))))


def _closed_sub_members(q: QuasiOrder) -> tuple[int, ...]:
    """Masks of relation-closed meet-subsemilattices containing the unit."""
    return _closed_family(q.carrier.join_t, 1 << q.unit, q.rows)


def sub_closed_lattice(q: QuasiOrder) -> FiniteLattice:
    """The containment lattice of relation-closed meet-subsemilattices with unit."""
    members = _closed_sub_members(q)
    return lattice_of(lambda: [set_label(q.carrier.labels, m) for m in members], members)


def quasiorder_from_sublattice(carrier: OpSemilattice, family: Iterable[int]) -> QuasiOrder:
    """The quasiorder induced by a sublattice of the subalgebra lattice.

    c is related to d when every family member containing c contains d.
    The family must be closed under pairwise intersection and pairwise
    subalgebra join (meet-closure of the union) and contain the full set.
    """
    s = carrier
    full = (1 << s.n) - 1
    members = sorted(set(int(m) for m in family))
    if not members:
        raise InvariantViolation("empty family")
    for m in members:
        if m & ~full or not (m >> s.zero) & 1 or closure(s.join_t, m) != m:
            raise InvariantViolation(
                f"{set_label(s.labels, m)} is not a meet-subsemilattice with unit"
            )
    if full not in members:
        raise InvariantViolation("family misses the full subalgebra")
    member_set = set(members)
    for a in members:
        for b in members:
            if (a & b) not in member_set:
                raise InvariantViolation("family is not closed under intersection")
            if closure(s.join_t, a | b) not in member_set:
                raise InvariantViolation("family is not closed under subalgebra join")
    rows = []
    for c in range(s.n):
        containing = [m for m in members if (m >> c) & 1]
        inter = full
        for m in containing:
            inter &= m
        rows.append(inter)
    return QuasiOrder(s, tuple(rows))


def check_sub_duality(carrier: OpSemilattice, family: Iterable[int]) -> Verdict:
    """Round trip a subalgebra sublattice through its induced quasiorder.

    The induced relation must satisfy all four quasiorder conditions and its
    closed-subalgebra family must equal the input family.
    """
    members = tuple(sorted(set(int(m) for m in family), key=lambda m: (m.bit_count(), m)))
    q = quasiorder_from_sublattice(carrier, members)
    report = check_distributive_quasiorder(q)
    bad = report.failing()
    if bad:
        return Verdict(False, {"conditions": ",".join(bad)},
                       "induced quasiorder fails required conditions")
    back = _closed_sub_members(q)
    if back != members:
        return Verdict(False, None,
                       f"round trip returns {len(back)} members, expected {len(members)}")
    return Verdict(True, None, f"family size {len(members)}")


def _sublattice(
    s: OpSemilattice, family: Iterable
) -> tuple[tuple[Congruence, ...], list[int], list[int | None], Verdict]:
    """A family of reduct congruences read as a sublattice of Con, by closed sets T.

    Members (Congruence objects, rep vectors or block lists) are validated as
    reduct congruences, deduplicated and sorted coarsest-last by (-block_count,
    rep). Raises InvariantViolation unless the family is closed under meet
    (meet-closure of T_a | T_b) and join (T_a & T_b). ``collapse[i]`` indexes
    eta of member i, T = up(t) for the top t of its 0-class; None off the
    family. The verdict is ``check_filterable``'s.
    """
    reduct = s.reduct()
    parsed = [make_congruence(reduct, t.rep if isinstance(t, Congruence) else t) for t in family]
    members = tuple(sorted({t.rep: t for t in parsed}.values(), key=lambda t: (-t.block_count, t.rep)))
    closed = [_closed_of(reduct, t) for t in members]
    index = {c: i for i, c in enumerate(closed)}
    for i, a in enumerate(closed):
        for b in closed[i:]:
            if closure(s.lattice.meet_table, a | b, todo=b & ~a) not in index:
                raise InvariantViolation("family is not closed under congruence meet")
            if a & b not in index:
                raise InvariantViolation("family is not closed under congruence join")
    tops = [(c & t.zero_class_mask(reduct)).bit_length() - 1 for t, c in zip(members, closed)]
    collapse = [index.get(reduct.up[t]) for t in tops]
    if None in collapse:
        theta = members[collapse.index(None)]
        return members, closed, collapse, Verdict(
            False, {"theta": theta.block_string(reduct)}, "zero-class collapse leaves the family")
    return members, closed, collapse, Verdict(True, None, f"members={len(members)}")


def check_filterable(s: OpSemilattice, family: Iterable) -> Verdict:
    """Is this sublattice of reduct congruences closed under zero-class collapse?

    Pass when, for every member, the reduct congruence generated by the
    member's zero class is again a member; the witness is the first member,
    coarsest-last, whose collapse leaves the family. The family must be
    closed under pairwise meet and join of congruences.
    """
    return _sublattice(s, family)[3]


def _filterable_interior(s: OpSemilattice, family: Iterable) -> tuple[Verdict, tuple | None]:
    """``check_filterable``'s verdict and, if it passes, ``sublattice_interior``, from one read."""
    members, closed, collapse, verdict = _sublattice(s, family)
    if not verdict.passed:
        return verdict, None
    lat = lattice_of(lambda: [t.block_string(s) for t in members], [~c & (1 << s.n) - 1 for c in closed])
    return verdict, (lat, InteriorMap(lat, tuple(collapse)), members)


def sublattice_interior(
    s: OpSemilattice, family: Iterable
) -> tuple[FiniteLattice, InteriorMap, tuple[Congruence, ...]]:
    """The zero-class collapse map on a congruence sublattice, as an interior map.

    Members are sorted coarsest-last; element i maps to the index of the
    reduct congruence generated by member i's zero class, which must lie in
    the family (raise otherwise).
    """
    induced = _filterable_interior(s, family)[1]
    if induced is None:
        raise InvariantViolation("family is not filterable; no induced interior map")
    return induced
