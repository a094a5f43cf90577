"""Congruences versus families of ideals, and two appendix dualities.

Three strands share this module:

* the order-reversing bijection between congruences of a finite
  join-semilattice with zero and the meet-closed families of its ideals
  that contain the improper ideal (``galois_h`` / ``galois_rho`` /
  ``verify_consl``);
* distributive quasiorders on a finite meet-semilattice with unit and
  their lattices of closed subalgebras (``QuasiOrder``,
  ``sub_closed_lattice``, ``quasiorder_from_sublattice``);
* filterable sublattices of the congruence lattice and the interior map
  they induce (``check_filterable``, ``sublattice_interior``).

Meet-semilattices with unit are represented by their dual join-semilattice:
the structure's meet is the carrier's join and the structure's unit is the
carrier's zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .congruence import (
    Congruence,
    all_congruences,
    congruence_generated,
    eta,
    join_congruences,
    make_congruence,
    meet_congruences,
)
from .errors import InvariantViolation, UnknownLabel
from .interior import AxiomReport, CheckResult, InteriorMap, Verdict
from .order import (
    FiniteLattice,
    closed_sets,
    closure,
    containment_lattice,
    iter_bits,
    lattice_of,
    popcount,
    set_label,
)
from .semilattice import IdealSet, OpSemilattice, ideals

# Cap on the closed sets walked by algebraic_subsets and _closed_sub_members.
_SUBSET_CAP = 1 << 22


def ideal_lattice(s: OpSemilattice) -> FiniteLattice:
    """All ideals of the semilattice reduct, ordered by containment."""
    masks = [i.mask for i in ideals(s)]
    return containment_lattice(s.labels, masks)


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

    def __len__(self) -> int:
        return len(self.members)

    def member_labels(self, i: int) -> tuple[str, ...]:
        return tuple(self.ambient.labels[e] for e in iter_bits(self.members[i]))

    @cached_property
    def lattice(self) -> FiniteLattice:
        return containment_lattice(self.ambient.labels, self.members)

    def to_json(self) -> str:
        return json.dumps({"members": [list(self.member_labels(i)) for i in range(len(self))]})


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


def _normalize_relation(l: FiniteLattice, rel) -> list[int]:
    """Rows of a binary relation given as (source, target) pairs."""
    rows = [0] * l.n
    for ia, ib in _relation_pairs(l.poset.index, rel):
        rows[ia] |= 1 << ib
    return rows


def algebraic_subsets(l: FiniteLattice, closed_under=None) -> AlgebraicSubsetFamily:
    """Every meet-closed, top-containing subset, optionally relation-closed.

    When ``closed_under`` pairs are given, a member S must also satisfy:
    s in S and s R t imply t in S. Raises BudgetExceeded when more than
    ``_SUBSET_CAP`` such subsets exist; they are counted before any is kept.
    """
    rows = _normalize_relation(l, closed_under) if closed_under is not None else None
    found = closed_sets(l.meet_table, 1 << l.top, rows=rows, cap=_SUBSET_CAP)
    out = sorted(found, key=lambda m: (popcount(m), m))
    return AlgebraicSubsetFamily(l, tuple(out))


def _ideal_mask_of(item) -> int:
    if isinstance(item, IdealSet):
        return item.mask
    return int(item)


def galois_h(s: OpSemilattice, theta: Congruence) -> tuple[IdealSet, ...]:
    """The family of theta-closed ideals, ordered by (size, membership mask).

    An ideal is a union of blocks iff each x lies in it exactly when its rep does.
    """
    return tuple(i for i in ideals(s)
                 if all(i.mask >> x & 1 == i.mask >> r & 1 for x, r in enumerate(theta.rep)))


def galois_rho(s: OpSemilattice, family: Iterable) -> Congruence:
    """Equal-membership congruence: x and y lie in the same family members."""
    masks = [_ideal_mask_of(i) for i in family]
    sig: dict[tuple[int, ...], list[int]] = {}
    for x in range(s.n):
        key = tuple(k for k, m in enumerate(masks) if (m >> x) & 1)
        sig.setdefault(key, []).append(x)
    return make_congruence(s.reduct(), list(sig.values()))


def verify_consl(s: OpSemilattice) -> CheckResult:
    """Confirm the congruence/ideal-family duality on one semilattice.

    Builds every congruence of the reduct and every meet-closed top-containing
    family of ideals, then checks that the two maps are mutually inverse
    order-reversing bijections. Both sides are ``closed_sets`` walks, so Con
    is first checked by union-find: it must hold theta v Cg(a, b) for each
    congruence theta and each cover pair a < b that theta does not relate.
    """
    reduct = s.reduct()
    conl = all_congruences(reduct)
    reps = {t.rep for t in conl.congruences}
    covers = [(p, congruence_generated(reduct, [p])) for p in reduct.poset.covers]
    for theta in conl.congruences:
        for (a, b), principal in covers:
            if not theta.relates(a, b) and join_congruences(reduct, theta, principal).rep not in reps:
                return CheckResult("consl", False, {"theta": theta.block_string(reduct)},
                                   "a join with a cover principal is missing")
    il = ideal_lattice(reduct)
    ideal_masks = [i.mask for i in ideals(reduct)]
    index_of_ideal = {m: k for k, m in enumerate(ideal_masks)}
    sp = algebraic_subsets(il)

    def h_as_family_mask(theta: Congruence) -> int:
        mask = 0
        for ideal in galois_h(reduct, theta):
            mask |= 1 << index_of_ideal[ideal.mask]
        return mask

    images = [h_as_family_mask(t) for t in conl.congruences]
    member_set = set(sp.members)
    for theta, img in zip(conl.congruences, images):
        if img not in member_set:
            return CheckResult("consl", False, {"theta": theta.block_string(reduct)},
                               "image is not an algebraic subset")
    if len(set(images)) != len(images) or len(images) != len(sp.members):
        return CheckResult(
            "consl", False, None,
            f"not a bijection: {len(set(images))} images vs {len(sp.members)} subsets",
        )
    for theta, img in zip(conl.congruences, images):
        back = galois_rho(reduct, [ideal_masks[k] for k in iter_bits(img)])
        if back != theta:
            return CheckResult("consl", False, {"theta": theta.block_string(reduct)},
                               "round trip through ideals does not return")
    for fam in sp.members:
        theta = galois_rho(reduct, [ideal_masks[k] for k in iter_bits(fam)])
        if h_as_family_mask(theta) != fam:
            return CheckResult("consl", False, {"family": set_label(il.labels, fam)},
                               "round trip through congruences does not return")
    for i, a in enumerate(conl.congruences):
        for j, b in enumerate(conl.congruences):
            if conl.lattice.leq(i, j) and (images[j] & ~images[i]) != 0:
                return CheckResult("consl", False,
                                   {"theta": a.block_string(reduct), "phi": b.block_string(reduct)},
                                   "containment is not reversed")
    return CheckResult("consl", True, None,
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

    def meet(self, a: int, b: int) -> int:
        return self.carrier.join(a, b)

    @property
    def unit(self) -> int:
        return self.carrier.zero

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        labs = self.carrier.labels
        return tuple(
            (labs[c], labs[d]) for c in range(self.carrier.n) for d in iter_bits(self.rows[c])
        )

    def to_json(self) -> str:
        return json.dumps({"pairs": [list(p) for p in self.pairs]})


def quasiorder_from_pairs(carrier: OpSemilattice, pairs: Iterable) -> QuasiOrder:
    """Build a quasiorder from related pairs; adds reflexivity, checks transitivity."""
    rows = [1 << c for c in range(carrier.n)]
    for ia, ib in _relation_pairs(carrier.index, pairs):
        rows[ia] |= 1 << ib
    return QuasiOrder(carrier, tuple(rows))


def check_distributive_quasiorder(q: QuasiOrder) -> AxiomReport:
    """Report on the four quasiorder conditions.

    (1) a meet related to d splits: c1 ^ c2 related to d implies d = d1 ^ d2
        with c1 related to d1 and c2 related to d2;
    (2) the unit is related only to the unit;
    (3) common targets are meet-closed: c related to d1 and d2 implies
        c related to d1 ^ d2;
    (4) everything is related to the unit.
    """
    s = q.carrier
    labs = s.labels
    n = s.n

    w1 = None
    for c1 in range(n):
        for c2 in range(n):
            m = q.meet(c1, c2)
            for d in iter_bits(q.rows[m]):
                split = any(
                    q.meet(d1, d2) == d
                    for d1 in iter_bits(q.rows[c1])
                    for d2 in iter_bits(q.rows[c2])
                )
                if not split:
                    w1 = {"c1": labs[c1], "c2": labs[c2], "d": labs[d]}
                    break
            if w1:
                break
        if w1:
            break

    w2 = None
    for d in iter_bits(q.rows[q.unit]):
        if d != q.unit:
            w2 = {"d": labs[d]}
            break

    w3 = None
    for c in range(n):
        for d1 in iter_bits(q.rows[c]):
            for d2 in iter_bits(q.rows[c]):
                if not q.holds(c, q.meet(d1, d2)):
                    w3 = {"c": labs[c], "d1": labs[d1], "d2": labs[d2]}
                    break
            if w3:
                break
        if w3:
            break

    w4 = None
    for c in range(n):
        if not q.holds(c, q.unit):
            w4 = {"c": labs[c]}
            break

    return AxiomReport((
        ("1", Verdict(w1 is None, w1)),
        ("2", Verdict(w2 is None, w2)),
        ("3", Verdict(w3 is None, w3)),
        ("4", Verdict(w4 is None, w4)),
    ))


def _closed_sub_members(q: QuasiOrder) -> tuple[int, ...]:
    """Masks of relation-closed meet-subsemilattices containing the unit."""
    found = closed_sets(q.carrier.join_t, 1 << q.unit, rows=q.rows, cap=_SUBSET_CAP)
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def sub_closed_lattice(q: QuasiOrder) -> FiniteLattice:
    """The containment lattice of relation-closed meet-subsemilattices with unit."""
    return containment_lattice(q.carrier.labels, _closed_sub_members(q))


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


def check_sub_duality(carrier: OpSemilattice, family: Iterable[int]) -> CheckResult:
    """Round trip a subalgebra sublattice through its induced quasiorder.

    The induced relation must satisfy all four quasiorder conditions and its
    closed-subalgebra family must equal the input family.
    """
    members = tuple(sorted(set(int(m) for m in family), key=lambda m: (popcount(m), m)))
    q = quasiorder_from_sublattice(carrier, members)
    report = check_distributive_quasiorder(q)
    bad = report.failing()
    if bad:
        return CheckResult("sub-duality", False, {"conditions": ",".join(bad)},
                           "induced quasiorder fails required conditions")
    back = _closed_sub_members(q)
    if back != members:
        return CheckResult("sub-duality", False, None,
                           f"round trip returns {len(back)} members, expected {len(members)}")
    return CheckResult("sub-duality", True, None, f"family size {len(members)}")


def _congruence_items(s: OpSemilattice, family: Iterable) -> list[Congruence]:
    """Reduct congruences from Congruence objects (length-checked), rep vectors or block lists."""
    out = [t if isinstance(t, Congruence) else make_congruence(s.reduct(), t) for t in family]
    if any(t.n != s.n for t in out):
        raise InvariantViolation("rep vector has wrong length")
    return out


def check_filterable(s: OpSemilattice, family: Iterable) -> CheckResult:
    """Is this sublattice of reduct congruences closed under zero-class collapse?

    Pass when, for every member, the reduct congruence generated by the
    member's zero class is again a member. The family must be closed under
    pairwise meet and join of congruences.
    """
    reduct = s.reduct()
    members = _congruence_items(s, family)
    member_set = {t.rep for t in members}
    for a in members:
        for b in members:
            if meet_congruences(a, b).rep not in member_set:
                raise InvariantViolation("family is not closed under congruence meet")
            if join_congruences(reduct, a, b).rep not in member_set:
                raise InvariantViolation("family is not closed under congruence join")
    for theta in members:
        collapsed = eta(reduct, theta.zero_class_mask(reduct))
        if collapsed.rep not in member_set:
            return CheckResult(
                "filterable", False,
                {"theta": theta.block_string(reduct)},
                "zero-class collapse leaves the family",
            )
    return CheckResult("filterable", True, None, f"members={len(members)}")


def sublattice_interior(
    s: OpSemilattice, family: Iterable
) -> tuple[FiniteLattice, InteriorMap, tuple[Congruence, ...]]:
    """The zero-class collapse map on a congruence sublattice, as an interior map.

    Members are sorted coarsest-last; element i maps to the index of the
    reduct congruence generated by member i's zero class, which must lie in
    the family (raise otherwise).
    """
    reduct = s.reduct()
    members = sorted(
        {t.rep: t for t in _congruence_items(s, family)}.values(),
        key=lambda t: (-t.block_count, t.rep),
    )
    index = {t.rep: i for i, t in enumerate(members)}
    lat = lattice_of([t.block_string(reduct) for t in members], [t.pair_mask for t in members])
    h = []
    for t in members:
        collapsed = eta(reduct, t.zero_class_mask(reduct))
        if collapsed.rep not in index:
            raise InvariantViolation("family is not filterable; no induced interior map")
        h.append(index[collapsed.rep])
    return lat, InteriorMap(lat, tuple(h)), tuple(members)
