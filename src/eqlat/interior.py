"""Interior operators on finite lattices and their axiom battery.

The battery checks eleven named conditions of a unary map h on a finite
lattice. tau is always derived from h by fiber joins:

    tau(x) = join of { z : h(z) = h(x) }

* I1  h(x) <= x
* I2  y <= x implies h(y) <= h(x)
* I3  h(h(x)) = h(x)
* I4  h(top) = top
* I5  h(x) = h(y) implies h(x v y) = h(x)  (pairwise form; by induction this
      covers every finite nonempty constant-fiber subset)
* I6  h(x) v (y ^ z) = (h(x) v y) ^ (h(x) v z)
* I7  the image of h is closed under nonempty joins (on a finite carrier
      every element is compact, which collapses the general closure form)
* I8  h fixes a pseudo-one w with [w, top] a congruence lattice of a
      semilattice; here w is pinned to top, so the check equals I4
* I9  for every nonempty family z_1..z_k and all x, c:
      h(x) <= c and meet tau(z_i) <= tau(c)
      imply h(h(x) v meet tau(x ^ z_i)) <= c
      (decided exactly over the meet-closure of per-family states, each
      packed as one int of per-entry downsets so that a meet is one AND;
      a closure past its fixed cap is reported as a skip, never as a pass)
* dagger   tau(x) <= tau(c) and h(z) <= c imply h(h(z) v tau(x ^ z)) <= c
* ddagger  h(h(z) v tau(x ^ z)) <= h(z) v tau(x)

Maps passing I1 to I8 are enumerated by a depth-first search over a linear
extension that decides which elements enter the image. I5 prunes it where
an element joins two maximal members of one fiber, read off per-value fiber
masks; with I6 only distributive elements enter. It counts its nodes
against a cap. In the battery, I2 is decided on cover pairs and I5 inside
fibers, with the first witness of the full pair scans; I6 per image value
by the congruence lemma of ``_is_distributive``, scanning rows of the meet
and join tables only for the witness of the first value that fails.
dagger and ddagger scan those rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceeded, InvariantViolation
from .order import FiniteLattice, iter_bits, popcount

DEFAULT_EIO_AXIOMS = frozenset({"I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"})
# Default cap of enumerate_eios on its search nodes.
_EIO_NODE_CAP = 1 << 20


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: passed True/False, or None when skipped."""

    passed: bool | None
    witness: dict[str, str] | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Ordered named verdicts for one (lattice, map) pair."""

    entries: tuple[tuple[str, Verdict], ...]

    def verdict(self, name: str) -> Verdict:
        for key, v in self.entries:
            if key == name:
                return v
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        """True when no entry failed (skipped entries do not count as failures)."""
        return all(v.passed is not False for _, v in self.entries)

    def passed_all(self, names: Iterable[str]) -> bool:
        return all(self.verdict(n).passed is True for n in names)

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, v in self.entries if v.passed is False)

    def as_dict(self) -> dict:
        return {name: v.as_dict() for name, v in self.entries}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a single named structural check."""

    name: str
    passed: bool
    witness: dict[str, str] | None = None
    note: str | None = None

    def as_dict(self) -> dict:
        out: dict = {"check": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def normalize_map(l: FiniteLattice, h) -> tuple[int, ...]:
    """Coerce an InteriorMap, index sequence, or label mapping to an index tuple."""
    if isinstance(h, InteriorMap):
        return h.h
    if isinstance(h, Mapping):
        idx = l.poset.index
        out = [-1] * l.n
        for src, dst in h.items():
            if src not in idx or dst not in idx:
                raise InvariantViolation(f"unknown label in map entry {src!r} -> {dst!r}")
            out[idx[src]] = idx[dst]
        if any(v == -1 for v in out):
            raise InvariantViolation("map does not cover every element")
        return tuple(out)
    vals = tuple(h)
    if len(vals) != l.n or any(not (0 <= v < l.n) for v in vals):
        raise InvariantViolation("map is not a total map on the carrier")
    return vals


def tau_of_map(l: FiniteLattice, h: Sequence[int]) -> tuple[int, ...]:
    """Fiber joins: tau[x] = join of every z with h(z) = h(x)."""
    fiber_join: dict[int, int] = {}
    for z, v in enumerate(h):
        fiber_join[v] = z if v not in fiber_join else l.join(fiber_join[v], z)
    return tuple(fiber_join[v] for v in h)


def _lab(l: FiniteLattice, i: int) -> str:
    return l.labels[i]


@dataclass(frozen=True)
class _MapData:
    """A map on a lattice with the data the battery derives from it, built on first use."""

    l: FiniteLattice
    h: tuple[int, ...]

    @cached_property
    def tau(self) -> tuple[int, ...]:
        return tau_of_map(self.l, self.h)

    @cached_property
    def tau_ge(self) -> tuple[int, ...]:
        """tau_ge[e] is the mask of every c with e <= tau(c)."""
        rows = [0] * self.l.n
        for c, t in enumerate(self.tau):
            for e in iter_bits(self.l.down[t]):
                rows[e] |= 1 << c
        return tuple(rows)


def _fail_i1(m):
    l, h, up = m.l, m.h, m.l.up
    for x in range(len(h)):
        if not up[h[x]] >> x & 1:
            return {"x": _lab(l, x)}
    return None


def _fail_i2(m):
    l, h, up = m.l, m.h, m.l.up
    # Monotone on the cover pairs means monotone; only a failure needs the
    # full scan, which finds the first witness in index order.
    if all(up[h[lo]] >> h[hi] & 1 for lo, hi in l.poset.covers):
        return None
    for x in range(l.n):
        for y in iter_bits(l.down[x]):
            if not l.leq(h[y], h[x]):
                return {"x": _lab(l, x), "y": _lab(l, y)}
    return None


def _fail_i3(m):
    l, h = m.l, m.h
    for x in range(l.n):
        if h[h[x]] != h[x]:
            return {"x": _lab(l, x)}
    return None


def _fail_i4(m):
    l, h = m.l, m.h
    if h[l.top] != l.top:
        return {"x": _lab(l, l.top)}
    return None


def _fail_i5(m):
    l, h, join = m.l, m.h, m.l.join_table
    # Only pairs inside one fiber can fail; walking each x's fiber above x
    # meets the failing pairs in the same index order as a full pair scan.
    fibers: dict[int, list[int]] = {}
    for x, v in enumerate(h):
        fibers.setdefault(v, []).append(x)
    for x, v in enumerate(h):
        fiber = fibers[v]
        for y in fiber[fiber.index(x) + 1:]:
            if h[join[x][y]] != v:
                return {"x": _lab(l, x), "y": _lab(l, y)}
    return None


def _fail_i6(m):
    l, h, join, meet = m.l, m.h, m.l.join_table, m.l.meet_table
    for v in sorted(set(h)):
        if _is_distributive(l, v):
            continue
        x, jv = h.index(v), join[v]
        for y in range(l.n):
            # Row y of both sides, over every z: v v (y ^ z) and (v v y) ^ (v v z).
            left = list(map(jv.__getitem__, meet[y]))
            right = list(map(meet[jv[y]].__getitem__, jv))
            if left != right:
                z = next(z for z in range(l.n) if left[z] != right[z])
                return {"x": _lab(l, x), "y": _lab(l, y), "z": _lab(l, z)}
    return None


def _fail_i7(m):
    l, h = m.l, m.h
    image = sorted(set(h))
    img_set = set(image)
    for u in image:
        for v in image:
            if l.join(u, v) not in img_set:
                return {"x": _lab(l, u), "y": _lab(l, v)}
    return None


def _fail_dagger(m):
    l, h, tau, tau_ge, up = m.l, m.h, m.tau, m.tau_ge, m.l.up
    join, meet = l.join_table, l.meet_table
    for xv in range(l.n):
        hypo_c = tau_ge[tau[xv]]
        if not hypo_c:
            continue
        mx = meet[xv]
        best: tuple[int, int] | None = None
        for zv in range(l.n):
            hz = h[zv]
            fails = hypo_c & up[hz] & ~up[h[join[hz][tau[mx[zv]]]]]
            if fails:
                c0 = (fails & -fails).bit_length() - 1
                if best is None or (c0, zv) < best:
                    best = (c0, zv)
        if best is not None:
            c0, zv = best
            return {"zeta": _lab(l, zv), "gamma": _lab(l, c0), "chi": _lab(l, xv)}
    return None


def _fail_ddagger(m):
    l, h, tau, up = m.l, m.h, m.tau, m.l.up
    join, meet = l.join_table, l.meet_table
    for xv in range(l.n):
        mx, tx = meet[xv], tau[xv]
        for zv in range(l.n):
            jz = join[h[zv]]
            if not up[h[jz[tau[mx[zv]]]]] >> jz[tx] & 1:
                return {"x": _lab(l, xv), "z": _lab(l, zv)}
    return None


# The I9 family-state closure has at most 2^n - 1 states, so every carrier
# of up to 14 elements is decided; larger closures past the cap are skipped.
_I9_STATE_CAP = 1 << 14


def _i9_violation(m, state, by_down):
    """(x, c) violating I9 for a family with this packed state, or None.

    Entry x of the state is the element whose downset is bits n*x to
    n*x + n - 1; only the entries the test reaches are decoded.
    """
    l, h, up, join = m.l, m.h, m.l.up, m.l.join_table
    n, full = l.n, (1 << l.n) - 1
    hypo_c = m.tau_ge[by_down[state >> n * l.top & full]]
    if hypo_c:
        for x in range(n):
            hx = h[x]
            below = up[hx] & hypo_c
            if below:
                fails = below & ~up[h[join[hx][by_down[state >> n * x & full]]]]
                if fails:
                    return x, (fails & -fails).bit_length() - 1
    return None


def _check_i9(m) -> Verdict:
    """I9 over every nonempty family, testing each distinct family state once.

    A family z_1..z_k enters I9 only through its state
    s[x] = meet_i tau(x ^ z_i), whose entry at top is meet_i tau(z_i). The
    state is the componentwise meet of the generators g_e[x] = tau(x ^ e)
    of its members, so the states are the meet-closure of the n generators.
    A state is packed as one int, the downset of s[x] in bits n*x onwards;
    downsets of meets are intersections, so the componentwise meet is one
    AND of two ints, and a state takes n^2 / 8 bytes. The closure is walked
    level by level in order of family size, so the first failing state comes
    with a family of minimum size.
    """
    l, tau, meet, down = m.l, m.tau, m.l.meet_table, m.l.down
    n = l.n
    by_down = {d: i for i, d in enumerate(down)}
    gens = [sum(down[tau[meet[x][e]]] << n * x for x in range(n)) for e in range(n)]
    seen: set[int] = set()
    level = [((1 << n * n) - 1, ())]
    while level:
        next_level = []
        for state, family in level:
            for e, g in enumerate(gens):
                new = state & g
                if new in seen:
                    continue
                seen.add(new)
                if len(seen) > _I9_STATE_CAP:
                    note = f"skipped: {len(seen)} family states exceed cap {_I9_STATE_CAP}"
                    return Verdict(None, None, note)
                zs = tuple(sorted(family + (e,)))
                bad = _i9_violation(m, new, by_down)
                if bad is not None:
                    x, c = bad
                    zs_labels = ",".join(_lab(l, z) for z in zs)
                    return Verdict(False, {"x": _lab(l, x), "c": _lab(l, c), "zs": zs_labels})
                next_level.append((new, zs))
        level = next_level
    return Verdict(True, None, f"exact: {len(seen)} family states")


def _plain(fail, note: str | None = None):
    """A registry entry for a check returning a witness, or None when it holds."""

    def check(m) -> Verdict:
        witness = fail(m)
        return Verdict(witness is None, witness, note)

    return check


_AXIOMS = {
    "I1": _plain(_fail_i1),
    "I2": _plain(_fail_i2),
    "I3": _plain(_fail_i3),
    "I4": _plain(_fail_i4),
    "I5": _plain(_fail_i5),
    "I6": _plain(_fail_i6),
    "I7": _plain(_fail_i7),
    "I8": _plain(_fail_i4, "pseudo-one fixed to top; reduces to I4 on a finite carrier"),
    "I9": _check_i9,
    "dagger": _plain(_fail_dagger),
    "ddagger": _plain(_fail_ddagger),
}
AXIOM_NAMES = tuple(_AXIOMS)
_BASIC_AXIOMS = ("I1", "I2", "I3", "I4")
# A map of the interior-map search satisfies I1 to I4, its image is
# join-closed (I7), I8 reduces to I4, and I5 and I6 prune the search when
# they are selected.
_DECIDED_BY_SEARCH = frozenset(_BASIC_AXIOMS + ("I5", "I6", "I7", "I8"))


def check_axioms(l: FiniteLattice, h) -> AxiomReport:
    """Evaluate the full battery on an arbitrary unary map."""
    m = _MapData(l, normalize_map(l, h))
    return AxiomReport(tuple((name, check(m)) for name, check in _AXIOMS.items()))


@dataclass(frozen=True)
class InteriorMap:
    """A unary map passing I1 to I4, with its derived tau and interval blocks."""

    lattice: FiniteLattice
    h: tuple[int, ...]

    def __post_init__(self) -> None:
        n, hv = self.lattice.n, self.h
        if len(hv) != n or any(not (0 <= v < n) for v in hv):
            raise InvariantViolation("map is not a total map on the carrier")
        for name in _BASIC_AXIOMS:
            v = _AXIOMS[name](self._data)
            if not v.passed:
                raise InvariantViolation(f"interior map violates {name} at {v.witness}")

    @cached_property
    def _data(self) -> _MapData:
        return _MapData(self.lattice, self.h)

    @property
    def n(self) -> int:
        return self.lattice.n

    def apply(self, x: int) -> int:
        return self.h[x]

    @property
    def tau(self) -> tuple[int, ...]:
        return self._data.tau

    @cached_property
    def satisfies_i5(self) -> bool:
        return _AXIOMS["I5"](self._data).passed

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """The interval partition [(h-value, tau-value), ...]; needs I5."""
        if not self.satisfies_i5:
            raise InvariantViolation("blocks are only defined when I5 holds")
        return tuple((v, self.tau[v]) for v in sorted(set(self.h)))

    def as_label_map(self) -> dict[str, str]:
        labs = self.lattice.labels
        return {labs[x]: labs[v] for x, v in enumerate(self.h)}

    def to_json(self) -> str:
        return json.dumps({"map": self.as_label_map()}, indent=2)


def natural_eta(s, conl) -> InteriorMap:
    """The least-congruence-with-same-0-class map on a congruence lattice.

    eta and the greatest-congruence companion tau are read off the closed
    sets of Con (``congruence._zero_class_maps``); the tau derived from the
    fibers of eta is verified to agree with the companion.
    """
    from .congruence import _zero_class_maps

    if conl.semilattice != s:
        raise InvariantViolation("congruence lattice does not belong to this semilattice")
    h, tau_of = _zero_class_maps(conl)
    im = InteriorMap(conl.lattice, h)
    for i, t in enumerate(tau_of):
        if im.tau[i] != t:
            raise InvariantViolation(
                f"derived tau disagrees with the greatest-congruence construction at index {i}"
            )
    return im


def _is_distributive(l: FiniteLattice, d: int) -> bool:
    """Whether d v (y ^ z) = (d v y) ^ (d v z) for all y, z, in O(n + covers).

    That is, whether x ~ y iff d v x = d v y is a congruence. By Graetzer's
    lemma an equivalence on a finite lattice is one iff its classes are
    intervals and the least and the largest member of x's class are isotone
    in x. The largest is d v x; so d is distributive iff each fiber of
    x -> d v x holds its meet g(a), and g is isotone on the covers above d.
    """
    jd, meet, up = l.join_table[d], l.meet_table, l.up
    g = [l.top] * len(jd)
    for x, a in enumerate(jd):
        g[a] = meet[g[a]][x]
    return all(jd[g[a]] == a for a in jd) and all(
        up[g[lo]] >> g[hi] & 1 for lo, hi in l.poset.covers if jd[lo] == lo
    )


def _distributive_elements(l: FiniteLattice) -> int:
    """Mask of the distributive elements, the points an I6 image may use.

    They are closed under joins,
    (d v e) v (y ^ z) = d v ((e v y) ^ (e v z)) = (d v e v y) ^ (d v e v z),
    so an element the interior-map search forces into the image is one too.
    """
    return sum(1 << d for d in range(l.n) if _is_distributive(l, d))


def _search_maps(l: FiniteLattice, i5: bool, i6: bool, cap: int) -> list[tuple[int, ...]]:
    """Every map passing I1 to I4 and I7 (and I5, I6 when asked), by image mask.

    A depth-first search over a linear extension, on an explicit stack. At
    each x, v is the join of h over the lower covers of x (x itself at the
    bottom). When v = x, x is forced into the image, which keeps the image
    join-closed; the top is always in it (I4). Otherwise h(x) is v, or x
    when x may enter the image: with I6 only a distributive x may. With I5
    x is tested as it is placed: a tie h(y) = h(z) = w on incomparable y, z
    with y v z = x must have h(x) = w, and as w <= y < x that means w = v.
    ``fiber[w]`` masks by extension position the elements h sends to w;
    bits of unplaced elements are stale, and no mask below x holds them. As
    I5 held at every earlier placement, w's fiber below x is join-closed
    below x, so it has such a pair iff it is not below its last element. A
    tie needs w, y and z, so only fibers of three or more below v are
    tested (an empty one tests 0). A branch reaches the last element
    exactly when its map passes. The root and every placement are search
    nodes; more than ``cap`` of them raise BudgetExceeded.
    """
    n, join, down, top = l.n, l.join_table, l.down, l.top
    free = _distributive_elements(l) if i6 else (1 << n) - 1
    order = sorted(range(n), key=lambda x: down[x].bit_count())
    pos = {x: k for k, x in enumerate(order)}
    pdown = [sum(1 << pos[y] for y in iter_bits(down[x])) for x in order]
    steps = []
    for k, x in enumerate(order):
        covers = [lo for lo, hi in l.poset.covers if hi == x] or [x]
        # Positions below x; 0 where no I5 tie can arise at x.
        below = pdown[k] ^ 1 << k if i5 and len(covers) > 1 else 0
        steps.append((x, covers[0], covers[1:], below))
    h = list(range(n))
    fiber = [1 << pos[w] for w in range(n)]
    crowded = 0  # values whose fiber holds three or more elements
    found = []
    nodes = 0
    # (elements placed, value of the last one); the root places none.
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        k, val = stack.pop()
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded("search nodes", cap)
        if k:
            u = order[k - 1]
            if i5:
                fiber[h[u]] &= ~(1 << k - 1)
                fiber[val] |= 1 << k - 1
                if fiber[h[u]].bit_count() < 3:
                    crowded &= ~(1 << h[u])
                if fiber[val].bit_count() > 2:
                    crowded |= 1 << val
            h[u] = val
        if k == n:
            found.append((sum(1 << v for v in set(h)), tuple(h)))
            continue
        x, first, rest, below = steps[k]
        v = h[first]
        for c in rest:
            v = join[v][h[c]]
        tied = below and {
            w for w in iter_bits(crowded & down[v])
            if (s := fiber[w] & below) & ~pdown[s.bit_length() - 1]
        }
        if v == x or x == top:
            options = () if tied else (x,)
        elif tied:
            options = (v,) if tied == {v} else ()
        else:
            options = (v, x) if free >> x & 1 else (v,)
        stack.extend((k + 1, o) for o in options)
    return [h for _, h in sorted(found)]


def enumerate_eios(
    l: FiniteLattice,
    axioms: Iterable[str] | None = None,
    max_nodes: int | None = None,
) -> tuple[InteriorMap, ...]:
    """All interior maps on ``l`` passing the selected axioms (default I1 to I8).

    Maps passing I1 to I4 are exactly x -> (largest image member below x)
    for the join-closed image sets holding the top, so I1 to I4 must be in
    the selection. ``_search_maps`` finds them by a depth-first search,
    pruned on I5 and with only distributive image points under I6; the
    other selected axioms (I9, dagger, ddagger) are checked on its leaves.
    Maps come in the order of their image masks. Raises BudgetExceeded
    when the search visits more than ``max_nodes`` (default
    ``_EIO_NODE_CAP``) nodes, before any map is built, or when I9 is
    selected and skipped on its state cap for some candidate.
    """
    ax = frozenset(axioms) if axioms is not None else DEFAULT_EIO_AXIOMS
    unknown = ax - set(AXIOM_NAMES)
    if unknown:
        raise InvariantViolation(f"unknown axiom names: {sorted(unknown)}")
    if not set(_BASIC_AXIOMS) <= ax:
        raise InvariantViolation("image-based enumeration requires axioms I1 through I4")
    checks = [check for name, check in _AXIOMS.items() if name in ax - _DECIDED_BY_SEARCH]
    cap = _EIO_NODE_CAP if max_nodes is None else max_nodes
    maps = []
    for h in _search_maps(l, "I5" in ax, "I6" in ax, cap):
        m = _MapData(l, h)
        for check in checks:
            v = check(m)
            if v.passed is None:
                raise BudgetExceeded("I9 family states", _I9_STATE_CAP)
            if not v.passed:
                break
        else:
            maps.append(InteriorMap(l, h))
    return tuple(maps)


def check_bicoatomic(l: FiniteLattice) -> CheckResult:
    """Every u, v below the top with u ^ v < p for a coatom p refine to a coatom meet."""
    coat = l.coatoms
    for p in coat:
        for u in range(l.n):
            if u == l.top:
                continue
            for v in range(l.n):
                if v == l.top:
                    continue
                m = l.meet(u, v)
                if m == p or not l.leq(m, p):
                    continue
                if not any(l.leq(u, c) and l.leq(v, d) and l.leq(l.meet(c, d), p)
                           for c in coat for d in coat):
                    return CheckResult(
                        "bicoatomic", False, {"p": _lab(l, p), "u": _lab(l, u), "v": _lab(l, v)}
                    )
    return CheckResult("bicoatomic", True, None)


def check_four_coatom(l: FiniteLattice, im: InteriorMap) -> CheckResult:
    """Coatom quadruple implication driven by the interior map.

    For coatoms a, b, c, d with the filter above a ^ d of size four,
    h(a) not below d, h(c) <= d, and h(c) = h(a ^ b), conclude
    h(c) = h(b ^ d).
    """
    if im.lattice != l:
        raise InvariantViolation("interior map belongs to a different lattice")
    h = im.h
    coat = l.coatoms
    for a in coat:
        for d in coat:
            if popcount(l.up[l.meet(a, d)]) != 4:
                continue
            if l.leq(h[a], d):
                continue
            for c in coat:
                if not l.leq(h[c], d):
                    continue
                for b in coat:
                    if h[c] != h[l.meet(a, b)]:
                        continue
                    if h[c] != h[l.meet(b, d)]:
                        return CheckResult(
                            "four-coatom",
                            False,
                            {"a": _lab(l, a), "b": _lab(l, b), "c": _lab(l, c), "d": _lab(l, d)},
                        )
    return CheckResult("four-coatom", True)


def check_coatom_dependence(
    l: FiniteLattice, im: InteriorMap, i9: Verdict | None = None
) -> AxiomReport:
    """The coatom dependence battery: june2, june1, june5, june6.

    A triple of pairwise distinct coatoms (x, z, a) is in scope when
    x ^ z <= a. june2 checks its four conclusions; june1 checks
    h(x) v (meet of all in-scope z for x) = top; june5 the same per fixed a;
    june6 scans for a family with meet of the a's not below x but meet of
    the z's below x. june5/june6 presuppose I9, so they are skipped (verdict
    None) when I9 fails or is itself skipped. ``i9`` is the I9 verdict of
    ``im`` when the caller already has it; otherwise it is computed here.
    """
    if im.lattice != l:
        raise InvariantViolation("interior map belongs to a different lattice")
    if not im.satisfies_i5:
        raise InvariantViolation("coatom dependence checks need a map satisfying I5")
    h, tau = im.h, im.tau
    coat = l.coatoms
    triples = [(x, z, a) for x in coat for z in coat for a in coat
               if len({x, z, a}) == 3 and l.leq(l.meet(x, z), a)]

    entries: list[tuple[str, Verdict]] = []

    witness = None
    for x, z, a in triples:
        m = l.meet(x, z)
        holds = (("eta(a) <= x^z", l.leq(h[a], m)), ("tau(x^z) = a", tau[m] == a),
                 ("eta(x) not<= a", not l.leq(h[x], a)), ("eta(x) not<= z", not l.leq(h[x], z)))
        part = next((part for part, ok in holds if not ok), None)
        if part:
            witness = {"x": _lab(l, x), "z": _lab(l, z), "a": _lab(l, a), "part": part}
            break
    entries.append(("june2", Verdict(witness is None, witness, f"instances={len(triples)}")))

    witness = None
    checked = 0
    for x in coat:
        zs = sorted({z for (x2, z, _) in triples if x2 == x})
        if not zs:
            continue
        checked += 1
        if l.join(h[x], l.meet_all(zs)) != l.top:
            witness = {"x": _lab(l, x), "zs": ",".join(_lab(l, z) for z in zs)}
            break
    entries.append(("june1", Verdict(witness is None, witness, f"maximal families={checked}")))

    if i9 is None:
        i9 = _AXIOMS["I9"](im._data)
    if not i9.passed:
        reason = "I9 hypothesis not established" if i9.passed is False else f"I9 not decided ({i9.note})"
        skip = Verdict(None, None, f"skipped: {reason}")
        entries.append(("june5", skip))
        entries.append(("june6", skip))
        return AxiomReport(tuple(entries))

    witness = None
    checked = 0
    for x in coat:
        for a in coat:
            if a == x:
                continue
            zs = sorted({z for (x2, z, a2) in triples if x2 == x and a2 == a})
            if not zs:
                continue
            checked += 1
            if l.join(h[x], l.meet_all(zs)) != l.top:
                witness = {"x": _lab(l, x), "a": _lab(l, a), "zs": ",".join(_lab(l, z) for z in zs)}
                break
        if witness:
            break
    entries.append(("june5", Verdict(witness is None, witness, f"maximal families={checked}")))

    witness = None
    for x in coat:
        for m in range(l.n):
            if l.leq(m, x):
                continue
            zs = sorted({z for (x2, z, a) in triples if x2 == x and l.leq(m, a)})
            if zs and l.leq(l.meet_all(zs), x):
                witness = {"x": _lab(l, x), "m": _lab(l, m), "zs": ",".join(_lab(l, z) for z in zs)}
                break
        if witness:
            break
    entries.append(("june6", Verdict(witness is None, witness, "family scan over meet lower bounds")))
    return AxiomReport(tuple(entries))
