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
      (decided exactly over the meet-closure of the distinct generators
      x -> tau(x ^ e), each distinct one packed once into one int of
      byte-aligned per-entry downsets so that a meet is one AND; under I2 a
      state tests only the slots x where every generator of its family can fail;
      past its state cap, or where n^2-bit states times the cap pass 2^32 bits, a skip, never a pass)
* dagger   tau(x) <= tau(c) and h(z) <= c imply h(h(z) v tau(x ^ z)) <= c
* ddagger  h(h(z) v tau(x ^ z)) <= h(z) v tau(x)

Maps passing I1 to I8 are enumerated by a depth-first search over a linear
extension that decides which elements enter the image. I5 prunes it where
an element joins two maximal members of one fiber, read off per-value fiber
masks into an int mask of tied values; a placement that keeps h(u) leaves
the masks as they are. With I6 only distributive elements enter, each tested
the first time the search asks. It counts its nodes against a cap. In the
battery, I2 is decided on cover pairs and I5 inside fibers, with the first
witness of the full pair scans; I6 per image value by the congruence lemma
of ``_is_distributive``, scanning rows of the meet and join tables only for
the witness of the first value that fails. dagger and ddagger scan those rows.

A map is one record, ``_MapData``, of which ``InteriorMap`` is the validated
kind: tau, its rows and each axiom's verdict are computed on the record the
first time something reads them and kept there, so the battery, the
interior-map search and the coatom checks never compute one twice. A record
from the search starts with the pass verdicts the search decided, so it is
trusted; ``InteriorMap`` validates every map from outside. A verdict keeps
its witness as element indices and becomes a label dict only when read
(``verdict``, and so ``AxiomReport``, suite rows, JSON and the CLI), so
records of structures with equal up rows and h share what they keep
(``natural_eta`` takes the store for its key from the Con it reads).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import isqrt

from .errors import BudgetExceeded, InvariantViolation
from .order import FiniteLattice, closure, iter_bits

DEFAULT_EIO_AXIOMS = frozenset({"I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8"})
# Default cap of enumerate_eios on its search nodes.
_EIO_NODE_CAP = 1 << 20


@dataclass(frozen=True)
class Verdict:
    """Outcome of one check: passed True/False, or None when skipped; a record keeps index witnesses."""

    passed: bool | None
    witness: dict | None = None
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


def normalize_map(l: FiniteLattice, h) -> tuple[int, ...]:
    """Coerce an InteriorMap on ``l``, index sequence, or label mapping to an index tuple."""
    if isinstance(h, InteriorMap):
        if h.lattice != l:
            raise InvariantViolation("interior map belongs to a different lattice")
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


@dataclass(frozen=True)
class _MapData:
    """A map on a lattice with tau, tau's rows and the axiom verdicts, each kept from first use.

    tau and the verdicts are kept in ``_store``, witnesses as indices, so they
    depend on the lattice's up rows and h alone: records with equal up rows
    and h may share one store, and ``verdict`` labels a witness when read.
    tau_ge is read only while a verdict is computed, so it stays per record.
    """

    lattice: FiniteLattice
    h: tuple[int, ...]
    _store: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def tau(self) -> tuple[int, ...]:
        store = self._store
        if "tau" not in store:
            store["tau"] = tau_of_map(self.lattice, self.h)
        return store["tau"]

    @cached_property
    def tau_ge(self) -> tuple[int, ...]:
        """tau_ge[e] is the mask of every c with e <= tau(c): the union of the tau-fibers above e."""
        fibers: dict[int, int] = {}
        for c, t in enumerate(self.tau):
            fibers[t] = fibers.get(t, 0) | 1 << c
        up = self.lattice.up
        return tuple(sum(cs for t, cs in fibers.items() if up[e] >> t & 1) for e in range(len(up)))

    def verdict(self, name: str) -> Verdict:
        """The named axiom's verdict on this map, computed on the first call, its witness read in labels."""
        store = self._store
        if name not in store:
            store[name] = _AXIOMS[name](self)
        v = store[name]
        if v.witness is None:
            return v
        labs = self.lattice.labels
        return Verdict(v.passed, {k: ",".join(labs[j] for j in i) if isinstance(i, tuple) else labs[i]
                                  for k, i in v.witness.items()}, v.note)

    def holds(self, name: str) -> bool:
        """Whether the named axiom passes; an I9 skip raises BudgetExceeded naming the bound that tripped."""
        passed = self.verdict(name).passed
        if passed is None:
            bound = _i9_size_bound()
            if self.lattice.n > bound:
                raise BudgetExceeded("I9 lattice elements", bound)
            raise BudgetExceeded("I9 family states", _I9_STATE_CAP)
        return passed


def _fail_i1(m):
    h, up = m.h, m.lattice.up
    for x in range(len(h)):
        if not up[h[x]] >> x & 1:
            return {"x": x}
    return None


def _fail_i2(m):
    l, h, up = m.lattice, m.h, m.lattice.up
    # Monotone on the cover pairs means monotone; only a failure needs the
    # full scan, which finds the first witness in index order.
    if all(up[h[lo]] >> h[hi] & 1 for lo, hi in l.poset.covers):
        return None
    for x in range(l.n):
        for y in iter_bits(l.down[x]):
            if not l.leq(h[y], h[x]):
                return {"x": x, "y": y}
    return None


def _fail_i3(m):
    l, h = m.lattice, m.h
    for x in range(l.n):
        if h[h[x]] != h[x]:
            return {"x": x}
    return None


def _fail_i4(m):
    l, h = m.lattice, m.h
    if h[l.top] != l.top:
        return {"x": l.top}
    return None


def _fail_i5(m):
    l, h, join = m.lattice, m.h, m.lattice.join_table
    # Only pairs inside one fiber can fail; walking each x's fiber above x
    # meets the failing pairs in the same index order as a full pair scan.
    fibers: dict[int, list[int]] = {}
    for x, v in enumerate(h):
        fibers.setdefault(v, []).append(x)
    for x, v in enumerate(h):
        fiber = fibers[v]
        for y in fiber[fiber.index(x) + 1:]:
            if h[join[x][y]] != v:
                return {"x": x, "y": y}
    return None


def _fail_i6(m):
    l, h, join, meet = m.lattice, m.h, m.lattice.join_table, m.lattice.meet_table
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
                return {"x": x, "y": y, "z": z}
    return None


def _fail_i7(m):
    l, h = m.lattice, m.h
    image = sorted(set(h))
    img_set = set(image)
    for u in image:
        for v in image:
            if l.join(u, v) not in img_set:
                return {"x": u, "y": v}
    return None


def _fail_dagger(m):
    l, h, tau, tau_ge, up = m.lattice, m.h, m.tau, m.tau_ge, m.lattice.up
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
            return {"zeta": zv, "gamma": c0, "chi": xv}
    return None


def _fail_ddagger(m):
    l, h, tau, up = m.lattice, m.h, m.tau, m.lattice.up
    join, meet = l.join_table, l.meet_table
    for xv in range(l.n):
        mx, tx = meet[xv], tau[xv]
        for zv in range(l.n):
            jz = join[h[zv]]
            if not up[h[jz[tau[mx[zv]]]]] >> jz[tx] & 1:
                return {"x": xv, "z": zv}
    return None


# The I9 family-state closure has at most 2^n - 1 states, so every carrier
# of up to 14 elements is decided; past the cap, or n^2 x cap > 2^32, I9 is skipped.
_I9_STATE_CAP = 1 << 14


def _i9_size_bound() -> int:
    """The most elements I9 decides, 512 at the default cap: n^2-bit states times the cap fit 2^32 bits."""
    return isqrt((1 << 32) // _I9_STATE_CAP)


def _check_i9(m) -> Verdict:
    """I9 over every nonempty family, testing each distinct family state once.

    A family z_1..z_k enters I9 only through its state
    s[x] = meet_i tau(x ^ z_i), whose entry at top is meet_i tau(z_i). The
    state is the componentwise meet of the generators g_e[x] = tau(x ^ e)
    of its members, so the states are the meet-closure of the distinct
    generators; an e whose generator equals an earlier one's adds no state
    and is dropped. A state is packed as one int, the downset of s[x] in the
    w = ceil(n/8) bytes from byte w*x onwards. g_e is the bytes of tau(y)'s
    downset, built once per call, joined over y in the meet row of e; the
    distinct ones are told apart by those bytes and each becomes an int by
    one int.from_bytes. Downsets of meets are intersections, so the
    componentwise meet is one AND of two ints; a state takes n*w bytes. Slot
    x fails only when h(h(x) v s[x]) is not below h(x); for a monotone h
    (I2) that shrinks with s[x], so each generator carries the mask of the
    slots where it can fail, and a state tests only the AND of its family's
    masks (every slot when I2 fails), in ascending x, decoding only the
    entries it tests. The closure is walked level by level in order of
    family size, so the first failing state comes with a family of minimum
    size. Lattices past the bit bound are skipped before any bytes are built.
    """
    n, bound = m.lattice.n, _i9_size_bound()
    if n > bound:
        note = f"skipped: {n} elements exceed {bound}; {_I9_STATE_CAP} states of n^2 bits pass 2^32 bits"
        return Verdict(None, None, note)
    l, h, tau, up, join = m.lattice, m.h, m.tau, m.lattice.up, m.lattice.join_table
    down, full, width = l.down, (1 << n) - 1, (n + 7) // 8
    by_down, tau_ge, monotone = {d: i for i, d in enumerate(down)}, m.tau_ge, m.verdict("I2").passed
    slot, slot_bytes = 8 * width, [down[t].to_bytes(width, "little") for t in tau]
    first: dict[bytes, int] = {}  # generator g_e, its slots' bytes: its first e
    for e in range(n):
        first.setdefault(b"".join(map(slot_bytes.__getitem__, l.meet_table[e])), e)
    gens = [(int.from_bytes(g, "little"), e,  # (packed generator, its first e, its slot mask)
             sum(1 << x for x, y in enumerate(l.meet_table[e])
                 if not (monotone and up[h[join[h[x]][tau[y]]]] >> h[x] & 1)))
            for g, e in first.items()]
    seen: set[int] = set()
    level = [((1 << n * slot) - 1, full, ())]
    while level:
        next_level = []
        for state, slots, family in level:
            for g, e, g_slots in gens:
                new = state & g
                if new in seen:
                    continue
                seen.add(new)
                if len(seen) > _I9_STATE_CAP:
                    note = f"skipped: {len(seen)} family states exceed cap {_I9_STATE_CAP}"
                    return Verdict(None, None, note)
                zs, new_slots = family + (e,), slots & g_slots
                hypo_c = tau_ge[by_down[new >> slot * l.top & full]]
                test = new_slots if hypo_c else 0
                while test:
                    low = test & -test
                    test ^= low
                    x = low.bit_length() - 1
                    below = up[h[x]] & hypo_c
                    fails = below and below & ~up[h[join[h[x]][by_down[new >> slot * x & full]]]]
                    if fails:
                        c = (fails & -fails).bit_length() - 1
                        return Verdict(False, {"x": x, "c": c, "zs": tuple(sorted(zs))})
                next_level.append((new, new_slots, zs))
        level = next_level
    return Verdict(True, None, f"exact: {len(seen)} family states")


def _plain(fail, note: str | None = None):
    """A registry entry for a check returning a witness, or None when it holds."""

    def check(m) -> Verdict:
        witness = fail(m)
        return Verdict(witness is None, witness, note)

    return check


_I8_NOTE = "pseudo-one fixed to top; reduces to I4 on a finite carrier"
_AXIOMS = {
    "I1": _plain(_fail_i1),
    "I2": _plain(_fail_i2),
    "I3": _plain(_fail_i3),
    "I4": _plain(_fail_i4),
    "I5": _plain(_fail_i5),
    "I6": _plain(_fail_i6),
    "I7": _plain(_fail_i7),
    "I8": _plain(_fail_i4, _I8_NOTE),
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
    """Evaluate the full battery on an arbitrary unary map.

    An InteriorMap on ``l`` is its own record: the verdicts it holds are
    read, and the ones computed here stay on it.
    """
    hv = normalize_map(l, h)
    m = h if isinstance(h, InteriorMap) else _MapData(l, hv)
    return AxiomReport(tuple((name, m.verdict(name)) for name in AXIOM_NAMES))


@dataclass(frozen=True)
class InteriorMap(_MapData):
    """A unary map passing I1 to I4 (computed unless its store holds them), with tau and interval blocks."""

    def __post_init__(self) -> None:
        n, hv = self.lattice.n, self.h
        if len(hv) != n or any(not (0 <= v < n) for v in hv):
            raise InvariantViolation("map is not a total map on the carrier")
        for name in _BASIC_AXIOMS:
            v = self.verdict(name)
            if not v.passed:
                raise InvariantViolation(f"interior map violates {name} at {v.witness}")

    def apply(self, x: int) -> int:
        return self.h[x]

    @property
    def satisfies_i5(self) -> bool:
        return self.verdict("I5").passed

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """The interval partition [(h-value, tau-value), ...]; needs I5."""
        if not self.satisfies_i5:
            raise InvariantViolation("blocks are only defined when I5 holds")
        return tuple((v, self.tau[v]) for v in sorted(set(self.h)))

    def as_label_map(self) -> dict[str, str]:
        labs = self.lattice.labels
        return {labs[x]: labs[v] for x, v in enumerate(self.h)}


def natural_eta(s, conl) -> InteriorMap:
    """The map sending each congruence of Con(s) to the least with its 0-class.

    Congruence i has 0-class down(m), m the least member of its closed set;
    eta's closed set is up(m) and tau's the closure of {m, top} under the
    residual rows Con was walked with. The tau derived from the fibers of eta
    must agree with it at every index. The verdicts go in the store of
    ``conl._stores`` for (up rows, eta), shared by every Con of one batch.
    """
    if conl.semilattice != s:
        raise InvariantViolation("congruence lattice does not belong to this semilattice")
    lat, least = conl.lattice, conl._least
    position = {t: i for i, t in enumerate(conl.closed)}
    meet = s.lattice.meet_table
    try:
        h = tuple(position[s.up[m]] for m in least)
        tau_at = {m: position[closure(meet, 1 << m | 1 << s.top, conl._rows)] for m in set(least)}
    except KeyError:
        raise InvariantViolation("closed sets do not match this congruence lattice") from None
    im = InteriorMap(lat, h, conl._stores.setdefault((lat.up, h), {}))
    for i, (t, m) in enumerate(zip(im.tau, least)):
        if t != tau_at[m]:
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


def _search_maps(l: FiniteLattice, i5: bool, i6: bool, cap: int) -> list[tuple[int, ...]]:
    """Every map passing I1 to I4 and I7 (and I5, I6 when asked), by image mask.

    A depth-first search over a linear extension, on an explicit stack. At
    each x, v is the join of h over the lower covers of x (x itself at the
    bottom). When v = x, x is forced into the image, which keeps the image
    join-closed; the top is always in it (I4). Otherwise h(x) is v, or x
    when x may enter the image: with I6 only a distributive x may, tested
    the first time a branch asks and kept for the rest of the call. A forced
    x needs no test: distributive elements are closed under joins,
    (d v e) v (y ^ z) = d v ((e v y) ^ (e v z)) = (d v e v y) ^ (d v e v z),
    so an x forced as the join of image points is one too. With I5
    x is tested as it is placed: a tie h(y) = h(z) = w on incomparable y, z
    with y v z = x must have h(x) = w, and as w <= y < x that means w = v.
    ``fiber[w]`` masks by extension position the elements h sends to w;
    bits of unplaced elements are stale, and no mask below x holds them.
    ``fiber[h[u]]`` always holds u's bit, so a placement that keeps h[u]
    changes no mask. As I5 held at every earlier placement, w's fiber below
    x is join-closed below x, so it has such a pair iff it is not below its
    last element. A tie needs w, y and z, so only fibers of three or more
    below v are tested (an empty one tests 0), and the tied values are
    collected in an int mask. A branch reaches the last element exactly
    when its map passes. The root and every placement are search nodes;
    more than ``cap`` of them raise BudgetExceeded.
    """
    n, join, down, top = l.n, l.join_table, l.down, l.top
    free = cache(partial(_is_distributive, l)) if i6 else lambda x: True
    order = sorted(range(n), key=lambda x: down[x].bit_count())
    pos = {x: k for k, x in enumerate(order)}
    pdown = [sum(1 << pos[y] for y in iter_bits(down[x])) for x in order]
    lower: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in l.poset.covers:
        lower[hi].append(lo)
    steps = []
    for k, x in enumerate(order):
        covers = lower[x] or [x]
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
            if i5 and h[u] != val:
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
        tied = 0  # mask of the values w with a tie below x
        ws = crowded & down[v] if below else 0
        while ws:
            low = ws & -ws
            ws ^= low
            s = fiber[low.bit_length() - 1] & below
            if s & ~pdown[s.bit_length() - 1]:
                tied |= low
        if v == x or x == top:
            if not tied:
                stack.append((k + 1, x))
        elif not tied:
            stack.append((k + 1, v))
            if free(x):
                stack.append((k + 1, x))
        elif tied == 1 << v:
            stack.append((k + 1, v))
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
    pruned on I5 and with only distributive image points under I6. Each
    leaf's InteriorMap starts with the registry's pass verdicts of the
    selected axioms the search decided, so it re-decides none; the other
    selected axioms (I9, dagger, ddagger) are checked on the InteriorMap of
    each of its leaves, which keeps their verdicts. Maps come in the order
    of their image masks. Raises BudgetExceeded when the search visits more
    than ``max_nodes`` (default ``_EIO_NODE_CAP``) nodes, before any map is
    built, or when I9 is selected and skipped for some candidate, on its
    lattice-size bound (512 elements) or on its state cap.
    """
    ax = frozenset(axioms) if axioms is not None else DEFAULT_EIO_AXIOMS
    unknown = ax - set(AXIOM_NAMES)
    if unknown:
        raise InvariantViolation(f"unknown axiom names: {sorted(unknown)}")
    if not set(_BASIC_AXIOMS) <= ax:
        raise InvariantViolation("image-based enumeration requires axioms I1 through I4")
    extra = [name for name in AXIOM_NAMES if name in ax - _DECIDED_BY_SEARCH]
    decided = {a: Verdict(True, None, _I8_NOTE if a == "I8" else None) for a in _DECIDED_BY_SEARCH & ax}
    cap = _EIO_NODE_CAP if max_nodes is None else max_nodes
    maps = (InteriorMap(l, h, dict(decided)) for h in _search_maps(l, "I5" in ax, "I6" in ax, cap))
    return tuple(im for im in maps if all(im.holds(name) for name in extra))


def check_bicoatomic(l: FiniteLattice) -> Verdict:
    """Every u, v below the top with u ^ v < p for a coatom p refine to a coatom meet."""
    coat = l.coatoms
    below_top = [u for u in range(l.n) if u != l.top]
    for p in coat:
        for u in below_top:
            for v in below_top:
                m = l.meet(u, v)
                if m == p or not l.leq(m, p):
                    continue
                if not any(l.leq(u, c) and l.leq(v, d) and l.leq(l.meet(c, d), p)
                           for c in coat for d in coat):
                    return Verdict(False, {"p": l.labels[p], "u": l.labels[u], "v": l.labels[v]})
    return Verdict(True)


def check_four_coatom(l: FiniteLattice, im: InteriorMap) -> Verdict:
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
            if l.up[l.meet(a, d)].bit_count() != 4:
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
                        return Verdict(
                            False, {"a": l.labels[a], "b": l.labels[b], "c": l.labels[c], "d": l.labels[d]}
                        )
    return Verdict(True)


def check_coatom_dependence(l: FiniteLattice, im: InteriorMap) -> AxiomReport:
    """The coatom dependence battery: june2, june1, june5, june6.

    A triple of pairwise distinct coatoms (x, z, a) is in scope when
    x ^ z <= a. One scope table holds, per coatom x and other coatom z in
    order, the mask of the a completing an in-scope triple; june2 checks the
    four conclusions of each triple. june1, june5 and june6 scan cases (x, a
    named element or None, a mask of admissible a) for the first whose
    family zs, the z with an admissible a, fails: june1 admits every a and
    june5 one, failing when h(x) v meet(zs) != top; june6 admits the a above
    each m not below x and fails when meet(zs) <= x, so it reads no h.
    june5/june6 presuppose I9, so they are skipped (verdict None) when I9
    fails or is itself skipped. The I9 verdict is read from ``im``, so a map
    whose battery has run does not run I9 again.
    """
    if im.lattice != l:
        raise InvariantViolation("interior map belongs to a different lattice")
    if not im.satisfies_i5:
        raise InvariantViolation("coatom dependence checks need a map satisfying I5")
    h, tau, up, meet, join = im.h, im.tau, l.up, l.meet_table, l.join_table
    coat = l.coatoms
    coat_mask = sum(1 << c for c in coat)
    scope = {x: [(z, up[meet[x][z]] & coat_mask & ~(1 << x | 1 << z)) for z in coat if z != x] for x in coat}
    triples = [(x, z, a) for x in coat for z, above in scope[x] for a in coat if above >> a & 1]

    def scan(name, key, cases, fails, note=None) -> tuple[str, Verdict]:
        checked, witness = 0, None
        for x, named, admissible in cases:
            zs = [z for z, above in scope[x] if above & admissible]
            checked += bool(zs)
            if zs and fails(x, l.meet_all(zs)):
                named_part = {} if named is None else {key: l.labels[named]}
                witness = {"x": l.labels[x], **named_part, "zs": ",".join(l.labels[z] for z in zs)}
                break
        return name, Verdict(witness is None, witness, note or f"maximal families={checked}")

    def short_of_top(x, meet_zs):
        return join[h[x]][meet_zs] != l.top

    witness = None
    for x, z, a in triples:
        m = meet[x][z]
        holds = (("eta(a) <= x^z", l.leq(h[a], m)), ("tau(x^z) = a", tau[m] == a),
                 ("eta(x) not<= a", not l.leq(h[x], a)), ("eta(x) not<= z", not l.leq(h[x], z)))
        part = next((part for part, ok in holds if not ok), None)
        if part:
            witness = {"x": l.labels[x], "z": l.labels[z], "a": l.labels[a], "part": part}
            break
    entries = [("june2", Verdict(witness is None, witness, f"instances={len(triples)}")),
               scan("june1", None, ((x, None, coat_mask) for x in coat), short_of_top)]

    i9 = im.verdict("I9")
    if not i9.passed:
        reason = "I9 hypothesis not established" if i9.passed is False else f"I9 not decided ({i9.note})"
        skip = Verdict(None, None, f"skipped: {reason}")
        entries += [("june5", skip), ("june6", skip)]
        return AxiomReport(tuple(entries))

    entries.append(scan("june5", "a", ((x, a, 1 << a) for x in coat for a in coat), short_of_top))
    entries.append(scan("june6", "m", ((x, m, up[m]) for x in coat for m in range(l.n) if not up[m] >> x & 1),
                        lambda x, meet_zs: up[meet_zs] >> x & 1, "family scan over meet lower bounds"))
    return AxiomReport(tuple(entries))
