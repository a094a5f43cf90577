"""Independent brute-force reference implementations used to cross-check the package.

Everything here recomputes results from first principles with the dumbest
correct algorithm available (full partition scans, full relation scans,
full subset scans), deliberately sharing no code with the package internals
beyond the public structure accessors: nothing from the package is imported
at run time.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from eqlat.order import FiniteLattice
    from eqlat.semilattice import OpSemilattice


def iter_bits(mask: int):
    """Positions of the set bits of ``mask``, in increasing order."""
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def all_partitions(n: int):
    """Every partition of range(n) as a canonical least-representative tuple."""
    if n == 0:
        yield ()
        return
    assign = [0] * n

    def rec(i: int, used: int):
        if i == n:
            rep = [0] * n
            first = {}
            for k, a in enumerate(assign):
                if a not in first:
                    first[a] = k
                rep[k] = first[a]
            yield tuple(rep)
            return
        for a in range(used + 1):
            assign[i] = a
            yield from rec(i + 1, used + (1 if a == used else 0))

    yield from rec(1, 1)


def is_congruence(s: OpSemilattice, rep: tuple[int, ...]) -> bool:
    n = s.n
    for x in range(n):
        for y in range(n):
            if rep[x] != rep[y]:
                continue
            for z in range(n):
                if rep[s.join(x, z)] != rep[s.join(y, z)]:
                    return False
            for _, images in s.operators:
                if rep[images[x]] != rep[images[y]]:
                    return False
    return True


def oracle_congruences(s: OpSemilattice) -> set[tuple[int, ...]]:
    return {rep for rep in all_partitions(s.n) if is_congruence(s, rep)}


def zero_class_mask(s: OpSemilattice, rep: tuple[int, ...]) -> int:
    mask = 0
    for x in range(s.n):
        if rep[x] == rep[s.zero]:
            mask |= 1 << x
    return mask


def refines(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(b[x] == b[y] for x in range(len(a)) for y in range(len(a)) if a[x] == a[y])


def partition_join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The finest partition coarser than a and b: blocks of chains of a- or b-related steps."""
    n = len(a)
    out = []
    for x in range(n):
        block, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for z in range(n):
                if z not in block and (a[y] == a[z] or b[y] == b[z]):
                    block.add(z)
                    frontier.append(z)
        out.append(min(block))
    return tuple(out)


def partition_meet(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The common refinement of a and b: x and y share a block iff both relate them."""
    n = len(a)
    return tuple(min(y for y in range(n) if a[y] == a[x] and b[y] == b[x]) for x in range(n))


def oracle_eta_tau(s: OpSemilattice, ideal_mask: int):
    """The least and greatest congruence whose zero class is exactly the ideal."""
    matching = [
        rep for rep in oracle_congruences(s) if zero_class_mask(s, rep) == ideal_mask
    ]
    least = [r for r in matching if all(refines(r, o) for o in matching)]
    greatest = [r for r in matching if all(refines(o, r) for o in matching)]
    assert len(least) == 1 and len(greatest) == 1, "zero-class interval is not an interval"
    return least[0], greatest[0]


def _relation_rows(bits: int, n: int) -> list[int]:
    rows = []
    for x in range(n):
        rows.append((bits >> (x * n)) & ((1 << n) - 1))
    return rows


def _compatible(s: OpSemilattice, rows: list[int]) -> bool:
    n = s.n
    for x in range(n):
        for y in range(n):
            if not (rows[x] >> y) & 1:
                continue
            for z in range(n):
                if not (rows[s.join(x, z)] >> s.join(y, z)) & 1:
                    return False
            for _, images in s.operators:
                if not (rows[images[x]] >> images[y]) & 1:
                    return False
    return True


def _transitive(rows: list[int], n: int) -> bool:
    for x in range(n):
        for y in iter_bits(rows[x]):
            if rows[y] & ~rows[x]:
                return False
    return True


def oracle_don(s: OpSemilattice) -> set[tuple[int, ...]]:
    """All reflexive transitive compatible relations containing the reverse order."""
    n = s.n
    assert n <= 4, "oracle relation scan is limited to 4 elements"
    geq = []
    for x in range(n):
        row = 0
        for y in range(n):
            if s.leq(y, x):
                row |= 1 << y
        geq.append(row)
    out = set()
    for bits in range(1 << (n * n)):
        rows = _relation_rows(bits, n)
        if any(geq[x] & ~rows[x] for x in range(n)):
            continue
        if not _transitive(rows, n):
            continue
        if not _compatible(s, rows):
            continue
        out.add(tuple(rows))
    return out


def oracle_eon(s: OpSemilattice) -> set[tuple[int, ...]]:
    """All reflexive transitive compatible interval-closed sub-order relations."""
    n = s.n
    assert n <= 4
    leq_rows = []
    for x in range(n):
        row = 0
        for y in range(n):
            if s.leq(x, y):
                row |= 1 << y
        leq_rows.append(row)
    out = set()
    for bits in range(1 << (n * n)):
        rows = _relation_rows(bits, n)
        if any(rows[x] & ~leq_rows[x] for x in range(n)):
            continue
        if any(not (rows[x] >> x) & 1 for x in range(n)):
            continue
        if not _transitive(rows, n):
            continue
        if not _compatible(s, rows):
            continue
        ok = True
        for x in range(n):
            for y in iter_bits(rows[x]):
                for z in range(n):
                    if s.leq(x, z) and s.leq(z, y) and not (rows[x] >> z) & 1:
                        ok = False
        if not ok:
            continue
        out.add(tuple(rows))
    return out


def oracle_ideals(s: OpSemilattice, f_closed_only: bool = False) -> set[int]:
    n = s.n
    out = set()
    for mask in range(1, 1 << n):
        if not (mask >> s.zero) & 1:
            continue
        elems = list(iter_bits(mask))
        ok = all((mask >> s.join(a, b)) & 1 for a in elems for b in elems)
        if ok:
            ok = all(
                (mask >> y) & 1 for a in elems for y in range(n) if s.leq(y, a)
            )
        if ok and f_closed_only:
            ok = all((mask >> images[a]) & 1 for a in elems for _, images in s.operators)
        if ok:
            out.add(mask)
    return out


def oracle_algebraic_subsets(l: FiniteLattice) -> set[int]:
    out = set()
    for mask in range(1, 1 << l.n):
        if not (mask >> l.top) & 1:
            continue
        elems = list(iter_bits(mask))
        if all((mask >> l.meet(a, b)) & 1 for a in elems for b in elems):
            out.add(mask)
    return out


def oracle_eios(l: FiniteLattice) -> set[tuple[int, ...]]:
    """All maps passing the definitional interior axioms, by full map scan (n <= 5)."""
    n = l.n
    assert n <= 5, "oracle map scan is limited to 5 elements"
    out = set()
    for h in itertools.product(range(n), repeat=n):
        if any(not l.leq(h[x], x) for x in range(n)):
            continue
        if any(l.leq(y, x) and not l.leq(h[y], h[x]) for x in range(n) for y in range(n)):
            continue
        if any(h[h[x]] != h[x] for x in range(n)):
            continue
        if h[l.top] != l.top:
            continue
        if any(
            h[x] == h[y] and h[l.join(x, y)] != h[x]
            for x in range(n) for y in range(n)
        ):
            continue
        ok = True
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if l.join(h[x], l.meet(y, z)) != l.meet(l.join(h[x], y), l.join(h[x], z)):
                        ok = False
        if not ok:
            continue
        image = set(h)
        if any(l.join(u, v) not in image for u in image for v in image):
            continue
        out.add(h)
    return out


def oracle_endomorphisms(s: OpSemilattice) -> list[tuple[int, ...]]:
    """Every map f with f(0) = 0 and f(x + y) = f(x) + f(y), by a scan of all n^n maps, sorted."""
    n = s.n
    return [
        f for f in itertools.product(range(n), repeat=n)
        if f[s.zero] == s.zero
        and all(f[s.join(x, y)] == s.join(f[x], f[y]) for x in range(n) for y in range(n))
    ]


def oracle_closed_sets(table, base: int = 0, rows=None) -> list[int]:
    """Every mask containing base closed under the table (and rows), ascending."""
    n = len(table)
    out = []
    for mask in range(1 << n):
        if base & ~mask:
            continue
        elems = iter_bits(mask)
        if any(not (mask >> table[a][b]) & 1 for a in elems for b in elems):
            continue
        if rows is not None and any(rows[a] & ~mask for a in elems):
            continue
        out.append(mask)
    return out


def oracle_eios_by_image_scan(l: FiniteLattice, check_i5_i6: bool = True) -> list[tuple[int, ...]]:
    """Maps induced by join-closed image sets, by the full 2^(n-2) candidate scan.

    Each set of middle elements joined with bottom and top is a candidate
    image, in increasing mask order; a join-closed one induces
    h(x) = join of the image members below x. With ``check_i5_i6`` only maps
    passing I5 (h(x) = h(y) implies h(x v y) = h(x)) and I6 (every image
    point v has v v (y ^ z) = (v v y) ^ (v v z)) are kept, which with the
    construction gives the default selection I1 to I8.
    """
    n = l.n
    bottom = next(x for x in range(n) if all(l.leq(x, y) for y in range(n)))
    top = next(x for x in range(n) if all(l.leq(y, x) for y in range(n)))
    middles = [x for x in range(n) if x not in (bottom, top)]
    out = []
    for pick in range(1 << len(middles)):
        image = {bottom, top} | {e for k, e in enumerate(middles) if (pick >> k) & 1}
        if any(l.join(a, b) not in image for a in image for b in image):
            continue
        h = []
        for x in range(n):
            acc = bottom
            for v in image:
                if l.leq(v, x):
                    acc = l.join(acc, v)
            h.append(acc)
        if check_i5_i6:
            if any(h[x] == h[y] and h[l.join(x, y)] != h[x] for x in range(n) for y in range(n)):
                continue
            if any(
                l.join(v, l.meet(y, z)) != l.meet(l.join(v, y), l.join(v, z))
                for v in image for y in range(n) for z in range(n)
            ):
                continue
        out.append(tuple(h))
    return out


def oracle_first_i2_failure(l: FiniteLattice, h) -> dict[str, str] | None:
    """First (x, y) in index order with y <= x but h(y) not <= h(x), labeled; None if none."""
    for x in range(l.n):
        for y in range(l.n):
            if l.leq(y, x) and not l.leq(h[y], h[x]):
                return {"x": l.labels[x], "y": l.labels[y]}
    return None


def oracle_first_i5_failure(l: FiniteLattice, h) -> dict[str, str] | None:
    """First (x, y) in index order with x < y, h(x) = h(y) and h(x v y) != h(x); None if none."""
    for x in range(l.n):
        for y in range(x + 1, l.n):
            if h[x] == h[y] and h[l.join(x, y)] != h[x]:
                return {"x": l.labels[x], "y": l.labels[y]}
    return None


def oracle_first_i6_failure(l: FiniteLattice, h) -> dict[str, str] | None:
    """First (h(x), y, z) in index order with h(x) v (y ^ z) != (h(x) v y) ^ (h(x) v z).

    Image values are tried in increasing order, each named by the least x
    mapping to it; None if I6 holds.
    """
    for v in sorted(set(h)):
        x = list(h).index(v)
        for y in range(l.n):
            for z in range(l.n):
                if l.join(v, l.meet(y, z)) != l.meet(l.join(v, y), l.join(v, z)):
                    return {"x": l.labels[x], "y": l.labels[y], "z": l.labels[z]}
    return None


def oracle_distributive_elements(l: FiniteLattice) -> int:
    """Mask of every d with d v (y ^ z) = (d v y) ^ (d v z) for all y, z."""
    mask = 0
    for d in range(l.n):
        if all(l.join(d, l.meet(y, z)) == l.meet(l.join(d, y), l.join(d, z))
               for y in range(l.n) for z in range(l.n)):
            mask |= 1 << d
    return mask


def oracle_first_dagger_failure(l: FiniteLattice, h) -> dict[str, str] | None:
    """First (x, c, z) in index order with tau(x) <= tau(c), h(z) <= c and
    h(h(z) v tau(x ^ z)) not <= c, named zeta, gamma, chi; None if none."""
    tau = _fiber_tau(l, h)
    for x in range(l.n):
        for c in range(l.n):
            if not l.leq(tau[x], tau[c]):
                continue
            for z in range(l.n):
                if l.leq(h[z], c) and not l.leq(h[l.join(h[z], tau[l.meet(x, z)])], c):
                    return {"zeta": l.labels[z], "gamma": l.labels[c], "chi": l.labels[x]}
    return None


def oracle_first_ddagger_failure(l: FiniteLattice, h) -> dict[str, str] | None:
    """First (x, z) in index order with h(h(z) v tau(x ^ z)) not <= h(z) v tau(x); None if none."""
    tau = _fiber_tau(l, h)
    for x in range(l.n):
        for z in range(l.n):
            left = h[l.join(h[z], tau[l.meet(x, z)])]
            if not l.leq(left, l.join(h[z], tau[x])):
                return {"x": l.labels[x], "z": l.labels[z]}
    return None


def oracle_semilattice_count(n: int) -> int:
    """Isomorphism classes of n-element join-semilattices with zero, by full scan (n <= 4)."""
    assert n <= 4
    found: list[list[int]] = []
    for bits in range(1 << (n * n)):
        rows = _relation_rows(bits, n)
        if any(not (rows[x] >> x) & 1 for x in range(n)):
            continue
        if any((rows[x] >> y) & 1 and (rows[y] >> x) & 1 and x != y
               for x in range(n) for y in range(n)):
            continue
        if not _transitive(rows, n):
            continue
        bottoms = [x for x in range(n) if all((rows[x] >> y) & 1 for y in range(n))]
        if len(bottoms) != 1:
            continue
        is_sl = True
        for x in range(n):
            for y in range(n):
                ubs = [w for w in range(n) if (rows[x] >> w) & 1 and (rows[y] >> w) & 1]
                minimal = [w for w in ubs if not any(
                    u != w and (rows[u] >> w) & 1 for u in ubs
                )]
                if len(ubs) == 0 or len(minimal) != 1:
                    is_sl = False
        if not is_sl:
            continue
        if not any(
            all(
                ((rows[p[x]] >> p[y]) & 1) == ((other[x] >> y) & 1)
                for x in range(n) for y in range(n)
            )
            for other in found
            for p in itertools.permutations(range(n))
        ):
            found.append(rows)
    return len(found)


def oracle_isomorphic(up_a, up_b) -> bool:
    """Whether two orders, given as up-set rows, are isomorphic: a scan of every bijection."""
    n = len(up_a)
    if len(up_b) != n:
        return False
    return any(
        all(((up_a[x] >> y) & 1) == ((up_b[p[x]] >> p[y]) & 1) for x in range(n) for y in range(n))
        for p in itertools.permutations(range(n))
    )


def oracle_closed_sublattices(l: FiniteLattice, seeds: set[int]) -> list[int]:
    """All subsets containing the seeds and closed under the lattice operations."""
    out = []
    for mask in range(1 << l.n):
        if any(not (mask >> s) & 1 for s in seeds):
            continue
        elems = list(iter_bits(mask))
        if all(
            (mask >> l.meet(a, b)) & 1 and (mask >> l.join(a, b)) & 1
            for a in elems for b in elems
        ):
            out.append(mask)
    return out


def _fiber_tau(l: FiniteLattice, h) -> list[int]:
    """tau(x): the join of every z with h(z) = h(x)."""
    out = []
    for x in range(l.n):
        acc = x
        for z in range(l.n):
            if h[z] == h[x]:
                acc = l.join(acc, z)
        out.append(acc)
    return out


def _meet_of(l: FiniteLattice, items) -> int:
    items = list(items)
    acc = items[0]
    for y in items[1:]:
        acc = l.meet(acc, y)
    return acc


def _i9_breaks(l: FiniteLattice, h, tau, x: int, c: int, zs) -> bool:
    if not l.leq(h[x], c) or not l.leq(_meet_of(l, [tau[z] for z in zs]), tau[c]):
        return False
    inner = _meet_of(l, [tau[l.meet(x, z)] for z in zs])
    return not l.leq(h[l.join(h[x], inner)], c)


def oracle_i9_violated(l: FiniteLattice, h, x: int, c: int, zs) -> bool:
    """Whether (x, c) and the family zs break I9, straight from its statement."""
    return _i9_breaks(l, h, _fiber_tau(l, h), x, c, zs)


def oracle_i9(l: FiniteLattice, h, max_size: int | None = None) -> bool:
    """I9 over every nonempty family of at most max_size elements, every x and every c."""
    n = l.n
    tau = _fiber_tau(l, h)
    for k in range(1, (n if max_size is None else max_size) + 1):
        for zs in itertools.combinations(range(n), k):
            for x in range(n):
                for c in range(n):
                    if _i9_breaks(l, h, tau, x, c, zs):
                        return False
    return True
