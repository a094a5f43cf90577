"""Named example structures, machine-checked claims, and a small-structure catalog.

Builders cover Boolean lattices, chains, chains with the predecessor
operator, three finite truncations of infinite meet-semilattice families
(returned as the dual of their subalgebra lattice), and the nine-element
congruence sublattice generated inside the congruence lattice of the
three-atom Boolean semilattice.

``run_claims`` re-checks an entry's claims as ``CheckOutcome`` rows, the
row type of the suites in ``eqlat.checks``: a search skipped on its budget
is a skip, never a pass. ``generate_catalog`` enumerates every
join-semilattice with zero up to a size bound, one representative per
isomorphism class, optionally decorated with operator sets.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Sequence

from .congruence import (
    all_congruences,
    congruence_generated,
    make_congruence,
    meet_congruences,
)
from .errors import BudgetExceeded, InvariantViolation, ParamOutOfRange
from .galois import check_filterable, sublattice_interior
from .interior import InteriorMap, check_axioms, check_bicoatomic, enumerate_eios, natural_eta
from .order import (
    FiniteLattice,
    canonical_key,
    closed_sets,
    complete_sublattice_closure,
    iter_bits,
    lattice_of,
    set_label,
)
from .semilattice import OpSemilattice, all_endomorphisms, from_join_table


@dataclass(frozen=True)
class Claim:
    """One machine-checkable expectation about a corpus entry.

    Assertive claims compare the observed value against ``expected``;
    non-assertive claims only record the observed value (used for finite
    truncations of infinite structures, where nothing is asserted).
    """

    op: str
    expected: object = None
    assertive: bool = True


@dataclass(frozen=True)
class CheckOutcome:
    """One verdict row: a suite outcome, or a claim of a corpus entry.

    ``passed`` is None when the check did not run, and ``note`` says why.
    """

    check: str
    structure: str
    passed: bool | None
    witness: dict | None = None
    note: str | None = None

    @property
    def name(self) -> str:
        # An older name for ``check``; it stays while the benchmark harness
        # (``bench/workload.py``) reads it on corpus rows.
        return self.check

    @property
    def verdict(self) -> str:
        if self.passed is None:
            return "skip"
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        out: dict = {"check": self.check, "structure": self.structure, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


@dataclass
class CorpusEntry:
    name: str
    structure: object
    claims: tuple[Claim, ...]
    extra: dict = field(default_factory=dict)
    truncated: bool = False


def _as_finite_lattice(structure) -> FiniteLattice:
    if isinstance(structure, FiniteLattice):
        return structure
    return structure.lattice


def _once(memo: dict, key: str, build):
    """``build()`` on the first call for ``key``; its result, or its budget error, after.

    The memo keeps a budget error without its traceback, which would keep
    the failed search's frames alive, and each call raises a fresh copy.
    """
    if key not in memo:
        try:
            memo[key] = build()
        except BudgetExceeded as exc:
            memo[key] = BudgetExceeded(exc.what, exc.cap)
    if isinstance(memo[key], BudgetExceeded):
        raise BudgetExceeded(memo[key].what, memo[key].cap)
    return memo[key]


def _evaluate_claim(entry: CorpusEntry, op: str, memo: dict):
    """Observe one claim; the Con lattice and the eio list are built once per ``memo``."""
    st = entry.structure
    if op == "element_count":
        return st.n
    if op in ("congruence_count", "con_is_chain", "natural_eta_equals_tau"):
        conl = _once(memo, "conl", lambda: all_congruences(st))
        if op == "congruence_count":
            return conl.n
        if op == "con_is_chain":
            lat = conl.lattice
            return all(
                lat.leq(i, j) or lat.leq(j, i) for i in range(lat.n) for j in range(i + 1, lat.n)
            )
        im = natural_eta(st, conl)
        return im.h == im.tau
    if op == "coatom_labels":
        lat = _as_finite_lattice(st)
        return tuple(sorted(lat.labels[i] for i in lat.coatoms))
    if op in ("eio_count", "eio_label_maps", "eio_i9_all"):
        lat = _as_finite_lattice(st)
        cap = _EVIDENCE_CAP if entry.truncated else None
        eios = _once(memo, "eios", lambda: enumerate_eios(lat, max_nodes=cap))
        if op == "eio_count":
            return len(eios)
        if op == "eio_label_maps":
            return tuple(im.as_label_map() for im in eios)
        if not eios:
            return None
        # A failing map decides the claim even when another map's I9 is a skip.
        if any(im.verdict("I9").passed is False for im in eios):
            return False
        return all(im.holds("I9") for im in eios)
    if op == "dagger_witness":
        lat = _as_finite_lattice(st)
        return check_axioms(lat, entry.extra["interior"]).verdict("dagger").witness
    if op == "bicoatomic_witness":
        return check_bicoatomic(_as_finite_lattice(st)).witness
    if op == "filterable_pass":
        return check_filterable(entry.extra["ambient"], entry.extra["members"]).passed
    raise InvariantViolation(f"unknown claim op {op!r}")


# Truncations can be large: their interior-map searches get this cap on
# search nodes instead of enumerate_eios' default, and a blown cap is
# reported as a skipped search, not an error.
_EVIDENCE_CAP = 1 << 14


def run_claims(entry: CorpusEntry) -> tuple[CheckOutcome, ...]:
    """One row per claim: asserted claims pass or fail, observations report what they saw.

    A non-assertive claim passes with its observation in the note, or is a
    skip (``passed`` None) when its search blew the evidence cap. The
    entry's Con lattice and its interior-map search run at most once per call.
    """
    results = []
    memo: dict = {}
    for claim in entry.claims:
        if claim.assertive:
            observed = _evaluate_claim(entry, claim.op, memo)
            ok = observed == claim.expected
            witness = None if ok else {"observed": repr(observed), "expected": repr(claim.expected)}
            results.append(CheckOutcome(claim.op, entry.name, ok, witness))
            continue
        try:
            observed = _evaluate_claim(entry, claim.op, memo)
        except BudgetExceeded as exc:
            passed, note = None, f"evidence search skipped: {exc}"
        else:
            passed, note = True, f"observed={observed!r}; finite-truncation evidence, not asserted"
        results.append(CheckOutcome(claim.op, entry.name, passed, None, note))
    return tuple(results)


_ATOM_LETTERS = "pqrst"


def _boolean_semilattice(n: int) -> OpSemilattice:
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(masks)}

    def name(m: int) -> str:
        if m == 0:
            return "0"
        if n >= 1 and m == (1 << n) - 1:
            return "1"
        return "".join(_ATOM_LETTERS[i] for i in range(n) if (m >> i) & 1)

    labels = [name(m) for m in masks]
    table = [[index[a | b] for b in masks] for a in masks]
    return from_join_table(labels, table, 0)


def boolean(n: int) -> CorpusEntry:
    """The Boolean lattice on n atoms as a join-semilattice with zero (n <= 5)."""
    if not 0 <= n <= 5:
        raise ParamOutOfRange("boolean supports 0 <= n <= 5")
    s = _boolean_semilattice(n)
    claims = [Claim("element_count", 1 << n)]
    if n == 2:
        claims.append(Claim("congruence_count", 7))
    return CorpusEntry(f"boolean({n})", s, tuple(claims))


def chain(n: int) -> CorpusEntry:
    """The (n+1)-element chain 0 < 1 < ... < n as a join-semilattice."""
    if not 0 <= n <= 12:
        raise ParamOutOfRange("chain supports 0 <= n <= 12")
    labels = [str(i) for i in range(n + 1)]
    table = [[max(i, j) for j in range(n + 1)] for i in range(n + 1)]
    s = from_join_table(labels, table, 0)
    claims = (Claim("element_count", n + 1), Claim("congruence_count", 1 << n))
    return CorpusEntry(f"chain({n})", s, claims)


def omega(n: int) -> CorpusEntry:
    """The (n+1)-chain with the predecessor operator fixing zero.

    Its congruence lattice is again an (n+1)-element chain, and the least
    and greatest congruence with each zero class coincide.
    """
    if not 1 <= n <= 10:
        raise ParamOutOfRange("omega supports 1 <= n <= 10")
    labels = [str(i) for i in range(n + 1)]
    table = [[max(i, j) for j in range(n + 1)] for i in range(n + 1)]
    pred = [0] + [i - 1 for i in range(1, n + 1)]
    s = from_join_table(labels, table, 0, [("p", pred)])
    claims = (
        Claim("element_count", n + 1),
        Claim("congruence_count", n + 1),
        Claim("con_is_chain", True),
        Claim("natural_eta_equals_tau", True),
    )
    return CorpusEntry(f"omega({n})", s, claims)


def _check_meet_table(labels: Sequence[str], meet) -> None:
    n = len(labels)
    for i in range(n):
        if meet(i, i) != i:
            raise InvariantViolation(f"meet not idempotent at {labels[i]}")
        for j in range(n):
            if meet(i, j) != meet(j, i):
                raise InvariantViolation(f"meet not commutative at {labels[i]}, {labels[j]}")
            for k in range(n):
                if meet(meet(i, j), k) != meet(i, meet(j, k)):
                    raise InvariantViolation(
                        f"meet not associative at {labels[i]}, {labels[j]}, {labels[k]}"
                    )


def _sub_dual_lattice(labels: Sequence[str], meet) -> FiniteLattice:
    """The dual of the containment lattice of meet-closed subsets (empty set included).

    Reverse containment of the subsets is containment of their complements.
    """
    _check_meet_table(labels, meet)
    full = (1 << len(labels)) - 1
    table = [[meet(i, j) for j in range(len(labels))] for i in range(len(labels))]
    subs = sorted(closed_sets(table), key=lambda m: (m.bit_count(), m))
    return lattice_of(lambda: [set_label(labels, m) for m in subs], [full & ~m for m in subs])


_TRUNCATION_EVIDENCE = (
    Claim("eio_count", None, assertive=False),
    Claim("eio_i9_all", None, assertive=False),
)


def m_infinity(k: int) -> CorpusEntry:
    """Truncation of the flat family: k atoms over a least element.

    The structure returned is the dual of its lattice of meet-closed
    subsets. The infinite version is the standard non-representability
    witness; for the truncation only finite facts are asserted and the
    interior-operator evidence is recorded without being asserted.
    """
    if not 2 <= k <= 5:
        raise ParamOutOfRange("m_infinity supports 2 <= k <= 5")
    labels = ["a"] + [f"m{i}" for i in range(1, k + 1)]

    def meet(i: int, j: int) -> int:
        return i if i == j else 0

    lat = _sub_dual_lattice(labels, meet)
    claims = (Claim("element_count", (1 << k) + k + 1),) + _TRUNCATION_EVIDENCE
    return CorpusEntry(f"m_infinity({k})", lat, claims, truncated=True)


def m2(k: int) -> CorpusEntry:
    """Truncation of the chain-plus-wing family: a chain m1 < ... < mk, an
    extra element m meeting every chain element at the least element a.

    Returned as the dual of its meet-closed subset lattice; only finite
    facts are asserted.
    """
    if not 1 <= k <= 4:
        raise ParamOutOfRange("m2 supports 1 <= k <= 4")
    labels = ["a", "m"] + [f"m{i}" for i in range(1, k + 1)]

    def meet(i: int, j: int) -> int:
        if i == j:
            return i
        if i == 0 or j == 0:
            return 0
        if i == 1 or j == 1:
            return 0
        return min(i, j)

    lat = _sub_dual_lattice(labels, meet)
    claims = (Claim("element_count", 3 * (1 << k) + 1),) + _TRUNCATION_EVIDENCE
    return CorpusEntry(f"m2({k})", lat, claims, truncated=True)


def p1(k: int) -> CorpusEntry:
    """Truncation of the two-descending-chains family.

    Elements a0 > a1 > ... > ak and b0 > b1 > ... > bk with b0 > a0 and
    every mixed meet given by a at the larger index. Returned as the dual
    of its meet-closed subset lattice; only finite facts are asserted.
    """
    if not 1 <= k <= 3:
        raise ParamOutOfRange("p1 supports 1 <= k <= 3")
    labels = [f"a{i}" for i in range(k + 1)] + [f"b{i}" for i in range(k + 1)]

    def meet(i: int, j: int) -> int:
        ai = i <= k
        aj = j <= k
        ii = i if ai else i - (k + 1)
        jj = j if aj else j - (k + 1)
        if ai and aj:
            return max(ii, jj)
        if not ai and not aj:
            return max(ii, jj) + (k + 1)
        return max(ii, jj)

    lat = _sub_dual_lattice(labels, meet)
    claims: tuple[Claim, ...]
    if k == 1:
        claims = (Claim("element_count", 14),) + _TRUNCATION_EVIDENCE
    else:
        claims = (Claim("element_count", None, assertive=False),) + _TRUNCATION_EVIDENCE
    return CorpusEntry(f"p1({k})", lat, claims, truncated=True)


def k_lattice() -> CorpusEntry:
    """The nine-element congruence sublattice with a unique interior operator.

    Inside the congruence lattice of the three-atom Boolean semilattice,
    close the four congruences
    a = [0][everything else], c = generated by (0, pq),
    x = generated by (0, p), z = generated by (0, q)
    under meets and joins. The result has coatoms a and c, admits exactly
    one interior operator (collapse everything below a), and that operator
    fails the dagger implication at (zeta, gamma, chi) = (z, c, x) while
    the lattice itself fails the bicoatomic refinement at (a, x, z).
    """
    s = _boolean_semilattice(3)
    idx = s.index
    a = make_congruence(s, [[0], list(range(1, s.n))])
    c = congruence_generated(s, [(0, idx["pq"])])
    x = congruence_generated(s, [(0, idx["p"])])
    z = congruence_generated(s, [(0, idx["q"])])
    conl = all_congruences(s)
    closed = complete_sublattice_closure(conl.lattice, map(conl.index_of, (a, c, x, z)))
    index = conl.lattice.poset.index
    members = [conl.congruences[index[lab]] for lab in closed.labels]
    lat, im, ordered = sublattice_interior(s, members)

    bottom = make_congruence(s, [[i] for i in range(s.n)])
    top = make_congruence(s, [list(range(s.n))])
    role = {
        a.rep: "a",
        c.rep: "c",
        x.rep: "x",
        z.rep: "z",
        meet_congruences(a, x).rep: "m2",
        meet_congruences(a, z).rep: "m3",
        meet_congruences(a, c).rep: "m1",
        bottom.rep: "0",
        top.rep: "1",
    }
    if set(role) != {t.rep for t in ordered}:
        raise InvariantViolation("unexpected closure: not the nine expected congruences")
    labels = tuple(role[t.rep] for t in ordered)
    lat2 = lattice_of(lambda: labels, lat.down)
    im2 = InteriorMap(lat2, im.h)

    threshold_map = {
        "0": "0", "m2": "0", "m3": "0", "m1": "0", "a": "0",
        "x": "x", "z": "z", "c": "c", "1": "1",
    }
    claims = (
        Claim("element_count", 9),
        Claim("coatom_labels", ("a", "c")),
        Claim("eio_count", 1),
        Claim("eio_label_maps", (threshold_map,)),
        Claim("dagger_witness", {"zeta": "z", "gamma": "c", "chi": "x"}),
        Claim("bicoatomic_witness", {"p": "a", "u": "x", "v": "z"}),
        Claim("filterable_pass", True),
    )
    extra = {"ambient": s, "members": tuple(ordered), "interior": im2}
    return CorpusEntry("k_lattice", lat2, claims, extra)


_BUILDERS = {
    "boolean": (boolean, True),
    "chain": (chain, True),
    "omega": (omega, True),
    "m_infinity": (m_infinity, True),
    "m2": (m2, True),
    "p1": (p1, True),
    "k_lattice": (k_lattice, False),
}


def build_named(name: str, n: int | None = None) -> CorpusEntry:
    """Dispatch to a named builder; n is the size parameter where one applies."""
    if name not in _BUILDERS:
        raise ParamOutOfRange(f"unknown corpus name {name!r}; choose from {sorted(_BUILDERS)}")
    fn, wants_param = _BUILDERS[name]
    if wants_param:
        if n is None:
            raise ParamOutOfRange(f"corpus entry {name!r} needs a size parameter")
        return fn(n)
    if n is not None:
        raise ParamOutOfRange(f"corpus entry {name!r} takes no size parameter")
    return fn()


def _canonical_semilattices(n: int) -> list[OpSemilattice]:
    """The n-element carriers, one per isomorphism class, in first-reached order.

    Elements are placed one at a time, each maximal among those before it
    (Heitzig and Reinhold, "Counting finite lattices"), so every leaf is a
    linear extension of its order; the top is placed last, above all others.
    A leaf whose canonical key is new is emitted, relabelled by that key.
    """
    if n == 1:
        return [from_join_table(("0",), [[0]], 0)]
    seen: dict[tuple[int, ...], None] = {}
    out: list[OpSemilattice] = []
    down: list[int] = [1]
    # join[x][y] is the least upper bound of x and y among the elements
    # placed so far, or None while they have none. A new element i is maximal
    # among 0..i, so it is a second minimal upper bound of x, y exactly when
    # both lie below i and their join so far is defined but not below i.
    join: list[list[int | None]] = [[None] * n for _ in range(n)]
    join[0][0] = 0

    def place(i: int, below: int) -> list[tuple[int, int]] | None:
        """Put i above ``below``: the pairs i becomes the join of, or None."""
        members = list(iter_bits(below))
        pairs = list(itertools.combinations(members, 2))
        if any(join[x][y] is not None and not below >> join[x][y] & 1 for x, y in pairs):
            return None
        new = [(x, y) for x, y in pairs if join[x][y] is None] + [(x, i) for x in members]
        for x, y in new:
            join[x][y] = join[y][x] = i
        join[i][i] = i
        return new

    def emit() -> None:
        if any(None in row for row in join):
            raise InvariantViolation("carrier leaf with a partial join table")
        key = canonical_key(join)
        if key in seen:
            return
        seen[key] = None
        labels = tuple(["0"] + [f"e{i}" for i in range(1, n)])
        canon = [[key[r * n + c] for c in range(n)] for r in range(n)]
        out.append(from_join_table(labels, canon, 0))

    def extend(i: int) -> None:
        if i == n:
            emit()
            return
        # The new element's strict downset: a downset of 0..i-1 holding 0.
        # The last element of a linear extension of a lattice is its top.
        last = i == n - 1
        for below in [(1 << i) - 1] if last else sorted(closed_sets(None, 1, rows=tuple(down))):
            new = place(i, below)
            if new is not None:
                down.append(below | (1 << i))
                extend(i + 1)
                down.pop()
                for x, y in new:
                    join[x][y] = join[y][x] = None

    extend(1)
    return out


@cache
def enumerate_semilattices(max_elements: int) -> tuple[OpSemilattice, ...]:
    """One representative per isomorphism class, sizes 1 through the bound (<= 8).

    Built once per bound, so callers share the carriers and their order data.
    """
    if max_elements < 1:
        raise ParamOutOfRange("need at least one element")
    if max_elements > 8:
        raise BudgetExceeded("elements", 8)
    out: list[OpSemilattice] = []
    for n in range(1, max_elements + 1):
        out.extend(_canonical_semilattices(n))
    return tuple(out)


def named_by_size(structures: Iterable, prefix: str = "S") -> list[tuple[str, object]]:
    """Name each structure ``{prefix}{n}-{k}``: the k-th one with n elements, from 0."""
    per_size: dict[int, int] = {}
    out = []
    for s in structures:
        k = per_size[s.n] = per_size.get(s.n, -1) + 1
        out.append((f"{prefix}{s.n}-{k}", s))
    return out


@dataclass
class Catalog:
    parameters: dict
    names: tuple[str, ...]
    entries: tuple[OpSemilattice, ...]

    def __iter__(self):
        return iter(zip(self.names, self.entries))


# A base with more endomorphisms than this gets a seeded sample of them as
# single operators; with two operators, this many seeded pairs are added.
_SINGLES_CAP = 12
_PAIR_SAMPLES = 4


def generate_catalog(max_elements: int, max_operators: int = 0, seed: int = 0) -> Catalog:
    """Catalog of small semilattices, optionally decorated with operators.

    Every isomorphism class up to the element bound appears bare. With an
    operator budget of one, each base gains its endomorphisms as single
    operators (all of them, or a seeded sample when there are more than
    ``_SINGLES_CAP``); with a budget of two, ``_PAIR_SAMPLES`` seeded pairs
    are added as well.
    """
    if max_operators < 0:
        raise ParamOutOfRange("operator budget cannot be negative")
    rng = random.Random(seed)
    names: list[str] = []
    entries: list[OpSemilattice] = []
    for base_name, s in named_by_size(enumerate_semilattices(max_elements)):
        names.append(base_name)
        entries.append(s)
        if max_operators >= 1:
            endos = all_endomorphisms(s)
            if len(endos) > _SINGLES_CAP:
                chosen = sorted(rng.sample(endos, _SINGLES_CAP))
            else:
                chosen = list(endos)
            for j, f in enumerate(chosen):
                names.append(f"{base_name}+f{j}")
                entries.append(s.with_operators([("f", f)]))
            if max_operators >= 2 and len(endos) >= 2:
                for t in range(_PAIR_SAMPLES):
                    f, g = rng.sample(endos, 2)
                    names.append(f"{base_name}+pair{t}")
                    entries.append(s.with_operators([("f", f), ("g", g)]))
    params = {"max_elements": max_elements, "max_operators": max_operators, "seed": seed}
    return Catalog(params, tuple(names), tuple(entries))
