"""Named verification suites shared by the command line and the test suite.

Each suite runs one theorem-shaped check over a deterministic corpus:
the exhaustive small-structure catalog (optionally decorated with
operators), the named corpus entries, and the enumerated interior maps on
small lattices. A suite returns a list of CheckOutcome rows; a run passes
when no row failed (skips do not count as failures).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .congruence import _simple_over, all_congruences
from .corpus import (
    boolean,
    enumerate_semilattices,
    generate_catalog,
    k_lattice,
    named_by_size,
    omega,
)
from .errors import ParamOutOfRange
from .galois import _filterable_interior, check_filterable, verify_consl
from .interior import (
    check_axioms,
    check_bicoatomic,
    check_coatom_dependence,
    check_four_coatom,
    enumerate_eios,
    natural_eta,
)
from .semilattice import all_endomorphisms

_SCAN_MAX_ELEMENTS = 6
_EQUAINT = ("I1", "I2", "I3", "I4", "I5", "I6", "I7")


@dataclass(frozen=True)
class CheckOutcome:
    check: str
    structure: str
    passed: bool | None
    witness: dict | None = None
    note: str | None = None

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


def all_passed(outcomes) -> bool:
    return all(o.passed is not False for o in outcomes)


@cache
def catalog_for_acceptance(seed: int = 0) -> list[tuple[str, object]]:
    """The deterministic corpus used by the operator-aware suites.

    Every isomorphism class up to six elements, decorated with single
    operators (all endomorphisms, or a seeded sample of twelve when there
    are more) and four seeded operator pairs, plus the predecessor chains
    and the two-atom Boolean semilattice. Built once per seed; pass the seed
    positionally, since ``f(0)`` and ``f(seed=0)`` are distinct cache keys.
    """
    cat = generate_catalog(6, max_operators=2, seed=seed)
    pairs: list[tuple[str, object]] = list(zip(cat.names, cat.entries))
    for n in range(1, 7):
        entry = omega(n)
        pairs.append((entry.name, entry.structure))
    b2 = boolean(2)
    pairs.append((b2.name, b2.structure))
    return pairs


@cache
def _natural_reports(seed: int):
    """(name, check_axioms report) of the zero-class collapse map of each catalog Con lattice.

    Only the rows are kept, so the Con lattices and maps can be freed.
    """
    rows = []
    for name, s in catalog_for_acceptance(seed):
        conl = all_congruences(s)
        rows.append((name, check_axioms(conl.lattice, natural_eta(s, conl))))
    return rows


@cache
def _implication_instances():
    """Every (lattice, interior map) pair on the small-lattice corpus.

    Lattices: all isomorphism classes up to seven elements plus the
    three-atom Boolean lattice; maps: every operator passing the default
    interior axioms.
    """
    lattices = [(name, s.lattice) for name, s in named_by_size(enumerate_semilattices(7), "L")]
    lattices.append(("boolean(3)", boolean(3).structure.lattice))
    rows = []
    for lname, lat in lattices:
        for i, im in enumerate(enumerate_eios(lat)):
            rows.append((f"{lname}#h{i}", lname, lat, im, check_axioms(lat, im)))
    return rows


@cache
def _dependence_reports():
    return [
        (name, check_coatom_dependence(lat, im))
        for name, lname, lat, im, report in _implication_instances()
    ]


def suite_consl(seed: int = 0) -> list[CheckOutcome]:
    """Congruence/ideal-family duality on every bare semilattice up to six elements."""
    out = []
    for name, s in named_by_size(enumerate_semilattices(6)):
        res = verify_consl(s)
        out.append(CheckOutcome("consl", name, res.passed, res.witness, res.note))
    return out


def _axiom_outcome(check_name: str, structure: str, report, axiom_names) -> CheckOutcome:
    """One row: the first failing axiom, else the first skipped one, else a pass."""
    verdicts = [(ax, report.verdict(ax)) for ax in axiom_names]
    for ax, v in verdicts:
        if v.passed is False:
            return CheckOutcome(check_name, structure, False, v.witness, f"failing axiom {ax}")
    for ax, v in verdicts:
        if v.passed is None:
            return CheckOutcome(check_name, structure, None, None, f"{ax} {v.note}")
    note = report.verdict("I9").note if check_name == "twelve" else None
    return CheckOutcome(check_name, structure, True, None, note)


def _axiom_suite(check_name: str, axiom_names: tuple[str, ...], seed: int) -> list[CheckOutcome]:
    return [
        _axiom_outcome(check_name, name, report, axiom_names)
        for name, report in _natural_reports(seed)
    ]


def suite_equaint(seed: int = 0) -> list[CheckOutcome]:
    """The zero-class collapse map passes I1 through I7 on every catalog entry."""
    return _axiom_suite("equaint", _EQUAINT, seed)


def suite_prop(seed: int = 0) -> list[CheckOutcome]:
    """The zero-class collapse map passes dagger and ddagger on every catalog entry."""
    return _axiom_suite("prop", ("dagger", "ddagger"), seed)


def suite_twelve(seed: int = 0) -> list[CheckOutcome]:
    """The zero-class collapse map passes I9 on every catalog entry."""
    return _axiom_suite("twelve", ("I9",), seed)


def suite_bicoatom(seed: int = 0) -> list[CheckOutcome]:
    """Lattices carrying a dagger-passing interior map are bicoatomic."""
    by_lattice: dict[str, tuple] = {}
    dagger_count: dict[str, int] = {}
    for name, lname, lat, im, report in _implication_instances():
        by_lattice.setdefault(lname, (lname, lat))
        if report.verdict("dagger").passed:
            dagger_count[lname] = dagger_count.get(lname, 0) + 1
    out = []
    for lname, lat in by_lattice.values():
        k = dagger_count.get(lname, 0)
        if k == 0:
            out.append(CheckOutcome("bicoatom", lname, None, None, "skip: no dagger-passing map"))
            continue
        res = check_bicoatomic(lat)
        out.append(CheckOutcome("bicoatom", lname, res.passed, res.witness,
                                f"dagger-passing maps: {k}"))
    return out


def suite_four_coatom(seed: int = 0) -> list[CheckOutcome]:
    """Dagger-passing interior maps satisfy the four-coatom implication."""
    out = []
    for name, lname, lat, im, report in _implication_instances():
        if not report.verdict("dagger").passed:
            out.append(CheckOutcome("four-coatom", name, None, None, "skip: dagger fails"))
            continue
        res = check_four_coatom(lat, im)
        out.append(CheckOutcome("four-coatom", name, res.passed, res.witness))
    return out


def _june_suite(entry_name: str, seed: int) -> list[CheckOutcome]:
    out = []
    for name, dep in _dependence_reports():
        v = dep.verdict(entry_name)
        out.append(CheckOutcome(entry_name, name, v.passed, v.witness, v.note))
    return out


def suite_june1(seed: int = 0) -> list[CheckOutcome]:
    """Coatom dependence: the join identity over maximal families."""
    return _june_suite("june1", seed)


def suite_june2(seed: int = 0) -> list[CheckOutcome]:
    """Coatom dependence: the four per-triple conclusions."""
    return _june_suite("june2", seed)


def suite_june5(seed: int = 0) -> list[CheckOutcome]:
    """Coatom dependence under I9: per-coatom families share the join identity."""
    return _june_suite("june5", seed)


def suite_june6(seed: int = 0) -> list[CheckOutcome]:
    """Coatom dependence under I9: meets of witnesses stay off the coatom."""
    return _june_suite("june6", seed)


def suite_filterable(seed: int = 0) -> list[CheckOutcome]:
    """Operator congruence lattices are filterable, and induce interior maps.

    For every decorated catalog entry: the operator-respecting congruences
    form a filterable sublattice of the reduct congruence lattice, and the
    induced zero-class collapse map passes I1 through I7. The nine-element
    reconstruction is included as the standing nontrivial example.
    """
    out = []
    entry = k_lattice()
    res = check_filterable(entry.extra["ambient"], entry.extra["members"])
    out.append(CheckOutcome("filterable", entry.name, res.passed, res.witness, res.note))
    for name, s in catalog_for_acceptance(seed):
        if not getattr(s, "operators", ()):
            continue
        res, induced = _filterable_interior(s, all_congruences(s).congruences)
        out.append(CheckOutcome("filterable", name, res.passed, res.witness, res.note))
        if induced is None:
            out.append(CheckOutcome("filterable-interior", name, None, None,
                                    "skip: family is not filterable"))
            continue
        lat, im, _ = induced
        out.append(_axiom_outcome("filterable-interior", name, check_axioms(lat, im), _EQUAINT))
    return out


def suite_simple_scan(seed: int = 0) -> list[CheckOutcome]:
    """Semilattices with one operator and only two congruences have two elements."""
    out = []
    for name, s in named_by_size(enumerate_semilattices(_SCAN_MAX_ELEMENTS)):
        carrier_con, endos = all_congruences(s), all_endomorphisms(s)
        simple = 0
        witness = None
        for f in endos:
            if _simple_over(carrier_con, s.with_operators([("f", f)]).operators):
                simple += 1
                if s.n != 2 and witness is None:
                    witness = {"operator": ",".join(s.labels[v] for v in f)}
        out.append(CheckOutcome(
            "simple-scan", name, witness is None, witness,
            f"endomorphisms={len(endos)}, simple instances={simple}",
        ))
    return out


def suite_coatomistic(seed: int = 0) -> list[CheckOutcome]:
    """Every element of an operator-free congruence lattice is a meet of coatoms."""
    out = []
    for name, s in named_by_size(enumerate_semilattices(_SCAN_MAX_ELEMENTS)):
        conl = all_congruences(s)
        lat = conl.lattice
        witness = None
        for v in range(lat.n):
            above = [c for c in lat.coatoms if lat.leq(v, c)]
            if lat.meet_all(above) != v:
                witness = {"element": lat.labels[v]}
                break
        out.append(CheckOutcome("coatomistic", name, witness is None, witness,
                                f"|Con|={lat.n}"))
    return out


SUITES = {
    "consl": suite_consl,
    "equaint": suite_equaint,
    "prop": suite_prop,
    "twelve": suite_twelve,
    "bicoatom": suite_bicoatom,
    "four-coatom": suite_four_coatom,
    "june1": suite_june1,
    "june2": suite_june2,
    "june5": suite_june5,
    "june6": suite_june6,
    "filterable": suite_filterable,
    "simple-scan": suite_simple_scan,
    "coatomistic": suite_coatomistic,
}


def run_suite(name: str, seed: int = 0) -> list[CheckOutcome]:
    if name not in SUITES:
        raise ParamOutOfRange(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
