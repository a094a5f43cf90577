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

from .congruence import _Batch, _simple_over, all_congruences
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
from .interior import check_axioms, check_bicoatomic, check_coatom_dependence, check_four_coatom
from .interior import Verdict, enumerate_eios, natural_eta
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

    One ``_Batch`` reads each Con off its carrier's, walked once per join
    table. Con lattices with equal up rows share tables, and maps with equal
    (up rows, eta) share tau and the verdicts in the batch's stores, which
    ``natural_eta`` reads off each Con, so each is computed once per key;
    witnesses are labelled per entry. Only the rows are kept.
    """
    batch = _Batch()
    return [(name, check_axioms(conl.lattice, natural_eta(s, conl)))
            for name, s in catalog_for_acceptance(seed) for conl in [batch.con(s)]]


@cache
def _implication_instances():
    """Every (name, lattice name, lattice, interior map) on the small-lattice corpus.

    Lattices: all isomorphism classes up to seven elements plus the
    three-atom Boolean lattice; maps: every operator passing the default
    interior axioms. No battery runs here: each suite reads the verdicts it
    reports (dagger, I5, I9) off the map's own record, so the rest are never
    computed.
    """
    lattices = [(name, s.lattice) for name, s in named_by_size(enumerate_semilattices(7), "L")]
    lattices.append(("boolean(3)", boolean(3).structure.lattice))
    return [(f"{lname}#h{i}", lname, lat, im)
            for lname, lat in lattices for i, im in enumerate(enumerate_eios(lat))]


@cache
def _dependence_reports():
    return [
        (name, check_coatom_dependence(lat, im))
        for name, lname, lat, im in _implication_instances()
    ]


@cache
def _scan_carriers():
    """(name, carrier, Con) per bare semilattice up to ``_SCAN_MAX_ELEMENTS`` elements.

    Con is walked once per carrier; simple-scan, coatomistic and consl read it.
    """
    return [(name, s, all_congruences(s))
            for name, s in named_by_size(enumerate_semilattices(_SCAN_MAX_ELEMENTS))]


def _rows(check: str, pairs) -> list[CheckOutcome]:
    """One row per (structure name, Verdict) pair."""
    return [CheckOutcome(check, name, v.passed, v.witness, v.note) for name, v in pairs]


def suite_consl(seed: int = 0) -> list[CheckOutcome]:
    """Congruence/ideal-family duality on every bare semilattice up to six elements."""
    return _rows("consl", [(name, verify_consl(conl)) for name, s, conl in _scan_carriers()])


def _axiom_verdict(report, axiom_names) -> Verdict:
    """The first failing axiom, else the first skipped one, else a pass with a lone axiom's note."""
    verdicts = [(ax, report.verdict(ax)) for ax in axiom_names]
    for ax, v in verdicts:
        if v.passed is False:
            return Verdict(False, v.witness, f"failing axiom {ax}")
    for ax, v in verdicts:
        if v.passed is None:
            return Verdict(None, note=f"{ax} {v.note}")
    return Verdict(True, None, verdicts[0][1].note if len(verdicts) == 1 else None)


def _axiom_suite(check: str, axiom_names: tuple[str, ...]):
    """The suite giving each natural map's verdict on ``axiom_names``."""
    def suite(seed: int = 0) -> list[CheckOutcome]:
        return _rows(check, [(name, _axiom_verdict(report, axiom_names))
                             for name, report in _natural_reports(seed)])
    return suite


def suite_bicoatom(seed: int = 0) -> list[CheckOutcome]:
    """Lattices carrying a dagger-passing interior map are bicoatomic."""
    lattices: dict[str, tuple] = {}  # lattice name: (lattice, its dagger-passing maps)
    for name, lname, lat, im in _implication_instances():
        k = lattices.get(lname, (lat, 0))[1]
        lattices[lname] = (lat, k + (im.verdict("dagger").passed is True))
    pairs = []
    for lname, (lat, k) in lattices.items():
        if k == 0:
            pairs.append((lname, Verdict(None, note="skip: no dagger-passing map")))
        else:
            res = check_bicoatomic(lat)
            pairs.append((lname, Verdict(res.passed, res.witness, f"dagger-passing maps: {k}")))
    return _rows("bicoatom", pairs)


def suite_four_coatom(seed: int = 0) -> list[CheckOutcome]:
    """Dagger-passing interior maps satisfy the four-coatom implication."""
    pairs = []
    for name, lname, lat, im in _implication_instances():
        if im.verdict("dagger").passed:
            pairs.append((name, check_four_coatom(lat, im)))
        else:
            pairs.append((name, Verdict(None, note="skip: dagger fails")))
    return _rows("four-coatom", pairs)


def _june_suite(entry: str):
    """The suite reading the ``entry`` verdict off each map's coatom-dependence report."""
    def suite(seed: int = 0) -> list[CheckOutcome]:
        return _rows(entry, [(name, dep.verdict(entry)) for name, dep in _dependence_reports()])
    return suite


def suite_filterable(seed: int = 0) -> list[CheckOutcome]:
    """Operator congruence lattices are filterable, and induce interior maps.

    For every decorated catalog entry: the operator-respecting congruences
    form a filterable sublattice of the reduct congruence lattice, and the
    induced zero-class collapse map passes I1 through I7. The nine-element
    reconstruction is included as the standing nontrivial example.
    """
    entry = k_lattice()
    out = _rows("filterable", [(entry.name, check_filterable(entry.extra["ambient"],
                                                             entry.extra["members"]))])
    for name, s in catalog_for_acceptance(seed):
        if not getattr(s, "operators", ()):
            continue
        res, induced = _filterable_interior(s, all_congruences(s).congruences)
        if induced is None:
            induced_verdict = Verdict(None, note="skip: family is not filterable")
        else:
            lat, im, _ = induced
            induced_verdict = _axiom_verdict(check_axioms(lat, im), _EQUAINT)
        out += _rows("filterable", [(name, res)])
        out += _rows("filterable-interior", [(name, induced_verdict)])
    return out


def suite_simple_scan(seed: int = 0) -> list[CheckOutcome]:
    """Semilattices with one operator and only two congruences have two elements."""
    pairs = []
    for name, s, conl in _scan_carriers():
        endos = all_endomorphisms(s)
        simple = 0
        witness = None
        for f in endos:
            if _simple_over(conl.congruences, [("f", f)]):
                simple += 1
                if s.n != 2 and witness is None:
                    witness = {"operator": ",".join(s.labels[v] for v in f)}
        note = f"endomorphisms={len(endos)}, simple instances={simple}"
        pairs.append((name, Verdict(witness is None, witness, note)))
    return _rows("simple-scan", pairs)


def suite_coatomistic(seed: int = 0) -> list[CheckOutcome]:
    """Every element of an operator-free congruence lattice is a meet of coatoms."""
    pairs = []
    for name, s, conl in _scan_carriers():
        lat = conl.lattice
        witness = None
        for v in range(lat.n):
            above = [c for c in lat.coatoms if lat.leq(v, c)]
            if lat.meet_all(above) != v:
                witness = {"element": lat.labels[v]}
                break
        pairs.append((name, Verdict(witness is None, witness, f"|Con|={lat.n}")))
    return _rows("coatomistic", pairs)


SUITES = {
    "consl": suite_consl,
    # The zero-class collapse map passes I1 through I7 on every catalog entry.
    "equaint": _axiom_suite("equaint", _EQUAINT),
    # The zero-class collapse map passes dagger and ddagger on every catalog entry.
    "prop": _axiom_suite("prop", ("dagger", "ddagger")),
    # The zero-class collapse map passes I9 on every catalog entry.
    "twelve": _axiom_suite("twelve", ("I9",)),
    "bicoatom": suite_bicoatom,
    "four-coatom": suite_four_coatom,
    # Coatom dependence: the join identity over maximal families.
    "june1": _june_suite("june1"),
    # Coatom dependence: the four per-triple conclusions.
    "june2": _june_suite("june2"),
    # Coatom dependence under I9: per-coatom families share the join identity.
    "june5": _june_suite("june5"),
    # Coatom dependence under I9: meets of witnesses stay off the coatom.
    "june6": _june_suite("june6"),
    "filterable": suite_filterable,
    "simple-scan": suite_simple_scan,
    "coatomistic": suite_coatomistic,
}


def run_suite(name: str, seed: int = 0) -> list[CheckOutcome]:
    if name not in SUITES:
        raise ParamOutOfRange(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)
