"""The budget contract: one exception class, one fixed cap per search.

Each search is run with its private cap set to exactly the number of items
it counts (it must finish) and to one less (it must raise BudgetExceeded,
whose message names the cap).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import eqlat
from eqlat import checks, congruence, corpus, galois, interior, order, semilattice
from eqlat.congruence import all_congruences, all_don, all_eon, is_simple
from eqlat.corpus import boolean, chain, m2, omega, run_claims
from eqlat.errors import BudgetExceeded, SearchBudgetExceeded
from eqlat.galois import algebraic_subsets, ideal_lattice, quasiorder_from_pairs
from eqlat.interior import DEFAULT_EIO_AXIOMS, InteriorMap, Verdict, enumerate_eios
from eqlat.order import canonical_key, lattice_of
from eqlat.semilattice import operator_monoid


def _evidence(entry) -> None:
    """run_claims as a search: an evidence note reporting a blown cap is raised."""
    for r in run_claims(entry):
        skipped = re.fullmatch(r"evidence search skipped: more than (\d+) (.+) exceed cap \1", r.note or "")
        assert r.passed is (None if skipped else True), r
        if skipped:
            raise BudgetExceeded(skipped[2], int(skipped[1]))
        assert r.note is None or r.note.startswith("observed="), r.note


_B2 = boolean(2).structure

CAPPED_SEARCHES = [
    pytest.param(congruence, "_CON_CAP", lambda: all_congruences(_B2), 7, "congruences",
                 id="all_congruences"),
    # The relation views are images of Con and inherit its cap.
    pytest.param(congruence, "_CON_CAP", lambda: all_don(chain(2).structure), 4, "congruences",
                 id="all_don"),
    pytest.param(congruence, "_CON_CAP", lambda: all_eon(chain(2).structure), 4, "congruences",
                 id="all_eon"),
    # The natural-map batch walks each carrier's Con, the largest omega(6)'s
    # 7-element chain (2^6), and filters it per decoration.
    pytest.param(congruence, "_CON_CAP", lambda: checks._natural_reports.__wrapped__(0), 64,
                 "congruences", id="natural_reports"),
    # The con-scan suites share one Con per carrier up to six elements, the
    # largest S6-14's, the 6-element chain's (2^5).
    pytest.param(congruence, "_CON_CAP", lambda: checks._scan_carriers.__wrapped__(), 32,
                 "congruences", id="scan_carriers"),
    # is_simple reads the carrier's Con, so it inherits the cap too.
    pytest.param(congruence, "_CON_CAP", lambda: is_simple(omega(2).structure), 4, "congruences",
                 id="is_simple"),
    pytest.param(semilattice, "_MONOID_CAP", lambda: operator_monoid(omega(3).structure), 4,
                 "monoid maps", id="operator_monoid"),
    pytest.param(galois, "_SUBSET_CAP", lambda: algebraic_subsets(ideal_lattice(_B2)), 7,
                 "closed sets", id="algebraic_subsets"),
    pytest.param(galois, "_SUBSET_CAP",
                 lambda: galois._closed_sub_members(quasiorder_from_pairs(_B2, [])), 7,
                 "closed sets", id="closed_sub_members"),
    pytest.param(interior, "_EIO_NODE_CAP", lambda: enumerate_eios(_B2.lattice), 11,
                 "search nodes", id="enumerate_eios"),
    # I9 skips a map past its state cap; a search that selects I9 raises.
    # The first of boolean(2)'s three maps closes 5 family states.
    pytest.param(interior, "_I9_STATE_CAP",
                 lambda: enumerate_eios(_B2.lattice, DEFAULT_EIO_AXIOMS | {"I9"}), 5,
                 "I9 family states", id="enumerate_eios_i9"),
    # boolean(2) has one class of two atoms: 2! relabellings.
    pytest.param(order, "_RELABEL_CAP", lambda: canonical_key(_B2.join_t), 2, "relabellings",
                 id="canonical_key"),
    pytest.param(corpus, "_EVIDENCE_CAP", lambda: _evidence(m2(1)), 15, "search nodes",
                 id="run_claims"),
]


@pytest.mark.parametrize("module,cap,run,count,what", CAPPED_SEARCHES)
def test_each_search_stops_one_past_its_cap(monkeypatch, module, cap, run, count, what):
    monkeypatch.setattr(module, cap, count)
    run()
    monkeypatch.setattr(module, cap, count - 1)
    with pytest.raises(BudgetExceeded, match=f"^more than {count - 1} {what} exceed cap {count - 1}$") as info:
        run()
    assert (info.value.what, info.value.cap) == (what, count - 1)


# The one cap that bounds no search: the singles cap is a sample size.
_NOT_SEARCH_CAPS = {("corpus", "_SINGLES_CAP")}


def test_every_cap_has_a_capped_search():
    caps = set()
    for path in sorted(Path(eqlat.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            caps |= {(path.stem, t.id) for t in targets
                     if isinstance(t, ast.Name) and re.fullmatch(r"_\w+_CAP", t.id)}
    rows = {(p.values[0].__name__.rpartition(".")[2], p.values[1]) for p in CAPPED_SEARCHES}
    assert _NOT_SEARCH_CAPS <= caps
    assert caps - _NOT_SEARCH_CAPS == rows


def test_i9_skips_a_lattice_whose_states_could_pass_its_bit_bound(monkeypatch):
    # A state is n*ceil(n/8) bytes, so the cap's 2^14 states stay within 2^32
    # bits up to n = 512. Past that, I9 is skipped before a generator is built,
    # and holds names the element bound, not the state cap.
    big = lattice_of(lambda: [str(m) for m in range(1024)], range(1024))
    im = InteriorMap(big, tuple(range(big.n)))
    note = "skipped: 1024 elements exceed 512; 16384 states of n^2 bits pass 2^32 bits"
    assert im.verdict("I9") == Verdict(None, None, note)
    with pytest.raises(BudgetExceeded, match="^more than 512 I9 lattice elements exceed cap 512$"):
        im.holds("I9")
    # The bound moves with the cap: at 2^28 states, 4 elements are decided and 5 are not.
    monkeypatch.setattr(interior, "_I9_STATE_CAP", 1 << 28)
    chain5 = lattice_of(lambda: "abcde", [0, 1, 3, 7, 15])
    assert InteriorMap(_B2.lattice, (0, 1, 2, 3)).verdict("I9").passed is True
    assert InteriorMap(chain5, (0, 1, 2, 3, 4)).verdict("I9").note.startswith("skipped: 5 elements exceed 4;")


def test_there_is_one_budget_class():
    assert SearchBudgetExceeded is BudgetExceeded
    assert eqlat.SearchBudgetExceeded is eqlat.BudgetExceeded


def test_no_module_reads_the_environment():
    for path in sorted(Path(eqlat.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name
