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
from eqlat import congruence, corpus, galois, interior, order, semilattice
from eqlat.congruence import all_congruences, all_don, all_eon, is_simple
from eqlat.corpus import boolean, chain, m2, omega, run_claims
from eqlat.errors import BudgetExceeded, SearchBudgetExceeded
from eqlat.galois import algebraic_subsets, ideal_lattice, quasiorder_from_pairs
from eqlat.interior import enumerate_eios
from eqlat.order import canonical_key
from eqlat.semilattice import operator_monoid


def _evidence(entry) -> None:
    """run_claims as a search: an evidence note reporting a blown cap is raised."""
    for r in run_claims(entry):
        assert r.passed
        skipped = re.fullmatch(r"evidence search skipped: more than (\d+) (.+) exceed cap \1", r.note or "")
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


# Caps that bound no search: the I9 state cap turns into a skip, not a
# BudgetExceeded, and the singles cap is a sample size.
_NOT_SEARCH_CAPS = {("interior", "_I9_STATE_CAP"), ("corpus", "_SINGLES_CAP")}


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


def test_there_is_one_budget_class():
    assert SearchBudgetExceeded is BudgetExceeded
    assert eqlat.SearchBudgetExceeded is eqlat.BudgetExceeded


def test_no_module_reads_the_environment():
    for path in sorted(Path(eqlat.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "environ" not in text and "getenv" not in text, path.name
