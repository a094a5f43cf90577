from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from eqlat import checks, cli, interior
from eqlat.checks import (
    SUITES,
    _axiom_verdict,
    all_passed,
    catalog_for_acceptance,
    run_suite,
)
from eqlat.cli import main
from eqlat.congruence import all_congruences, make_congruence
from eqlat.corpus import Claim, boolean, build_named
from eqlat.errors import ParamOutOfRange
from eqlat.interior import check_axioms, natural_eta

EXPECTED_SUITES = {
    "consl", "equaint", "prop", "twelve", "bicoatom", "four-coatom",
    "june1", "june2", "june5", "june6", "filterable", "simple-scan",
    "coatomistic",
}


def test_suite_registry_is_complete():
    assert set(SUITES) == EXPECTED_SUITES


def test_acceptance_catalog_is_deterministic_and_sized():
    cat = catalog_for_acceptance(0)
    names = [name for name, _ in cat]
    assert len(names) == len(set(names)) == 401
    again = [name for name, _ in catalog_for_acceptance(0)]
    assert names == again


SUITE_ROWS_DIGESTS = {
    0: "201d28e194ebd8a77c8b937ef898c7418865882260cd0ecadd86df6787067688",
    1: "0b355fd08fc9869ac00b6e7d03001c4b001048080c30b2bcb3c92d1bd6c8957a",
    2: "a7cead1f55f390aa148425185713221af3aec01115c31c415edb8f6b045ef184",
}


@pytest.mark.parametrize("seed", sorted(SUITE_ROWS_DIGESTS))
def test_suite_rows_are_pinned(seed):
    rows = [o.to_json() + "\n" for name in sorted(SUITES) for o in run_suite(name, seed)]
    assert len(rows) == 3985
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == SUITE_ROWS_DIGESTS[seed]


def test_consl_suite_outcomes():
    outcomes = run_suite("consl")
    assert len(outcomes) == 25
    assert all(o.verdict == "pass" for o in outcomes)
    assert all_passed(outcomes)
    one = outcomes[0].as_dict()
    assert {"check", "structure", "verdict"} <= set(one)
    json.loads(outcomes[0].to_json())


def test_suites_reach_the_public_checks(monkeypatch):
    # The suites call the public checks through the names checks binds, so a
    # tracer that wraps those bindings sees every call.
    calls = {"verify_consl": 0, "natural_eta": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    checks.suite_consl()
    checks._natural_reports.__wrapped__(0)
    assert calls == {"verify_consl": 25, "natural_eta": 401}


def test_june2_suite_runs_over_all_instances():
    outcomes = run_suite("june2")
    assert len(outcomes) == 382
    assert all_passed(outcomes)


def test_june5_suite_skips_only_failed_hypotheses():
    outcomes = run_suite("june5")
    skips = [o for o in outcomes if o.verdict == "skip"]
    assert len(skips) == 3
    assert all_passed(outcomes)
    for o in skips:
        assert "hypothesis" in (o.note or "")


def test_axiom_rows_report_a_skipped_axiom_as_a_skip(monkeypatch):
    monkeypatch.setattr(interior, "_I9_STATE_CAP", 1)
    s = boolean(2).structure
    conl = all_congruences(s)
    report = check_axioms(conl.lattice, natural_eta(s, conl))
    verdict = _axiom_verdict(report, ("I9",))
    assert verdict.passed is None and "exceed cap" in verdict.note
    verdict = _axiom_verdict(report, ("I1", "I2", "I3", "I4", "I5", "I6", "I7"))
    assert verdict.passed is True


def test_unknown_suite_is_rejected():
    with pytest.raises(ParamOutOfRange):
        run_suite("bogus")


@pytest.fixture()
def b2_file(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(boolean(2).structure.to_json())
    return str(path)


def test_cli_con_prints_congruence_lattice(b2_file, capsys):
    assert main(["con", b2_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 7


def test_cli_eta_tau(b2_file, capsys):
    code = main(["eta-tau", b2_file, "--congruence", "[0,p][q,1]"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eta"] == data["congruence"] == data["tau"] == "[0 p][q 1]"


def test_cli_eta_tau_when_the_operators_generate_every_atom_map(atom_maps_b6, tmp_path, capsys):
    path = tmp_path / "b6.json"
    path.write_text(atom_maps_b6.to_json())
    rest = atom_maps_b6.labels[1:]
    assert main(["eta-tau", str(path), "--congruence", "[0][" + ",".join(rest) + "]"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["eta"] == "[" + "][".join(atom_maps_b6.labels) + "]"
    assert data["tau"] == data["congruence"] == "[0][" + " ".join(rest) + "]"


def test_cli_eta_tau_rejects_garbage_blocks(b2_file, capsys):
    assert main(["eta-tau", b2_file, "--congruence", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["eta-tau", b2_file, "--congruence", "[0][x]"]) == 2
    assert "error: unknown label 'x' in --congruence" in capsys.readouterr().err


def test_cli_eta_tau_rejects_a_partition_that_is_no_congruence(b2_file, capsys):
    assert main(["eta-tau", b2_file, "--congruence", "[0,p][q][1]"]) == 2
    assert "not a congruence: ('q', '1') is forced" in capsys.readouterr().err


def test_cli_check_axioms_pass_and_fail(b2_file, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"map": {"0": "0", "p": "p", "q": "q", "1": "1"}}))
    assert main(["check-axioms", b2_file, "--map", str(good)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["I1"]["passed"] and report["dagger"]["passed"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"map": {"0": "0", "p": "p", "q": "q", "1": "q"}}))
    assert main(["check-axioms", b2_file, "--map", str(bad)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["I2"]["passed"] is False


def test_cli_check_axioms_has_no_i9_knobs(b2_file, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"map": {"0": "0", "p": "p", "q": "q", "1": "1"}}))
    assert main(["check-axioms", b2_file, "--map", str(good), "--i9-bound", "0"]) == 2
    assert main(["check-axioms", b2_file, "--map", str(good), "--seed", "0"]) == 2


def test_cli_search_eio(b2_file, capsys):
    assert main(["search-eio", b2_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 3 and len(data["maps"]) == 3


def test_cli_verify_emits_one_json_line_per_outcome(capsys):
    assert main(["verify", "consl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 26
    summary = json.loads(lines[-1])
    assert summary == {
        "suite": "consl", "total": 25, "failed": 0, "skipped": 0, "verdict": "pass",
    }


def test_cli_verify_runs_the_filterable_suite(capsys):
    assert main(["verify", "filterable"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 752
    checks = [json.loads(line)["check"] for line in lines[:-1]]
    assert (checks.count("filterable"), checks.count("filterable-interior")) == (376, 375)
    assert json.loads(lines[-1]) == {
        "suite": "filterable", "total": 751, "failed": 0, "skipped": 0, "verdict": "pass",
    }


def test_cli_verify_filterable_reports_a_family_that_is_not_filterable(monkeypatch, capsys):
    # [0][p q r pq pr qr 1] has 0-class {0}, whose collapse is the identity.
    b3 = boolean(3).structure
    s = b3.with_operators([("id", tuple(range(8)))])
    family = [make_congruence(b3, [[0], list(range(1, 8))]), make_congruence(b3, [list(range(8))])]
    monkeypatch.setattr(checks, "catalog_for_acceptance", lambda seed=0: [("B3+id", s)])
    monkeypatch.setattr(checks._Batch, "con", lambda self, _: SimpleNamespace(congruences=family))
    assert main(["verify", "filterable"]) == 1
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert rows[1:3] == [
        {"check": "filterable", "structure": "B3+id", "verdict": "fail",
         "witness": {"theta": "[0][p q r pq pr qr 1]"}, "note": "zero-class collapse leaves the family"},
        {"check": "filterable-interior", "structure": "B3+id", "verdict": "skip",
         "note": "skip: family is not filterable"},
    ]
    assert rows[3] == {"suite": "filterable", "total": 3, "failed": 1, "skipped": 1, "verdict": "fail"}


def test_cli_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "bogus"]) == 2


def test_cli_corpus_reports_claims(capsys):
    assert main(["corpus", "omega", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["name"] == "omega(3)" or data["name"].startswith("omega")
    assert all(c["verdict"] == "pass" for c in data["claims"])


def test_cli_corpus_reports_a_budget_skipped_search_as_a_skip(capsys):
    assert main(["corpus", "p1", "--n", "3"]) == 0
    rows = {c["check"]: c for c in json.loads(capsys.readouterr().out)["claims"]}
    assert rows["element_count"]["verdict"] == "pass"
    for check in ("eio_count", "eio_i9_all"):
        assert rows[check] == {
            "check": check, "structure": "p1(3)", "verdict": "skip",
            "note": "evidence search skipped: more than 16384 search nodes exceed cap 16384",
        }


def test_cli_corpus_exits_1_on_a_failing_claim(monkeypatch, capsys):
    def wrong_count(name, n=None):
        entry = build_named(name, n)
        return replace(entry, claims=(Claim("element_count", entry.structure.n + 1),) + entry.claims[1:])

    monkeypatch.setattr(cli, "build_named", wrong_count)
    assert main(["corpus", "omega", "--n", "3"]) == 1
    claims = json.loads(capsys.readouterr().out)["claims"]
    assert claims[0] == {"check": "element_count", "structure": "omega(3)", "verdict": "fail",
                         "witness": {"observed": "4", "expected": "5"}}
    assert [c["verdict"] for c in claims[1:]] == ["pass", "pass", "pass"]


def test_cli_corpus_requires_parameter(capsys):
    assert main(["corpus", "m_infinity"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_export_dot_and_json(tmp_path, capsys):
    out = tmp_path / "k.dot"
    assert main(["export", "k_lattice", "--format", "dot", "--out", str(out)]) == 0
    assert out.read_text().startswith("digraph")

    assert main(["export", "k_lattice", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["elements"]) == 9


def test_cli_export_round_trips_through_a_file(tmp_path, capsys):
    path = tmp_path / "b3.json"
    assert main(["export", "boolean", "--n", "3", "--format", "json", "--out", str(path)]) == 0
    assert main(["search-eio", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 22


def test_cli_malformed_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["con", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("con", '{"elements": 5}'),
    ("con", '{"elements": ["0", "a"], "covers": [["0", "a"]], "operators": ["f"]}'),
    ("con", '{"elements": ["0", "a"], "covers": 5}'),
    ("con", '{"elements": ["0", "a"], "covers": [["0"]]}'),
    ("con", '{"elements": ["0", "a"], "joins": [["0", "a"]]}'),
    ("con", '{"elements": [["0"]], "covers": []}'),
    ("con", '{"elements": ["0", "a"], "covers": [["0", "a"]], "operators": {"f": "0a"}}'),
    ("search-eio", "5"),
    ("export", '{"elements": 5}'),
])
def test_cli_malformed_json_shapes_are_usage_errors(tmp_path, capsys, command, text):
    path = tmp_path / "shape.json"
    path.write_text(text)
    args = [command, str(path)] + (["--format", "json"] if command == "export" else [])
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "[1]",
    '{"map": {"0": ["0"], "1": "1"}}',
    '{"map": 5}',
    '{"map": ["0", "p", "q", "1"]}',
])
def test_cli_malformed_map_files_are_usage_errors(b2_file, tmp_path, capsys, text):
    path = tmp_path / "map.json"
    path.write_text(text)
    assert main(["check-axioms", b2_file, "--map", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_map_labels_may_be_numbers(tmp_path, capsys):
    lattice = tmp_path / "chain.json"
    lattice.write_text(json.dumps({"elements": [0, 1], "covers": [[0, 1]]}))
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"0": 0, "1": 1}))
    assert main(["check-axioms", str(lattice), "--map", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["I1"]["passed"]


def test_cli_missing_file_is_a_usage_error(capsys):
    assert main(["con", "/nonexistent/x.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    assert main([]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_cmd_con", broken)
    assert main(["con", "any.json"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'bug'" in err


_LABELS = ("0", "a", "b", "1", "q")
_KEYS = ("elements", "covers", "joins", "zero", "operators", "map", "f")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats() | st.sampled_from(_LABELS),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_KEYS + _LABELS), inner, max_size=5),
    max_leaves=24,
)
_VALID = (
    {"elements": ["0", "a", "b", "1"], "covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]},
    {"elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]], "zero": "0",
     "operators": {"f": ["0", "0", "a"]}},
    {"map": {"0": "0", "a": "0", "b": "b", "1": "1"}},
)


@given(st.data())
def test_cli_exit_codes_on_any_json(tmp_path_factory, data):
    # Whatever the files hold, the CLI answers with an exit code, never a traceback.
    folder = tmp_path_factory.mktemp("fuzz")
    structure, map_file = folder / "structure.json", folder / "map.json"
    for path in (structure, map_file):
        path.write_text(json.dumps(data.draw(st.sampled_from(_VALID) | _JSON)))
    blocks = data.draw(st.text(alphabet="[]0ab1q, ", max_size=10) | st.lists(
        st.lists(st.sampled_from(_LABELS), max_size=4), max_size=4,
    ).map(lambda bs: "".join("[" + ",".join(b) + "]" for b in bs)))
    command = data.draw(st.sampled_from([
        ["con", str(structure)],
        ["eta-tau", str(structure), "--congruence", blocks],
        ["check-axioms", str(structure), "--map", str(map_file)],
        ["search-eio", str(structure)],
        ["export", str(structure), "--format", data.draw(st.sampled_from(["dot", "json"]))],
    ]))
    assert main(command) in (0, 1, 2)
