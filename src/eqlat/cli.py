"""Command-line interface.

Subcommands:

* ``con FILE``            congruence lattice of a semilattice JSON file
* ``eta-tau FILE --congruence BLOCKS``  least/greatest congruence with the
                          same zero class as the given one
* ``check-axioms FILE --map MAPFILE``   full axiom battery for a unary map
                          on a lattice JSON file
* ``search-eio FILE``     enumerate interior operators on a lattice
* ``verify NAME``         run a named check suite over the corpus
* ``corpus NAME``         build a named structure and re-check its claims
* ``export TARGET``       emit a corpus structure or input file as DOT/JSON

Exit codes: 0 all checks pass, 1 a check failed (JSON report on stdout),
2 usage or input error (message on stderr), 3 internal error (traceback on
stderr).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback

from .checks import SUITES, all_passed, run_suite
from .congruence import all_congruences, eta, make_congruence, tau
from .corpus import _BUILDERS, build_named, run_claims
from .errors import EqlatError, UnknownLabel
from .interior import check_axioms, enumerate_eios, normalize_map
from .order import FiniteLattice, as_lattice, dot_hasse, json_label_map, poset_from_json
from .semilattice import OpSemilattice, semilattice_from_json


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_semilattice(path: str) -> OpSemilattice:
    return semilattice_from_json(_read(path))


def _is_semilattice_json(data) -> bool:
    return isinstance(data, dict) and ("zero" in data or "joins" in data or "operators" in data)


def _load_lattice(path: str) -> FiniteLattice:
    text = _read(path)
    if _is_semilattice_json(json.loads(text)):
        return semilattice_from_json(text).lattice
    return as_lattice(poset_from_json(text))


def _parse_blocks(spec: str) -> list[list[str]]:
    blocks = re.findall(r"\[([^\]]*)\]", spec)
    if not blocks:
        raise EqlatError(f"cannot parse congruence blocks from {spec!r}")
    return [[lab for lab in re.split(r"[,\s]+", b) if lab] for b in blocks]


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_con(args) -> int:
    s = _load_semilattice(args.file)
    conl = all_congruences(s)
    _emit(conl.to_json(), args.out)
    return 0


def _cmd_eta_tau(args) -> int:
    s = _load_semilattice(args.file)
    idx = s.index
    blocks = _parse_blocks(args.congruence)
    unknown = [lab for block in blocks for lab in block if lab not in idx]
    if unknown:
        raise UnknownLabel(f"unknown label {unknown[0]!r} in --congruence")
    blocks = [[idx[lab] for lab in block] for block in blocks]
    theta = make_congruence(s, blocks)
    lo = eta(s, theta)
    hi = tau(s, theta)
    _emit(json.dumps({
        "congruence": theta.block_string(s),
        "eta": lo.block_string(s),
        "tau": hi.block_string(s),
    }, indent=2), args.out)
    return 0


def _cmd_check_axioms(args) -> int:
    lat = _load_lattice(args.file)
    h = normalize_map(lat, json_label_map(json.loads(_read(args.map)), "map"))
    report = check_axioms(lat, h)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def _cmd_search_eio(args) -> int:
    lat = _load_lattice(args.file)
    axioms = None
    if args.axioms:
        axioms = [a.strip() for a in args.axioms.split(",") if a.strip()]
    found = enumerate_eios(lat, axioms=axioms)
    _emit(json.dumps({
        "count": len(found),
        "maps": [im.as_label_map() for im in found],
    }, indent=2), args.out)
    return 0


def _cmd_verify(args) -> int:
    outcomes = run_suite(args.name, seed=args.seed)
    lines = [o.to_json() for o in outcomes]
    ok = all_passed(outcomes)
    summary = {
        "suite": args.name,
        "total": len(outcomes),
        "failed": sum(1 for o in outcomes if o.passed is False),
        "skipped": sum(1 for o in outcomes if o.passed is None),
        "verdict": "pass" if ok else "fail",
    }
    _emit("\n".join(lines + [json.dumps(summary)]), args.out)
    return 0 if ok else 1


def _cmd_corpus(args) -> int:
    entry = build_named(args.name, args.n)
    results = run_claims(entry)
    structure = json.loads(entry.structure.to_json())
    payload = {
        "name": entry.name,
        "truncated": entry.truncated,
        "structure": structure,
        "claims": [r.as_dict() for r in results],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0 if all(r.passed for r in results) else 1


def _cmd_export(args) -> int:
    if args.target in _BUILDERS:
        entry = build_named(args.target, args.n)
        structure = entry.structure
        poset = (structure.lattice if isinstance(structure, OpSemilattice) else structure).poset
        as_json = structure.to_json()
        title = entry.name
    else:
        text = _read(args.target)
        if _is_semilattice_json(json.loads(text)):
            s = semilattice_from_json(text)
            poset = s.lattice.poset
            as_json = s.to_json()
        else:
            poset = poset_from_json(text)
            as_json = poset.to_json()
        title = "structure"
    if args.format == "dot":
        _emit(dot_hasse(poset, re.sub(r"\W+", "_", title)), args.out)
    else:
        _emit(as_json, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqlat",
        description="Verification workbench for finite semilattices with operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("con", help="congruence lattice of a semilattice JSON file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_con)

    p = sub.add_parser("eta-tau", help="least/greatest congruence with the same zero class")
    p.add_argument("file")
    p.add_argument("--congruence", required=True,
                   help="blocks like '[0][1,2]' using element labels")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eta_tau)

    p = sub.add_parser("check-axioms", help="axiom battery for a unary map on a lattice")
    p.add_argument("file")
    p.add_argument("--map", required=True, help="JSON file with {\"map\": {label: label}}")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check_axioms)

    p = sub.add_parser("search-eio", help="enumerate interior operators on a lattice")
    p.add_argument("file")
    p.add_argument("--axioms", help="comma-separated axiom names (default I1..I8)")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_search_eio)

    p = sub.add_parser("verify", help="run a named check suite")
    p.add_argument("name", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("corpus", help="build a named structure and re-check its claims")
    p.add_argument("name", choices=sorted(_BUILDERS))
    p.add_argument("--n", type=int, default=None, help="size parameter where one applies")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("export", help="emit a corpus structure or input file as DOT/JSON")
    p.add_argument("target", help="corpus name or JSON file path")
    p.add_argument("--format", choices=("dot", "json"), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (EqlatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
