"""Known answers for the benchmark workloads, written out by hand.

Every row a workload produces is compared with the answer below. A row is
one verdict: a suite outcome, a corpus claim, or the outcome of one
interior-map search. Each check returns the list of errors (wrong,
missing, duplicated or unexpected rows) and the number of rows that were
not decided exactly.

A row is undecided when its note says that it was sampled or skipped on a
budget. A skip because a hypothesis of the check does not hold is a
decided row. Turning a sampled or budget-skipped row into an exact one is
not an error; flipping pass and fail, or losing a row, is.
"""

from __future__ import annotations

UNDECIDED_MARKS = ("evidence search skipped", "exceed cap", "sampled")

# Endomorphism count of each bare carrier: one isomorphism class of
# join-semilattices with zero per name, up to six elements.
ENDOMORPHISMS = {
    "S1-0": 1, "S2-0": 2, "S3-0": 6, "S4-0": 16, "S4-1": 20,
    "S5-0": 50, "S5-1": 43, "S5-2": 50, "S5-3": 50, "S5-4": 70,
    "S6-0": 234, "S6-1": 132, "S6-2": 106, "S6-3": 132, "S6-4": 106,
    "S6-5": 116, "S6-6": 108, "S6-7": 120, "S6-8": 134, "S6-9": 172,
    "S6-10": 132, "S6-11": 134, "S6-12": 168, "S6-13": 172, "S6-14": 252,
}

# |Con| of each bare carrier (test_bench.py checks it against the oracle).
CON_SIZES = {
    "S1-0": 1, "S2-0": 2, "S3-0": 4, "S4-0": 7, "S4-1": 8,
    "S5-0": 12, "S5-1": 13, "S5-2": 14, "S5-3": 14, "S5-4": 16,
    "S6-0": 21, "S6-1": 22, "S6-2": 23, "S6-3": 24, "S6-4": 22,
    "S6-5": 23, "S6-6": 23, "S6-7": 25, "S6-8": 26, "S6-9": 28,
    "S6-10": 24, "S6-11": 26, "S6-12": 28, "S6-13": 28, "S6-14": 32,
}

# Number of interior maps passing I1-I8 on each small lattice that has one
# (lattices up to seven elements plus the three-atom Boolean lattice).
EIO_COUNTS = {
    "L1-0": 1, "L2-0": 1, "L3-0": 2, "L4-0": 3, "L4-1": 4,
    "L5-1": 2, "L5-2": 6, "L5-3": 6, "L5-4": 8,
    "L6-3": 1, "L6-6": 10, "L6-7": 2, "L6-8": 4, "L6-9": 12, "L6-11": 4,
    "L6-12": 12, "L6-13": 12, "L6-14": 16,
    "L7-4": 1, "L7-12": 1, "L7-15": 1, "L7-16": 2, "L7-22": 1, "L7-23": 1,
    "L7-24": 1, "L7-26": 6, "L7-27": 1, "L7-28": 8, "L7-29": 4, "L7-30": 18,
    "L7-32": 7, "L7-33": 2, "L7-34": 4, "L7-35": 8, "L7-36": 18, "L7-37": 24,
    "L7-41": 2, "L7-44": 20, "L7-45": 4, "L7-46": 8, "L7-47": 24, "L7-49": 8,
    "L7-50": 24, "L7-51": 24, "L7-52": 32,
    "boolean(3)": 22,
}

# The three atom-collapse maps on boolean(3) fail dagger, and with it I9:
# the checks that presuppose either skip them.
_DAGGER_FAILS = ("boolean(3)#h18", "boolean(3)#h19", "boolean(3)#h20")
HYPOTHESIS_SKIPS = {"four-coatom": _DAGGER_FAILS, "june5": _DAGGER_FAILS, "june6": _DAGGER_FAILS}

# Corpus claims: claim name -> observed value of an evidence-only claim, or
# None for an asserted claim (which must pass).
CLAIMS = {
    "m_infinity(2)": {"element_count": None, "eio_count": 1, "eio_i9_all": True},
    "m_infinity(3)": {"element_count": None, "eio_count": 1, "eio_i9_all": True},
    "m_infinity(4)": {"element_count": None, "eio_count": ..., "eio_i9_all": ...},
    "m_infinity(5)": {"element_count": None, "eio_count": ..., "eio_i9_all": ...},
    "m2(1)": {"element_count": None, "eio_count": 1, "eio_i9_all": True},
    "m2(2)": {"element_count": None, "eio_count": 3, "eio_i9_all": True},
    "m2(3)": {"element_count": None, "eio_count": ..., "eio_i9_all": ...},
    "m2(4)": {"element_count": None, "eio_count": ..., "eio_i9_all": ...},
    "p1(1)": {"element_count": None, "eio_count": 6, "eio_i9_all": False},
    "p1(2)": {"element_count": 46, "eio_count": ..., "eio_i9_all": ...},
    "p1(3)": {"element_count": 146, "eio_count": ..., "eio_i9_all": ...},
    "k_lattice": {op: None for op in (
        "element_count", "coatom_labels", "eio_count", "eio_label_maps",
        "dagger_witness", "bicoatomic_witness", "filterable_pass",
    )},
}
# ``...`` marks an observation that is skipped on budget today: any value
# found once the search runs is accepted.

# Interior maps passing the default axioms on the m_infinity(4) truncation.
M_INFINITY_4_EIOS = 1

WORKLOAD_SUITES = {
    "natural-maps": ("equaint", "prop", "twelve"),
    "con-scan": ("simple-scan", "coatomistic", "consl"),
    "eio-search": ("bicoatom", "four-coatom", "june1", "june2", "june5", "june6"),
}


def catalog_names() -> list[str]:
    """Names of the 401 acceptance-catalog entries, for any seed."""
    names = []
    for base, endos in ENDOMORPHISMS.items():
        names.append(base)
        names.extend(f"{base}+f{j}" for j in range(min(endos, 12)))
        if endos >= 2:
            names.extend(f"{base}+pair{t}" for t in range(4))
    names.extend(f"omega({n})" for n in range(1, 7))
    names.append("boolean(2)")
    return names


def eio_instance_names() -> list[str]:
    return [f"{lname}#h{i}" for lname, k in EIO_COUNTS.items() for i in range(k)]


def expected_rows(workload: str) -> dict[tuple[str, str], str]:
    """(check, structure) -> expected verdict for every row of a workload."""
    rows: dict[tuple[str, str], str] = {}
    for suite in WORKLOAD_SUITES[workload]:
        if suite in ("equaint", "prop", "twelve"):
            names = catalog_names()
        elif suite in ("simple-scan", "coatomistic", "consl"):
            names = list(ENDOMORPHISMS)
        elif suite == "bicoatom":
            names = list(EIO_COUNTS)
        else:
            names = eio_instance_names()
        skips = HYPOTHESIS_SKIPS.get(suite, ())
        for name in names:
            rows[(suite, name)] = "skip" if name in skips else "pass"
    if workload == "eio-search":
        for entry, claims in CLAIMS.items():
            for op in claims:
                rows[(op, entry)] = "pass"
        rows[("enumerate_eios", "m_infinity(4)")] = "pass"
    return rows


def is_undecided(note: str | None) -> bool:
    return note is not None and any(mark in note for mark in UNDECIDED_MARKS)


def _observed(note: str | None) -> str | None:
    if note is None or not note.startswith("observed="):
        return None
    return note[len("observed="):].split(";", 1)[0]


def _note_error(check: str, structure: str, note: str | None) -> str | None:
    """A wrong answer stated in a row's note, if any."""
    if check == "coatomistic":
        want = f"|Con|={CON_SIZES[structure]}"
        if note != want:
            return f"coatomistic {structure}: note {note!r}, expected {want!r}"
    claims = CLAIMS.get(structure)
    if claims is not None and check in claims:
        want = claims[check]
        if want is None or want is ... or is_undecided(note):
            return None
        if _observed(note) != repr(want):
            return f"{check} {structure}: note {note!r}, expected observed={want!r}"
    return None


def check_rows(workload: str, rows) -> tuple[list[str], int]:
    """Compare (check, structure, verdict, note) rows with the known answers.

    Returns the errors and the number of undecided rows.
    """
    expected = expected_rows(workload)
    seen: set[tuple[str, str]] = set()
    errors: list[str] = []
    undecided = 0
    for check, structure, verdict, note in rows:
        key = (check, structure)
        if key not in expected:
            errors.append(f"unexpected row {key}")
            continue
        if key in seen:
            errors.append(f"duplicate row {key}")
            continue
        seen.add(key)
        want = expected[key]
        if is_undecided(note):
            undecided += 1
            if verdict == "fail" or (want == "skip" and verdict != "skip"):
                errors.append(f"{key}: verdict {verdict}, expected {want}")
            continue
        if verdict != want:
            errors.append(f"{key}: verdict {verdict}, expected {want}")
            continue
        wrong = _note_error(check, structure, note)
        if wrong:
            errors.append(wrong)
    errors.extend(f"missing row {key}" for key in expected if key not in seen)
    return errors, undecided
