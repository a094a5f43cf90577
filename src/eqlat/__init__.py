"""Verification workbench for finite join-semilattices with operators.

Computes congruence lattices, their order-relation twins, least/greatest
congruences with a fixed zero class, interior-operator axiom batteries,
ideal-family dualities, and runs them over an exhaustive small-structure
catalog and a corpus of named examples.
"""

from .congruence import (
    Congruence,
    CongruenceLattice,
    OrderedRelation,
    all_congruences,
    all_don,
    all_eon,
    con_of_don,
    congruence_generated,
    don_generated,
    don_of,
    don_of_eon,
    eon_generated,
    eon_of_don,
    eta,
    is_simple,
    join_congruences,
    make_congruence,
    meet_congruences,
    quotient,
    tau,
    validate_don,
    validate_eon,
)
from .corpus import (
    Catalog,
    CheckOutcome,
    Claim,
    CorpusEntry,
    boolean,
    build_named,
    chain,
    enumerate_semilattices,
    generate_catalog,
    k_lattice,
    m2,
    m_infinity,
    omega,
    p1,
    run_claims,
)
from .checks import SUITES, all_passed, catalog_for_acceptance, run_suite
from .errors import (
    BudgetExceeded,
    CycleError,
    EqlatError,
    InvariantViolation,
    NotALattice,
    NotJoinHomomorphism,
    ParamOutOfRange,
    SearchBudgetExceeded,
    UnknownLabel,
    ZeroNotPreserved,
)
from .galois import (
    AlgebraicSubsetFamily,
    QuasiOrder,
    algebraic_subsets,
    check_distributive_quasiorder,
    check_filterable,
    check_sub_duality,
    galois_h,
    galois_rho,
    ideal_lattice,
    quasiorder_from_pairs,
    quasiorder_from_sublattice,
    sub_closed_lattice,
    sublattice_interior,
    verify_consl,
)
from .interior import (
    AxiomReport,
    InteriorMap,
    Verdict,
    check_axioms,
    check_bicoatomic,
    check_coatom_dependence,
    check_four_coatom,
    enumerate_eios,
    natural_eta,
)
from .order import (
    FiniteLattice,
    FinitePoset,
    as_lattice,
    build_poset,
    canonical_key,
    complete_sublattice_closure,
    dot_hasse,
    dual,
    lattice_from_covers,
    poset_from_json,
)
from .semilattice import (
    IdealSet,
    OpSemilattice,
    all_endomorphisms,
    from_join_table,
    from_lattice,
    ideal,
    ideals,
    join_irreducibles,
    operator_monoid,
    semilattice_from_json,
)

__version__ = "0.1.0"
