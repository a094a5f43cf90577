from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from eqlat.corpus import boolean, build_named, chain, enumerate_semilattices, omega
from eqlat.semilattice import from_join_table

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def small_semilattices():
    """Pool of bare structures with up to five elements, plus two decorated ones."""
    pool = list(enumerate_semilattices(5))
    pool.append(omega(3).structure)
    pool.append(omega(5).structure)
    return pool


@pytest.fixture(scope="session")
def tiny_semilattices():
    """Pool with at most four elements, small enough for relation-scan oracles."""
    pool = list(enumerate_semilattices(4))
    pool.append(omega(3).structure)
    return pool


@pytest.fixture(scope="session")
def b2():
    return boolean(2).structure


@pytest.fixture(scope="session")
def b3():
    return boolean(3).structure


@pytest.fixture(scope="session")
def chain3():
    return chain(2).structure


@pytest.fixture(scope="session")
def k_entry():
    return build_named("k_lattice")


@pytest.fixture(scope="session")
def atom_maps_b6():
    """The 64-element Boolean semilattice with three maps induced from its 6 atoms.

    A 6-cycle, a transposition and a map of rank 5 generate all 6**6 = 46,656
    self-maps of the atoms, so the operators generate as many maps of the
    carrier. Con has three elements: the identity, [0][rest] and everything.
    """
    labels = ["0"] + ["".join("abcdef"[i] for i in range(6) if m >> i & 1) for m in range(1, 64)]

    def atom_map(g):
        return [sum(1 << j for j in {g[i] for i in range(6) if m >> i & 1}) for m in range(64)]

    maps = {"cycle": (1, 2, 3, 4, 5, 0), "swap": (1, 0, 2, 3, 4, 5), "merge": (1, 1, 2, 3, 4, 5)}
    table = [[a | b for b in range(64)] for a in range(64)]
    return from_join_table(labels, table, 0, [(name, atom_map(g)) for name, g in maps.items()])
