"""Model builders: energy assignments and proposal pairing."""

import numpy as np
import pytest

from parwalk.cnf import VAR_CAP, parse_dimacs
from parwalk.errors import ParwalkError, TooManyVariables
from parwalk.models import (
    build_cnf,
    build_hypercube,
    hamming_energies,
    random_energies,
)


def test_hamming_energies():
    assert hamming_energies(2).tolist() == [0, 1, 1, 2]
    assert hamming_energies(3).tolist() == [0, 1, 1, 2, 1, 2, 2, 3]


def test_random_energies_are_seeded_and_bounded():
    a = random_energies(16, levels=5, seed=42)
    b = random_energies(16, levels=5, seed=42)
    c = random_energies(16, levels=5, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 0 and a.max() < 5


def test_random_energies_reject_a_negative_seed():
    with pytest.raises(ParwalkError, match="seed must be nonnegative, got -1"):
        random_energies(8, levels=4, seed=-1)
    assert random_energies(8, levels=4, seed=0).shape == (8,)


def test_build_hypercube_hamming_defaults():
    model, prop = build_hypercube(3, beta=0.5)
    assert model.levels == 4
    assert model.energies.tolist() == hamming_energies(3).tolist()
    assert prop.kappa == 3 and prop.n == 8
    assert model.beta == 0.5


def test_build_hypercube_random_needs_levels():
    with pytest.raises(ParwalkError):
        build_hypercube(2, energy="random")


@pytest.mark.parametrize("levels", [0, -2])
def test_build_hypercube_rejects_levels_below_one(levels):
    with pytest.raises(ParwalkError, match="at least one level"):
        build_hypercube(3, energy="random", levels=levels)
    model, _ = build_hypercube(2, energy="random", levels=7, seed=3)
    assert model.levels == 7


def test_build_hypercube_shares_the_cnf_enumeration_cap():
    # 2^62 states would fail in numpy with a ValueError of its own
    for n in (VAR_CAP + 1, 62):
        with pytest.raises(TooManyVariables, match=f"{n} bits exceeds the enumeration cap 24"):
            build_hypercube(n)


def test_build_hypercube_rejects_unknown_energy():
    with pytest.raises(ParwalkError):
        build_hypercube(2, energy="uniform")


def test_build_cnf_pairs_formula_with_bit_flips():
    f = parse_dimacs("p cnf 2 2\n1 0\n2 0\n")
    model, prop = build_cnf(f, beta=1.0)
    assert model.levels == 3
    assert model.energies.tolist() == [2, 1, 1, 0]
    assert prop.n == 4 and prop.kappa == 2
