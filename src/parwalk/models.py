"""Built-in model families for the experiment harness."""

from __future__ import annotations

import numpy as np

from .cnf import VAR_CAP, CnfFormula, gibbs_from_cnf
from .errors import EnergyOutOfRange, ParwalkError, TooManyVariables
from .markov import GibbsModel
from .parchain import hypercube_proposal


def hamming_energies(n: int) -> np.ndarray:
    states = np.arange(1 << n, dtype=np.int64)
    counts = np.zeros(states.size, dtype=np.int64)
    for k in range(n):
        counts += (states >> k) & 1
    return counts


def random_energies(n_states: int, levels: int, seed: int) -> np.ndarray:
    if levels < 1:
        raise EnergyOutOfRange(f"random energies need at least one level, got {levels}")
    if seed < 0:
        raise ParwalkError(f"seed must be nonnegative, got {seed}")
    # Philox is splittable and stream-stable across platforms
    gen = np.random.Generator(np.random.Philox(seed))
    return gen.integers(0, levels, size=n_states, dtype=np.int64)


def build_hypercube(
    n: int,
    energy: str = "hamming",
    levels: int | None = None,
    seed: int = 0,
    beta: float = 1.0,
):
    """Single-bit-flip chain on n-bit strings, Hamming or seeded random
    energies. Returns (GibbsModel, ProposalDecomposition)."""
    if n > VAR_CAP:
        raise TooManyVariables(f"{n} bits exceeds the enumeration cap {VAR_CAP}")
    if energy == "hamming":
        energies = hamming_energies(n)
        levels = n + 1
    elif energy == "random":
        if levels is None:
            raise ParwalkError("random energies need a level count")
        energies = random_energies(1 << n, levels, seed)
    else:
        raise ParwalkError(f"unknown energy family {energy!r}")
    model = GibbsModel(energies=energies, levels=levels, beta=beta)
    return model, hypercube_proposal(n)


def build_cnf(formula: CnfFormula, beta: float = 1.0):
    """Violated-clause-count chain over assignments, single-bit-flip
    proposal. Returns (GibbsModel, ProposalDecomposition)."""
    model = gibbs_from_cnf(formula, beta)
    return model, hypercube_proposal(formula.num_vars)
