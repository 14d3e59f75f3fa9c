"""Closed forms that the tests check the package against.

The Hamming hypercube, E_x = |x| under the single-bit-flip proposal, is a
product chain: flipping bit k changes the energy by +1 or -1 according to
bit k alone, so P = (1/n) sum_k I (x) ... (x) P_2 (x) ... (x) I, where
P_2 is the two-state chain that flips 0 -> 1 with probability f(1) and
1 -> 0 with f(-1) (Levin, Peres and Wilmer, Markov Chains and Mixing
Times, section 12.4, product chains). P_2 has eigenvalues 1 and 1 - c,
c = f(1) + f(-1), so Q, similar to P, has eigenvalues 1 - j c / n with
multiplicity C(n, j), j = 0..n.
"""

import math

import numpy as np


def hamming_spectrum(n: int, beta: float, rule) -> np.ndarray:
    """The eigenvalues of Q of the n-bit Hamming chain, ascending."""
    c = rule.f(1, beta) + rule.f(-1, beta)
    return np.concatenate(
        [np.full(math.comb(n, j), 1.0 - j * c / n) for j in range(n, -1, -1)]
    )
