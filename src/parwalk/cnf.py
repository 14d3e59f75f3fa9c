"""DIMACS CNF ingestion.

Assignments index the state space: variable i of state x is true iff bit
i-1 of x is set. The energy of a state is its violated-clause count, so the
level count is always len(clauses) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TooManyVariables
from .markov import GibbsModel

VAR_CAP = 24  # 2^24 states is past any dense build; hypercubes share the cap


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: tuple

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: `p cnf <vars> <clauses>` header, zero-terminated
    signed literal lists, `c` comment lines."""
    num_vars = None
    num_clauses = None
    clauses = []
    current = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        last_line = lineno
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate problem header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header counts") from None
            if num_vars < 0 or num_clauses < 0:
                raise ParseError(f"line {lineno}: negative header counts")
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause data before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(current))
                current = []
                continue
            if abs(lit) > num_vars:
                raise ParseError(
                    f"line {lineno}: literal {lit} outside 1..{num_vars}"
                )
            current.append(lit)
    if num_vars is None:
        raise ParseError("line 1: missing problem header")
    if current:
        raise ParseError(f"line {last_line}: unterminated clause {current}")
    if len(clauses) != num_clauses:
        raise ParseError(
            f"line {last_line}: header promises {num_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def load_dimacs(path) -> CnfFormula:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"line {lineno}: byte {exc.start} is not UTF-8") from None
    return parse_dimacs(text)


def violated_counts(formula: CnfFormula) -> np.ndarray:
    """Violated-clause count for every assignment, vectorized over states."""
    if formula.num_vars > VAR_CAP:
        raise TooManyVariables(
            f"{formula.num_vars} variables exceeds the enumeration cap {VAR_CAP}"
        )
    n_states = 1 << formula.num_vars
    states = np.arange(n_states, dtype=np.int64)
    counts = np.zeros(n_states, dtype=np.int64)
    for clause in formula.clauses:
        satisfied = np.zeros(n_states, dtype=bool)
        for lit in clause:
            bit = (states >> (abs(lit) - 1)) & 1
            satisfied |= bit.astype(bool) if lit > 0 else ~bit.astype(bool)
        counts += ~satisfied
    return counts


def gibbs_from_cnf(formula: CnfFormula, beta: float) -> GibbsModel:
    return GibbsModel(
        energies=violated_counts(formula),
        levels=formula.num_clauses + 1,
        beta=beta,
    )
