"""Ancilla-efficient block encodings of propose-accept/reject chain
discriminants, with Szegedy-walk oracles and gap-amplification checks."""

from .blockenc import (
    BlockEncoding,
    build_ancilla_efficient_Q,
    extract_block,
    verify_encoding,
)
from .cnf import CnfFormula, gibbs_from_cnf, load_dimacs, parse_dimacs
from .errors import ParwalkError
from .markov import (
    Distribution,
    GibbsModel,
    StochasticMatrix,
    certify_stationary,
    check_detailed_balance,
    discriminant,
    gibbs_distribution,
    lazy,
    qsample,
    spectral_gaps,
    stationary_distribution,
)
from .models import build_cnf, build_hypercube
from .parchain import (
    AcceptanceRule,
    ProposalDecomposition,
    acceptance_matrix,
    custom_rule,
    decompose_discriminant,
    glauber,
    hypercube_proposal,
    level_tables,
    metropolis,
    proposal_from_permutations,
    r_matrix,
    transition_matrix,
)
from .spectra import (
    eigenbasis_embedding,
    phase_gap_check,
    walk_phases,
    walk_spectrum,
)
from .szegedy import par_walk, quantum_enhanced_walk, standard_walk

__version__ = "0.1.0"

__all__ = [
    "AcceptanceRule",
    "BlockEncoding",
    "CnfFormula",
    "Distribution",
    "GibbsModel",
    "ParwalkError",
    "ProposalDecomposition",
    "StochasticMatrix",
    "acceptance_matrix",
    "build_ancilla_efficient_Q",
    "build_cnf",
    "build_hypercube",
    "certify_stationary",
    "check_detailed_balance",
    "custom_rule",
    "decompose_discriminant",
    "discriminant",
    "eigenbasis_embedding",
    "extract_block",
    "gibbs_distribution",
    "gibbs_from_cnf",
    "glauber",
    "hypercube_proposal",
    "lazy",
    "level_tables",
    "load_dimacs",
    "metropolis",
    "par_walk",
    "parse_dimacs",
    "phase_gap_check",
    "proposal_from_permutations",
    "qsample",
    "quantum_enhanced_walk",
    "r_matrix",
    "spectral_gaps",
    "standard_walk",
    "stationary_distribution",
    "transition_matrix",
    "verify_encoding",
    "walk_phases",
    "walk_spectrum",
]
