"""Experiment harness: build, verify, spectrum, and compare subcommands.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
JSON reports are emitted with sorted keys so identical commands and seeds
produce byte-identical bytes; --deterministic zeroes the wall-clock
timings, which are otherwise the only nonreproducible field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

# The imports marked noqa: F401 bind names that are not called here, because
# perfbench/tracing.py wraps each of them by its name in parwalk.cli:
# extract_block (verify_encoding reads the block from the encoding's
# structure), acceptance_matrix, transition_matrix, gibbs_distribution and
# discriminant (the chain decomposition returns A, P, pi and Q),
# check_detailed_balance (the decomposition's docstring bounds the balance
# defect), lazy (a periodic chain's lazy discriminant is (I + Q)/2) and
# stationary_distribution (certify_stationary checks the Gibbs state).
from .blockenc import (  # noqa: F401
    EXTRACT_TOL,
    UNITARY_TOL,
    _pow2_pad,
    build_ancilla_efficient_Q,
    extract_block,
    fused_ancillas,
    paper_ancillas,
    verify_encoding,
    verify_workspace,
)
from .cnf import VAR_CAP, load_dimacs
from .errors import BoundViolated, NotErgodic, ParwalkError
from .markov import (  # noqa: F401
    EIG_TOL,
    certify_stationary,
    check_detailed_balance,
    discriminant,
    gibbs_distribution,
    lazy,
    spectral_gaps,
    stationary_distribution,
)
from .models import build_cnf, build_hypercube
from .parchain import (  # noqa: F401
    DECOMP_TOL,
    acceptance_matrix,
    decompose_discriminant,
    glauber,
    level_tables,
    metropolis,
    transition_matrix,
)
from .spectra import RESIDUAL_TOL, eigenbasis_embedding, phase_gap_check, walk_spectrum
from .szegedy import IDENT_TOL, par_ancillas, par_walk

DEFAULT_CAP = 6
STATIONARY_TOL = 1e-10


def _rule(name: str):
    return metropolis() if name == "metropolis" else glauber()


class _Timer:
    def __init__(self, deterministic: bool):
        self.deterministic = deterministic
        self.timings = {}

    def time(self, label: str, fn):
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            # a stage whose failure is reported, not raised, is timed too
            ms = 1000.0 * (time.perf_counter() - t0)
            self.timings[label] = 0.0 if self.deterministic else round(ms, 3)


def _build_bundle(args, need_matrices: bool):
    """Model echo plus (model, prop), the latter None for counts-only."""
    if not (math.isfinite(args.beta) and args.beta >= 0.0):
        raise ParwalkError(f"--beta must be finite and nonnegative, got {args.beta}")
    if args.model == "hypercube":
        if args.n < 1:
            raise ParwalkError(f"--n must be at least 1, got {args.n}")
        levels = args.n + 1 if args.energy == "hamming" else args.levels
        if levels is None:
            raise ParwalkError("random energies need --B")
        if levels < 1:
            raise ParwalkError(f"--B must be at least 1, got {levels}")
        if args.energy == "random" and args.seed < 0:
            raise ParwalkError(f"seed must be nonnegative, got {args.seed}")
        echo = {
            "source": "hypercube",
            "n": int(args.n),
            "states": 1 << args.n,
            "energy": args.energy,
            "levels": int(levels),
            "seed": int(args.seed),
            "beta": float(args.beta),
            "acceptance": args.acceptance,
        }
        if not need_matrices:
            return echo, None, None
        _check_cap(args, args.n, levels)
        model, prop = build_hypercube(
            args.n, energy=args.energy, levels=levels, seed=args.seed, beta=args.beta
        )
        return echo, model, prop
    if args.cnf_file is None:
        raise ParwalkError("cnf models need --cnf-file")
    formula = load_dimacs(args.cnf_file)
    echo = {
        "source": "cnf",
        "path": args.cnf_file,
        "n": int(formula.num_vars),
        "states": 1 << formula.num_vars,
        "energy": "violated-clauses",
        "levels": int(formula.num_clauses + 1),
        "seed": int(args.seed),
        "beta": float(args.beta),
        "acceptance": args.acceptance,
    }
    if not need_matrices:
        return echo, None, None
    _check_cap(args, formula.num_vars, formula.num_clauses + 1)
    model, prop = build_cnf(formula, beta=args.beta)
    return echo, model, prop


def _size(nbytes: int) -> str:
    if nbytes < 2**20:
        return f"~{nbytes / 2**10:.1f} KiB"
    return f"~{nbytes / 2**20:.1f} MiB"


def _check_cap(args, n: int, levels: int):
    cap = DEFAULT_CAP if args.max_n is None else args.max_n
    # a refused n allocates nothing, so nothing is priced
    if n > cap:
        raise ParwalkError(
            f"n={n} exceeds the dense-build cap {cap}; raise it with --max-n"
        )
    # an n past the enumeration cap is rejected by the model builder, and
    # its arrays are not priced
    if args.max_n is not None and n <= VAR_CAP:
        # the arrays that grow fastest with n, of what the command builds:
        # the chain record (a, p, q, s) and eigh's copy of Q, eigenvectors
        # and 2 N^2 + 6 N + 1 floats of LAPACK work (for compare, only S and
        # the two N x N temporaries of its symmetry check); the encoding's
        # N 2^(c-1) reflection entries, held twice, and verify_encoding's
        # workspace, c the fused route's ancillas (kappa = n involutions for
        # both bit-flip families); the walk's T, reflector index and T^dag R T
        states = 1 << n
        square = states * states * 8
        dim = states << fused_ancillas(n, levels)
        chain = args.command != "compare"
        encodes = not chain or (args.command != "spectrum" and args.construction != "szegedy")
        parts = []
        if chain:
            parts.append(f"a chain record of {_size(4 * square)}")
            parts.append(f"a dense eigensolve of {_size(4 * square + (6 * states + 1) * 8)}")
        else:
            parts.append(f"a dense proposal with its symmetry check of {_size(3 * square)}")
        if encodes:
            parts.append(f"an encoding of {_size(dim * 8)}")
        if encodes and chain:
            work_bytes = math.prod(verify_workspace(states, dim)) * 8
            parts.append(f"a probe workspace of {_size(work_bytes)}")
        if args.command in ("build", "verify") and args.construction != "compressed":
            rows = 2 * states * states
            walk_bytes = rows * (8 + np.dtype(np.intp).itemsize) + square
            parts.append(f"a walk isometry of {_size(walk_bytes)}")
        print(
            f"cap raised to n={args.max_n}: n={n} allocates " + ", ".join(parts),
            file=sys.stderr,
        )


def _spectrum_quantities(dec):
    """Embed the chain (lazy when periodic) and return gap data. Q is solved
    once: a periodic chain's lazy spectrum is derived from that solve, and its
    lazy discriminant from Q, as (I + Q)/2, the discriminant of (I + P)/2."""
    report = used = spectral_gaps(dec.q)
    q_used = dec.q
    if report.periodic:
        q_used = 0.5 * dec.q
        q_used.flat[:: q_used.shape[0] + 1] += 0.5
        used = report.lazy()
    if used.delta_plus <= EIG_TOL:
        # the stationary and phase-gap checks cannot tell lambda_2 from 1
        raise NotErgodic(
            f"one-sided gap {used.delta_plus:.3e} is below {EIG_TOL:g}: "
            "eigenvalue 1 is numerically degenerate"
        )
    emb = eigenbasis_embedding(q_used, used)
    spec = walk_spectrum(emb.phases, used.eigenvalues)
    return {
        "delta": float(used.delta),
        "delta_plus": float(used.delta_plus),
        "phase_gap": float(spec.phase_gap),
        "lazy": report.periodic,
    }, emb, spec


def _strict(value):
    """value with each non-finite float written as the string that names
    it: strict JSON has no number for it."""
    if isinstance(value, dict):
        return {key: _strict(val) for key, val in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def _emit(args, report: dict) -> None:
    payload = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.json:
        sys.stdout.write(payload)
    else:
        _print_table(report)


def _print_table(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _print_table(val, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


def _run_report(args):
    """Shared build/verify pipeline. Returns (report, failures)."""
    timer = _Timer(args.deterministic)
    echo, model, prop = _build_bundle(args, need_matrices=True)
    failures = []

    rule = _rule(args.acceptance)
    # decompose_discriminant raises past DECOMP_TOL and eigenbasis_embedding
    # past RESIDUAL_TOL, so their deviations are reported, not compared here
    dec = timer.time("chain", lambda: decompose_discriminant(model, prop, rule))
    deviations = {
        "decomposition": {"value": float(dec.deviation), "tol": DECOMP_TOL},
        "extraction": None,
        "unitarity": None,
        "tst": None,
        "par_tst": None,
    }
    ancillas = {
        "szegedy": par_ancillas(model.n),
        "paper": paper_ancillas(prop.kappa, model.levels),
        "logical": None,
    }
    gamma = None

    if args.construction in ("compressed", "both"):
        be = timer.time(
            "encoding",
            lambda: build_ancilla_efficient_Q(model, prop, dec.tables),
        )
        enc_rep = timer.time("extraction", lambda: verify_encoding(be, dec.q))
        deviations["extraction"] = {"value": float(enc_rep.max_abs_dev), "tol": EXTRACT_TOL}
        deviations["unitarity"] = {"value": float(enc_rep.unitary_dev), "tol": UNITARY_TOL}
        ancillas["logical"] = be.anc_qubits
        gamma = float(be.gamma)
        # one line names every deviation, the extraction's among them
        if not enc_rep.passed:
            failures.append((
                "DecompositionMismatch",
                f"encoding deviation {enc_rep.max_abs_dev:.3e}, unitary "
                f"deviation {enc_rep.unitary_dev:.3e}, probe reflection "
                f"deviation {enc_rep.probe_reflection_dev:.3e}, probe block "
                f"deviation {enc_rep.probe_block_dev:.3e}",
            ))

    spectrum, emb, spec = timer.time("spectrum", lambda: _spectrum_quantities(dec))
    deviations["tst"] = {"value": emb.tst_dev, "tol": RESIDUAL_TOL}
    try:
        phase_gap_check(spec, spectrum["delta_plus"])
    except BoundViolated as exc:
        failures.append(("BoundViolated", str(exc)))

    if args.construction in ("szegedy", "both"):
        # par_walk raises past IDENT_TOL, so a deviation here exits 2
        walk = timer.time("walks", lambda: par_walk(dec))
        deviations["par_tst"] = {"value": walk.trt_dev, "tol": IDENT_TOL}

    try:
        timer.time(
            "stationary",
            lambda: certify_stationary(dec.p, dec.pi, prop.perms, tol=STATIONARY_TOL),
        )
    except NotErgodic as exc:
        failures.append(("NotErgodic", str(exc)))

    report = {
        "model": echo,
        "ancillas": ancillas,
        "gamma": gamma,
        "deviations": deviations,
        "spectrum": spectrum,
        "pass": not failures,
        "timings_ms": timer.timings,
    }
    return report, failures


def cmd_build(args) -> int:
    report, _ = _run_report(args)
    _emit(args, report)
    return 0


def cmd_verify(args) -> int:
    report, failures = _run_report(args)
    _emit(args, report)
    for name, msg in failures:
        print(f"FAIL {name}: {msg}", file=sys.stderr)
    return 1 if failures else 0


def cmd_spectrum(args) -> int:
    echo, model, prop = _build_bundle(args, need_matrices=True)
    rule = _rule(args.acceptance)
    spectrum, _, spec = _spectrum_quantities(decompose_discriminant(model, prop, rule))
    lines = ["index,lambda,predicted_phase,measured_phase,abs_err"]
    for i, (lam, pred, meas) in enumerate(
        zip(spec.lambdas, spec.predicted, spec.measured)
    ):
        err = abs(float(meas) - float(pred))
        lines.append(f"{i},{float(lam)!r},{float(pred)!r},{float(meas)!r},{err:.3e}")
    lines.append(f"delta,{spectrum['delta']!r}")
    lines.append(f"delta_plus,{spectrum['delta_plus']!r}")
    lines.append(f"phase_gap,{spec.phase_gap!r}")
    lines.append(f"sqrt_2_delta_plus,{math.sqrt(2.0 * spectrum['delta_plus'])!r}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_compare(args) -> int:
    echo, model, prop = _build_bundle(args, need_matrices=not args.counts_only)
    ancillas = {"szegedy": par_ancillas(echo["states"]), "logical": None}
    if args.counts_only:
        # both bit-flip families propose with kappa = n
        ancillas["paper"] = paper_ancillas(echo["n"], echo["levels"])
        gammas = {"szegedy": 1.0, "paper": float(4 * _pow2_pad(echo["levels"]))}
    else:
        # only the level tables of the chain are built, not the dense chain
        tables = level_tables(model, _rule(args.acceptance))
        be = build_ancilla_efficient_Q(model, prop, tables)
        ancillas.update(paper=be.paper_anc, logical=be.anc_qubits)
        gammas = {"szegedy": 1.0, "paper": be.gamma}
    report = {"model": echo, "ancillas": ancillas, "gamma": gammas}
    if args.json or args.out:
        _emit(args, report)
        return 0
    logical = ancillas["logical"]
    print("construction   extra qubits   gamma")
    print(f"szegedy        {ancillas['szegedy']:<14d} {gammas['szegedy']}")
    print(f"compressed     {ancillas['paper']:<14d} {gammas['paper']}")
    print(f"built          {'-' if logical is None else logical}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="parwalk",
        description="Ancilla-efficient discriminant encodings of "
        "propose-accept/reject chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("build", cmd_build),
        ("verify", cmd_verify),
        ("spectrum", cmd_spectrum),
        ("compare", cmd_compare),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--model", choices=("hypercube", "cnf"), default="hypercube")
        p.add_argument("--n", type=int, default=3, help="hypercube bit count")
        p.add_argument(
            "--energy", choices=("hamming", "random"), default="hamming"
        )
        p.add_argument("--B", type=int, dest="levels", help="energy level count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument(
            "--acceptance", choices=("metropolis", "glauber"), default="metropolis"
        )
        p.add_argument(
            "--construction",
            choices=("compressed", "szegedy", "both"),
            default="both",
        )
        p.add_argument("--cnf-file", help="DIMACS CNF path for --model cnf")
        p.add_argument(
            "--max-n", type=int, help="raise the dense-build cap (prints estimate)"
        )
        p.add_argument("--out", help="write the report or CSV here")
        p.add_argument("--json", action="store_true", help="JSON on stdout")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="zero the timing fields for byte-stable reports",
        )
        if name == "compare":
            p.add_argument("--counts-only", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParwalkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        size = f"n={args.n}" if args.model == "hypercube" else f"the chain of {args.cnf_file}"
        print(f"error: MemoryError: not enough memory for {size}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
