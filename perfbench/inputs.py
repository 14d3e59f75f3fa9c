"""Seeded input generator for the parwalk benchmark.

``generate(workload, seed, out_dir)`` writes ``chains.json`` (the warm-up
and timed chain lists as ``parwalk verify`` argument vectors) and any DIMACS
files the chains name into ``out_dir``. The same workload and seed always
give the same files. The program under test sees only these files and
argument vectors.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("gate-grid", "walk-n6", "encode-n7")

# Random 3-SAT instance of encode-n7: 15 clauses give B = 16 energy levels.
# At 30 clauses (B = 31, padded to 32) this one chain takes ~15 s, a run
# holds a single call of it, and one slow call moves the run's figures.
CNF_VARS = 7
CNF_CLAUSES = 15


def _verify(argv: list, flags: dict) -> list:
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), value]
    return ["verify", *map(str, argv), "--json"]


def _hypercube(n, energy, rng, levels=None, **flags) -> dict:
    argv = ["--n", n, "--energy", energy]
    if energy == "random":
        argv += ["--B", levels, "--seed", rng.randrange(2**31)]
    else:
        levels = n + 1
    return {"argv": _verify(argv, flags), "n": n, "levels": levels}


def _write_cnf(path: Path, num_vars: int, num_clauses: int, rng) -> dict:
    lines = [f"c random 3-SAT, {num_vars} variables", f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        lines.append(" ".join(map(str, lits)) + " 0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"n": num_vars, "levels": num_clauses + 1}


def _cnf_chain(path: Path, num_vars, num_clauses, rng, **flags) -> dict:
    spec = _write_cnf(path, num_vars, num_clauses, rng)
    return {"argv": _verify(["--model", "cnf", "--cnf-file", path], flags), **spec}


def _warmup(out_dir: Path, rng) -> list:
    """Small chains that reach every route the timed chains take: fused
    encoding with walks, the lazy chain (beta = 0), the generic encoding
    route (4 * pad(B) * N above the fused block cap), and the CNF loader."""
    return [
        _hypercube(3, "hamming", rng, construction="both"),
        _hypercube(3, "hamming", rng, beta=0, acceptance="glauber"),
        _hypercube(4, "random", rng, levels=17, construction="compressed"),
        _cnf_chain(out_dir / "warmup.cnf", 4, 6, rng, construction="compressed"),
    ]


def _gate_grid(out_dir: Path, rng) -> list:
    # The axes of the acceptance gate: every chain takes the fused route,
    # and beta = 0 makes the chain periodic, so it is lazified.
    chains = []
    for n in (2, 3, 4, 5):
        for energy, levels in (("hamming", None), ("random", 2), ("random", 4), ("random", 7)):
            for beta in (0, 0.5, 1, 2):
                for rule in ("metropolis", "glauber"):
                    chains.append(
                        _hypercube(n, energy, rng, levels=levels, beta=beta,
                                   acceptance=rule, construction="both")
                    )
    return chains


def _walk_n6(out_dir: Path, rng) -> list:
    return [
        _hypercube(6, "hamming", rng, construction="both"),
        _hypercube(6, "random", rng, levels=7, construction="both"),
    ]


def _encode_n7(out_dir: Path, rng) -> list:
    return [
        _hypercube(7, "hamming", rng, construction="compressed", max_n=7),
        _hypercube(7, "random", rng, levels=16, construction="compressed", max_n=7),
        _cnf_chain(out_dir / "random3sat.cnf", CNF_VARS, CNF_CLAUSES, rng,
                   construction="compressed", max_n=7),
    ]


_BUILDERS = {"gate-grid": _gate_grid, "walk-n6": _walk_n6, "encode-n7": _encode_n7}


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the inputs of one workload run and return the chain-list path."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    doc = {
        "workload": workload,
        "seed": seed,
        "warmup": _warmup(out_dir, rng),
        "chains": _BUILDERS[workload](out_dir, rng),
    }
    path = out_dir / "chains.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path
