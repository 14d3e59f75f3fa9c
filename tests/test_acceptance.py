"""Acceptance gate: nine desk-scale checks, one printed pass/fail line each.

The test grid is the bit-flip chain on n-bit strings with Hamming or seeded
random integer energies, both acceptance rules, and inverse temperatures
{0, 0.5, 1, 2}.
"""

import json
import math
import time

import numpy as np

from parwalk.blockenc import UNITARY_TOL, build_ancilla_efficient_Q, extract_block
from parwalk.cli import main
from parwalk.markov import (
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
from parwalk.models import hamming_energies, random_energies
from parwalk.parchain import (
    acceptance_matrix,
    decompose_discriminant,
    glauber,
    hypercube_proposal,
    level_tables,
    metropolis,
    transition_matrix,
)
from parwalk.spectra import phase_gap_check, walk_phases, walk_spectrum
from parwalk.szegedy import par_walk, quantum_enhanced_walk, standard_walk

BETAS = (0.0, 0.5, 1.0, 2.0)
RANDOM_LEVELS = (2, 4, 7)


def _pow2_pad(b):
    return 1 << max(b - 1, 0).bit_length()


def grid(n_values):
    """All (model, prop, rule) triples of the acceptance grid."""
    for n in n_values:
        prop = hypercube_proposal(n)
        specs = [("hamming", hamming_energies(n), n + 1)]
        for levels in RANDOM_LEVELS:
            e = random_energies(1 << n, levels, seed=17 + 10 * n + levels)
            specs.append((f"random-B{levels}", e, levels))
        for label, energies, levels in specs:
            for beta in BETAS:
                model = GibbsModel(energies=energies, levels=levels, beta=beta)
                for rule_name in ("metropolis", "glauber"):
                    rule = metropolis() if rule_name == "metropolis" else glauber()
                    yield f"n={n} {label} beta={beta} {rule_name}", model, prop, rule


def check(ok: bool, line: str):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def test_criterion_1_decomposition_identity():
    start = time.perf_counter()
    worst, count = 0.0, 0
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        dec = decompose_discriminant(model, prop, rule)
        dev = float(np.abs(dec.ga * dec.s + dec.r - dec.q).max())
        worst = max(worst, dev)
        count += 1
    elapsed = time.perf_counter() - start
    check(
        worst <= 1e-10 and elapsed < 5.0,
        f"criterion 1: accept-table decomposition recomposes Q on all "
        f"{count} chains (max dev {worst:.2e} <= 1e-10, {elapsed:.2f}s < 5s)",
    )


def test_criterion_2_ancilla_efficient_extraction():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(2024))
    worst_ext, worst_invol, count = 0.0, 0.0, 0
    gamma_ok, anc_ok = True, True
    for label, model, prop, rule in grid((1, 2, 3)):
        dec = decompose_discriminant(model, prop, rule)
        be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
        worst_ext = max(worst_ext, float(np.abs(extract_block(be) - dec.q).max()))
        gamma_ok &= be.gamma == 4.0 * _pow2_pad(model.levels)
        m = (prop.kappa - 1).bit_length() if prop.kappa > 1 else 0
        b = (model.levels - 1).bit_length() if model.levels > 1 else 0
        anc_ok &= be.anc_qubits <= 2 * m + b + 2
        v = rng.standard_normal((16, be.op.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        worst_invol = max(
            worst_invol, float(np.abs(be.op.apply(be.op.apply(v)) - v).max())
        )
        count += 1
    elapsed = time.perf_counter() - start
    check(
        worst_ext <= 1e-9 and gamma_ok and anc_ok and worst_invol <= 1e-10
        and elapsed < 60.0,
        f"criterion 2: extraction matches Q on {count} encodings (max dev "
        f"{worst_ext:.2e} <= 1e-9), gamma = 4B exactly, logical ancillas <= "
        f"2ceil(log k)+ceil(log B)+2, W^2 = I on 16 random vectors (max dev "
        f"{worst_invol:.2e} <= 1e-10, {elapsed:.2f}s < 60s)",
    )


def test_node_certificate_on_every_gate_chain():
    # the bound on ||V^dag V - I|| that verify_encoding reads from the node
    # arrays holds within UNITARY_TOL on all 128 chains of the gate
    worst, count = 0.0, 0
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
        worst = max(worst, be.op.unitarity_residual())
        count += 1
    check(
        count == 128 and worst <= UNITARY_TOL,
        f"node certificate: ||V^dag V - I|| <= {worst:.2e} <= {UNITARY_TOL:.0e} "
        f"on all {count} encodings",
    )


def test_criterion_3_doubled_space_oracles():
    start = time.perf_counter()
    worst_tst, worst_iso, count = 0.0, 0.0, 0
    for label, model, prop, rule in grid((1, 2, 3)):
        a = acceptance_matrix(model, rule)
        p = transition_matrix(prop, a)
        dec = decompose_discriminant(model, prop, rule)
        for walk in (standard_walk(p), par_walk(dec)):
            t, r = walk.t, walk.reflector
            worst_tst = max(
                worst_tst, float(np.abs(t.conj().T @ r @ t - dec.q).max())
            )
            gram = t.conj().T @ t
            proj = t @ t.conj().T
            w_dev = np.abs(
                walk.w - r @ (2.0 * proj - np.eye(proj.shape[0]))
            ).max()
            worst_iso = max(
                worst_iso,
                float(np.abs(gram - np.eye(t.shape[1])).max()),
                float(np.abs(proj @ proj - proj).max()),
                float(w_dev),
            )
        count += 1

    worst_qe = 0.0
    rot = np.array(
        [[math.cos(0.4), math.sin(0.4)], [math.sin(0.4), -math.cos(0.4)]]
    )
    cases = [
        (np.array([[0.0, 1.0], [1.0, 0.0]]),
         GibbsModel(energies=np.array([0, 1]), levels=2, beta=math.log(2.0))),
        (np.kron(rot, rot),
         GibbsModel(energies=np.array([0, 1, 1, 2]), levels=3, beta=0.6)),
    ]
    for u, model in cases:
        a = acceptance_matrix(model, metropolis())
        qe = quantum_enhanced_walk(u, a)
        got = qe.t.conj().T @ qe.reflector @ qe.t
        s = np.abs(u) ** 2  # the induced classical proposal
        entries = a * s
        np.fill_diagonal(entries, 0.0)
        stay = 1.0 - entries.sum(axis=0)
        p_ind = entries + np.diag(stay)
        q_ind = discriminant(StochasticMatrix(p_ind), gibbs_distribution(model))
        worst_qe = max(worst_qe, float(np.abs(got - q_ind).max()))
    elapsed = time.perf_counter() - start
    check(
        worst_tst <= 1e-10 and worst_iso <= 1e-10 and worst_qe <= 1e-10
        and elapsed < 30.0,
        f"criterion 3: doubled-space walks reproduce Q on {count} chains "
        f"(max dev {worst_tst:.2e}), isometry identities hold (max dev "
        f"{worst_iso:.2e}), amplitude walk matches the induced chain (max "
        f"dev {worst_qe:.2e}); all <= 1e-10 ({elapsed:.2f}s < 30s)",
    )


def test_criterion_4_spectral_stretching():
    worst_phase, worst_residual, count = 0.0, 0.0, 0
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        a = acceptance_matrix(model, rule)
        p = transition_matrix(prop, a)
        dec = decompose_discriminant(model, prop, rule)
        walk = standard_walk(p)
        spec = walk_spectrum(walk_phases(walk.w), spectral_gaps(dec.q).eigenvalues)
        worst_phase = max(
            worst_phase, float(np.abs(spec.measured - spec.predicted).max())
        )
        psi = walk.t @ qsample(stationary_distribution(p))
        worst_residual = max(
            worst_residual, float(np.linalg.norm(walk.w @ psi - psi))
        )
        count += 1
    check(
        worst_phase <= 1e-8 and worst_residual <= 1e-9,
        f"criterion 4: walk eigenphases match +-arccos(lambda_j) on all "
        f"{count} chains (max phase dev {worst_phase:.2e} <= 1e-8), "
        f"stationary qsample residual {worst_residual:.2e} <= 1e-9",
    )


def test_criterion_5_quadratic_amplification():
    worst_gap, count = 0.0, 0
    bound_ok = True
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        a = acceptance_matrix(model, rule)
        p = transition_matrix(prop, a)
        dec = decompose_discriminant(model, prop, rule)
        gaps = spectral_gaps(dec.q)
        spec = walk_spectrum(walk_phases(standard_walk(p).w), gaps.eigenvalues)
        delta_plus = gaps.delta_plus
        report = phase_gap_check(spec, delta_plus)  # raises on violation
        worst_gap = max(worst_gap, abs(spec.phase_gap - report.predicted))
        bound_ok &= spec.phase_gap >= math.sqrt(2.0 * delta_plus) - 1e-12
        count += 1

    # worked example: two states, beta = ln 2, delta_plus = 1.5
    model = GibbsModel(energies=np.array([0, 1]), levels=2, beta=math.log(2.0))
    prop = hypercube_proposal(1)
    p = transition_matrix(prop, acceptance_matrix(model, metropolis()))
    dec = decompose_discriminant(model, prop, metropolis())
    gaps = spectral_gaps(dec.q)
    spec = walk_spectrum(walk_phases(standard_walk(p).w), gaps.eigenvalues)
    example_ok = (
        abs(gaps.delta_plus - 1.5) < 1e-12
        and abs(spec.phase_gap - 2.0 * math.pi / 3.0) < 1e-8
        and spec.phase_gap >= math.sqrt(3.0)
    )
    check(
        worst_gap <= 1e-8 and bound_ok and example_ok,
        f"criterion 5: phase gap equals arccos(1 - Delta+) within 1e-8 (max "
        f"dev {worst_gap:.2e}) and stays above sqrt(2 Delta+) on all {count} "
        f"chains; 2-state example gives 2pi/3 >= sqrt(3)",
    )


def test_criterion_6_balance_and_fixed_point():
    worst_stat, worst_ratio, count = 0.0, 0.0, 0
    balance_ok = True
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        a = acceptance_matrix(model, rule)
        p = transition_matrix(prop, a)
        pi = gibbs_distribution(model)
        balance_ok &= check_detailed_balance(p, pi, tol=1e-12)
        worst_stat = max(
            worst_stat,
            float(np.abs(stationary_distribution(p).probs - pi.probs).max()),
        )
        e = model.energies.astype(float)
        ratio = np.exp(-model.beta * (e[:, None] - e[None, :]))
        # a_yx / a_xy = e^{-beta dE} checked cross-multiplied: every term
        # stays in [0, 1], so the pinned absolute tolerance is meaningful
        worst_ratio = max(worst_ratio, float(np.abs(a - ratio * a.T).max()))
        count += 1
    check(
        balance_ok and worst_stat <= 1e-10 and worst_ratio <= 1e-12,
        f"criterion 6: detailed balance at 1e-12 on all {count} chains, "
        f"stationary = gibbs (max dev {worst_stat:.2e} <= 1e-10), acceptance "
        f"ratios e^(-beta dE) cross-multiplied (max dev {worst_ratio:.2e} "
        f"<= 1e-12)",
    )


def test_stationary_certificate_agrees_with_state_reduction():
    # the O(N kappa) certificate the CLI runs passes wherever state reduction
    # returns the Gibbs state within the same 1e-10
    count = 0
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        p = decompose_discriminant(model, prop, rule).p
        pi = gibbs_distribution(model)
        certify_stationary(p, pi, prop.perms, tol=1e-10)
        assert np.abs(stationary_distribution(p).probs - pi.probs).max() <= 1e-10, label
        count += 1
    assert count == 128


def test_derived_lazy_spectrum_matches_the_lazy_chain():
    # the CLI embeds a periodic chain's lazy discriminant with eigenvalues
    # (1 + lambda)/2 from the one solve of Q; on the beta = 0 axes of the
    # benchmark's gate grid they are those of the separately built lazy chain
    count = 0
    for label, model, prop, rule in grid((2, 3, 4, 5)):
        if model.beta != 0.0:
            continue
        dec = decompose_discriminant(model, prop, rule)
        derived = spectral_gaps(dec.q).lazy().eigenvalues
        q_lazy = discriminant(lazy(dec.p), gibbs_distribution(model))
        assert np.abs(derived - np.linalg.eigvalsh(q_lazy)[::-1]).max() <= 1e-12, label
        count += 1
    assert count == 32


def test_criterion_7_norm_bound():
    worst_excess, count = 0.0, 0
    bound_ok = True
    for label, model, prop, rule in grid((1, 2, 3, 4)):
        tables = level_tables(model, rule)
        for table in (tables.ga, tables.rejection):
            one = np.abs(table).sum(axis=0).max()
            inf = np.abs(table).sum(axis=1).max()
            mean_bound = math.sqrt(one * inf)
            spectral = np.linalg.norm(table, 2)
            bound_ok &= spectral <= mean_bound + 1e-9
            bound_ok &= mean_bound <= model.levels + 1e-9
            worst_excess = max(worst_excess, spectral - mean_bound)
            count += 1
    check(
        bound_ok,
        f"criterion 7: spectral norm <= sqrt(norm1 * norminf) <= B for all "
        f"{count} accept/reject tables (max excess {worst_excess:.2e})",
    )


def test_criterion_8_count_comparison(capsys, tmp_path):
    import random

    sat = tmp_path / "sat20.cnf"
    rng = random.Random(1)
    lines = ["p cnf 20 90"]
    for _ in range(90):
        chosen = rng.sample(range(1, 21), 3)
        lines.append(
            " ".join(str(v if rng.random() < 0.5 else -v) for v in chosen) + " 0"
        )
    sat.write_text("\n".join(lines) + "\n", encoding="utf-8")

    start = time.perf_counter()
    code_a = main(["compare", "--n", "8", "--counts-only", "--json"])
    out_a = capsys.readouterr().out
    code_b = main(
        ["compare", "--model", "cnf", "--cnf-file", str(sat), "--counts-only",
         "--json"]
    )
    out_b = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    rep_a, rep_b = json.loads(out_a), json.loads(out_b)
    ok = (
        code_a == 0 and code_b == 0
        and rep_a["ancillas"]["szegedy"] == 9
        and rep_a["ancillas"]["paper"] == 12
        and rep_b["ancillas"]["szegedy"] == 21
        and rep_b["ancillas"]["paper"] == 19
        and elapsed < 1.0
    )
    check(
        ok,
        f"criterion 8: count comparison gives 9 vs 12 (n=8 hypercube) and "
        f"21 vs 19 (20-var 90-clause SAT), counts-only "
        f"({elapsed * 1000:.0f}ms < 1s)",
    )


def test_criterion_9_deterministic_reports(capsys, tmp_path):
    toy = tmp_path / "toy.cnf"
    toy.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n", encoding="utf-8")
    argvs = [
        ["build", "--n", "2", "--json", "--deterministic"],
        ["build", "--n", "2", "--energy", "random", "--B", "4", "--seed", "5",
         "--json", "--deterministic"],
        ["verify", "--model", "cnf", "--cnf-file", str(toy), "--beta", "0.7",
         "--json", "--deterministic"],
    ]
    ok = True
    for argv in argvs:
        outs = []
        for _ in range(2):
            code = main(list(argv))
            outs.append(capsys.readouterr().out)
            ok &= code == 0
        ok &= outs[0] == outs[1] and len(outs[0]) > 0
    check(
        ok,
        f"criterion 9: repeated runs with fixed seeds emit byte-identical "
        f"JSON reports ({len(argvs)} configurations, 2 runs each)",
    )
