"""Command-line harness: subcommands, exit codes, report schema, CSV."""

import dataclasses
import importlib.util
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import parwalk.blockenc
import parwalk.cli
import parwalk.parchain
from parwalk.blockenc import (
    UNITARY_TOL,
    FusedReflection,
    build_ancilla_efficient_Q,
    extract_block,
    extraction_chunk_width,
    verify_encoding,
    verify_workspace,
)
from parwalk.cli import main
from parwalk.markov import (
    StochasticMatrix,
    discriminant,
    gibbs_distribution,
    lazy,
    spectral_gaps,
)
from parwalk.models import build_hypercube
from parwalk.parchain import (
    custom_rule,
    decompose_discriminant,
    level_tables,
    metropolis,
)
from parwalk.szegedy import par_walk

LN2 = math.log(2.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_random_3sat(path, num_vars, num_clauses, seed=1):
    rng = random.Random(seed)
    lines = [f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        variables = rng.sample(range(1, num_vars + 1), 3)
        lits = [v if rng.random() < 0.5 else -v for v in variables]
        lines.append(" ".join(map(str, lits)) + " 0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ------------------------------------------------------------- build/verify


def test_verify_hypercube_schema_and_pass(capsys):
    code, out, err = run(
        capsys, "verify", "--n", "2", "--json", "--deterministic"
    )
    assert code == 0, err
    report = json.loads(out)
    assert set(report) == {
        "model", "ancillas", "gamma", "deviations", "spectrum", "pass",
        "timings_ms",
    }
    assert report["pass"] is True
    assert set(report["ancillas"]) == {"szegedy", "paper", "logical"}
    assert {"decomposition", "extraction", "unitarity", "tst", "par_tst"} <= set(
        report["deviations"]
    )
    assert {"delta", "delta_plus", "phase_gap"} <= set(report["spectrum"])
    # hamming levels B=3 pad to 4: gamma = 16, quoted count 2+2+2
    assert report["gamma"] == 16.0
    assert report["ancillas"]["paper"] == 6
    assert report["ancillas"]["logical"] <= 6
    assert report["ancillas"]["szegedy"] == 3
    assert report["deviations"]["decomposition"]["value"] <= 1e-10
    assert report["deviations"]["extraction"]["value"] <= 1e-9
    unitarity = report["deviations"]["unitarity"]
    assert set(unitarity) == {"value", "tol"} and unitarity["tol"] == UNITARY_TOL
    assert unitarity["value"] <= UNITARY_TOL
    assert report["deviations"]["par_tst"]["value"] <= 1e-10
    assert report["timings_ms"] == {k: 0.0 for k in report["timings_ms"]}


def test_timings_cover_extraction(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--json")
    assert code == 0, err
    timings = json.loads(out)["timings_ms"]
    assert set(timings) == {
        "chain", "encoding", "extraction", "spectrum", "walks", "stationary",
    }
    assert timings["extraction"] > 0.0 and timings["stationary"] > 0.0
    code, out, err = run(
        capsys, "verify", "--n", "2", "--construction", "szegedy", "--json"
    )
    assert code == 0, err
    assert "extraction" not in json.loads(out)["timings_ms"]


def test_reported_deviations_are_those_of_the_built_objects(capsys):
    code, out, err = run(
        capsys, "verify", "--n", "3", "--energy", "random", "--B", "5",
        "--seed", "4", "--beta", "0.7", "--json", "--deterministic",
    )
    assert code == 0, err
    dev = json.loads(out)["deviations"]
    model, prop = build_hypercube(3, energy="random", levels=5, seed=4, beta=0.7)
    rule = metropolis()
    q = decompose_discriminant(model, prop, rule).q
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    block = extract_block(be)
    # the CLI reads the block from the fused structure, a different sum
    assert abs(dev["extraction"]["value"] - float(np.abs(block - q).max())) <= 1e-15
    assert dev["unitarity"]["value"] == verify_encoding(be, q).unitary_dev
    walk = par_walk(decompose_discriminant(model, prop, rule))
    assert dev["par_tst"]["value"] == float(np.abs(walk.trt - q).max())


def test_build_compressed_only_leaves_walk_fields_null(capsys):
    code, out, _ = run(
        capsys, "build", "--n", "1", "--construction", "compressed", "--json",
        "--deterministic",
    )
    assert code == 0
    report = json.loads(out)
    assert report["deviations"]["par_tst"] is None
    assert report["deviations"]["extraction"] is not None
    assert report["gamma"] == 8.0


def test_build_szegedy_only_leaves_encoding_fields_null(capsys):
    code, out, _ = run(
        capsys, "build", "--n", "1", "--construction", "szegedy", "--json",
        "--deterministic",
    )
    assert code == 0
    report = json.loads(out)
    assert report["deviations"]["extraction"] is None
    assert report["deviations"]["unitarity"] is None
    assert report["gamma"] is None
    assert report["ancillas"]["logical"] is None
    assert report["deviations"]["par_tst"]["value"] <= 1e-10


def test_build_random_energy_model(capsys):
    code, out, _ = run(
        capsys, "build", "--n", "2", "--energy", "random", "--B", "4",
        "--seed", "11", "--beta", "0.5", "--json", "--deterministic",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["model"]["energy"] == "random"
    assert report["model"]["levels"] == 4


def test_verify_cnf_model(capsys, tmp_path):
    path = tmp_path / "toy.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "verify", "--model", "cnf", "--cnf-file", str(path),
        "--beta", "0.7", "--json", "--deterministic",
    )
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] is True
    assert report["model"]["source"] == "cnf"
    assert report["model"]["levels"] == 3


def test_verify_text_output_lists_fields(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--deterministic")
    assert code == 0
    assert "pass: True" in out
    assert "phase_gap" in out


def test_inject_fault_fails_verification(capsys, monkeypatch):
    # recompose Q from an accept table perturbed at a live proposal entry
    def faulted(model, prop, rule):
        dec = decompose_discriminant(model, prop, rule)
        ga = dec.ga.copy()
        ys, xs = np.nonzero(dec.s * (1.0 - np.eye(dec.s.shape[0])))
        ga[ys[0], xs[0]] += 1e-6
        ga[xs[0], ys[0]] += 1e-6
        dev = float(np.abs(ga * dec.s + dec.r - dec.q).max())
        return dataclasses.replace(dec, deviation=dev)

    monkeypatch.setattr(parwalk.cli, "decompose_discriminant", faulted)
    code, out, err = run(capsys, "verify", "--n", "2", "--json", "--deterministic")
    assert code == 1
    assert "FAIL DecompositionMismatch" in err
    report = json.loads(out)
    assert report["pass"] is False
    assert report["deviations"]["decomposition"]["value"] > 1e-10


def test_faulty_select_fails_verification_through_the_probes(capsys, monkeypatch):
    # each slot applies the next slot's permutation; the fused block is read
    # from the operator's arrays, which are right, so only the probes see it
    select = FusedReflection._select

    def rotated(self, v, out, work):
        turned = FusedReflection(
            self._ut.T, self.d_plus, np.roll(self.perms, -1, axis=0), self.partner
        )
        return select(turned, v, out, work)

    monkeypatch.setattr(FusedReflection, "_select", rotated)
    code, out, err = run(
        capsys, "verify", "--n", "3", "--energy", "random", "--B", "4", "--json",
        "--deterministic",
    )
    assert code == 1
    fails = [line for line in err.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and "FAIL DecompositionMismatch" in fails[0]
    assert "probe block deviation" in fails[0]
    report = json.loads(out)
    assert report["pass"] is False
    assert report["deviations"]["extraction"]["value"] <= 1e-15


def test_build_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "build", "--n", "1", "--json", "--deterministic",
        "--out", str(out_path),
    )
    assert code == 0
    on_disk = json.loads(out_path.read_text(encoding="utf-8"))
    assert on_disk["pass"] is True


def test_deterministic_reports_are_byte_identical(capsys):
    argv = ("build", "--n", "2", "--beta", "1.5", "--json", "--deterministic")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second and first.endswith("\n")


# ----------------------------------------------------------------- spectrum


def parse_csv(out):
    lines = out.strip().splitlines()
    assert lines[0] == "index,lambda,predicted_phase,measured_phase,abs_err"
    rows, footer = [], {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) == 5:
            rows.append(tuple(float(p) for p in parts))
        else:
            footer[parts[0]] = float(parts[1])
    return rows, footer


def test_spectrum_two_state_rows(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--n", "1", "--beta", repr(LN2)
    )
    assert code == 0
    rows, footer = parse_csv(out)
    assert len(rows) == 2
    idx, lam, pred, meas, err = rows[0]
    assert (idx, lam, pred, meas) == (0.0, 1.0, 0.0, 0.0)
    idx, lam, pred, meas, err = rows[1]
    assert abs(lam + 0.5) < 1e-12
    assert abs(pred - 2.0 * math.pi / 3.0) < 1e-12
    assert abs(meas - 2.0 * math.pi / 3.0) < 1e-9
    assert err <= 1e-8
    assert abs(footer["delta"] - 0.5) < 1e-12
    assert abs(footer["delta_plus"] - 1.5) < 1e-12
    assert abs(footer["phase_gap"] - 2.0 * math.pi / 3.0) < 1e-9
    assert footer["phase_gap"] >= footer["sqrt_2_delta_plus"] - 1e-12
    assert abs(footer["sqrt_2_delta_plus"] - math.sqrt(3.0)) < 1e-12


def test_spectrum_lazifies_periodic_chain(capsys):
    # beta = 0: pure proposal walk on the 2-cube, bipartite hence periodic;
    # the reported chain is the lazy one with eigenvalues {1, 1/2, 1/2, 0}
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--beta", "0")
    assert code == 0
    rows, footer = parse_csv(out)
    lams = sorted(row[1] for row in rows)
    assert np.abs(np.array(lams) - [0.0, 0.5, 0.5, 1.0]).max() < 1e-12
    assert abs(footer["delta_plus"] - 0.5) < 1e-12
    assert abs(footer["phase_gap"] - math.pi / 3.0) < 1e-9
    assert footer["phase_gap"] >= footer["sqrt_2_delta_plus"] - 1e-12


def test_spectrum_csv_file_output(capsys, tmp_path):
    out_path = tmp_path / "spec.csv"
    code, out, _ = run(
        capsys, "spectrum", "--n", "1", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    rows, footer = parse_csv(out_path.read_text(encoding="utf-8"))
    assert len(rows) == 2 and "phase_gap" in footer


def test_spectrum_reports_lazy_flag_in_reports(capsys):
    code, out, _ = run(
        capsys, "build", "--n", "2", "--beta", "0", "--json", "--deterministic"
    )
    assert code == 0
    report = json.loads(out)
    assert report["spectrum"]["lazy"] is True
    assert report["pass"] is True


PINNED = json.loads((Path(__file__).parent / "pinned_reports.json").read_text(encoding="utf-8"))
PINNED_CNF = """p cnf 5 8
1 -2 3 0
-1 4 5 0
2 -3 -4 0
-2 -5 1 0
3 4 -1 0
-3 5 2 0
-4 -5 -2 0
1 2 5 0
"""


def assert_same_report(got, want, key="report"):
    """got equals want in its keys, strings, integers, booleans and
    tolerances, and in every other float to within 1e-12, so that BLAS
    builds that round differently agree."""
    assert type(got) is type(want), key
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), key
        for name in want:
            assert_same_report(got[name], want[name], f"{key}.{name}")
    elif isinstance(want, float) and not key.endswith(".tol"):
        assert abs(got - want) <= 1e-12, (key, got, want)
    else:
        assert got == want, key


@pytest.mark.parametrize("chain", sorted(PINNED))
def test_verify_reports_are_pinned(capsys, tmp_path, chain):
    # the reports of a range of chains (both rules, a periodic chain, padded
    # and unpadded level counts, a CNF instance, n = 7), as the fused
    # operator's earlier three-node form wrote them
    path = tmp_path / "pinned.cnf"
    path.write_text(PINNED_CNF, encoding="utf-8")
    argv = [arg.replace("{cnf}", str(path)) for arg in PINNED[chain]["argv"]]
    code, out, err = run(capsys, "verify", *argv, "--json", "--deterministic")
    assert code == 0, err
    want = PINNED[chain]["report"]
    if want["model"]["source"] == "cnf":
        want["model"]["path"] = str(path)
    assert_same_report(json.loads(out), want)


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize("beta", ["0", "1"], ids=["periodic", "aperiodic"])
def test_the_chain_discriminant_is_solved_once(capsys, monkeypatch, command, beta):
    model, prop = build_hypercube(4, energy="hamming", beta=float(beta))
    dec = decompose_discriminant(model, prop, metropolis())
    assert spectral_gaps(dec.q).periodic == (beta == "0")
    chain_qs = (dec.q, discriminant(lazy(dec.p), gibbs_distribution(model)))
    # counted by operand: the eigh of 2 pad(B) that the encoding's
    # dilations make is 16 x 16 at n = 4, the shape of Q
    solves = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            a_arr = np.asarray(a)
            if any(a_arr.shape == q.shape and np.allclose(a_arr, q, rtol=0.0, atol=1e-12)
                   for q in chain_qs):
                solves.append(_name)
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    # and the Gibbs distribution, which the lazy discriminant reads, is
    # built once per command too
    gibbs = []
    monkeypatch.setattr(
        parwalk.cli, "gibbs_distribution",
        lambda model: gibbs.append(model) or gibbs_distribution(model),
    )
    code, _, err = run(capsys, command, "--n", "4", "--beta", beta)
    assert code == 0, err
    assert solves == ["eigh"]
    assert len(gibbs) == 1


# ------------------------------------------------------------------ compare


def test_compare_counts_only_hypercube(capsys):
    code, out, _ = run(
        capsys, "compare", "--n", "8", "--counts-only", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["ancillas"]["szegedy"] == 9
    assert report["ancillas"]["paper"] == 12
    assert report["ancillas"]["logical"] is None
    assert report["gamma"]["paper"] == 64.0  # 4 * pad(9) = 4 * 16


def test_compare_counts_only_sat_instance(capsys, tmp_path):
    path = tmp_path / "sat20.cnf"
    write_random_3sat(path, 20, 90)
    code, out, _ = run(
        capsys, "compare", "--model", "cnf", "--cnf-file", str(path),
        "--counts-only", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ancillas"]["szegedy"] == 21
    assert report["ancillas"]["paper"] == 19
    assert report["model"]["levels"] == 91


def test_compare_builds_logical_count_for_small_model(capsys):
    code, out, _ = run(capsys, "compare", "--n", "1", "--beta", repr(LN2))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["construction", "extra", "qubits", "gamma"]
    table = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert table["szegedy"][0] == "2"
    assert table["compressed"][0] == "3"
    assert table["built"][0] == "3"


# --------------------------------------------------------------- exit codes


def test_cap_exceeded_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "--n", "7", "--json")
    assert code == 2
    assert "error:" in err and "--max-n" in err


@pytest.mark.parametrize(
    "argv", [("verify", "--n", "3", "--max-n", "0"), ("compare", "--n", "3", "--max-n", "1")]
)
def test_refused_max_n_prints_no_estimate(capsys, argv):
    # a refused n allocates nothing, so its sizes are not printed
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == (
        f"error: ParwalkError: n=3 exceeds the dense-build cap {argv[-1]}; "
        "raise it with --max-n\n"
    )


def test_max_n_raises_cap_and_prints_estimate(capsys):
    code, _, err = run(
        capsys, "build", "--n", "2", "--max-n", "4", "--json",
        "--deterministic",
    )
    assert code == 0
    assert "cap raised to n=4" in err
    # sizes below 1 MiB print in KiB, to one decimal: the walk's 2 * 4^2
    # entries of T, as many index entries and T^dag R T of 4 x 4 floats
    # (640 B), and the probe workspace of four chunks of the 2 columns the
    # probes apply at once, of 4 * 2^5 floats each
    assert "a walk isometry of ~0.6 KiB" in err
    assert "a probe workspace of ~8.0 KiB" in err


def test_max_n_estimate_prices_one_extraction_chunk(capsys, monkeypatch):
    # n = 7, B = 16: the encoding verify builds has 3 + 4 + 2 = 9 ancillas,
    # so one column is 2^7 * 2^9 * 8 bytes = 512 KiB, above the chunk
    # budget: one column per chunk, and verify_encoding's workspace holds
    # four such chunks, 2 MiB, printed to one decimal
    model, prop = build_hypercube(7, energy="random", levels=16, seed=0)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    chunk_bytes = extraction_chunk_width(be.sys_dim, be.op.dim) * be.op.dim * 8
    assert chunk_bytes == 512 * 2**10
    workspaces = []
    empty = np.empty

    def recorded(shape, *args, **kwargs):
        arr = empty(shape, *args, **kwargs)
        workspaces.append(arr.nbytes)
        return arr

    monkeypatch.setattr(parwalk.blockenc.np, "empty", recorded)
    verify_encoding(be, extract_block(be))
    monkeypatch.undo()
    assert max(workspaces) == 4 * chunk_bytes
    assert max(workspaces) == math.prod(verify_workspace(be.sys_dim, be.op.dim)) * 8
    args = parwalk.cli._parser().parse_args(["verify", "--max-n", "7"])
    parwalk.cli._check_cap(args, 7, 16)
    err = capsys.readouterr().err
    assert "a probe workspace of ~2.0 MiB" in err
    # n = 10, B = 16: 4 + 4 + 2 = 10 ancillas, one column of 8 MiB
    args = parwalk.cli._parser().parse_args(["verify", "--max-n", "10"])
    parwalk.cli._check_cap(args, 10, 16)
    err = capsys.readouterr().err
    assert "a probe workspace of ~32.0 MiB" in err
    # a size of 1.5 MiB prints as such, not rounded half to even to 2
    assert parwalk.cli._size(3 * 2**19) == "~1.5 MiB"
    # n = 4, B = 17: 2 + 5 + 2 = 9 ancillas, columns of 64 KiB, four to a
    # chunk; the workspace holds only the two the probes apply at once
    model, prop = build_hypercube(4, energy="random", levels=17, seed=0)
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, metropolis()))
    assert extraction_chunk_width(be.sys_dim, be.op.dim) == 4
    workspaces.clear()
    monkeypatch.setattr(parwalk.blockenc.np, "empty", recorded)
    verify_encoding(be, extract_block(be))
    monkeypatch.undo()
    assert max(workspaces) == 4 * 2 * be.op.dim * 8
    assert max(workspaces) == math.prod(verify_workspace(be.sys_dim, be.op.dim)) * 8
    args = parwalk.cli._parser().parse_args(["verify", "--max-n", "4"])
    parwalk.cli._check_cap(args, 4, 17)
    assert "a probe workspace of ~512.0 KiB" in capsys.readouterr().err


def test_max_n_estimate_follows_the_construction(capsys):
    code, _, err = run(
        capsys, "verify", "--n", "2", "--max-n", "7", "--construction",
        "compressed", "--json",
    )
    assert code == 0
    assert "probe workspace" in err and "walk isometry" not in err
    code, _, err = run(
        capsys, "verify", "--n", "2", "--max-n", "7", "--construction",
        "szegedy", "--json",
    )
    assert code == 0
    assert "walk isometry" in err and "extraction" not in err


def test_verify_passes_when_pi_spans_orders_of_magnitude(capsys):
    # failed with NotErgodic (stationary vs Gibbs 1.9e-10 > 1e-10) while
    # the stationary state came from the nonsymmetric eigensolver
    code, out, err = run(
        capsys, "verify", "--n", "4", "--energy", "random", "--B", "17",
        "--seed", "856035082", "--construction", "compressed", "--json",
        "--deterministic",
    )
    assert code == 0, err
    assert json.loads(out)["pass"] and "FAIL" not in err


@pytest.mark.parametrize("beta", ["15", "40"])
def test_verify_passes_at_large_beta(capsys, beta):
    # pi reaches 8.8e-27 at beta = 15; the stationary check reported it as
    # not strictly positive
    code, out, err = run(capsys, "verify", "--n", "4", "--beta", beta, "--json")
    assert code == 0, err
    assert json.loads(out)["pass"]


@pytest.mark.parametrize("command", ["build", "verify", "spectrum"])
def test_gap_below_resolution_is_an_input_error(capsys, command):
    # a local minimum of the random energies traps the chain: at beta = 157
    # its escape probability is ~1e-68 and lambda_2 rounds to 1
    code, out, err = run(
        capsys, command, "--n", "3", "--energy", "random", "--B", "3",
        "--seed", "238", "--beta", "157", "--json",
    )
    assert code == 2 and out == ""
    # the printed gap is the eigensolver's rounding of 1 - lambda_2
    found = re.search(r"error: NotErgodic: one-sided gap (\S+) is below 1e-09", err)
    assert found and float(found.group(1)) <= 1e-9


def test_missing_cnf_file_flag(capsys):
    code, _, err = run(capsys, "verify", "--model", "cnf")
    assert code == 2 and "cnf" in err


def test_nonexistent_cnf_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "--model", "cnf", "--cnf-file",
        str(tmp_path / "missing.cnf"),
    )
    assert code == 2 and "error:" in err


def test_verify_prints_every_failure(capsys, monkeypatch):
    embed = parwalk.cli.eigenbasis_embedding
    monkeypatch.setattr(parwalk.cli, "check_detailed_balance", lambda *a, **k: False)
    # a NaN deviation fails the thresholds like a large one
    for dev, text in ((1.0, "1.000e+00"), (math.nan, "nan")):
        def faulted(model, prop, rule, dev=dev):
            dec = decompose_discriminant(model, prop, rule)
            return dataclasses.replace(dec, deviation=dev)

        def faulted_embedding(q, gaps, dev=dev):
            return dataclasses.replace(embed(q, gaps), tst_dev=dev)

        monkeypatch.setattr(parwalk.cli, "decompose_discriminant", faulted)
        monkeypatch.setattr(parwalk.cli, "eigenbasis_embedding", faulted_embedding)
        code, out, err = run(capsys, "verify", "--n", "2", "--json", "--deterministic")
        assert code == 1
        assert err.splitlines() == [
            f"FAIL DecompositionMismatch: (G(.)A)(.)S + R deviates from Q by {text}",
            "FAIL NotReversible: detailed balance fails at 1e-12",
            f"FAIL DecompositionMismatch: tst deviates by {text}",
        ]
        assert json.loads(out)["pass"] is False


def test_block_deviation_prints_one_fail_line(capsys, monkeypatch):
    # the detailed line already names the extraction deviation
    verify = parwalk.cli.verify_encoding

    def faulted(be, target, tol):
        return dataclasses.replace(verify(be, target, tol=tol), max_abs_dev=1.0, passed=False)

    monkeypatch.setattr(parwalk.cli, "verify_encoding", faulted)
    code, out, err = run(
        capsys, "verify", "--n", "3", "--energy", "random", "--B", "4",
        "--construction", "compressed", "--json", "--deterministic",
    )
    assert code == 1 and json.loads(out)["pass"] is False
    fails = [line for line in err.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith(
        "FAIL DecompositionMismatch: encoding deviation 1.000e+00, unitary deviation "
    )


def test_one_verify_evaluates_the_rule_once(capsys, monkeypatch):
    # the decomposition's level tables build the encoding: 2B - 1 rule
    # values and two level tables per chain (4 (2B - 1) and three before)
    calls = {"f": 0, "level_table": 0}
    rule = metropolis()
    level_table = parwalk.parchain._level_table

    def f(d, beta):
        calls["f"] += 1
        return rule.f(d, beta)

    def counted(*args):
        calls["level_table"] += 1
        return level_table(*args)

    monkeypatch.setattr(parwalk.cli, "_rule", lambda _name: custom_rule(f))
    monkeypatch.setattr(parwalk.parchain, "_level_table", counted)
    code, _, _ = run(
        capsys, "verify", "--n", "4", "--energy", "random", "--B", "7",
        "--json", "--deterministic",
    )
    assert code == 0
    assert calls == {"f": 2 * 7 - 1, "level_table": 2}


def test_verify_fails_a_chain_whose_gibbs_state_is_not_stationary(capsys, monkeypatch):
    # move 1e-6 of state 0's mass from staying to its first proposed move:
    # P stays stochastic, and P pi - pi = 1e-6 pi_0 at two states
    def faulted(model, prop, rule):
        dec = decompose_discriminant(model, prop, rule)
        moved = dec.p.entries.copy()
        moved[0, 0] -= 1e-6
        moved[prop.perms[0][0], 0] += 1e-6
        return dataclasses.replace(dec, p=StochasticMatrix(moved))

    monkeypatch.setattr(parwalk.cli, "decompose_discriminant", faulted)
    code, out, err = run(capsys, "verify", "--n", "2", "--json", "--deterministic")
    assert code == 1
    fails = [line for line in err.splitlines() if line.startswith("FAIL NotErgodic")]
    assert len(fails) == 1
    assert re.fullmatch(
        r"FAIL NotErgodic: \|P pi - pi\| = 5\.\d{3}e-07 exceeds 1e-10: pi is not stationary",
        fails[0],
    )
    report = json.loads(out)
    assert report["pass"] is False
    # the failed certificate is timed like any other stage
    assert report["timings_ms"]["stationary"] == 0.0


def strict_json(text):
    """json.loads that rejects the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("value, written", [(math.inf, "Infinity"), (math.nan, "NaN")])
def test_non_finite_deviations_are_written_as_strict_json(capsys, monkeypatch, tmp_path,
                                                          value, written):
    # an unpaired select certifies its unitarity as inf
    monkeypatch.setattr(FusedReflection, "unitarity_residual", lambda self: value)
    path = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--n", "3", "--json", "--deterministic", "--out", str(path),
    )
    assert code == 1 and "FAIL DecompositionMismatch" in err
    for text in (out, path.read_text(encoding="utf-8")):
        report = strict_json(text)
        assert report["deviations"]["unitarity"]["value"] == written
        assert report["pass"] is False


def test_eigenpairs_that_miss_q_are_an_input_error(capsys, monkeypatch):
    # the embedding checks the eigenpairs it is given against q
    def shifted(q):
        gaps = spectral_gaps(q)
        lams = gaps.eigenvalues.copy()
        lams[1] += 1e-6
        return dataclasses.replace(gaps, eigenvalues=lams)

    monkeypatch.setattr(parwalk.cli, "spectral_gaps", shifted)
    code, out, err = run(capsys, "verify", "--n", "3", "--json")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: SpectrumOutOfRange: t^dag s t deviates from q"]


def test_the_traced_benchmark_finds_every_function_it_wraps(capsys):
    # perfbench/tracing.py replaces module attributes by name for a traced
    # run; a name that parwalk stops binding ends that run with
    # AttributeError, while untraced runs still pass
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {
        "parwalk.cli": parwalk.cli,
        "parwalk.blockenc": parwalk.blockenc,
        "parwalk.parchain": parwalk.parchain,
    }
    sites = [(modules[mod], attr) for group in tracing.WRAPPED.values() for mod, attr in group]
    # raises before anything is replaced when a wrapped name is missing
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = tracing.Tracer()
    saved = tracer.install(modules)
    try:
        code = tracer.run_chain(
            "n2", main, ["verify", "--n", "2", "--construction", "both", "--json"]
        )
        metrics = tracing.layer_metrics(tracer.spans, [])
    finally:
        tracing.Tracer.restore(saved)
    capsys.readouterr()
    assert code == 0
    assert {"spectra.embed", "szegedy.walk", "blockenc.build"} <= {
        span["name"] for span in tracer.spans
    }
    assert metrics["szegedy.walk_dim"][0] > 0 and metrics["blockenc.anc_qubits"][0] > 0
    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(sites, originals))


def test_malformed_cnf_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 2\n", encoding="utf-8")
    code, _, err = run(
        capsys, "verify", "--model", "cnf", "--cnf-file", str(path)
    )
    assert code == 2 and "ParseError" in err


def test_non_utf8_cnf_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "binary.cnf"
    path.write_bytes(b"p cnf 2 1\n\xff\xfe\x00 0\n")
    code, out, err = run(
        capsys, "verify", "--model", "cnf", "--cnf-file", str(path), "--json"
    )
    assert code == 2 and out == ""
    assert err == "error: ParseError: line 2: byte 10 is not UTF-8\n"


def test_oversized_hypercube_is_an_input_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "62", "--max-n", "62", "--json")
    assert code == 2 and out == ""
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: TooManyVariables: 62 bits exceeds the enumeration cap 24"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "max_n, error",
    [
        ("62", "TooManyVariables: 62 bits exceeds the enumeration cap 24"),
        ("30", "ParwalkError: n=62 exceeds the dense-build cap 30; raise it with --max-n"),
    ],
)
def test_hypercube_past_the_enumeration_cap_is_not_priced(capsys, max_n, error):
    # the size estimate of --max-n would price arrays that are never built
    code, out, err = run(capsys, "verify", "--n", "62", "--max-n", max_n, "--json")
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("model", ["hypercube", "cnf"])
def test_out_of_memory_is_an_input_error(capsys, monkeypatch, tmp_path, model):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(parwalk.cli, "build_hypercube", exhausted)
    monkeypatch.setattr(parwalk.cli, "build_cnf", exhausted)
    path = tmp_path / "toy.cnf"
    write_random_3sat(path, 4, 6)
    argv = ["--n", "5"] if model == "hypercube" else ["--model", "cnf", "--cnf-file", str(path)]
    code, out, err = run(capsys, "verify", *argv, "--json")
    assert code == 2 and out == ""
    size = "n=5" if model == "hypercube" else f"the chain of {path}"
    assert err == f"error: MemoryError: not enough memory for {size}\n"


def test_random_energy_requires_level_count(capsys):
    code, _, err = run(capsys, "build", "--n", "2", "--energy", "random")
    assert code == 2 and "--B" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--n", "-1"), "--n"),
        (("--n", "0"), "--n"),
        (("--energy", "random", "--B", "0"), "--B"),
        (("--tol", "-1"), "--tol"),
        (("--tol", "nan"), "--tol"),
        (("--tol", "inf"), "--tol"),
        (("--beta", "nan"), "--beta"),
        (("--beta=-inf",), "--beta"),
        (("--energy", "random", "--B", "4", "--seed", "-1"), "seed"),
        (("--beta", "-1"), "--beta"),
    ],
)
def test_out_of_range_flags_are_input_errors(capsys, argv, flag):
    # --counts-only builds no chain, and must refuse the same flags
    for command in (("verify",), ("compare", "--counts-only")):
        code, out, err = run(capsys, *command, *argv, "--json")
        assert code == 2 and out == ""
        assert f"error: ParwalkError: {flag} " in err


@pytest.mark.parametrize("rule", ["metropolis", "glauber"])
def test_huge_beta_underflows_to_an_input_error(capsys, rule):
    # e^{-1000} underflows to a zero acceptance value, which the (0, 1]
    # table check rejects; the exponent itself must not overflow
    code, out, err = run(
        capsys, "verify", "--n", "2", "--beta", "1000", "--acceptance", rule,
        "--json",
    )
    assert code == 2 and out == ""
    assert "FunctionalEquationViolated" in err and rule in err


@pytest.mark.parametrize("rule", ["metropolis", "glauber"])
def test_acceptance_underflow_is_named_on_one_line(capsys, rule):
    # at beta = 100 the values f(d), d >= 8, of a 16-level table are below
    # the smallest float64; the error names the first of them
    code, out, err = run(
        capsys, "verify", "--n", "4", "--energy", "random", "--B", "16",
        "--beta", "100", "--acceptance", rule,
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: FunctionalEquationViolated: {rule}: f(8) underflows to 0 in "
        "float64 at beta=100.0"
    ]
