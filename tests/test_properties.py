"""Property tests of the discriminant encoding over random small chains:
random involutions with fixed points, optionally joined by a cycle and its
inverse at one weight or by [C, C, C^-1] at weights (w, w, 2w), whose
slots split in two, random energies on B levels, beta from 0 to 40 and
both acceptance rules. The embedding's phases are checked against the
dense diagonalization of its walk on the same chains, and the command
line's exit-code contract over its flag ranges."""

import contextlib
import io

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from parwalk.blockenc import (  # noqa: E402
    build_ancilla_efficient_Q,
    extract_block,
    fused_ancillas,
)
from parwalk.cli import main  # noqa: E402
from parwalk.markov import (  # noqa: E402
    GibbsModel,
    discriminant,
    gibbs_distribution,
    lazy,
    spectral_gaps,
)
from parwalk.parchain import (  # noqa: E402
    decompose_discriminant,
    glauber,
    level_tables,
    metropolis,
    proposal_from_permutations,
)
from parwalk.spectra import eigenbasis_embedding, walk_phases  # noqa: E402
from test_spectra import dense_walk  # noqa: E402


def _involution(order, pairs):
    p = np.arange(order.size)
    a, b = order[: 2 * pairs : 2], order[1 : 2 * pairs : 2]
    p[a], p[b] = b, a
    return p


@st.composite
def chains(draw):
    n = draw(st.integers(2, 12))
    cyclic = n >= 3 and draw(st.booleans())
    perms, weights = [], []
    for _ in range(draw(st.integers(0 if cyclic else 1, 3))):
        order = np.array(draw(st.permutations(range(n))))
        perms.append(_involution(order, draw(st.integers(0, n // 2))))
        weights.append(draw(st.integers(1, 5)))
    if cyclic:
        order = np.array(draw(st.permutations(range(n))))
        length = draw(st.integers(3, n))
        cyc = np.arange(n)
        cyc[order[:length]] = np.roll(order[:length], 1)
        w = draw(st.integers(1, 5))
        if draw(st.booleans()):
            perms += [cyc, cyc, np.argsort(cyc)]
            weights += [w, w, 2 * w]
        else:
            perms += [cyc, np.argsort(cyc)]
            weights += [w, w]
    weights = np.array(weights, dtype=float)
    prop = proposal_from_permutations(weights / weights.sum(), perms)
    levels = draw(st.integers(1, 9))
    energies = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
    beta = draw(st.floats(0.0, 40.0))
    model = GibbsModel(energies=energies, levels=levels, beta=beta)
    rule = draw(st.sampled_from([metropolis(), glauber()]))
    return model, prop, rule


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chains())
def test_encoding_properties(chain):
    model, prop, rule = chain
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    dec = decompose_discriminant(model, prop, rule)
    assert np.abs(extract_block(be) - dec.q).max() <= 1e-9
    pad = 1 << (model.levels - 1).bit_length()
    assert be.gamma == 4 * pad
    m = (prop.kappa - 1).bit_length()
    b = pad.bit_length() - 1
    assert be.anc_qubits == fused_ancillas(len(prop.paired_slots()[1]), model.levels)
    assert be.anc_qubits <= be.paper_anc == 2 * m + b + 2
    probes = np.random.default_rng(0).standard_normal((3, be.op.dim))
    assert np.abs(be.op.apply(be.op.apply(probes)) - probes).max() <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chains())
def test_structured_block_matches_full_extraction(chain):
    model, prop, rule = chain
    be = build_ancilla_efficient_Q(model, prop, level_tables(model, rule))
    # every proposal takes the fused route, which is read from its structure
    assert np.abs(be.gamma * be.op.block() - extract_block(be)).max() <= 1e-15


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chains())
def test_block_phases_match_the_dense_walk(chain):
    model, prop, rule = chain
    dec = decompose_discriminant(model, prop, rule)
    q, gaps = dec.q, spectral_gaps(dec.q)
    if gaps.periodic:
        q, gaps = discriminant(lazy(dec.p), gibbs_distribution(model)), gaps.lazy()
    emb = eigenbasis_embedding(q, gaps)
    u = dense_walk(gaps.eigenvectors, emb.phases)
    phases = np.sort(emb.phases)
    # no phase sits near the cut at pi: the embedded chain is aperiodic
    assert np.abs(phases - np.sort(np.angle(np.linalg.eigvals(u)))).max() <= 1e-12
    assert np.abs(phases - np.sort(walk_phases(u))).max() <= 1e-12


@st.composite
def cli_calls(draw):
    argv = [
        draw(st.sampled_from(["build", "verify", "spectrum", "compare"])),
        "--n", str(draw(st.integers(-2, 5))),
        "--energy", draw(st.sampled_from(["hamming", "random"])),
        "--seed", str(draw(st.integers(-5, 2**70))),
        f"--beta={draw(st.floats(0.0, 50.0) | st.floats())!r}",
        "--acceptance", draw(st.sampled_from(["metropolis", "glauber"])),
        "--construction", draw(st.sampled_from(["compressed", "szegedy", "both"])),
        "--tol", "1e-9",
        "--json",
    ]
    levels = draw(st.none() | st.integers(-2, 20))
    if levels is not None:
        argv += ["--B", str(levels)]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@example(["verify", "--n", "3", "--energy", "random", "--B", "4", "--seed", "-1"])
@example(["verify", "--n", "4", "--beta", "15"])
@example(["verify", "--n", "62", "--max-n", "62"])
@example(["verify", "--n", "4", "--beta", "40"])
@example(
    ["verify", "--n", "3", "--energy", "random", "--B", "3", "--seed", "238", "--beta", "157"]
)
@given(cli_calls())
def test_cli_exits_with_zero_or_two(argv):
    # every input the flags admit is either verified or an input error:
    # never a verification failure, never a traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
