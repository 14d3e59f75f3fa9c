"""Propose-accept/reject layer: proposal decompositions, acceptance rules,
energy-dependent tables, and the discriminant decomposition
Q = (G (.) A) (.) S + R."""

import numpy as np
import pytest

from parwalk.errors import (
    BadWeights,
    DimensionMismatch,
    FunctionalEquationViolated,
    NotSymmetric,
    ParwalkError,
    WeightMismatch,
)
from parwalk.markov import GibbsModel, gibbs_distribution, discriminant
from parwalk.parchain import (
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

LN2 = np.log(2.0)
RT = np.sqrt(0.5)


def two_state_model():
    return GibbsModel(energies=np.array([0, 1]), levels=2, beta=LN2)


def swap_proposal():
    return ProposalDecomposition(perms=(np.array([1, 0]),), weights=np.array([1.0]))


def cycle_pair_proposal():
    # 3-cycle plus its inverse with equal weights: symmetric but not involutions
    return proposal_from_permutations(
        np.array([0.5, 0.5]), (np.array([1, 2, 0]), np.array([2, 0, 1]))
    )


class TestProposalDecomposition:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(BadWeights):
            ProposalDecomposition(
                perms=(np.array([1, 0]), np.array([0, 1])),
                weights=np.array([0.5, 0.4]),
            )

    def test_weight_count_must_match_perm_count(self):
        with pytest.raises(WeightMismatch):
            ProposalDecomposition(perms=(np.array([1, 0]),), weights=np.array([0.5, 0.5]))

    def test_weights_must_be_positive(self):
        with pytest.raises(BadWeights):
            ProposalDecomposition(
                perms=(np.array([1, 0]), np.array([0, 1])),
                weights=np.array([1.2, -0.2]),
            )

    def test_perms_must_be_bijections(self):
        with pytest.raises(ParwalkError):
            ProposalDecomposition(perms=(np.array([0, 0]),), weights=np.array([1.0]))

    def test_asymmetric_mix_rejected(self):
        # a lone 3-cycle gives S = Pi which is not symmetric
        with pytest.raises(NotSymmetric):
            proposal_from_permutations(np.array([1.0]), (np.array([1, 2, 0]),))

    def test_cycle_pair_is_symmetric_but_not_involutive(self):
        prop = cycle_pair_proposal()
        assert not prop.all_involutions
        s = prop.s
        assert np.abs(s - s.T).max() < 1e-15

    def test_assemble_doubly_stochastic(self):
        s = hypercube_proposal(3).s
        assert np.abs(s.sum(axis=0) - 1.0).max() < 1e-15
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-15

    def test_hypercube_proposal_structure(self):
        prop = hypercube_proposal(3)
        assert prop.kappa == 3
        assert prop.all_involutions
        s = prop.s
        # single-bit-flip adjacency: eigenvalues (1 - 2k/3) with binomial
        # multiplicity
        eigs = np.sort(np.linalg.eigvalsh(s))
        expect = np.sort(np.array([1.0, -1.0] + [1 / 3] * 3 + [-1 / 3] * 3))
        assert np.abs(eigs - expect).max() < 1e-12

    def test_inverses(self):
        prop = cycle_pair_proposal()
        for p, pinv in zip(prop.perms, prop.inverses):
            assert np.array_equal(p[pinv], np.arange(3))

    def test_paired_slots_of_involutions_are_the_given_slots(self):
        prop = hypercube_proposal(3)
        weights, perms, partner = prop.paired_slots()
        assert np.array_equal(weights, prop.weights)
        assert all(p is q for p, q in zip(perms, prop.perms))
        assert np.array_equal(partner, np.arange(3))

    def test_paired_slots_pair_a_cycle_with_its_inverse(self):
        weights, perms, partner = cycle_pair_proposal().paired_slots()
        assert np.array_equal(weights, [0.5, 0.5]) and len(perms) == 2
        assert np.array_equal(partner, [1, 0])

    @pytest.mark.parametrize(
        "weights, perms, slots",
        [
            # [C, C, C^-1] at [1/4, 1/4, 1/2]: no slot meets its inverse at
            # its own weight, so all three split
            ([0.25, 0.25, 0.5], [[1, 2, 3, 0], [1, 2, 3, 0], [3, 0, 1, 2]], 6),
            # (0 1)(2 3 4) and (2 4 3): neither an involution nor the
            # other's inverse
            ([0.5, 0.5], [[1, 0, 3, 4, 2], [0, 1, 4, 2, 3]], 4),
            # a pair, an involution, and three more 3-cycles, none of them
            # with an unpaired inverse at its own weight
            ([0.2, 0.2, 0.2, 0.1, 0.1, 0.2],
             [[1, 2, 0, 3], [2, 0, 1, 3], [3, 2, 1, 0], [1, 2, 0, 3], [1, 2, 0, 3],
              [2, 0, 1, 3]], 9),
        ],
        ids=["split", "mixed", "partial"],
    )
    def test_paired_slots_split_lone_permutations(self, weights, perms, slots):
        prop = proposal_from_permutations(weights, [np.array(p) for p in perms])
        w, p, partner = prop.paired_slots()
        assert len(p) == len(w) == slots <= 2 * prop.kappa
        assert np.array_equal(partner[partner], np.arange(slots))
        for k, j in enumerate(partner):
            assert np.array_equal(p[j], np.argsort(p[k])) and w[j] == w[k]
        # the same S, and the same rejection R under any acceptance matrix
        paired = proposal_from_permutations(w, p)
        assert np.abs(paired.s - prop.s).max() < 1e-15
        a = np.random.default_rng(0).uniform(0.1, 1.0, size=(prop.n, prop.n))
        np.fill_diagonal(a, 1.0)
        a = np.minimum(a, a.T)
        assert np.abs(r_matrix(paired, a) - r_matrix(prop, a)).max() < 1e-15


class TestAcceptanceRules:
    def test_metropolis_values(self):
        rule = metropolis()
        assert rule.f(0, LN2) == 1.0
        assert abs(rule.f(1, LN2) - 0.5) < 1e-15
        assert rule.f(-1, LN2) == 1.0

    def test_glauber_values(self):
        rule = glauber()
        assert abs(rule.f(0, LN2) - 0.5) < 1e-15
        assert abs(rule.f(1, LN2) - 1.0 / 3.0) < 1e-15
        assert abs(rule.f(-1, LN2) - 2.0 / 3.0) < 1e-15

    def test_table_symmetrized_functional_equation(self):
        for rule in (metropolis(), glauber()):
            vals = rule.table(0.7, 5)
            deltas = np.arange(-4, 5)
            sym = np.exp(0.35 * deltas) * vals
            assert np.abs(sym - sym[::-1]).max() < 1e-12

    def test_scaled_metropolis_is_valid(self):
        rule = custom_rule(lambda d, b: 0.5 * min(1.0, np.exp(-b * d)))
        vals = rule.table(1.0, 3)
        assert vals.max() <= 0.5

    def test_functional_equation_violation(self):
        rule = custom_rule(lambda d, b: 0.7)
        with pytest.raises(FunctionalEquationViolated):
            rule.table(1.0, 3)

    @pytest.mark.parametrize("rule", [metropolis(), glauber()], ids=["metropolis", "glauber"])
    def test_underflow_is_named(self, rule):
        # f(d) = e^{-100 d} is below the smallest float64 from d = 8 on
        with pytest.raises(
            FunctionalEquationViolated, match=r"f\(8\) underflows to 0 in float64 at beta=100.0"
        ):
            rule.table(100.0, 16)
        with pytest.raises(FunctionalEquationViolated, match="must lie in"):
            custom_rule(lambda d, b: float("nan")).table(1.0, 3)

    def test_range_violation(self):
        rule = custom_rule(lambda d, b: 2.0 * np.exp(-0.5 * b * d))
        with pytest.raises(ParwalkError):
            rule.table(1.0, 2)

    @pytest.mark.parametrize(
        "build",
        [
            acceptance_matrix,
            level_tables,
            lambda model, rule: decompose_discriminant(model, swap_proposal(), rule),
        ],
        ids=["acceptance_matrix", "level_tables", "decompose_discriminant"],
    )
    def test_functional_equation_violation_reaches_every_builder(self, build):
        # no N x N check repeats the table's: each builder validates the
        # rule's values through rule.table before gathering from them
        with pytest.raises(FunctionalEquationViolated):
            build(two_state_model(), custom_rule(lambda d, b: 0.7))


class TestEnergyTables:
    def test_ga_table_reweights_by_g(self):
        # g(1, 0) = sqrt 2 and g(0, 1) = 1/sqrt 2 times the Glauber values
        # f(1) = 1/3 and f(-1) = 2/3 both give sqrt(2)/3
        table = level_tables(two_state_model(), glauber()).ga
        assert np.abs(table[[1, 0], [0, 1]] - np.sqrt(2.0) / 3.0).max() < 1e-15

    def test_ga_table_two_state_metropolis(self):
        table = level_tables(two_state_model(), metropolis()).ga
        assert np.abs(table - np.array([[1.0, RT], [RT, 1.0]])).max() < 1e-15

    def test_ga_table_symmetric_for_any_valid_rule(self):
        model = GibbsModel(energies=np.array([0, 3, 1, 2]), levels=4, beta=1.3)
        for rule in (metropolis(), glauber()):
            table = level_tables(model, rule).ga
            assert np.abs(table - table.T).max() < 1e-12

    def test_ga_diag_is_f0(self):
        table = level_tables(two_state_model(), glauber()).ga
        assert np.allclose(np.diag(table), 0.5)

    def test_reject_table_two_state_metropolis(self):
        table = level_tables(two_state_model(), metropolis()).rejection
        assert np.abs(table - np.array([[0.0, 0.0], [0.5, 0.0]])).max() < 1e-15

    def test_tables_validate_the_rule_before_exponentiating(self):
        # e^{-2000} underflows to 0, so the rule fails its range check; the
        # reweighting e^{1000 d} would overflow if it ran first
        model = GibbsModel(energies=np.array([0, 2]), levels=3, beta=2000.0)
        with pytest.raises(FunctionalEquationViolated):
            level_tables(model, metropolis())

    def test_compress_norm_bound(self):
        model = GibbsModel(energies=np.array([0, 1, 2, 3]), levels=4, beta=0.6)
        table = level_tables(model, metropolis()).ga
        spec = np.linalg.norm(table, 2)
        l1 = np.abs(table).sum(axis=0).max()
        linf = np.abs(table).sum(axis=1).max()
        assert spec <= np.sqrt(l1 * linf) + 1e-9
        assert np.sqrt(l1 * linf) <= model.levels + 1e-9


class TestChainAssembly:
    def test_acceptance_matrix_two_state(self):
        a = acceptance_matrix(two_state_model(), metropolis())
        assert np.abs(a - np.array([[1.0, 1.0], [0.5, 1.0]])).max() < 1e-15

    def test_acceptance_diag_forced_one(self):
        a = acceptance_matrix(two_state_model(), glauber())
        assert np.all(np.diag(a) == 1.0)

    def test_transition_two_state(self):
        a = acceptance_matrix(two_state_model(), metropolis())
        p = transition_matrix(swap_proposal(), a)
        assert np.abs(p.entries - np.array([[0.5, 1.0], [0.5, 0.0]])).max() < 1e-15

    def test_r_matrix_two_state(self):
        a = acceptance_matrix(two_state_model(), metropolis())
        r = r_matrix(swap_proposal(), a)
        assert np.abs(r - np.diag([0.5, 0.0])).max() < 1e-15

    def test_r_matrix_is_diagonal_for_cycles(self):
        # r_x gathers the acceptance out of x, a[p_k x, x], not a[x, p_k x]
        model = GibbsModel(energies=np.array([0, 2, 1]), levels=3, beta=1.1)
        prop = cycle_pair_proposal()
        a = acceptance_matrix(model, glauber())
        want = [
            sum(w * (1.0 - a[p[x], x]) for w, p in zip(prop.weights, prop.perms))
            for x in range(3)
        ]
        assert np.abs(r_matrix(prop, a) - np.diag(want)).max() < 1e-15

    def test_shape_guards(self):
        a = acceptance_matrix(two_state_model(), metropolis())
        with pytest.raises(DimensionMismatch):
            transition_matrix(hypercube_proposal(2), a)
        with pytest.raises(DimensionMismatch):
            r_matrix(hypercube_proposal(2), a)


class TestDecomposition:
    def test_two_state_oracle(self):
        dec = decompose_discriminant(two_state_model(), swap_proposal(), metropolis())
        assert np.abs(dec.ga - np.array([[1.0, RT], [RT, 1.0]])).max() < 1e-14
        assert np.abs(dec.r - np.diag([0.5, 0.0])).max() < 1e-14
        assert np.abs(dec.q - np.array([[0.5, RT], [RT, 0.0]])).max() < 1e-14
        assert dec.deviation < 1e-14

    def test_ga_is_the_level_table_at_the_state_energies(self):
        model = GibbsModel(energies=np.array([2, 0, 1, 2]), levels=3, beta=0.9)
        rule = glauber()
        dec = decompose_discriminant(model, hypercube_proposal(2), rule)
        e = model.energies
        off = ~np.eye(4, dtype=bool)
        # states 0 and 3 share E = 2: their entry is f(0) = 1/2, not 1
        assert np.array_equal(dec.ga[off], level_tables(model, rule).ga[np.ix_(e, e)][off])
        assert np.all(np.diag(dec.ga) == 1.0)

    def test_glauber_diagonal_cancellation(self):
        # the f(0) diagonal of GA and the rejection diagonal jointly
        # reproduce q_xx even though neither matches p_xx alone
        model = GibbsModel(energies=np.array([0, 2, 1, 1]), levels=3, beta=0.8)
        prop = hypercube_proposal(2)
        dec = decompose_discriminant(model, prop, glauber())
        assert dec.deviation < 1e-14

    def test_cycle_pair_proposal_decomposes(self):
        model = GibbsModel(energies=np.array([0, 2, 1]), levels=3, beta=1.1)
        dec = decompose_discriminant(model, cycle_pair_proposal(), metropolis())
        assert dec.deviation < 1e-12

    def test_composed_equals_independent_discriminant(self):
        model = GibbsModel(energies=np.array([1, 0, 3, 2]), levels=4, beta=0.5)
        prop = hypercube_proposal(2)
        rule = glauber()
        dec = decompose_discriminant(model, prop, rule)
        p = transition_matrix(prop, acceptance_matrix(model, rule))
        q = discriminant(p, gibbs_distribution(model))
        assert np.abs(dec.q - q).max() == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("kind", ["metropolis", "glauber"])
    def test_random_energy_sweep(self, beta, kind):
        rng = np.random.default_rng(17)
        rule = metropolis() if kind == "metropolis" else glauber()
        for n in (2, 3):
            energies = rng.integers(0, 5, size=1 << n)
            model = GibbsModel(energies=energies, levels=5, beta=beta)
            dec = decompose_discriminant(model, hypercube_proposal(n), rule)
            assert dec.deviation < 1e-12
