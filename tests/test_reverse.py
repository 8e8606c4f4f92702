import math

import numpy as np
import pytest

from isingbridge import markov, quantum, reverse, spectral, spins
from test_spins import random_model


def unconverged_model():
    """A 6-spin model whose reverse map at K = 1.947 under uniform:0.5 does not converge
    within the cap of inverse-iteration solves."""
    terms = [((0,), 1.75), ((0, 1, 2, 3), -1.5), ((0, 1, 3), 1.5), ((0, 1, 3, 4), 1.25),
             ((0, 3), -2.0), ((0, 5), -2.0), ((1, 2, 4, 5), 0.5), ((1, 3, 4), -1.25),
             ((1, 3, 4, 5), 2.0), ((2,), 1.25), ((4,), 0.5)]
    return spins.IsingModel(6, terms)


def single_spin_flip_hamiltonian():
    """1 - sigma^x on one spin, ground energy 0."""
    matrix = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return quantum.QuantumHamiltonian.from_matrix(matrix, provenance="user-supplied")


class TestPerronGroundState:
    def test_single_spin(self):
        vec = reverse._ground_state(single_spin_flip_hamiltonian())[1]
        assert np.abs(vec - 1.0 / np.sqrt(2.0)).max() <= 1e-12

    def test_chain_ground_is_sqrt_boltzmann(self):
        ham = quantum.chain_heatbath_hamiltonian(6, 0.5)
        vec = reverse._ground_state(ham)[1]
        expected = np.sqrt(spins.boltzmann(spins.chain_model(6, [1.0] * 6), 0.5))
        assert np.abs(vec - expected).max() <= 1e-10

    def test_rejects_positive_offdiagonal(self):
        matrix = np.array([[1.0, -1.0, 0.0, 0.1],
                           [-1.0, 1.0, 0.2, 0.0],
                           [0.0, 0.2, 1.0, -1.0],
                           [0.1, 0.0, -1.0, 1.0]])
        ham = quantum.QuantumHamiltonian.from_matrix(matrix, provenance="user-supplied")
        with pytest.raises(ValueError, match="positive"):
            reverse.quantum_to_classical(ham)

    def test_rejects_disconnected_graph(self):
        ham = quantum.QuantumHamiltonian.from_matrix(np.diag([0.0, 1.0, 2.0, 3.0]),
                                                     provenance="user-supplied")
        with pytest.raises(ValueError, match="disconnected"):
            reverse.quantum_to_classical(ham)

    def test_rejects_near_degenerate_sector(self):
        # a field breaks the spin flip, so the sector of the shift alone keeps both
        # ordered states: at K = 8 its gap is 2.6e-14, under the guard
        chain = spins.chain_model(4, [1.0] * 4)
        model = spins.IsingModel(4, list(chain.terms) + [((j,), -0.01) for j in range(4)])
        ham = quantum.classical_to_quantum(
            markov.build_generator(model, 8.0, markov.HEAT_BATH))
        with pytest.raises(ValueError, match="degenerate"):
            reverse.quantum_to_classical(ham)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("rule", [markov.HEAT_BATH, markov.METROPOLIS],
                             ids=lambda rule: rule.name)
    def test_maps_across_the_tunnelling_splitting(self, n, rule):
        """At K = 8 the gap of all of H, 1 - tanh 16 = 2.5e-14 under heat bath, lies
        between the ground level and its flip-odd partner, which the sector leaves
        out; the gap inside the sector is 0.1 to 0.6. W comes back within 3.6e-15 and
        the energy table within 2.9e-14 (N = 10)."""
        gen = markov.build_generator(spins.chain_model(n, [1.0] * n), 8.0, rule)
        result = reverse.quantum_to_classical(quantum.classical_to_quantum(gen))
        assert (result.generator.operator - gen.operator).max_abs() <= 4e-14
        shift = result.energy_table - 8.0 * gen.energies
        assert np.abs(shift - shift.mean()).max() <= 3e-13

    @pytest.mark.parametrize("stall_change, solves", [(reverse.STALL_CHANGE, 11), (0.0, 12)])
    def test_stops_when_the_log_change_stalls(self, stall_change, solves, monkeypatch):
        """One spin with gap 1.0e-9 at max|H| = 100: the shift 1e-10 leaves r = 0.09,
        and the log change falls 11-fold per solve, to 1.8e-12 after 11 solves. That is
        under STALL_CHANGE but above the tail rule's 1.1e-12, which the 12th solve
        meets. The map itself then fails stationarity, as the roundoff of H's entries
        over the gap allows (the known limit), so only the solve count is pinned."""
        matrix = np.array([[100.0, -5e-10], [-5e-10, 100.0 + 1e-10]])
        ham = quantum.QuantumHamiltonian.from_matrix(matrix, provenance="user-supplied")
        lu = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: lu.append(1) or solve(a, b))
        monkeypatch.setattr(reverse, "STALL_CHANGE", stall_change)
        reverse._ground_state(ham)
        assert len(lu) == solves

    def test_one_symmetric_sector_and_no_other_solve(self, monkeypatch):
        """Each map makes one symmetry reduction: one group, found by one shift test,
        and one block, the trivial character's, whose levels feed the shift and the
        guard; no `eig_sym` solve."""
        calls = []
        for module, name in [(spectral, "eig_sym"), (spectral, "_translation_invariant"),
                             (spectral, "_group")]:
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)

        def blocks(operator, _original=reverse._symmetry_blocks):
            for block in _original(operator):
                calls.append("block")
                yield block
        monkeypatch.setattr(reverse, "_symmetry_blocks", blocks)
        reverse.quantum_to_classical(quantum.transverse_field_chain(8, 0.5))
        assert sorted(calls) == ["_group", "_translation_invariant", "block"]


CONDITIONS = ("offdiagonal-sign", "probability-conservation", "stationarity",
              "detailed-balance")


def make_condition_nan(monkeypatch, name):
    """Patch the reverse map's residuals so that the condition `name` reads NaN."""
    original = reverse._generator_conditions

    def with_nan(generator):
        residuals = original(generator)
        assert tuple(residuals) == CONDITIONS
        return {**residuals, name: math.nan}

    monkeypatch.setattr(reverse, "_generator_conditions", with_nan)


class TestQuantumToClassical:
    def test_roundtrip_recovers_generator(self):
        model = spins.chain_model(4, [1.0] * 4)
        gen = markov.build_generator(model, 1.0, markov.HEAT_BATH)
        result = reverse.quantum_to_classical(quantum.classical_to_quantum(gen))
        assert np.abs(result.generator.matrix - gen.matrix).max() <= 1e-10
        shift = result.energy_table - gen.energies
        assert np.abs(shift - shift.mean()).max() <= 1e-9
        assert result.beta_effective == 1.0

    def test_single_spin_gives_flat_energy_and_unit_rates(self):
        result = reverse.quantum_to_classical(single_spin_flip_hamiltonian())
        assert np.abs(result.energy_table - result.energy_table[0]).max() <= 1e-12
        expected = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.abs(result.generator.matrix - expected).max() <= 1e-12

    def test_failed_condition_is_a_numeric_failure(self, monkeypatch):
        ham = quantum.transverse_field_chain(4, 0.7)  # residuals are roundoff, about 1e-15
        monkeypatch.setattr(reverse, "CONDITION_TOL", 1e-18)
        with pytest.raises(RuntimeError, match="recovered matrix fails the"):
            reverse.quantum_to_classical(ham)

    @pytest.mark.parametrize("name", CONDITIONS)
    def test_nan_condition_is_a_numeric_failure(self, name, monkeypatch):
        """A NaN residual fails its condition in any position: no ordering comparison
        or max over the residuals may pass it."""
        make_condition_nan(monkeypatch, name)
        with pytest.raises(RuntimeError, match=f"fails the {name} condition"):
            reverse.quantum_to_classical(quantum.transverse_field_chain(4, 0.7))

    def test_unconverged_ground_vector_raises(self):
        """The shift is half the gap, so each solve cuts the change by only 3, from 18;
        returning the 16th iterate would leave the energy table off by 6.5e-6."""
        gen = markov.build_generator(unconverged_model(), 1.947, markov.UniformRate(0.5))
        ham = quantum.classical_to_quantum(gen)
        with pytest.raises(RuntimeError, match=r"not converged after 16 .*\(gap 2.79e-05, "
                                               r"shift 1.42e-05\)"):
            reverse.quantum_to_classical(ham)

    # at Gamma = 0.05 and N = 12 the splitting from the flip-odd level, 2.8e-14, is under
    # the degeneracy guard, and the gap inside the sector is 3.8
    @pytest.mark.parametrize("n, gamma", [(4, 0.7), (12, 0.05)])
    def test_transverse_chain_satisfies_all_conditions(self, n, gamma):
        ham = quantum.transverse_field_chain(n, gamma)
        result = reverse.quantum_to_classical(ham)
        assert set(result.condition_residuals) == {
            "offdiagonal-sign", "probability-conservation",
            "stationarity", "detailed-balance"}
        assert max(result.condition_residuals.values()) <= 1e-9
        assert result.ground_shift < 0  # unshifted chain has negative ground energy

    @pytest.mark.parametrize("gamma", [1e170, 1e200, 1e300])
    def test_transverse_chain_maps_at_huge_fields(self, gamma):
        # a solve's entries sit near 1 / shift = 1e12 / max|H|; unscaled, their squares
        # underflow in the norm once max|H| passes about 1e154
        result = reverse.quantum_to_classical(quantum.transverse_field_chain(4, gamma))
        assert max(result.condition_residuals.values()) <= 1e-9
        assert np.isfinite(result.energy_table).all()

    def test_scaled_solves_change_no_bit(self, monkeypatch):
        ham = quantum.transverse_field_chain(4, 0.7)
        scaled = reverse.quantum_to_classical(ham)
        monkeypatch.setattr(np, "ldexp", lambda x, e: x)  # solve on the unscaled iterates
        plain = reverse.quantum_to_classical(ham)
        assert scaled.ground_shift == plain.ground_shift
        assert np.array_equal(scaled.energy_table, plain.energy_table)
        assert np.array_equal(scaled.generator.operator.diag, plain.generator.operator.diag)
        assert np.array_equal(scaled.generator.operator.off, plain.generator.operator.off)

    def test_map_caches_no_dense_matrix_on_its_input(self):
        # the map solves on its own sector block and leaves no matrix cached on H
        ham = quantum.transverse_field_chain(6, 0.7)
        reverse.quantum_to_classical(ham)
        assert "matrix" not in ham.__dict__

    def test_spectrum_negation_preserved(self):
        ham = quantum.transverse_field_chain(5, 0.6)
        result = reverse.quantum_to_classical(ham)
        w_evals = spectral.spectrum_of_generator(result.generator).eigenvalues
        h_evals = np.linalg.eigvalsh(ham.matrix - result.ground_shift * np.eye(32))
        assert np.abs(np.sort(-w_evals) - np.sort(h_evals)).max() <= 1e-9

    def test_recovered_generator_reusable_by_markov_tools(self):
        ham = quantum.transverse_field_chain(4, 0.5)
        result = reverse.quantum_to_classical(ham)
        assert markov.detailed_balance_residual(result.generator) <= 1e-9
        tau = markov.relaxation_time(result.generator)
        assert tau > 0


def mapped(hamiltonian, shift=True, flip=True):
    """(energy table, Walsh coefficients) of the reverse map on the sector of the
    symmetries of H that shift (the cyclic shift of sites) and flip (the global spin
    flip) keep. Each route reads E0 from its own block, so the shift sigma moves only
    by roundoff, and the fixed point of inverse iteration does not depend on sigma."""
    group = spectral._group

    def subgroup(operator):  # the elements T^l F^f at index l + order f that are kept
        images, order = group(operator)
        if not shift:
            images, order = images[::order], 1
        return images if flip else images[:order], order

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_group", subgroup)
        table = reverse.quantum_to_classical(hamiltonian).energy_table
    return table, reverse.extract_couplings(table).coefficients


def deviation(a, b):
    """Largest difference of the energy tables and of the Walsh coefficients."""
    return max(np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max())


# The sector of <T, F> against that of F alone, which is the even half block A11 + A12 J
# the map used before: worst 2.1e-14 over the inputs below (Metropolis, N = 10, K = 2),
# 7.1e-15 on the transverse-field chains
SECTOR_TOL = 2e-13


class TestSymmetricSector:
    """The reverse map iterates on the sector of all the symmetries of H; the same map
    on a smaller group is its oracle."""

    @pytest.mark.parametrize("n", range(4, 13))
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 1.0, 2.0])
    def test_transverse_field_chain_matches_the_flip_sector(self, n, gamma):
        ham = quantum.transverse_field_chain(n, gamma)
        assert deviation(mapped(ham), mapped(ham, shift=False)) <= SECTOR_TOL

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    @pytest.mark.parametrize("k", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("rule", [markov.HEAT_BATH, markov.METROPOLIS,
                                      markov.UniformRate(0.1)], ids=lambda rule: rule.name)
    def test_chain_matches_the_flip_sector(self, n, k, rule):
        ham = quantum.classical_to_quantum(
            markov.build_generator(spins.chain_model(n, [1.0] * n), k, rule))
        assert deviation(mapped(ham), mapped(ham, shift=False)) <= SECTOR_TOL

    @pytest.mark.parametrize("n, rows", [(6, 8), (8, 20), (10, 56), (12, 180)])
    def test_sector_size(self, n, rows):
        block, orbit, phase, copies = next(spectral._symmetry_blocks(
            quantum.transverse_field_chain(n, 0.5).operator))
        assert block.shape == (rows, rows) and np.bincount(orbit).sum() == 1 << n
        assert np.all(phase == 1.0) and copies == 1  # the trivial character's

    def test_the_flip_keeps_the_tunnelling_partner_out(self):
        """At Gamma = 0.3 and N = 12 the lowest flip-odd level lies 1.7e-7 above E0, at
        momentum 0, and the gap within the <T, F> sector is 2.9. Without F the odd level
        shares the block with the ground level, and the LU leaves errors of order
        eps max|H| / gap in log v; with F the two routes agree."""
        ham = quantum.transverse_field_chain(12, 0.3)
        reference = mapped(ham, shift=False)
        assert deviation(mapped(ham), reference) <= 1e-13
        assert deviation(mapped(ham, flip=False), reference) > 1e-13


class TestExtractCouplings:
    def test_single_bond_table(self):
        table = spins.energy_table(spins.IsingModel(2, [((0, 1), -1.0)]))
        expansion = reverse.extract_couplings(table)
        assert expansion.coefficient([0, 1]) == -1.0
        others = [expansion.coefficients[m] for m in range(4) if m != 3]
        assert np.abs(others).max() == 0.0

    def test_constant_table(self):
        expansion = reverse.extract_couplings(np.full(8, 2.5))
        assert expansion.coefficient([]) == 2.5
        assert np.abs(expansion.coefficients[1:]).max() == 0.0

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_transform_roundtrip_identity(self, n):
        rng = np.random.default_rng(n)
        table = rng.normal(size=1 << n)
        expansion = reverse.extract_couplings(table)
        assert np.abs(expansion.reconstruct() - table).max() <= 1e-10

    def test_agrees_with_model_terms(self):
        rng = np.random.default_rng(13)
        model = random_model(5, 7, rng)
        expansion = reverse.extract_couplings(spins.energy_table(model))
        for sites, coeff in model.terms:
            assert abs(expansion.coefficient(sites) - coeff) <= 1e-12

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            reverse.extract_couplings(np.zeros(6))

    def test_locality_blowup_of_transverse_chain(self):
        ham = quantum.transverse_field_chain(6, 0.7)
        result = reverse.quantum_to_classical(ham)
        expansion = reverse.extract_couplings(result.energy_table)
        profile = expansion.locality_profile()
        # flip symmetry kills odd orders; all even orders survive and decay
        assert profile[1] <= 1e-10 and profile[3] <= 1e-10 and profile[5] <= 1e-10
        assert profile[2] > profile[4] > profile[6] > 1e-6
        # deterministic: a second run reproduces the coefficients exactly
        again = reverse.extract_couplings(
            reverse.quantum_to_classical(ham).energy_table)
        assert np.array_equal(expansion.coefficients, again.coefficients)

    def test_rows_export_shape(self):
        expansion = reverse.extract_couplings(np.zeros(8))
        rows = list(expansion.rows())
        assert len(rows) == 8
        assert rows[0] == (0, (), 0.0)
        assert rows[-1] == (3, (0, 1, 2), 0.0)
