import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcut import CapacityError, Graph, generate_er, generate_ws, max_cut_bruteforce, qaoa_expectation
from swarmcut import simulator
from swarmcut.simulator import ExpectationEvaluator, QaoaParams, landscape_grid, write_landscape_csv
from swarmcut import _statevec
from swarmcut.optimizer import finite_diff_grad, make_objective

from dense_oracle import (closed_form_p1_expectation, dense_expectation, dense_mixer, dense_state,
                          lightcone_expectation, qubitwise_mixer)

P2 = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


def symmetric_state(n, seed):
    """A random unit-norm n-qubit state with a(z) = a(~z), like every QAOA state."""
    state = random_state(n, seed)
    state += state[::-1]
    return state / np.linalg.norm(state)


def frame(n):
    """phi[z] / psi[z] for the half state a MixerPlan of n qubits keeps:
    i^popcount(z), the real frame of the _statevec module docstring."""
    z = np.arange(1 << (n - 1))
    popcount = sum(((z >> q) & 1 for q in range(n - 1)), np.zeros_like(z))
    return np.array([1, 1j, -1, -1j])[popcount % 4]


def mix_through_plan(half, n, beta, plan):
    """exp(-i*beta*X) on the symmetric n-qubit state whose half is half,
    through plan, which was built for half: the plain half state goes into
    the plan's frame, and the result lands in half, back out of it."""
    to_frame = frame(n)
    np.copyto(plan.source, to_frame * half)
    _statevec.apply_mixer(half, n, beta, plan)
    half *= to_frame.conj()


def mix_half(half, n, beta):
    """exp(-i*beta*X) on the symmetric n-qubit state whose half is half,
    through a MixerPlan of its own; the result lands in half."""
    mix_through_plan(half, n, beta, _statevec.MixerPlan(half, np.empty_like(half)))


def phase_half(half, values, gamma):
    """exp(-i*gamma*values) on half, in place, through apply_phase_table."""
    table = np.exp(-1j * gamma * np.arange(values.max(initial=0) + 1))
    _statevec.apply_phase_table(half, values, table, half)


def half_norm(half):
    """Norm squared of the full state whose half is half."""
    return 2 * np.vdot(half, half).real


def random_graph_and_params(rng, n_max=5, p_max=3):
    n = int(rng.integers(2, n_max + 1))
    g = generate_er(n, 0.6, seed=int(rng.integers(1 << 30)))
    p = int(rng.integers(1, p_max + 1))
    return g, QaoaParams(gamma=rng.uniform(-np.pi, np.pi, p), beta=rng.uniform(-np.pi, np.pi, p))


class TestQaoaParams:
    def test_round_trip_vector(self):
        params = QaoaParams.from_vector([0.1, 0.2, 0.3, 0.4])
        assert params.p == 2
        np.testing.assert_array_equal(params.gamma, [0.1, 0.2])
        np.testing.assert_array_equal(params.beta, [0.3, 0.4])
        np.testing.assert_array_equal(params.to_vector(), [0.1, 0.2, 0.3, 0.4])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            QaoaParams(gamma=[0.1], beta=[0.1, 0.2])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            QaoaParams(gamma=[np.nan], beta=[0.0])

    def test_odd_vector_rejected(self):
        with pytest.raises(ValueError):
            QaoaParams.from_vector([1.0, 2.0, 3.0])


class TestCutSpectrum:
    def test_p2(self):
        assert P2.cut_spectrum.tolist() == [0, 1, 1, 0]

    def test_k3(self):
        assert K3.cut_spectrum.tolist() == [0, 2, 2, 2, 2, 2, 2, 0]

    def test_empty_graph(self):
        assert Graph(2, ()).cut_spectrum.tolist() == [0, 0, 0, 0]

    def test_complement_symmetry(self):
        g = generate_er(6, 0.5, seed=4)
        values = g.cut_spectrum
        complement = np.arange(values.size) ^ (values.size - 1)
        np.testing.assert_array_equal(values, values[complement])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            Graph(25, ()).cut_spectrum


class TestInitPlusState:
    """The evaluator starts from |+>^n: every amplitude of the half state is
    2^(-n/2), held in its plan's frame. At zero angles a layer is exactly the
    identity (its phase table is 1 and its mixer matrices hold only 1 and
    0), so a depth-1 call leaves that state in its first layer."""

    @staticmethod
    def initial_half(n):
        ev = ExpectationEvaluator(Graph(n, ()))
        assert ev.expectation([0.0], [0.0]) == 0.0
        return ev._layers[0]

    def test_single_qubit(self):
        np.testing.assert_allclose(self.initial_half(1), [1 / math.sqrt(2)])

    def test_two_qubits(self):
        # Amplitude z = 1 carries the frame's factor i.
        np.testing.assert_allclose(self.initial_half(2), [0.5, 0.5j])

    def test_norm_sixteen_qubits(self):
        assert abs(half_norm(self.initial_half(16)) - 1.0) < 1e-12

    def test_capacity(self):
        with pytest.raises(CapacityError):
            ExpectationEvaluator(Graph(25, ()))

    # n <= 6 folds; n = 7, 12 and 16 start in the real frame, n = 16 over
    # four blocks.
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 12, 16])
    def test_zero_angles_leave_the_start(self, n):
        np.testing.assert_array_equal(self.initial_half(n) * frame(n).conj(),
                                      np.full(1 << (n - 1), 1 / math.sqrt(1 << n)))

    def test_empty_angles_rejected(self):
        # As in QaoaParams: a circuit has at least one layer.
        with pytest.raises(ValueError, match="non-empty"):
            ExpectationEvaluator(K3).expectation([], [])


class TestCostLayer:
    """The cost layer is apply_phase_table with the table exp(-i*gamma*c) over
    cut sizes c, on the half state and the matching half of the spectrum."""

    def test_zero_angle_is_identity(self):
        state = np.full(4, 1 / math.sqrt(8), dtype=complex)
        before = state.copy()
        phase_half(state, K3.cut_spectrum[:4], 0.0)
        np.testing.assert_array_equal(state, before)

    def test_two_pi_is_identity_on_integer_spectrum(self):
        state = np.full(4, 1 / math.sqrt(8), dtype=complex)
        before = state.copy()
        phase_half(state, K3.cut_spectrum[:4], 2 * math.pi)
        np.testing.assert_allclose(state, before, atol=1e-12)

    def test_p2_quarter_turn(self):
        # The half of the full-state result [0.5, -0.5j, -0.5j, 0.5].
        state = np.full(2, 0.5, dtype=complex)
        phase_half(state, P2.cut_spectrum[:2], math.pi / 2)
        np.testing.assert_allclose(state, [0.5, -0.5j], atol=1e-12)

    def test_preserves_magnitudes_exactly(self):
        rng = np.random.default_rng(8)
        g = generate_er(4, 0.5, seed=2)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        magnitudes = np.abs(state).copy()
        phase_half(state, g.cut_spectrum[:8], 0.7317)
        np.testing.assert_allclose(np.abs(state), magnitudes, rtol=1e-15)


class TestMixerLayer:
    def test_zero_angle_is_identity(self):
        state = np.full(4, 1 / math.sqrt(8), dtype=complex)
        before = state.copy()
        mix_half(state, 3, 0.0)
        np.testing.assert_allclose(state, before, atol=1e-15)

    def test_pi_is_global_phase(self):
        state = symmetric_state(3, 1)[:4].copy()
        before = state.copy()
        mix_half(state, 3, math.pi)
        np.testing.assert_allclose(state, (-1) ** 3 * before, atol=1e-12)

    def test_single_qubit_rotation(self):
        # |+> is the only symmetric one-qubit state, an X eigenstate: the
        # mixer multiplies it by exp(-i*beta).
        for beta in (math.pi / 4, -1.1, 2.9):
            state = np.array([1 / math.sqrt(2)], dtype=complex)
            mix_half(state, 1, beta)
            np.testing.assert_allclose(state, [np.exp(-1j * beta) / math.sqrt(2)], rtol=0, atol=1e-15)

    # n = 3 folds the layer into one product; n = 8, 12 and 13 take two to
    # four real products, ending on either buffer, and reverse the top qubit.
    @pytest.mark.parametrize("n", [3, 8, 12, 13])
    def test_in_place(self, n):
        state = symmetric_state(n, n)
        for beta in (0.8, -1.3):
            half = state[:1 << (n - 1)].copy()
            mix_half(half, n, beta)
            np.testing.assert_allclose(half, qubitwise_mixer(state, n, beta)[:1 << (n - 1)],
                                       rtol=0, atol=1e-12)


class TestExpectation:
    def test_zero_angles_give_half_edge_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
            for p in (1, 2, 3):
                params = QaoaParams(gamma=np.zeros(p), beta=np.zeros(p))
                assert abs(qaoa_expectation(g, params) - g.edge_count / 2) < 1e-12

    def test_p2_closed_form_optimum(self):
        value = qaoa_expectation(P2, QaoaParams(gamma=[math.pi / 2], beta=[math.pi / 8]))
        assert abs(value - 1.0) < 1e-12

    def test_p2_no_mixer(self):
        value = qaoa_expectation(P2, QaoaParams(gamma=[math.pi / 2], beta=[0.0]))
        assert abs(value - 0.5) < 1e-12

    def test_p2_closed_form_curve(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            g_ang, b_ang = rng.uniform(-np.pi, np.pi, 2)
            value = qaoa_expectation(P2, QaoaParams(gamma=[g_ang], beta=[b_ang]))
            closed = 0.5 + 0.5 * math.sin(4 * b_ang) * math.sin(g_ang)
            assert abs(value - closed) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            g, params = random_graph_and_params(rng)
            fast = qaoa_expectation(g, params)
            dense = dense_expectation(g.n, g.edges, params.gamma, params.beta)
            assert abs(fast - dense) < 1e-8

    def test_bounded_by_max_cut(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            g, params = random_graph_and_params(rng)
            value = qaoa_expectation(g, params)
            assert -1e-12 <= value <= max_cut_bruteforce(g).value + 1e-12

    def test_beta_shift_by_pi_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g, params = random_graph_and_params(rng)
            base = qaoa_expectation(g, params)
            k = int(rng.integers(params.p))
            beta = params.beta.copy()
            beta[k] += math.pi
            assert abs(qaoa_expectation(g, QaoaParams(params.gamma, beta)) - base) < 1e-10

    def test_gamma_shift_by_two_pi_invariance(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g, params = random_graph_and_params(rng)
            base = qaoa_expectation(g, params)
            k = int(rng.integers(params.p))
            gamma = params.gamma.copy()
            gamma[k] += 2 * math.pi
            assert abs(qaoa_expectation(g, QaoaParams(gamma, params.beta)) - base) < 1e-10

    def test_norm_preserved_through_layers(self):
        rng = np.random.default_rng(15)
        g = generate_er(6, 0.5, seed=21)
        # The evaluator's kernels: the phase product into the plan's source, then the mixer.
        values = g.cut_spectrum[:32]
        state = np.full(32, 1 / math.sqrt(64), dtype=complex)
        plan = _statevec.MixerPlan(state, np.empty_like(state))
        for _ in range(12):
            table = np.exp(-1j * float(rng.uniform(-np.pi, np.pi)) * np.arange(values.max() + 1))
            _statevec.apply_phase_table(state, values, table, plan.source)
            _statevec.apply_mixer(state, 6, float(rng.uniform(-np.pi, np.pi)), plan)
            assert abs(half_norm(state) - 1.0) < 1e-10

    @pytest.mark.parametrize("gamma, beta", [([0.3, 0.9], [0.2]), ([0.3], [0.2, 0.5])])
    def test_mismatched_angle_lengths_rejected(self, gamma, beta):
        # Unchecked, zip would stop at the shorter vector and return the p = 1 value.
        ev = ExpectationEvaluator(generate_er(4, 0.6, seed=1))
        with pytest.raises(ValueError):
            ev.expectation(gamma, beta)

    def test_evaluator_reuse_matches_one_shot(self):
        rng = np.random.default_rng(16)
        g = generate_er(5, 0.5, seed=33)
        ev = ExpectationEvaluator(g)
        for _ in range(5):
            params = QaoaParams(gamma=rng.uniform(-1, 1, 2), beta=rng.uniform(-1, 1, 2))
            assert ev.expectation(params.gamma, params.beta) == qaoa_expectation(g, params)


class TestBitFlipSymmetry:
    """ExpectationEvaluator keeps only the amplitudes with qubit n-1 = 0. That
    is exact because the full QAOA state satisfies a(z) = a(~z), which the
    dense oracle shows here; the half state must agree with it."""

    @staticmethod
    def cases(n):
        rng = np.random.default_rng(500 + n)
        for p in (1, 2, 3):
            g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
            yield g, rng.uniform(-np.pi, np.pi, p), rng.uniform(-np.pi, np.pi, p)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_state_is_symmetric(self, n):
        for g, gamma, beta in self.cases(n):
            state = dense_state(n, g.edges, gamma, beta)
            np.testing.assert_allclose(state, state[::-1], rtol=0, atol=1e-12)

    # n <= FOLD_QUBITS + 1 folds each mixer layer into one product; larger n chain groups.
    @pytest.mark.parametrize("n", range(1, 11))
    def test_evaluator_matches_full_state(self, n):
        for g, gamma, beta in self.cases(n):
            ev = ExpectationEvaluator(g)
            value = ev.expectation(gamma, beta)
            assert abs(value - dense_expectation(n, g.edges, gamma, beta)) < 1e-12
            dense = dense_state(n, g.edges, gamma, beta)
            half = ev._layers[len(gamma) - 1] * frame(n).conj()
            np.testing.assert_allclose(half, dense[:1 << (n - 1)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_buffers_hold_half_the_amplitudes(self, n):
        ev = ExpectationEvaluator(generate_er(n, 0.5, seed=n))
        ev.expectation([0.3, -0.5, 1.1], [0.2, 0.7, -0.4])
        assert len(ev._layers) == 3
        for buf in (*ev._layers, ev._scratch):
            assert buf.shape == (1 << (n - 1),)

    @pytest.mark.parametrize("n", range(1, _statevec.FOLD_QUBITS + 2))
    def test_folded_mixer_matches_dense_oracle(self, n):
        # On a symmetric state, column b >= 2^(n-1) of the dense mixer meets
        # the amplitude of its mirror 2^n - 1 - b, so the half-state matrix
        # adds the mirrored right half of the top rows to their left half.
        # The folded matrix is that matrix in the frame, S U S^dagger,
        # transposed for the product from the right.
        size = 1 << (n - 1)
        to_frame = frame(n)
        for beta in (0.0, 0.43, -2.1, math.pi / 2):
            dense = dense_mixer(n, beta)[:size]
            expected = dense[:, :size] + dense[:, size:][:, ::-1]
            folded, = _statevec._layer_matrices(n - 1, beta)
            np.testing.assert_allclose(folded.T, to_frame[:, None] * expected * to_frame.conj(),
                                       rtol=0, atol=1e-13)

    # n = 6 is the largest folded layer, n = 7 the smallest group chain.
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 7, 9, 13])
    def test_half_mixer_matches_full_mixer(self, n):
        betas = np.random.default_rng(600 + n).uniform(-np.pi, np.pi, 3)
        TestMixerKernel.check_half_plan(n, lambda state, beta: qubitwise_mixer(state, n, beta), n, betas)


class TestPrefixReuse:
    """The evaluator resumes from the first layer whose angles differ from
    its last call's. That reuse must be invisible: every value equals a
    fresh evaluator's, bit for bit."""

    @staticmethod
    def fresh(g, gamma, beta):
        return ExpectationEvaluator(g).expectation(gamma, beta)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
    def test_probe_pattern_with_caller_array_mutated_in_place(self, n):
        rng = np.random.default_rng(700 + n)
        g = generate_er(n, 0.5, seed=n)
        ev = ExpectationEvaluator(g)
        for p in (1, 2, 3):
            theta = rng.uniform(-np.pi, np.pi, 2 * p)
            for d in rng.integers(0, 2 * p, 12):
                value = ev.expectation(theta[:p], theta[p:])
                assert value == self.fresh(g, theta[:p].copy(), theta[p:].copy())
                theta[d] += rng.choice([1e-3, -2e-3, 0.5])

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_depth_changes_between_calls(self, n):
        rng = np.random.default_rng(800 + n)
        g = generate_er(n, 0.6, seed=n)
        ev = ExpectationEvaluator(g)
        theta = rng.uniform(-np.pi, np.pi, 8)
        for _ in range(40):
            p = int(rng.integers(0, 5))
            # Change one angle among the first four layers, or none.
            d = int(rng.integers(0, 9))
            if d < 8:
                theta[d] = rng.uniform(-np.pi, np.pi)
            gamma, beta = theta[:p].copy(), theta[4:4 + p].copy()
            if p == 0:
                # A circuit has at least one layer; the refused call keeps
                # the layers for the calls after it.
                with pytest.raises(ValueError):
                    ev.expectation(gamma, beta)
            else:
                assert ev.expectation(gamma, beta) == self.fresh(g, gamma, beta)

    def test_repeated_identical_calls(self):
        g = generate_er(7, 0.5, seed=4)
        ev = ExpectationEvaluator(g)
        gamma, beta = [0.4, -1.2, 0.9], [0.3, 0.8, -0.6]
        expected = self.fresh(g, gamma, beta)
        assert [ev.expectation(gamma, beta) for _ in range(4)] == [expected] * 4
        assert ev.expectation(gamma[:2], beta[:2]) == self.fresh(g, gamma[:2], beta[:2])
        assert ev.expectation(gamma, beta) == expected

    def test_two_evaluators_on_one_graph_interleaved(self):
        rng = np.random.default_rng(900)
        g = generate_ws(9, 4, 0.3, seed=2)
        evs = [ExpectationEvaluator(g), ExpectationEvaluator(g)]
        thetas = [rng.uniform(-np.pi, np.pi, 6), rng.uniform(-np.pi, np.pi, 6)]
        for _ in range(30):
            k = int(rng.integers(0, 2))
            thetas[k][int(rng.integers(0, 6))] += 1e-3
            theta = thetas[k]
            assert evs[k].expectation(theta[:3], theta[3:]) == self.fresh(g, theta[:3], theta[3:])

    def test_interrupted_call_leaves_no_stale_layers(self, monkeypatch):
        g = generate_er(6, 0.5, seed=3)
        ev = ExpectationEvaluator(g)
        ev.expectation([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        apply_mixer, calls = _statevec.apply_mixer, []

        def interrupted_at_layer_two(*args, **kwargs):
            calls.append(args[2])
            if len(calls) == 2:
                raise KeyboardInterrupt
            return apply_mixer(*args, **kwargs)

        gamma, beta = [0.7, 0.2, 0.3], [0.4, 0.5, 0.6]
        monkeypatch.setattr(_statevec, "apply_mixer", interrupted_at_layer_two)
        with pytest.raises(KeyboardInterrupt):
            ev.expectation(gamma, beta)
        monkeypatch.setattr(_statevec, "apply_mixer", apply_mixer)
        assert ev.expectation(gamma, beta) == self.fresh(g, gamma, beta)

    # The probes go deepest layer first: at p = 3 one full simulation, three
    # of layer 3 alone, four of layers 2..3 and four of all three layers.
    @pytest.mark.parametrize("p, layers", [(1, 4), (2, 13), (3, 26)])
    def test_fd_gradient_mixer_layer_count(self, monkeypatch, p, layers):
        calls = []
        apply_mixer = _statevec.apply_mixer

        def counting(*args, **kwargs):
            calls.append(args[2])
            return apply_mixer(*args, **kwargs)

        monkeypatch.setattr(_statevec, "apply_mixer", counting)
        rng = np.random.default_rng(p)
        # n = 6 folds each mixer layer into one product; n = 9 chains groups.
        for n in (6, 9):
            loss = make_objective(ExpectationEvaluator(generate_er(n, 0.5, seed=1)), 5.0, 1.0)
            # As in the optimizer: a position evaluation, then the gradient at another point.
            loss(rng.uniform(-np.pi, np.pi, 2 * p))
            calls.clear()
            finite_diff_grad(loss, rng.uniform(-np.pi, np.pi, 2 * p), 1e-3)
            assert len(calls) == layers


class TestLandscape:
    SPARSE_EDGES = ((0, 1), (1, 2))

    def test_isolated_vertices_cost_no_memory(self):
        # One neighbour set per vertex took 22 MB at n = 10^5.
        g = Graph(10 ** 5, self.SPARSE_EDGES)
        tracemalloc.start()
        try:
            landscape_grid(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_independent_of_isolated_vertices(self):
        np.testing.assert_array_equal(landscape_grid(Graph(10 ** 12, self.SPARSE_EDGES)),
                                      landscape_grid(Graph(3, self.SPARSE_EDGES)))

    def test_grid_point_at_origin(self):
        grid = landscape_grid(K3, (-1.0, 1.0), (-1.0, 1.0), resolution=3)
        assert abs(grid[1, 1] - K3.edge_count / 2) < 1e-12

    def test_corners_match_direct_calls(self):
        grid = landscape_grid(K3, (-2.0, 2.0), (-1.0, 1.0), resolution=2)
        for a, g_ang in enumerate((-2.0, 2.0)):
            for b, b_ang in enumerate((-1.0, 1.0)):
                direct = qaoa_expectation(K3, QaoaParams(gamma=[g_ang], beta=[b_ang]))
                assert abs(grid[a, b] - direct) <= 1e-12 * max(1, K3.edge_count)

    @pytest.mark.parametrize("gamma_range, beta_range, resolution", [
        ((-math.pi, math.pi), (-math.pi, math.pi), 9),
        ((0.3, 2.9), (-2.2, 0.4), 7),
        ((-0.01, 0.01), (1.0, 1.0 + 1e-6), 4),
    ], ids=["full", "asymmetric", "narrow"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_point_matches_evaluator(self, n, gamma_range, beta_range, resolution):
        graphs = [generate_er(n, 0.5, seed=n), Graph(n, ())]
        if n >= 3:
            graphs.append(generate_ws(n, 2, 0.3, seed=n))
        gammas = np.linspace(*gamma_range, resolution)
        betas = np.linspace(*beta_range, resolution)
        for g in graphs:
            ev = ExpectationEvaluator(g)
            grid = landscape_grid(g, gamma_range, beta_range, resolution)
            direct = np.array([[ev.expectation([a], [b]) for b in betas] for a in gammas])
            assert np.abs(grid - direct).max() <= 1e-12 * max(1, g.edge_count)

    def test_entries_bounded(self):
        g = generate_er(5, 0.5, seed=40)
        grid = landscape_grid(g, resolution=8)
        assert (grid >= -1e-12).all()
        assert (grid <= max_cut_bruteforce(g).value + 1e-12).all()

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            landscape_grid(K3, (1.0, 1.0), (-1.0, 1.0), resolution=4)

    @pytest.mark.parametrize("gamma_range, beta_range", [
        ((0.0, math.inf), (-1.0, 1.0)), ((-1.0, 1.0), (math.nan, 1.0))],
        ids=["inf", "nan"])
    def test_non_finite_range(self, gamma_range, beta_range):
        with pytest.raises(ValueError):
            landscape_grid(K3, gamma_range, beta_range, resolution=4)

    def test_resolution_too_small(self):
        with pytest.raises(ValueError):
            landscape_grid(K3, resolution=1)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "land.csv"
        write_landscape_csv(path, K3, (-1.0, 1.0), (-1.0, 1.0), resolution=3)
        lines = path.read_text().splitlines()
        assert lines[0] == "gamma,beta,expectation"
        assert len(lines) == 1 + 9
        grid = landscape_grid(K3, (-1.0, 1.0), (-1.0, 1.0), resolution=3)
        gammas = np.linspace(-1.0, 1.0, 3)
        betas = np.linspace(-1.0, 1.0, 3)
        for row, line in enumerate(lines[1:]):
            g_txt, b_txt, e_txt = line.split(",")
            a, b = divmod(row, 3)
            assert float(g_txt) == gammas[a]
            assert float(b_txt) == betas[b]
            assert float(e_txt) == grid[a, b]

    def test_csv_text_pinned(self, tmp_path, monkeypatch):
        # Awkward floats through the writer alone: shortest repr, -0.0,
        # subnormals, and lattice axes that linspace does not hit exactly.
        grid = np.array([[0.1, 1 / 3, 2.5e-17], [-0.0, 1.5, 12.000000000000002],
                         [5e-324, 3.0, 2 / 3]])
        monkeypatch.setattr(simulator, "landscape_grid", lambda *args: grid)
        path = tmp_path / "land.csv"
        write_landscape_csv(path, P2, (-1.0, 0.7), (0.1, 0.2), resolution=3)
        assert path.read_bytes() == (
            b"gamma,beta,expectation\n"
            b"-1.0,0.1,0.1\n"
            b"-1.0,0.15000000000000002,0.3333333333333333\n"
            b"-1.0,0.2,2.5e-17\n"
            b"-0.15000000000000002,0.1,-0.0\n"
            b"-0.15000000000000002,0.15000000000000002,1.5\n"
            b"-0.15000000000000002,0.2,12.000000000000002\n"
            b"0.7,0.1,5e-324\n"
            b"0.7,0.15000000000000002,3.0\n"
            b"0.7,0.2,0.6666666666666666\n")


class TestClosedFormOracle:
    """The depth-1 closed form shares no code with the statevector engine, so
    it checks the engine and the landscape where the dense oracle cannot run."""

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for n in range(2, 9):
            for edge_prob in (0.3, 0.7, 1.0):
                g = generate_er(n, edge_prob, seed=int(rng.integers(1 << 30)))
                for g_ang, b_ang in rng.uniform(-np.pi, np.pi, (3, 2)):
                    closed = closed_form_p1_expectation(g.n, g.edges, g_ang, b_ang)
                    dense = dense_expectation(g.n, g.edges, [g_ang], [b_ang])
                    assert abs(closed - dense) < 1e-12 * max(1, g.edge_count)

    @pytest.mark.parametrize("n", [14, 15, 16, 17, 18, 20,
                                   pytest.param(22, marks=pytest.mark.slow),
                                   pytest.param(24, marks=pytest.mark.slow)])
    def test_evaluator_beyond_dense_sizes(self, n):
        rng = np.random.default_rng(300 + n)
        g = generate_er(n, 0.5, seed=n)
        ev = ExpectationEvaluator(g)
        for g_ang, b_ang in rng.uniform(-np.pi, np.pi, (3, 2)):
            closed = closed_form_p1_expectation(g.n, g.edges, g_ang, b_ang)
            assert abs(ev.expectation([g_ang], [b_ang]) - closed) < 1e-12 * g.edge_count

    @pytest.mark.parametrize("n", [14, 16, 18])
    def test_landscape_beyond_dense_sizes(self, n):
        # landscape_grid evaluates the same closed form as the oracle, so a
        # few points are also checked against the statevector engine.
        g = generate_ws(n, 4, 0.3, seed=n)
        gammas, betas = np.linspace(-2.5, 3.0, 5), np.linspace(-1.2, 0.9, 5)
        closed = closed_form_p1_expectation(g.n, g.edges, gammas[:, None], betas[None, :])
        grid = landscape_grid(g, (-2.5, 3.0), (-1.2, 0.9), resolution=5)
        assert np.abs(grid - closed).max() < 1e-12 * g.edge_count
        ev = ExpectationEvaluator(g)
        for a, b in ((0, 0), (1, 3), (2, 4), (4, 1)):
            assert abs(grid[a, b] - ev.expectation([gammas[a]], [betas[b]])) < 1e-12 * g.edge_count

    @pytest.mark.parametrize("n", [30, 40])
    def test_landscape_beyond_enumeration_cap(self, n):
        # No statevector: graphs past graphs.MAX_NODES have a landscape too.
        g = generate_er(n, 0.3, seed=n)
        gammas, betas = np.linspace(-2.5, 3.0, 7), np.linspace(0.0, 1.4, 7)
        grid = landscape_grid(g, (-2.5, 3.0), (0.0, 1.4), resolution=7)
        assert np.isfinite(grid).all()
        assert (grid >= 0).all() and (grid <= g.edge_count).all()
        assert (grid[:, 0] == g.edge_count / 2).all()
        closed = closed_form_p1_expectation(g.n, g.edges, gammas[:, None], betas[None, :])
        assert np.abs(grid - closed).max() < 1e-12 * g.edge_count
        ring = Graph(n, tuple((v, (v + 1) % n) for v in range(n)))
        assert landscape_grid(ring, (math.pi / 4, 1), (math.pi / 8, 1), 2)[0, 0] == 3 * n / 4


class TestPhaseTable:
    # The 2^n-entry states of n = 15, 16 span 4 and 8 chunks of REDUCE_CHUNK.
    @pytest.mark.parametrize("n", [1, 3, 6, 11, 15, 16])
    def test_matches_fancy_index_bit_for_bit(self, n):
        values = generate_er(n, 0.5, seed=n).cut_spectrum
        table = np.exp(-1j * 0.37 * np.arange(values.max() + 1))
        state = random_state(n, n)
        # A named gather: state * table[values] on a temporary of more than
        # 256 KiB lets NumPy reuse it as table[values] * state, and complex
        # products do not commute bit for bit.
        phases = table[values]
        expected = state * phases
        out = np.empty_like(state)
        before = state.copy()
        _statevec.apply_phase_table(state, values, table, out)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(state, before)
        _statevec.apply_phase_table(state, values, table, state)
        np.testing.assert_array_equal(state, expected)

    def test_out_of_range_value_raises(self):
        # The gather indexes the table plainly: no value is silently clipped.
        for size in (8, 3 * _statevec.REDUCE_CHUNK):
            values = np.zeros(size, dtype=np.int64)
            values[-1] = 4
            state = np.ones(size, dtype=complex)
            with pytest.raises(IndexError):
                _statevec.apply_phase_table(state, values, np.ones(4, dtype=complex), state)


# Prints, for each (n, points) read from stdin, the evaluator's values at
# those p = 3 points on G(n, 0.5) with seed n.
EVALUATE_POINTS = """
import json, sys
from swarmcut import generate_er
from swarmcut.simulator import ExpectationEvaluator
for n, points in json.load(sys.stdin):
    ev = ExpectationEvaluator(generate_er(n, 0.5, seed=n))
    print(json.dumps([ev.expectation(gamma, beta) for gamma, beta in points]))
"""


class TestReduction:
    def test_bits_independent_of_blas_threads(self):
        # Results must not depend on the BLAS thread count, so every value
        # must come out the same on one OpenBLAS thread as on the default.
        # Half states of n = 15, 16 exceed one chunk.
        rng = np.random.default_rng(1516)
        cases = [(n, rng.uniform(-np.pi, np.pi, (8, 2, 3)).tolist()) for n in (15, 16)]
        src = str(Path(_statevec.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", EVALUATE_POINTS], input=json.dumps(cases),
                             env=env, capture_output=True, text=True, check=True).stdout
        for (n, points), line in zip(cases, out.splitlines(), strict=True):
            ev = ExpectationEvaluator(generate_er(n, 0.5, seed=n))
            assert [ev.expectation(gamma, beta) for gamma, beta in points] == json.loads(line)

    def test_one_chunk_is_one_dot(self):
        # Half states of n <= 14 are one chunk: their values are the plain
        # dot's, as before the reduction was chunked.
        rng = np.random.default_rng(14)
        for size in (1, 5, _statevec.REDUCE_CHUNK, 3 * _statevec.REDUCE_CHUNK + 7):
            amps = rng.normal(size=size) + 1j * rng.normal(size=size)
            values = rng.integers(0, 40, size).astype(np.float64)
            probs = amps.real ** 2 + amps.imag ** 2
            value = _statevec.expectation_value(amps, values)
            if size <= _statevec.REDUCE_CHUNK:
                assert value == float(probs @ values)
            assert abs(value - math.fsum(probs * values)) <= 1e-13 * value

    def test_bits_of_the_plain_expression_summed_by_chunk(self):
        # The squares go through chunk-sized buffers, but every value keeps
        # the bits of the plain expression, summed REDUCE_CHUNK dots in order.
        rng = np.random.default_rng(13)
        chunk = _statevec.REDUCE_CHUNK
        for size in (1, 5, chunk, chunk + 1, 3 * chunk + 7):
            amps = rng.normal(size=size) + 1j * rng.normal(size=size)
            values = rng.integers(0, 40, size).astype(np.float64)
            probs = amps.real ** 2 + amps.imag ** 2
            expected = 0.0
            for i in range(0, size, chunk):
                expected += float(probs[i:i + chunk] @ values[i:i + chunk])
            assert _statevec.expectation_value(amps, values) == expected


class TestAllocation:
    @pytest.mark.parametrize("n", [16, pytest.param(22, marks=pytest.mark.slow)])
    def test_last_layer_allocates_under_half_a_half_state(self, n):
        # A warmed evaluator call that redoes only its last layer allocates
        # the phase gather's one REDUCE_CHUNK of phases and no state-sized
        # temporary; the reduction squares one chunk at a time.
        ev = ExpectationEvaluator(generate_er(n, 0.5, seed=n))
        gamma, betas = [0.41, -0.73, 1.12], ([0.29, 0.57, -0.38], [0.29, 0.57, -0.31])
        for beta in betas:
            ev.expectation(gamma, beta)
        tracemalloc.start()
        try:
            value = ev.expectation(gamma, betas[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        half_state = (1 << (n - 1)) * np.dtype(np.complex128).itemsize
        assert peak < half_state // 2
        assert value == ExpectationEvaluator(generate_er(n, 0.5, seed=n)).expectation(gamma, betas[0])


class TestGroupMixerMemo:
    def test_read_only_and_equal_to_uncached_build(self):
        # Folded layers up to FOLD_QUBITS = 5 half-state qubits; qubits 6..9
        # take real groups of 4 + 3, 4 + 4, 3 + 3 + 3 and 4 + 3 + 3 float
        # index bits.
        for qubits in range(1, 2 * _statevec.GROUP_BITS + 2):
            fold = qubits <= _statevec.FOLD_QUBITS
            for beta in (0.0, 0.61, -2.3):
                matrices = _statevec._layer_matrices(qubits, beta)
                assert _statevec._layer_matrices(qubits, beta) is matrices
                fresh = _statevec._layer_matrices.__wrapped__(qubits, beta)
                sizes = [qubits] if fold else [k for k, _ in _statevec._groups(qubits)]
                assert [m.shape for m in matrices] == [(1 << k, 1 << k) for k in sizes]
                # The folded product is complex at every n; a real dtype would be cast per call.
                assert [m.dtype for m in matrices] == [np.complex128 if fold else np.float64] * len(sizes)
                assert len(fresh) == len(matrices)
                for m, expected in zip(matrices, fresh):
                    assert not m.flags.writeable
                    np.testing.assert_array_equal(m, expected)
                    with pytest.raises(ValueError):
                        m[0, 0] = 0

    def test_plan_fold_agrees_with_layer_matrices(self):
        # A folded plan takes one matrix-vector product with the layer's only
        # matrix; a group chain has two groups or more.
        for qubits in range(10):
            half = np.zeros(1 << qubits, dtype=complex)
            plan = _statevec.MixerPlan(half, np.empty_like(half))
            assert (plan.n, plan.qubits) == (qubits + 1, qubits)
            assert plan.fold == (len(_statevec._layer_matrices(qubits, 0.37)) == 1)


class TestLightConeOracle:
    """The light-cone oracle simulates each edge's depth-p ball on its own and
    shares no code with the engine, so it checks depths 2 and 3 at n = 20..24,
    where the dense oracle cannot run and the closed form covers depth 1 only.
    WS(n, 2, 0.0) is the ring C_n and WS(n, 4, 0.0) the ring lattice of the
    sweep's WS model before rewiring."""

    def test_matches_dense_oracle(self):
        # Balls smaller than the graph check the cut to the light cone: C_9
        # and C_10 at depths 1..3, and WS(8, 2, 0.3) at depths 1 and 2. The
        # other balls, ER(n, 0.5)'s among them, cover the whole graph.
        rng = np.random.default_rng(31)
        graphs = [generate_ws(n, 2, 0.0, seed=0) for n in (7, 9, 10)]
        graphs += [generate_ws(n, 2, 0.3, seed=n) for n in (8, 10)]
        graphs += [generate_er(n, 0.5, seed=n) for n in (4, 7)]
        for g in graphs:
            for p in (1, 2, 3):
                gammas, betas = rng.uniform(-np.pi, np.pi, (2, p))
                light = lightcone_expectation(g.n, g.edges, gammas, betas)
                assert abs(light - dense_expectation(g.n, g.edges, gammas, betas)) < 1e-12 * g.edge_count

    @staticmethod
    def check_evaluator(g, p, seed, count):
        rng = np.random.default_rng(seed)
        ev = ExpectationEvaluator(g)
        for gammas, betas in rng.uniform(-np.pi, np.pi, (count, 2, p)):
            light = lightcone_expectation(g.n, g.edges, gammas, betas)
            assert abs(ev.expectation(gammas, betas) - light) < 1e-12 * g.edge_count

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [20, pytest.param(22, marks=pytest.mark.slow),
                                   pytest.param(24, marks=pytest.mark.slow)])
    def test_evaluator_on_sparse_graphs(self, n, p):
        self.check_evaluator(generate_ws(n, 2, 0.0, seed=0), p, 400 + 10 * n + p, 3)
        self.check_evaluator(generate_ws(n, 2, 0.3, seed=n), p, 500 + 10 * n + p, 3)

    @pytest.mark.parametrize("n", [16, 17, 18, 19, 20, pytest.param(22, marks=pytest.mark.slow),
                                   pytest.param(24, marks=pytest.mark.slow)])
    def test_evaluator_on_ring_lattice(self, n):
        # Balls of 10 and 11 qubits at depth 2.
        self.check_evaluator(generate_ws(n, 4, 0.0, seed=n), 2, 600 + n, 2)

    def test_large_ball_refused(self):
        g = generate_er(20, 0.5, seed=20)
        with pytest.raises(ValueError, match="20 qubits"):
            lightcone_expectation(g.n, g.edges, [0.4, -0.2], [0.3, 0.9])


class TestMixerKernel:
    """Half plans on symmetric states against two independent references,
    compared on the plain half state: the dense Kronecker product up to
    n = 9, and per-qubit butterflies beyond the dense matrix up to n = 18.
    Folded layers run to n = FOLD_QUBITS + 1 = 6; n = 7..14 take 2 to 4
    real products in one block, odd and even counts, and n = 15..18 two to
    sixteen blocks and 1 to 4 qubits above them."""

    @staticmethod
    def check_half_plan(n, reference, seed, betas):
        size = 1 << (n - 1)
        state = symmetric_state(n, seed)
        half = state[:size].copy()
        plan = _statevec.MixerPlan(half, np.empty_like(half))
        assert plan.fold == (n - 1 <= _statevec.FOLD_QUBITS)
        for beta in betas:
            state = reference(state, beta)
            mix_through_plan(half, n, beta, plan)
            np.testing.assert_allclose(half, state[:size], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_dense_oracle(self, n):
        betas = np.random.default_rng(77 + n).uniform(-np.pi, np.pi, 3)
        self.check_half_plan(n, lambda state, beta: dense_mixer(n, beta) @ state, 77 + n, betas)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_qubitwise_oracle_matches_dense(self, n):
        state = random_state(n, n)
        np.testing.assert_allclose(qubitwise_mixer(state, n, 0.9), dense_mixer(n, 0.9) @ state,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(10, 18))
    def test_matches_qubitwise_oracle(self, n):
        betas = np.random.default_rng(177 + n).uniform(-np.pi, np.pi, 2)
        self.check_half_plan(n, lambda state, beta: qubitwise_mixer(state, n, beta), 177 + n, betas)

    # cos(beta) or sin(beta) is 0 or nearly so at these angles, and the
    # reversal reads tan(beta). n = 14..18 leave 0 to 4 qubits above the
    # 2^13-amplitude blocks.
    @pytest.mark.parametrize("n", [2, 6, 7, 8, 13, 14, 15, 16, 17, 18])
    def test_special_angles_match_qubitwise_oracle(self, n):
        betas = [0.0, math.pi / 2, -math.pi / 2, math.pi, 0.37]
        self.check_half_plan(n, lambda state, beta: qubitwise_mixer(state, n, beta), 277 + n, betas)

    @pytest.mark.parametrize("n", range(7, 21))
    def test_every_product_fits_one_blas_thread(self, n):
        # OpenBLAS runs a GEMM of at most 2^18 multiply-adds on one thread.
        half = np.zeros(1 << (n - 1), dtype=complex)
        plan = _statevec.MixerPlan(half, np.empty_like(half))
        matrices = _statevec._layer_matrices(n - 1, 0.3)
        steps = [step for steps, _ in plan.blocks for step in steps] + list(plan.top)
        for src, dst, j in steps:
            rows, inner = src.shape[-2:]
            assert inner == matrices[j].shape[0] and dst.shape == src.shape
            assert rows * inner * matrices[j].shape[1] <= 1 << 18

    def test_group_matrices_are_rotation_products(self):
        # Each group's matrix, against a Kronecker product of
        # R = [[cos, -sin], [sin, cos]], with I_2 on float index bit 0 and the
        # layer's factor cos(beta) in that group, transposed for the product
        # from the right.
        for qubits in (6, 9, 13, 16):
            for beta in (0.0, 0.61, -2.3, math.pi / 2):
                c, s = math.cos(beta), math.sin(beta)
                rotation = np.array([[c, -s], [s, c]])
                for (k, bit0), m in zip(_statevec._groups(qubits), _statevec._layer_matrices(qubits, beta)):
                    expected = np.ones((1, 1))
                    for factor in [rotation] * (k - bit0) + [np.eye(2)] * bit0:
                        expected = np.kron(expected, factor)
                    np.testing.assert_allclose(m, (c if bit0 else 1.0) * expected.T, rtol=0, atol=1e-15)

    # A half plan folds at n = 3 and chains groups plus the top qubit above.
    # ExpectationEvaluator mixes its layer buffers through one shared
    # scratch: mixing the second buffer must leave the first one's result.
    @pytest.mark.parametrize("shared_scratch", [False, True])
    @pytest.mark.parametrize("n", [3, 8, 12, 13])
    def test_result_lands_in_callers_array(self, n, shared_scratch):
        size = 1 << (n - 1)
        states = [symmetric_state(n, 5 + n), symmetric_state(n, 6 + n)]
        halves = [state[:size].copy() for state in states]
        scratch = np.empty_like(halves[0])
        for state, half, beta in zip(states, halves, (-1.3, 0.6)):
            plan = _statevec.MixerPlan(half, scratch if shared_scratch else np.empty_like(half))
            mix_through_plan(half, n, beta, plan)
            state[:] = qubitwise_mixer(state, n, beta)
        for state, half in zip(states, halves):
            np.testing.assert_allclose(half, state[:size], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make_scratch", [
        lambda buf, size: buf[:size],
        lambda buf, size: buf[size // 2:size // 2 + size],
        lambda buf, size: np.empty(2 * size, dtype=complex)[::2],
        lambda buf, size: np.empty(size // 2, dtype=complex),
        lambda buf, size: np.empty(size, dtype=np.complex64),
    ], ids=["same", "overlapping", "strided", "short", "complex64"])
    def test_bad_scratch_rejected(self, make_scratch):
        n = 6
        buf = random_state(n, 3)
        state = buf[:1 << (n - 1)]
        before = state.copy()
        with pytest.raises(ValueError):
            _statevec.MixerPlan(state, make_scratch(buf, 1 << (n - 1)))
        np.testing.assert_array_equal(state, before)

    def test_plan_for_another_state_rejected(self):
        state, other = random_state(5, 1), random_state(5, 2)
        with pytest.raises(ValueError):
            _statevec.apply_mixer(state, 6, 0.5, _statevec.MixerPlan(other, np.empty_like(other)))
        # The plan reads n = 6 off the 32 amplitudes; a call for n = 5 or 7 is refused.
        plan = _statevec.MixerPlan(state, np.empty_like(state))
        for n in (5, 7):
            with pytest.raises(ValueError):
                _statevec.apply_mixer(state, n, 0.5, plan)

    # The ids are lengths that no half state has: 2^m is at least 1.
    @pytest.mark.parametrize("size", [0, 5, 7, 12, 48])
    def test_size_other_than_half_rejected(self, size):
        state = np.zeros(size, dtype=complex)
        with pytest.raises(ValueError, match="2\\^m amplitudes"):
            _statevec.MixerPlan(state, np.empty_like(state))

    def test_single_precision_rejected(self):
        # The real products multiply the complex128 state's float64 view, and
        # the folded product writes complex128 into the state: a folded size
        # (2^3 amplitudes) and a group chain (2^6) refuse complex64 alike.
        for qubits in (3, 6):
            state = np.zeros(1 << qubits, dtype=np.complex64)
            with pytest.raises(ValueError, match="complex128"):
                _statevec.MixerPlan(state, np.empty_like(state))

    def test_strided_state(self):
        state = random_state(7, 4)[::2]
        with pytest.raises(ValueError):
            _statevec.MixerPlan(state, np.empty(state.size, dtype=complex))

    def test_non_contiguous_2d_state_rejected(self):
        # Contiguous or not, a 2-D array is not a half state.
        for state in (random_state(7, 4).reshape(8, 16)[:, ::2], random_state(6, 4).reshape(8, 8)):
            with pytest.raises(ValueError):
                _statevec.MixerPlan(state, np.empty_like(state))


# derandomize keeps the suite's outcome fixed from run to run; database=None
# leaves no example directory behind.
MIXER_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
qubit_counts = st.integers(1, 14)
seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-math.pi, math.pi)


class TestDepthOneIdentity:
    """At depth 1 the expectation is A + B cos 4beta + C sin 4beta for each
    gamma, with A, B, C read off at beta = 0 and +-pi/8: a check of the
    engine's mixer that needs no oracle."""

    @MIXER_PROPERTY
    @given(n=st.integers(1, 10), edge_prob=st.floats(0.05, 1.0), seed=seeds,
           gamma=angles, beta=angles)
    def test_three_samples_determine_beta_dependence(self, n, edge_prob, seed, gamma, beta):
        g = generate_er(n, edge_prob, seed)
        ev = ExpectationEvaluator(g)
        zero = ev.expectation([gamma], [0.0])
        plus = ev.expectation([gamma], [math.pi / 8])
        minus = ev.expectation([gamma], [-math.pi / 8])
        a, c = (plus + minus) / 2, (plus - minus) / 2
        b = zero - a
        expected = a + b * math.cos(4 * beta) + c * math.sin(4 * beta)
        assert abs(ev.expectation([gamma], [beta]) - expected) <= 1e-12 * max(1, g.edge_count)


class TestMixerProperties:
    """On half plans over symmetric states, whose norm is 2 * |half|^2."""

    @MIXER_PROPERTY
    @given(n=qubit_counts, seed=seeds, beta=angles)
    def test_preserves_norm(self, n, seed, beta):
        half = symmetric_state(n, seed)[:1 << (n - 1)].copy()
        mix_half(half, n, beta)
        assert abs(half_norm(half) - 1.0) < 1e-12

    @MIXER_PROPERTY
    @given(n=qubit_counts, seed=seeds, beta1=angles, beta2=angles)
    def test_angles_add(self, n, seed, beta1, beta2):
        half = symmetric_state(n, seed)[:1 << (n - 1)].copy()
        combined = half.copy()
        mix_half(half, n, beta1)
        mix_half(half, n, beta2)
        mix_half(combined, n, beta1 + beta2)
        np.testing.assert_allclose(half, combined, rtol=0, atol=1e-12)

    @MIXER_PROPERTY
    @given(n=qubit_counts, seed=seeds)
    def test_zero_angle_is_identity(self, n, seed):
        half = symmetric_state(n, seed)[:1 << (n - 1)].copy()
        before = half.copy()
        mix_half(half, n, 0.0)
        np.testing.assert_allclose(half, before, rtol=0, atol=1e-15)
