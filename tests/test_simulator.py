import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcut import CapacityError, Graph, generate_er, generate_ws, max_cut_bruteforce, qaoa_expectation
from swarmcut import simulator
from swarmcut.simulator import (
    ExpectationEvaluator,
    QaoaParams,
    apply_cost_layer,
    apply_mixer_layer,
    build_cut_spectrum,
    init_plus_state,
    landscape_grid,
    write_landscape_csv,
)
from swarmcut import _statevec
from swarmcut.optimizer import finite_diff_grad, make_objective

from dense_oracle import closed_form_p1_expectation, dense_expectation, dense_mixer, qubitwise_mixer

P2 = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return state / np.linalg.norm(state)


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
        assert build_cut_spectrum(P2).tolist() == [0, 1, 1, 0]

    def test_k3(self):
        assert build_cut_spectrum(K3).tolist() == [0, 2, 2, 2, 2, 2, 2, 0]

    def test_empty_graph(self):
        assert build_cut_spectrum(Graph(2, ())).tolist() == [0, 0, 0, 0]

    def test_complement_symmetry(self):
        g = generate_er(6, 0.5, seed=4)
        values = build_cut_spectrum(g)
        complement = np.arange(values.size) ^ (values.size - 1)
        np.testing.assert_array_equal(values, values[complement])

    def test_capacity(self):
        with pytest.raises(CapacityError):
            build_cut_spectrum(Graph(25, ()))


class TestInitPlusState:
    def test_single_qubit(self):
        np.testing.assert_allclose(init_plus_state(1), [1 / math.sqrt(2)] * 2)

    def test_two_qubits(self):
        np.testing.assert_allclose(init_plus_state(2), [0.5] * 4)

    def test_norm_sixteen_qubits(self):
        state = init_plus_state(16)
        assert abs(np.vdot(state, state).real - 1.0) < 1e-12

    def test_capacity(self):
        with pytest.raises(CapacityError):
            init_plus_state(25)


class TestCostLayer:
    def test_zero_angle_is_identity(self):
        state = init_plus_state(3)
        before = state.copy()
        apply_cost_layer(state, build_cut_spectrum(K3), 0.0)
        np.testing.assert_array_equal(state, before)

    def test_two_pi_is_identity_on_integer_spectrum(self):
        state = init_plus_state(3)
        before = state.copy()
        apply_cost_layer(state, build_cut_spectrum(K3), 2 * math.pi)
        np.testing.assert_allclose(state, before, atol=1e-12)

    def test_p2_quarter_turn(self):
        state = init_plus_state(2)
        apply_cost_layer(state, build_cut_spectrum(P2), math.pi / 2)
        np.testing.assert_allclose(state, [0.5, -0.5j, -0.5j, 0.5], atol=1e-12)

    def test_preserves_magnitudes_exactly(self):
        rng = np.random.default_rng(8)
        g = generate_er(4, 0.5, seed=2)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        magnitudes = np.abs(state).copy()
        apply_cost_layer(state, build_cut_spectrum(g), 0.7317)
        np.testing.assert_allclose(np.abs(state), magnitudes, rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_cost_layer(init_plus_state(2), build_cut_spectrum(K3), 0.1)


class TestMixerLayer:
    def test_zero_angle_is_identity(self):
        state = init_plus_state(3)
        before = state.copy()
        apply_mixer_layer(state, 0.0)
        np.testing.assert_allclose(state, before, atol=1e-15)

    def test_pi_is_global_phase(self):
        rng = np.random.default_rng(1)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        before = state.copy()
        apply_mixer_layer(state, math.pi)
        np.testing.assert_allclose(state, (-1) ** 3 * before, atol=1e-12)

    def test_single_qubit_rotation(self):
        state = np.array([1.0, 0.0], dtype=complex)
        apply_mixer_layer(state, math.pi / 4)
        np.testing.assert_allclose(
            state, [math.cos(math.pi / 4), -1j * math.sin(math.pi / 4)], atol=1e-15)

    @pytest.mark.parametrize("n", [3, 8, 12, 13])
    def test_in_place(self, n):
        state = random_state(n, n)
        expected = qubitwise_mixer(state, n, 0.8)
        assert apply_mixer_layer(state, 0.8) is state
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)


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
        spectrum = build_cut_spectrum(g)
        state = init_plus_state(6)
        for _ in range(12):
            apply_cost_layer(state, spectrum, float(rng.uniform(-np.pi, np.pi)))
            apply_mixer_layer(state, float(rng.uniform(-np.pi, np.pi)))
            assert abs(np.vdot(state, state).real - 1.0) < 1e-10

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


def full_size_state(g, gamma, beta):
    """The 2^n-amplitude QAOA state from the full-size public layer helpers."""
    state = init_plus_state(g.n)
    spectrum = build_cut_spectrum(g)
    for g_k, b_k in zip(gamma, beta):
        apply_cost_layer(state, spectrum, g_k)
        apply_mixer_layer(state, b_k)
    return state


class TestBitFlipSymmetry:
    """ExpectationEvaluator keeps only the amplitudes with qubit n-1 = 0. That
    is exact because the full QAOA state satisfies a(z) = a(~z), which the
    full-size helpers show here; the half state must agree with them."""

    @staticmethod
    def cases(n):
        rng = np.random.default_rng(500 + n)
        for p in (1, 2, 3):
            g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
            yield g, rng.uniform(-np.pi, np.pi, p), rng.uniform(-np.pi, np.pi, p)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_state_is_symmetric(self, n):
        for g, gamma, beta in self.cases(n):
            state = full_size_state(g, gamma, beta)
            np.testing.assert_allclose(state, state[::-1], rtol=0, atol=1e-12)

    # n <= FOLD_QUBITS + 1 folds each mixer layer into one product; larger n chain groups.
    @pytest.mark.parametrize("n", range(1, 11))
    def test_evaluator_matches_full_state(self, n):
        for g, gamma, beta in self.cases(n):
            state = full_size_state(g, gamma, beta)
            full = float(np.vdot(state, build_cut_spectrum(g) * state).real)
            value = ExpectationEvaluator(g).expectation(gamma, beta)
            assert abs(value - full) < 1e-12
            assert abs(value - dense_expectation(n, g.edges, gamma, beta)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_buffers_hold_half_the_amplitudes(self, n):
        ev = ExpectationEvaluator(generate_er(n, 0.5, seed=n))
        ev.expectation([0.3, -0.5, 1.1], [0.2, 0.7, -0.4])
        assert len(ev._layers) == 3
        for buf in (*ev._layers, ev._scratch):
            assert buf.shape == (1 << (n - 1),)

    # n = 6 is the largest folded layer, n = 7 the smallest group chain.
    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 7, 9, 13])
    def test_half_mixer_matches_full_mixer(self, n):
        rng = np.random.default_rng(600 + n)
        state = random_state(n, n)
        state += state[::-1]
        half = state[:1 << (n - 1)].copy()
        plan = _statevec.MixerPlan(half, n, np.empty_like(half), half=True)
        assert plan.fold == (n - 1 <= _statevec.FOLD_QUBITS)
        for beta in rng.uniform(-np.pi, np.pi, 3):
            _statevec.apply_mixer(state, n, beta)
            np.copyto(plan.source, half)
            _statevec.apply_mixer(half, n, beta, plan)
            np.testing.assert_allclose(half, state[:1 << (n - 1)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_folded_mixer_matches_dense_oracle(self, n):
        # On a symmetric state, column b >= 2^(n-1) of the dense mixer meets
        # the amplitude of its mirror 2^n - 1 - b, so the half-state matrix
        # adds the mirrored right half of the top rows to their left half.
        size = 1 << (n - 1)
        for beta in (0.0, 0.43, -2.1, math.pi / 2):
            dense = dense_mixer(n, beta)[:size]
            expected = dense[:, :size] + dense[:, size:][:, ::-1]
            folded = _statevec._folded_mixer(n, math.cos(beta), math.sin(beta))
            np.testing.assert_allclose(folded, expected, rtol=0, atol=1e-13)


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

    @pytest.mark.parametrize("p, layers", [(1, 4), (2, 14), (3, 28)])
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
            loss = make_objective(generate_er(n, 0.5, seed=1), p, 5.0, 1.0)
            # As in the optimizer: a position evaluation, then the gradient at another point.
            loss(rng.uniform(-np.pi, np.pi, 2 * p))
            calls.clear()
            finite_diff_grad(loss, rng.uniform(-np.pi, np.pi, 2 * p), 1e-3)
            assert len(calls) == layers


class TestLandscape:
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
        g = generate_ws(n, 4, 0.3, seed=n)
        gammas, betas = np.linspace(-2.5, 3.0, 5), np.linspace(-1.2, 0.9, 5)
        closed = closed_form_p1_expectation(g.n, g.edges, gammas[:, None], betas[None, :])
        grid = landscape_grid(g, (-2.5, 3.0), (-1.2, 0.9), resolution=5)
        assert np.abs(grid - closed).max() < 1e-12 * g.edge_count


class TestPhaseTable:
    @pytest.mark.parametrize("n", [1, 3, 6, 11])
    def test_matches_fancy_index_bit_for_bit(self, n):
        values = build_cut_spectrum(generate_er(n, 0.5, seed=n))
        table = np.exp(-1j * 0.37 * np.arange(values.max() + 1))
        state = random_state(n, n)
        expected = state * table[values]
        out, scratch = np.empty_like(state), np.empty_like(state)
        before = state.copy()
        _statevec.apply_phase_table(state, values, table, scratch, out)
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(state, before)
        _statevec.apply_phase_table(state, values, table)
        np.testing.assert_array_equal(state, expected)


class TestGroupMixerMemo:
    def test_read_only_and_equal_to_uncached_build(self):
        # Group layers from one partial group to two groups and a rest, and
        # folded layers from one to FOLD_QUBITS half-state qubits.
        cases = [(q, False) for q in range(1, 2 * _statevec.GROUP_QUBITS + 2)]
        cases += [(q, True) for q in range(_statevec.FOLD_QUBITS + 1)]
        for qubits, fold in cases:
            for beta in (0.0, 0.61, -2.3):
                matrices = _statevec._layer_matrices(qubits, fold, beta)
                assert _statevec._layer_matrices(qubits, fold, beta) is matrices
                fresh = _statevec._layer_matrices.__wrapped__(qubits, fold, beta)
                assert len(matrices) == len(fresh) == (1 if fold else -(-qubits // _statevec.GROUP_QUBITS))
                for m, expected in zip(matrices, fresh):
                    assert not m.flags.writeable
                    np.testing.assert_array_equal(m, expected)
                    with pytest.raises(ValueError):
                        m[0, 0] = 0


class TestMixerKernel:
    """The rotating-layout mixer against two independent references: the
    dense Kronecker product from one partial group (n < 4) through
    remainders of 1-3 qubits to three groups, and per-qubit butterflies up
    to n = 16, beyond the dense matrix, with odd and even group counts."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_dense_oracle(self, n):
        rng = np.random.default_rng(77 + n)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        for beta in rng.uniform(-np.pi, np.pi, 3):
            expected = dense_mixer(n, beta) @ state
            _statevec.apply_mixer(state, n, beta)
            np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_qubitwise_oracle_matches_dense(self, n):
        state = random_state(n, n)
        np.testing.assert_allclose(qubitwise_mixer(state, n, 0.9), dense_mixer(n, 0.9) @ state,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(10, 17))
    def test_matches_qubitwise_oracle(self, n):
        rng = np.random.default_rng(177 + n)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        scratch = np.empty_like(state)
        for beta in rng.uniform(-np.pi, np.pi, 2):
            expected = qubitwise_mixer(state, n, beta)
            _statevec.apply_mixer(state, n, beta, scratch)
            np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_scratch", [False, True])
    @pytest.mark.parametrize("n", [3, 8, 12, 13])
    def test_result_lands_in_callers_array(self, n, with_scratch):
        state = random_state(n, 5 + n)
        expected = qubitwise_mixer(state, n, -1.3)
        scratch = np.empty_like(state) if with_scratch else None
        _statevec.apply_mixer(state, n, -1.3, scratch)
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make_scratch", [
        lambda buf, size: buf[:size],
        lambda buf, size: buf[size // 2:size // 2 + size],
        lambda buf, size: buf[:2 * size:2],
        lambda buf, size: np.empty(size // 2, dtype=complex),
        lambda buf, size: np.empty(size, dtype=np.complex64),
    ], ids=["same", "overlapping", "strided", "short", "complex64"])
    def test_bad_scratch_rejected(self, make_scratch):
        n = 6
        buf = random_state(n + 1, 3)
        state = buf[:1 << n]
        before = state.copy()
        with pytest.raises(ValueError):
            _statevec.apply_mixer(state, n, 0.5, make_scratch(buf, 1 << n))
        np.testing.assert_array_equal(state, before)

    def test_plan_for_another_state_rejected(self):
        state, other = random_state(6, 1), random_state(6, 2)
        with pytest.raises(ValueError):
            _statevec.apply_mixer(state, 6, 0.5, _statevec.MixerPlan(other, 6, np.empty_like(other)))
        with pytest.raises(ValueError):
            _statevec.apply_mixer(state, 5, 0.5, _statevec.MixerPlan(state, 6, np.empty_like(state)))

    def test_strided_state(self):
        state = random_state(7, 4)[::2]
        expected = qubitwise_mixer(state, 6, 0.5)
        _statevec.apply_mixer(state, 6, 0.5)
        np.testing.assert_allclose(state, expected, rtol=0, atol=1e-12)

    def test_non_contiguous_2d_state_rejected(self):
        state = random_state(7, 4).reshape(8, 16)[:, ::2]
        with pytest.raises(ValueError):
            _statevec.apply_mixer(state, 6, 0.5)


# derandomize keeps the suite's outcome fixed from run to run; database=None
# leaves no example directory behind.
MIXER_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
qubit_counts = st.integers(1, 14)
seeds = st.integers(0, 2**32 - 1)
angles = st.floats(-math.pi, math.pi)


class TestDepthOneIdentity:
    """At depth 1 the expectation is A + B cos 4beta + C sin 4beta for each
    gamma, with A, B, C read off at beta = 0 and +-pi/8: the identity
    landscape_grid reconstructs its rows from."""

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
    @MIXER_PROPERTY
    @given(n=qubit_counts, seed=seeds, beta=angles)
    def test_preserves_norm(self, n, seed, beta):
        state = random_state(n, seed)
        _statevec.apply_mixer(state, n, beta)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    @MIXER_PROPERTY
    @given(n=qubit_counts, seed=seeds, beta1=angles, beta2=angles)
    def test_angles_add(self, n, seed, beta1, beta2):
        state = random_state(n, seed)
        combined = state.copy()
        _statevec.apply_mixer(state, n, beta1)
        _statevec.apply_mixer(state, n, beta2)
        _statevec.apply_mixer(combined, n, beta1 + beta2)
        np.testing.assert_allclose(state, combined, rtol=0, atol=1e-12)

    @MIXER_PROPERTY
    @given(n=qubit_counts, seed=seeds)
    def test_zero_angle_is_identity(self, n, seed):
        state = random_state(n, seed)
        before = state.copy()
        _statevec.apply_mixer(state, n, 0.0)
        np.testing.assert_allclose(state, before, rtol=0, atol=1e-15)
