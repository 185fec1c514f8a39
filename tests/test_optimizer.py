import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from swarmcut import Graph, SwarmConfig, adam_fipso_optimize, generate_er
from swarmcut.optimizer import (
    DEFAULT_BOUND,
    MODES,
    adam_update,
    approx_ratio,
    finite_diff_grad,
    make_objective,
    minimize,
    random_params,
    swarm_influence_grad,
)
from swarmcut.simulator import ExpectationEvaluator

P2 = Graph(2, ((0, 1),))
BOX_2D = [(-math.pi, math.pi), (-math.pi, math.pi)]

OPTIMUM_P2 = [math.pi / 2, math.pi / 8]  # expectation exactly 1


def sphere(theta):
    return float(np.sum(np.square(theta)))


class _OnesRng:
    """Stand-in rng whose uniform draws are all 1."""

    def random(self, size=None):
        return np.ones(size) if size is not None else 1.0


def p2_loss(c_target, lambda_):
    """The depth-1 loss of the single edge P2."""
    return make_objective(ExpectationEvaluator(P2), c_target, lambda_)


class TestObjective:
    def test_zero_when_target_met(self):
        assert p2_loss(c_target=1.0, lambda_=3.7)(np.array(OPTIMUM_P2)) < 1e-12

    def test_combines_mse_and_ar_penalty(self):
        # expectation at the P2 optimum is exactly 1: loss = (1-2)^2 + l*(1-0.5)^2
        assert abs(p2_loss(2.0, 1.0)(np.array(OPTIMUM_P2)) - 1.25) < 1e-9
        assert abs(p2_loss(2.0, 0.0)(np.array(OPTIMUM_P2)) - 1.0) < 1e-9

    def test_zero_target_uses_zero_ratio(self):
        # AR falls back to 0, so the penalty term is lambda * 1
        value = p2_loss(0.0, 2.0)(np.array(OPTIMUM_P2))
        assert abs(value - (1.0 + 2.0)) < 1e-9

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            p2_loss(-1.0, 1.0)

    def test_non_negative_everywhere(self):
        rng = np.random.default_rng(0)
        loss = p2_loss(c_target=1.0, lambda_=1.0)
        for _ in range(50):
            assert loss(rng.uniform(-np.pi, np.pi, 2)) >= 0.0


class TestApproxRatio:
    def test_exact(self):
        assert approx_ratio(2.0, 2.0) == 1.0

    def test_zero_target(self):
        assert approx_ratio(123.0, 0.0) == 0.0

    def test_half(self):
        assert approx_ratio(0.9, 1.8) == 0.5


class TestFiniteDiffGrad:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([1.0]), 1e-3)
        assert abs(grad[0] - 2.0) < 1e-6

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 5.0, np.zeros(3), 1e-3)
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_linear_is_exact(self):
        grad = finite_diff_grad(lambda t: 3 * t[0] + 5 * t[1], np.zeros(2), 1e-3)
        np.testing.assert_allclose(grad, [3.0, 5.0], atol=1e-9)

    def test_non_finite_surfaces(self):
        with pytest.raises(ArithmeticError):
            finite_diff_grad(lambda t: math.inf, np.zeros(1), 1e-3)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(sphere, np.zeros(2), 0.0)

    def test_evaluation_count(self):
        calls = []
        finite_diff_grad(lambda t: calls.append(1) or 0.0, np.zeros(4), 1e-3)
        assert len(calls) == 8

    @pytest.mark.parametrize("size, order", [
        (1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (4, [1, 3, 0, 2]), (6, [2, 5, 1, 4, 0, 3])])
    def test_probe_order(self, size, order):
        # (gamma_k, beta_k) from the deepest layer up; odd lengths in index order.
        probed = []

        def record(t):
            probed.append(int(np.flatnonzero(t)[0]))
            return 0.0

        finite_diff_grad(record, np.zeros(size), 1e-3)
        assert probed == [d for d in order for _ in "+-"]

    @pytest.mark.parametrize("n", [5, 9])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_layer_order_gives_the_index_order_gradient(self, n, p):
        g = generate_er(n, 0.5, seed=n)
        rng = np.random.default_rng(10 * n + p)
        loss = make_objective(ExpectationEvaluator(g), 3.0, 1.0)
        fresh = make_objective(ExpectationEvaluator(g), 3.0, 1.0)
        for _ in range(3):
            theta, h = rng.uniform(-np.pi, np.pi, 2 * p), 1e-3
            expected = np.empty(2 * p)
            for d in range(2 * p):
                step = np.zeros(2 * p)
                step[d] = h
                expected[d] = (fresh(theta + step) - fresh(theta - step)) / (2.0 * h)
            np.testing.assert_array_equal(finite_diff_grad(loss, theta, h), expected)


class TestSwarmInfluenceGrad:
    def test_zero_when_all_pbests_equal_position(self):
        theta = np.array([0.4, -0.2])
        pbest = np.tile(theta, (5, 1))
        grad = swarm_influence_grad(theta, pbest, c=2.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_single_particle_at_own_best(self):
        theta = np.array([1.0])
        grad = swarm_influence_grad(theta, theta.reshape(1, 1), c=2.0,
                                    rng=np.random.default_rng(0))
        np.testing.assert_array_equal(grad, np.zeros(1))

    def test_opposite_offsets_cancel(self):
        theta = np.zeros(1)
        pbest = np.array([[1.0], [-1.0]])
        grad = swarm_influence_grad(theta, pbest, c=1.0, rng=_OnesRng())
        np.testing.assert_allclose(grad, [0.0])

    def test_mean_scaling(self):
        theta = np.zeros(2)
        pbest = np.array([[2.0, 0.0], [4.0, 0.0]])
        grad = swarm_influence_grad(theta, pbest, c=1.0, rng=_OnesRng())
        np.testing.assert_allclose(grad, [3.0, 0.0])

    def test_deterministic_given_rng_state(self):
        pbest = np.array([[0.3, 0.1], [-0.7, 0.9]])
        g1 = swarm_influence_grad(np.zeros(2), pbest, 2.0, np.random.default_rng(5))
        g2 = swarm_influence_grad(np.zeros(2), pbest, 2.0, np.random.default_rng(5))
        np.testing.assert_array_equal(g1, g2)


class TestAdamUpdate:
    def test_zero_gradient_zero_step(self):
        step, m, v2 = adam_update(np.zeros(2), np.zeros(2), 1, np.zeros(2),
                                  0.9, 0.999, 0.05, 1e-8)
        np.testing.assert_array_equal(step, np.zeros(2))
        np.testing.assert_array_equal(m, np.zeros(2))

    def test_bias_correction_cancels_decay(self):
        grad = np.array([0.37, -2.5])
        m = np.zeros(2)
        v2 = np.zeros(2)
        for t in range(1, 101):
            _, m, v2 = adam_update(m, v2, t, grad, 0.9, 0.999, 0.05, 1e-8)
            m_hat = m / (1 - 0.9 ** t)
            np.testing.assert_allclose(m_hat, grad, atol=1e-12)

    def test_memoryless_step_is_signed_learning_rate(self):
        step, _, _ = adam_update(np.zeros(1), np.zeros(1), 1, np.array([4.0]),
                                 beta1=0.0, beta2=0.0, eta=1.0, epsilon=1e-15)
        np.testing.assert_allclose(step, [1.0], atol=1e-9)

    def test_matches_vector_formula(self):
        # The NumPy formula adam_update used to run, as the oracle: the float
        # step must give the same bits, as arrays.
        def vector_adam(m, v2, t, grad, beta1, beta2, eta, epsilon):
            grad = np.asarray(grad, dtype=np.float64)
            m_new = beta1 * m + (1.0 - beta1) * grad
            v2_new = beta2 * v2 + (1.0 - beta2) * grad * grad
            m_hat = m_new / (1.0 - beta1 ** t)
            v2_hat = v2_new / (1.0 - beta2 ** t)
            step = eta * m_hat / (np.sqrt(v2_hat) + epsilon)
            return step, m_new, v2_new

        rng = np.random.default_rng(25)
        for _ in range(2000):
            dim, t = int(rng.integers(1, 7)), int(rng.integers(1, 51))
            grad = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-8, 2, dim)
            m = rng.normal(size=dim) * 10.0 ** rng.uniform(-8, 2, dim)
            v2 = rng.uniform(0, 1, dim) * 10.0 ** rng.uniform(-16, 4, dim)
            args = (t, grad, 0.9, 0.999, 0.05, 1e-8)
            got = adam_update(m, v2, *args)
            for value, expected in zip(got, vector_adam(m, v2, *args), strict=True):
                assert isinstance(value, np.ndarray)
                assert value.tobytes() == expected.tobytes()

    def test_second_moment_non_negative(self):
        rng = np.random.default_rng(9)
        m = np.zeros(3)
        v2 = np.zeros(3)
        for t in range(1, 50):
            _, m, v2 = adam_update(m, v2, t, rng.normal(size=3), 0.9, 0.999, 0.05, 1e-8)
            assert (v2 >= 0).all()


class TestRandomParams:
    def test_shape_and_range(self):
        theta = random_params(1, np.random.default_rng(2))
        assert theta.shape == (2,)
        assert (np.abs(theta) <= np.pi).all()

    def test_depth_three(self):
        assert random_params(3, np.random.default_rng(2)).shape == (6,)

    def test_deterministic(self):
        a = random_params(2, np.random.default_rng(6))
        b = random_params(2, np.random.default_rng(6))
        np.testing.assert_array_equal(a, b)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            random_params(0, np.random.default_rng(0))


class TestMinimize:
    def test_sphere_converges(self):
        cfg = SwarmConfig(swarm_size=10, max_iters=100, seed=0)
        result = minimize(sphere, BOX_2D, cfg)
        assert result.best_loss < 1e-3

    def test_single_iteration_contract(self):
        cfg = SwarmConfig(swarm_size=2, max_iters=1, seed=3)
        result = minimize(sphere, BOX_2D, cfg)
        assert len(result.trace) == 1
        assert (result.best_position >= -math.pi).all()
        assert (result.best_position <= math.pi).all()

    def test_trace_non_increasing(self):
        for seed in range(4):
            cfg = SwarmConfig(swarm_size=5, max_iters=20, seed=seed)
            trace = minimize(sphere, BOX_2D, cfg).trace
            assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_best_loss_matches_best_position(self):
        cfg = SwarmConfig(swarm_size=5, max_iters=10, seed=1)
        result = minimize(sphere, BOX_2D, cfg)
        assert result.best_loss == sphere(result.best_position)

    @pytest.mark.parametrize("mode,per_update", [
        ("adam_fd", 2 * 2 + 1), ("adam_swarm", 1), ("fipso_plain", 1)])
    def test_evaluation_counts(self, mode, per_update):
        cfg = SwarmConfig(swarm_size=4, max_iters=3, seed=0, mode=mode)
        result = minimize(sphere, BOX_2D, cfg)
        assert result.evaluations == 4 + 3 * 4 * per_update

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_initial_loss_raises(self, mode, bad):
        # Before: argmin picked the NaN particle and best_loss and the whole
        # trace came back NaN without an error.
        cfg = SwarmConfig(swarm_size=6, max_iters=5, seed=0, mode=mode)
        with pytest.raises(ArithmeticError):
            minimize(lambda theta: bad if theta[0] > 0 else sphere(theta), BOX_2D, cfg)

    @pytest.mark.parametrize("mode", MODES)
    def test_non_finite_loss_during_updates_raises(self, mode):
        calls = 0

        def late_nan(theta):
            nonlocal calls
            calls += 1
            return math.nan if calls > 10 else sphere(theta)

        cfg = SwarmConfig(swarm_size=4, max_iters=10, seed=0, mode=mode)
        with pytest.raises(ArithmeticError):
            minimize(late_nan, BOX_2D, cfg)

    def test_all_modes_respect_bounds(self):
        box = [(-1.0, 2.0), (0.5, 3.0)]
        for mode in ("adam_fd", "adam_swarm", "fipso_plain"):
            for seed in range(3):
                cfg = SwarmConfig(swarm_size=4, max_iters=8, seed=seed, mode=mode)
                result = minimize(sphere, box, cfg)
                assert (result.best_position >= [-1.0, 0.5]).all()
                assert (result.best_position <= [2.0, 3.0]).all()

    def test_positions_in_bounds_every_update_fipso(self):
        # in fipso_plain mode every post-init evaluation happens at a clipped
        # particle position, so the recorded points are the trajectory
        box = np.array([(-0.5, 0.5), (-0.5, 0.5)])
        seen = []

        def recording(theta):
            seen.append(theta.copy())
            return sphere(theta)

        cfg = SwarmConfig(swarm_size=6, max_iters=15, seed=2, mode="fipso_plain")
        minimize(recording, box, cfg)
        for theta in seen[6:]:
            assert (theta >= -0.5).all() and (theta <= 0.5).all()

    def test_positions_in_bounds_every_update_adam_fd(self):
        # adam_fd evaluations come in blocks of 2*dim probes plus one call at
        # the clipped position; check that last call of every block
        box = np.array([(-0.5, 0.5), (-0.5, 0.5)])
        seen = []

        def recording(theta):
            seen.append(theta.copy())
            return sphere(theta)

        swarm, iters, dim = 5, 10, 2
        cfg = SwarmConfig(swarm_size=swarm, max_iters=iters, seed=4, mode="adam_fd")
        minimize(recording, box, cfg)
        block = 2 * dim + 1
        updates = seen[swarm:]
        assert len(updates) == iters * swarm * block
        for k in range(iters * swarm):
            theta = updates[k * block + block - 1]
            assert (theta >= -0.5).all() and (theta <= 0.5).all()

    def test_fipso_plain_matches_direct_reference(self):
        """With Adam removed, one particle update is inertia plus the fully
        informed social pull; replay it with an independently coded loop."""
        cfg = SwarmConfig(swarm_size=4, max_iters=12, seed=8, mode="fipso_plain")
        lo = np.array([-math.pi, -math.pi])
        hi = np.array([math.pi, math.pi])

        seen = []

        def recording(theta):
            seen.append(theta.copy())
            return sphere(theta)

        result = minimize(recording, BOX_2D, cfg)
        trajectory = seen[cfg.swarm_size:]

        rng = np.random.default_rng(cfg.seed)
        pos = rng.uniform(lo, hi, size=(cfg.swarm_size, 2))
        vel = np.zeros_like(pos)
        pbest = pos.copy()
        pbest_loss = np.array([sphere(x) for x in pos])
        reference = []
        for t in range(1, cfg.max_iters + 1):
            w = cfg.w_max - (t / cfg.max_iters) * (cfg.w_max - cfg.w_min)
            for i in range(cfg.swarm_size):
                r = rng.random(cfg.swarm_size)
                social = np.zeros(2)
                for j in range(cfg.swarm_size):
                    social += r[j] * (pbest[j] - pos[i])
                vel[i] = w * vel[i] + (cfg.c / cfg.swarm_size) * social
                cand = np.clip(pos[i] + vel[i], lo, hi)
                vel[i] = cand - pos[i]
                pos[i] = cand
                reference.append(cand.copy())
                loss = sphere(cand)
                if loss < pbest_loss[i]:
                    pbest_loss[i] = loss
                    pbest[i] = cand.copy()
        assert len(trajectory) == len(reference)
        np.testing.assert_allclose(trajectory, reference, atol=1e-12)
        assert result.best_loss == pytest.approx(min(pbest_loss), rel=1e-9, abs=1e-15)


class TestAdamFipsoOptimize:
    def test_single_edge_reaches_closed_form_optimum(self):
        result = adam_fipso_optimize(P2, 1, c_target=1.0, cfg=SwarmConfig(seed=0))
        assert result.best_expectation >= 0.999

    def test_best_loss_consistent_with_objective(self):
        cfg = SwarmConfig(swarm_size=6, max_iters=5, seed=2)
        result = adam_fipso_optimize(P2, 1, 1.0, cfg)
        recomputed = p2_loss(1.0, cfg.lambda_)(result.best_position)
        assert abs(result.best_loss - recomputed) < 1e-12

    def test_deterministic_per_seed(self):
        cfg = SwarmConfig(swarm_size=5, max_iters=4, seed=11)
        a = adam_fipso_optimize(P2, 2, 1.0, cfg)
        b = adam_fipso_optimize(P2, 2, 1.0, cfg)
        np.testing.assert_array_equal(a.best_position, b.best_position)
        assert a.best_loss == b.best_loss
        assert a.trace == b.trace

    # Regression values for both Adam modes: a change to the step sign, the
    # bias-correction step count or the rng draw order moves them.
    PINNED = {
        "adam_fd": ([-0.8782304186240842, 3.141592653589793, 1.1937645801664942, -0.685544288248604],
                    [1.2436919614070314, 0.6596106441509864, 0.3020272646589304, 0.24903503772979876],
                    3.515865805934615),
        "adam_swarm": ([-3.141592653589793, 1.111977110151893, 1.0034566664442963, -0.7640975868725748],
                       [1.2436919614070314, 0.9751068391563141, 0.9751068391563141, 0.9751068391563141],
                       3.042008552583276),
    }

    @pytest.mark.parametrize("mode", sorted(PINNED))
    def test_adam_modes_pinned(self, mode):
        g = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
        cfg = SwarmConfig(swarm_size=4, max_iters=4, mode=mode, seed=5)
        result = adam_fipso_optimize(g, 2, 4.0, cfg)
        position, trace, expectation = self.PINNED[mode]
        np.testing.assert_allclose(result.best_position, position, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(result.trace, trace, rtol=1e-12, atol=1e-12)
        assert result.best_expectation == pytest.approx(expectation, rel=1e-12, abs=1e-12)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            adam_fipso_optimize(P2, 0, 1.0, SwarmConfig())

    @pytest.mark.parametrize("g", [Graph(1, ()), Graph(2, ())], ids=["n1", "n2"])
    def test_edgeless_graph_rejected_before_any_evaluation(self, g, monkeypatch):
        # Every angle gives a cut of 0, so there is nothing to optimize; the
        # same rule as random_baseline's.
        import swarmcut.optimizer as optimizer

        monkeypatch.setattr(optimizer, "minimize", lambda *args: pytest.fail("the swarm ran"))
        with pytest.raises(ValueError, match="edgeless"):
            adam_fipso_optimize(g, 1, 0.0, SwarmConfig())


class TestSwarmConfig:
    def test_defaults_valid(self):
        SwarmConfig()

    @pytest.mark.parametrize("kwargs", [
        {"swarm_size": 1}, {"max_iters": 0}, {"w_min": 0.9, "w_max": 0.4},
        {"adam_beta1": 1.0}, {"adam_beta2": 0.0}, {"epsilon": 0.0},
        {"fd_step": -1.0}, {"mode": "bogus"}, {"lambda_": -0.5},
        {"bounds": [(1.0, 1.0)]},
        {"swarm_size": 2.5}, {"max_iters": True}, {"max_iters": 3.0},
        {"seed": -1}, {"seed": 1.5}, {"seed": False}, {"seed": "3"},
        {"eta": "0.05"}, {"c": True}, {"fd_step": math.inf}, {"bounds": [0, math.inf]},
        {"bounds": ["0", "1"]}, {"bounds": []},
        {"eta": 10 ** 400}, {"bounds": [0, 10 ** 400]},
        {"c": -1.0}, {"eta": -0.05},
        # Finite bounds whose width hi - lo overflows: unchecked, the swarm's
        # first uniform draw raised OverflowError inside NumPy.
        {"bounds": [-1e308, 1e308]}, {"bounds": [(0, 1), (-1e308, 1e308)]},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            SwarmConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"fd_step": 1e300}, {"fd_step": math.pi},
                                        {"fd_step": 0.5, "bounds": [(-3.0, 3.0), (0.0, 1.0)]}])
    def test_fd_step_spanning_the_box_rejected(self, kwargs):
        # Probes that far apart read no slope: adam_fd would quietly become
        # FIPSO without Adam.
        with pytest.raises(ValueError, match="fd_step"):
            SwarmConfig(**kwargs)

    def test_fd_step_below_half_the_narrowest_width_accepted(self):
        assert SwarmConfig(fd_step=0.49, bounds=[(-3.0, 3.0), (0.0, 1.0)]).fd_step == 0.49
        assert SwarmConfig(fd_step=math.nextafter(math.pi, 0)).fd_step < math.pi

    def test_json_lambda_alias(self):
        cfg = SwarmConfig.from_dict({"lambda": 2.5, "swarm_size": 8})
        assert cfg.lambda_ == 2.5
        assert cfg.swarm_size == 8
        assert cfg.to_dict()["lambda"] == 2.5

    def test_numpy_integers_accepted(self):
        cfg = SwarmConfig(swarm_size=np.int64(4), max_iters=np.int32(3), seed=np.uint64(7))
        assert (cfg.swarm_size, cfg.max_iters, cfg.seed) == (4, 3, 7)
        assert all(type(v) is int for v in (cfg.swarm_size, cfg.max_iters, cfg.seed))

    def test_numpy_reals_and_ints_stored_as_float(self):
        cfg = SwarmConfig(w_max=np.float32(0.75), c=2, eta=np.float64(0.1), lambda_=np.int64(3),
                          bounds=[(np.int64(-1), np.float32(0.5))])
        reals = ("w_max", "w_min", "c", "eta", "adam_beta1", "adam_beta2", "epsilon", "lambda_", "fd_step")
        assert all(type(getattr(cfg, name)) is float for name in reals)
        assert (cfg.w_max, cfg.c, cfg.lambda_, cfg.bounds) == (0.75, 2.0, 3.0, ((-1.0, 0.5),))
        assert all(type(b) is float for b in cfg.bounds[0])

    def test_integer_real_echoes_as_float(self):
        doc = SwarmConfig.from_dict({"c": 2, "lambda": 1}).to_dict()
        assert json.dumps(doc["c"]) == "2.0"
        assert json.dumps(doc["lambda"]) == "1.0"

    def test_unknown_key_rejected(self):
        for doc in ({"swarmsize": 8}, {"lambda_": 1.0}):
            with pytest.raises(ValueError, match="unknown"):
                SwarmConfig.from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            SwarmConfig.from_dict([1, 2])

    def test_to_dict_round_trips_every_field(self):
        cfg = SwarmConfig(swarm_size=3, max_iters=4, w_max=0.8, w_min=0.3, c=1.5, eta=0.1,
                          adam_beta1=0.8, adam_beta2=0.99, epsilon=1e-7, lambda_=2.0,
                          fd_step=1e-4, bounds=[(-1.0, 1.0), (0.0, 2.0)],
                          mode="adam_swarm", seed=5)
        doc = cfg.to_dict()
        assert len(doc) == len(dataclasses.fields(SwarmConfig))
        assert doc["lambda"] == 2.0
        assert SwarmConfig.from_dict(doc).to_dict() == doc
        assert "bounds" not in SwarmConfig().to_dict()

    def test_frozen(self):
        cfg = SwarmConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        assert cfg.seed == 0

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"eta": 0.1, "mode": "fipso_plain", "lambda": 0.5}))
        cfg = SwarmConfig.from_dict(json.loads(path.read_text()))
        assert cfg.eta == 0.1
        assert cfg.mode == "fipso_plain"
        assert cfg.lambda_ == 0.5

    def test_with_seed_copies(self):
        base = SwarmConfig(seed=1)
        other = base.with_seed(99)
        assert other.seed == 99
        assert base.seed == 1

    def test_bounds_copied_and_hashable(self):
        bounds = [-2, 2]
        cfg = SwarmConfig(bounds=bounds)
        bounds[0] = 5
        assert cfg.bounds == ((-2.0, 2.0),)
        assert hash(cfg) == hash(SwarmConfig(bounds=(-2.0, 2.0)))


class TestBox:
    def test_default_is_pi_box(self):
        np.testing.assert_array_equal(SwarmConfig().box(2), [(-math.pi, math.pi)] * 4)

    @pytest.mark.parametrize("bounds", [(-1, 2), [[-1, 2]]])
    def test_one_pair_applies_to_every_angle(self, bounds):
        np.testing.assert_array_equal(SwarmConfig(bounds=bounds).box(3), [(-1.0, 2.0)] * 6)

    def test_one_pair_per_angle(self):
        pairs = [(-1.0, 1.0), (0.0, 2.0), (0.5, 0.7), (-3.0, -2.0)]
        np.testing.assert_array_equal(SwarmConfig(bounds=pairs).box(2), pairs)

    @pytest.mark.parametrize("p", [1, 3])
    def test_pair_count_must_match_depth(self, p):
        with pytest.raises(ValueError, match="bounds"):
            SwarmConfig(bounds=[(0.0, 1.0)] * 4).box(p)

    def test_optimizer_rejects_mismatched_box(self):
        with pytest.raises(ValueError, match="bounds"):
            adam_fipso_optimize(P2, 1, 1.0, SwarmConfig(bounds=[(0.0, 1.0)] * 3))


_finite = st.floats(-10.0, 10.0)
_pair = st.tuples(_finite, _finite).filter(lambda b: b[0] < b[1])


@st.composite
def _bounds(draw):
    """Bounds in one of their JSON forms, and the narrowest width they give."""
    kind = draw(st.sampled_from(["none", "bare", "one", "per_angle"]))
    if kind == "none":
        return None, DEFAULT_BOUND[1] - DEFAULT_BOUND[0]
    if kind == "bare":
        lo, hi = draw(_pair)
        return [lo, hi], hi - lo
    count = 1 if kind == "one" else 2 * draw(st.integers(1, 3))
    pairs = [draw(_pair) for _ in range(count)]
    return [list(b) for b in pairs], min(hi - lo for lo, hi in pairs)


@given(
    swarm_size=st.integers(2, 100), max_iters=st.integers(1, 100),
    w=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(sorted),
    c=st.floats(0.0, 10.0), eta=st.floats(1e-6, 1.0),
    betas=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    epsilon=st.floats(1e-12, 1e-3), lambda_=st.floats(0.0, 10.0),
    step_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    bounds=_bounds(), mode=st.sampled_from(MODES), seed=st.integers(0, 2 ** 64 - 1),
)
def test_config_json_round_trip(swarm_size, max_iters, w, c, eta, betas, epsilon, lambda_,
                                step_fraction, bounds, mode, seed):
    # fd_step is drawn below half the narrowest width, the largest valid
    # step, so boxes of any width stay in the draw; only a product that
    # rounds to 0 or up to the limit leaves it.
    bounds, width = bounds
    fd_step = step_fraction * (width / 2)
    assume(0 < fd_step < width / 2)
    cfg = SwarmConfig(swarm_size=swarm_size, max_iters=max_iters, w_min=w[0], w_max=w[1], c=c,
                      eta=eta, adam_beta1=betas[0], adam_beta2=betas[1], epsilon=epsilon,
                      lambda_=lambda_, fd_step=fd_step, bounds=bounds, mode=mode, seed=seed)
    assert SwarmConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
