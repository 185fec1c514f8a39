"""Reference expectation values for the benchmark's output checks.

Each check evaluates swarmcut at a fixed angle vector on one of a workload's
graphs and compares the value with a reference to within ``TOLERANCE``. The
angles are fixed, so the values do not depend on the swarm's path, and an
engine rewrite that only changes rounding still passes.

The reference is the value stored in ``reference.json`` when the table has
the key (stored from swarmcut's own engine at the commit that added the
benchmark, for workload seeds 0..31). For other seeds it is ``oracle``, an
independent simulation that applies the mixer layer in the Hadamard basis,
where exp(-i beta sum_q X_q) is diagonal.

Regenerate the table (only when the workloads' inputs change):

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9
TABLE_PATH = Path(__file__).with_name("reference.json")
TABLE_SEEDS = range(32)

# Fixed (gamma_1..p, beta_1..p) vectors, one per depth, away from symmetric points.
THETAS = {
    1: (0.61, -0.37),
    2: (0.41, 1.13, -0.83, 0.29),
    3: (0.23, -0.71, 1.37, 0.53, -1.09, 0.17),
}
# A second depth-3 vector for the single large cell.
THETA_LARGE_EXTRA = (-0.97, 0.44, 0.81, -0.26, 0.68, -1.21)

def cut_spectrum(g) -> np.ndarray:
    idx = np.arange(1 << g.n, dtype=np.int64)
    values = np.zeros(1 << g.n, dtype=np.float64)
    for i, j in g.edges:
        values += ((idx >> i) ^ (idx >> j)) & 1
    return values


def _hadamard_all(amps: np.ndarray, n: int) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform over all n qubits."""
    for q in range(n):
        view = amps.reshape(-1, 2, 1 << q)
        amps = np.stack((view[:, 0] + view[:, 1], view[:, 0] - view[:, 1]), axis=1).reshape(-1)
    return amps


def oracle(g, theta) -> float:
    """Depth-p QAOA MaxCut expectation, computed independently of swarmcut."""
    theta = np.asarray(theta, dtype=np.float64)
    p, n = theta.size // 2, g.n
    cut = cut_spectrum(g)
    popcount = sum((np.arange(1 << n) >> q) & 1 for q in range(n))
    x_eigen = n - 2 * popcount
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    for gamma, beta in zip(theta[:p], theta[p:]):
        amps = amps * np.exp(-1j * gamma * cut)
        amps = _hadamard_all(amps, n) * np.exp(-1j * beta * x_eigen)
        amps = _hadamard_all(amps, n) / (1 << n)
    return float(np.sum(np.abs(amps) ** 2 * cut))


def oracle_max_cut(g) -> int:
    return int(cut_spectrum(g).max())


@functools.cache
def _stored() -> dict:
    return json.loads(TABLE_PATH.read_text())


def reference(key: str, g, theta) -> float:
    """Stored value for ``key`` if the table has it, else the oracle's."""
    stored = _stored()
    return stored[key] if key in stored else oracle(g, theta)


def check_value(key: str, g, theta) -> str | None:
    """Compare swarmcut's expectation with the reference; return a failure reason or None."""
    from swarmcut import QaoaParams, qaoa_expectation

    value = qaoa_expectation(g, QaoaParams.from_vector(np.asarray(theta, dtype=np.float64)))
    ref = reference(key, g, theta)
    if not math.isfinite(value) or abs(value - ref) > TOLERANCE:
        return f"{key}: expectation {value!r} differs from reference {ref!r}"
    return None


def _write_table() -> None:
    from swarmcut.experiment import SuiteConfig, _generate_instance, derive_seed
    from swarmcut import QaoaParams, qaoa_expectation

    import workloads

    # Cell graphs are built the way run_instance builds them (graph index 1).
    table = {}
    for seed in TABLE_SEEDS:
        cfg = SuiteConfig()
        for key, g, theta in workloads.reference_points(
                seed, lambda model, n: _generate_instance(
                    model, n, cfg, derive_seed(seed, model, 1, n, "graph"))[0]):
            value = qaoa_expectation(g, QaoaParams.from_vector(np.asarray(theta)))
            if abs(value - oracle(g, theta)) > TOLERANCE:
                raise SystemExit(f"{key}: swarmcut and the oracle disagree")
            table[key] = value
    TABLE_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} reference values to {TABLE_PATH}")


if __name__ == "__main__":
    _write_table()
