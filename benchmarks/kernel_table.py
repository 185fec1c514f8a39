"""Per-n kernel timings: a mixer layer, a p = 3 expectation, gradient and particle step.

    python3 benchmarks/kernel_table.py --src new=src --src old=../old/src > table.json

Each ``--src LABEL=PATH`` is a checkout's ``src/`` directory; the default is
this checkout's. For every n = 3..20 (or ``--nodes LO..HI``) each source is
timed ROUNDS times, each time in a fresh interpreter, the sources
alternating, so the speed drift of a shared machine falls on all of them
alike. A round's timing is the median of REPEATS repeats, each the mean
over enough calls to last at least 0.2 s; the table holds the median over
rounds. The state is random, the graph is G(n, 0.5) with seed 0 and the
angles are fixed. The mixer layer is one apply_mixer call on the full 2^n
state with a scratch array. The expectation alternates two angle vectors
that differ in gamma_1, so every call simulates all three layers; the
gradient is one central finite-difference gradient of the loss, 12
expectations in the optimizer's probe order. Both repeat the same betas,
so from the second call on the mixer's matrices come from its memo. A swarm
run instead builds new ones for each particle step, which the particle step
column charges: each call is a gradient at angles no earlier call used, then
one position evaluation a step of STEP away in every angle, 13 expectations.
BLAS keeps its default thread count; OPENBLAS_NUM_THREADS, when set, is
recorded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NODES = range(3, 21)
REPEATS = 7
ROUNDS = 3
GAMMA = (0.41, -0.73, 1.12)
GAMMA_ALT = (0.47, -0.73, 1.12)
BETA = (0.29, 0.57, -0.38)
FD_STEP = 1e-3
STEP = 0.05


def _median_us(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(REPEATS, number)) / number * 1e6


def measure(n: int) -> dict:
    """Time the swarmcut on sys.path at one n."""
    import numpy as np

    from swarmcut import _statevec, generate_er, max_cut_bruteforce
    from swarmcut.optimizer import finite_diff_grad, make_objective
    from swarmcut.simulator import ExpectationEvaluator

    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    scratch = np.empty_like(amps)
    g = generate_er(n, 0.5, 0)
    ev = ExpectationEvaluator(g)
    angles = itertools.cycle([(GAMMA, BETA), (GAMMA_ALT, BETA)])
    loss = make_objective(g, 3, float(max_cut_bruteforce(g).value), 1.0)
    theta = np.array(GAMMA + BETA)
    # Call i starts from theta shifted by i * 1e-9 in every angle: new floats,
    # so every beta misses the mixer's memo, at a distance that changes no timing.
    fresh = (theta + i * 1e-9 for i in itertools.count(1))

    def particle_step():
        at = next(fresh)
        finite_diff_grad(loss, at, FD_STEP)
        loss(at - STEP)

    return {
        "mixer_us": _median_us(lambda: _statevec.apply_mixer(amps, n, BETA[0], scratch)),
        "eval_p3_us": _median_us(lambda: ev.expectation(*next(angles))),
        "fd_grad_p3_us": _median_us(lambda: finite_diff_grad(loss, theta, FD_STEP)),
        "particle_step_p3_us": _median_us(particle_step),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH",
                        help="a checkout's src/ directory, repeatable (default: this checkout)")
    parser.add_argument("--nodes", default=f"{NODES.start}..{NODES.stop - 1}", metavar="LO..HI",
                        help="inclusive range of n (default: %(default)s)")
    parser.add_argument("--worker", nargs=2, metavar=("PATH", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path.insert(0, args.worker[0])
        print(json.dumps(measure(int(args.worker[1]))))
        return 0

    sources = dict(s.split("=", 1) for s in args.src or [f"this={ROOT / 'src'}"])
    rows = []
    lo, hi = (int(x) for x in args.nodes.split(".."))
    for n in range(lo, hi + 1):
        samples = {}
        for _ in range(ROUNDS):
            for label, path in sources.items():
                out = subprocess.run([sys.executable, __file__, "--worker", str(Path(path).resolve()), str(n)],
                                     check=True, capture_output=True, text=True).stdout
                for key, value in json.loads(out).items():
                    samples.setdefault(key, {}).setdefault(label, []).append(value)
        row = {"n": n, **{key: {label: round(statistics.median(v), 1) for label, v in by_label.items()}
                          for key, by_label in samples.items()}}
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)

    import numpy as np

    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        cpuinfo = []
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
               platform.machine())
    print(json.dumps({
        "what": "us per mixer layer, per full p = 3 expectation, per p = 3 "
                "finite-difference gradient (12 expectations) and per p = 3 particle "
                "step at fresh angles (gradient plus position evaluation), median over "
                f"{ROUNDS} alternating rounds of the median of {REPEATS} repeats, "
                "G(n, 0.5) seed 0, random state",
        "machine": {"cpu": cpu, "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "sources": sources,
        "rows": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
