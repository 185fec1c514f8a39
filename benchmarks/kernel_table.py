"""Per-n kernel timings: a p = 3 layer, expectation, gradient and particle step,
and one depth-1 landscape.

    python3 benchmarks/kernel_table.py --src new=src --src old=../old/src > table.json

Each ``--src LABEL=PATH`` is a checkout's ``src/`` directory; the default is
this checkout's. For every n = 3..20 (or ``--nodes LO..HI``) each source is
timed ROUNDS times, each time in a fresh interpreter, the sources
alternating, so the speed drift of a shared machine falls on all of them
alike. A round's timing is the median of REPEATS repeats, each the mean
over enough calls to last at least 0.2 s; each cell of the table holds
the median over rounds and, as its spread, the lowest and highest round.
Two sources that are one checkout (``--src a=src --src b=src``) give the
table's noise floor: a difference between sources means something only
where it is wider than theirs and the spreads do not overlap. The graph is
G(n, 0.5) with seed 0 and the angles are fixed. The layer is one p = 3
evaluator call whose beta_3 alternates between two values, so every call
redoes exactly its last layer on the half state: the phase product, the
mixer and the reduction. The expectation alternates two
angle vectors that differ in gamma_1, so every call simulates all three
layers; the gradient is one central finite-difference gradient of
ExpectationEvaluator.expectation, 12 expectations in the optimizer's probe
order. The gradient and the particle step time the expectation, not the
loss built on it, so they leave out the loss arithmetic (about 1 us per
probe) and call only two functions that every version of the library has.
The layer, the expectation and the gradient repeat the
same betas, so from the second call on the mixer's matrices come from its
memo. A swarm run instead builds new ones for each particle step, which the
particle step column charges: each call is a gradient at angles no earlier
call used, then one position evaluation a step of STEP away in every angle,
13 expectations. The landscape is one 64 x 64 landscape_grid over the
default (-pi, pi) ranges, in ms.
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
ROUNDS = 5
GAMMA = (0.41, -0.73, 1.12)
GAMMA_ALT = (0.47, -0.73, 1.12)
BETA = (0.29, 0.57, -0.38)
BETA_ALT = (0.29, 0.57, -0.31)
FD_STEP = 1e-3
STEP = 0.05


def _median_us(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(timer.repeat(REPEATS, number)) / number * 1e6


def _cell(key: str, rounds: list[float]) -> dict:
    """A table cell: the median of the rounds and their spread, at 0.1 us
    resolution in every column, ms ones included."""
    digits = 4 if key.endswith("_ms") else 1
    return {"median": round(statistics.median(rounds), digits),
            "min": round(min(rounds), digits), "max": round(max(rounds), digits)}


def measure(n: int) -> dict:
    """Time the swarmcut on sys.path at one n."""
    import numpy as np

    from swarmcut import generate_er
    from swarmcut.optimizer import finite_diff_grad
    from swarmcut.simulator import ExpectationEvaluator, landscape_grid

    g = generate_er(n, 0.5, 0)
    ev = ExpectationEvaluator(g)
    last_layer = itertools.cycle([(GAMMA, BETA), (GAMMA, BETA_ALT)])
    angles = itertools.cycle([(GAMMA, BETA), (GAMMA_ALT, BETA)])
    # The gradient and the particle step probe an evaluator of their own, as
    # the optimizer's loss does.
    probe_ev = ExpectationEvaluator(g)

    def expectation(theta):
        return probe_ev.expectation(theta[:3], theta[3:])

    theta = np.array(GAMMA + BETA)
    # Call i starts from theta shifted by i * 1e-9 in every angle: new floats,
    # so every beta misses the mixer's memo, at a distance that changes no timing.
    fresh = (theta + i * 1e-9 for i in itertools.count(1))

    def particle_step():
        at = next(fresh)
        finite_diff_grad(expectation, at, FD_STEP)
        expectation(at - STEP)

    return {
        "layer_us": _median_us(lambda: ev.expectation(*next(last_layer))),
        "eval_p3_us": _median_us(lambda: ev.expectation(*next(angles))),
        "fd_grad_p3_us": _median_us(lambda: finite_diff_grad(expectation, theta, FD_STEP)),
        "particle_step_p3_us": _median_us(particle_step),
        "landscape_ms": _median_us(lambda: landscape_grid(g, resolution=64)) / 1e3,
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
        row = {"n": n, **{key: {label: _cell(key, v) for label, v in by_label.items()}
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
        "what": "us per p = 3 evaluator call that redoes its last layer, per full p = 3 "
                "expectation, per p = 3 finite-difference gradient (12 expectations) and "
                "per p = 3 particle step at fresh angles (gradient plus position "
                "evaluation), and ms per 64 x 64 depth-1 landscape_grid: median, min and "
                f"max over {ROUNDS} alternating rounds of the median of {REPEATS} repeats, "
                "G(n, 0.5) seed 0",
        "machine": {"cpu": cpu, "nproc": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "sources": sources,
        "rows": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
