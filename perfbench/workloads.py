"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Every workload calls swarmcut through module attributes at call time
(``cli.main``, ``experiment.run_instance``), so the tracer's patches apply.
A pass is the only timed region; building inputs and checking outputs are
outside it. Checks return, per operation (a sweep cell or a landscape
export), the list of reasons it failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from swarmcut import cli, experiment, generate_er, generate_ws, write_graph, ws_k_for
from swarmcut.experiment import SuiteConfig
from swarmcut.optimizer import SwarmConfig
from swarmcut.simulator import ExpectationEvaluator

import reference
from reference import THETA_LARGE_EXTRA, THETAS

AR_SLACK = 1e-9


def graph_from_seed(model: str, n: int, graph_seed: int):
    """The sweep's graph for a record, rebuilt from its graph_seed with the
    public generators and SuiteConfig's default model parameters."""
    cfg = SuiteConfig()
    if model == "ER":
        return generate_er(n, cfg.er_edge_prob, graph_seed)
    return generate_ws(n, ws_k_for(n), cfg.ws_rewire_prob, graph_seed)


def warm_up(n: int, p: int, evaluations: int) -> None:
    """Run the evaluator at the workload's largest size before timing, so
    lazy set-up and first-touch costs stay out of the first pass."""
    ev = ExpectationEvaluator(generate_er(n, 0.5, 0))
    theta = np.asarray(THETAS[p])
    for _ in range(evaluations):
        ev.expectation(theta[:p], theta[p:])


def check_record(row: dict, max_cut: int) -> list[str]:
    reasons = []
    if row["flag"]:
        reasons.append(f"flagged: {row['flag']}")
    for col in ("rand_ar", "opt_ar"):
        if not 0 < row[col] <= 1 + AR_SLACK:
            reasons.append(f"{col}={row[col]!r} outside (0, 1]")
    if row["max_cut"] < row["classical_cut"]:
        reasons.append(f"max_cut {row['max_cut']} < classical_cut {row['classical_cut']}")
    if row["max_cut"] != max_cut:
        reasons.append(f"max_cut {row['max_cut']} != exhaustive {max_cut}")
    return reasons


def record_checks(label, seed, row, graph, thetas) -> list[str]:
    """Record invariants plus reference expectations on the record's graph."""
    reasons = check_record(row, reference.oracle_max_cut(graph))
    for k, theta in enumerate(thetas):
        key = f"{label}/{seed}/{row['model']}/{row['n']}/{row['p']}" + (f"/{k}" if len(thetas) > 1 else "")
        failure = reference.check_value(key, graph, theta)
        if failure:
            reasons.append(failure)
    return reasons


class SweepSmall:
    """``swarmcut run-suite``: both models, n = 3..8, p = 1..3, one instance
    per size, the default SwarmConfig, one job; writes the CSV and sidecar."""

    name = "sweep_small"
    nodes = (3, 8)
    depths = (1, 2, 3)
    # Warm-up before timing: (largest n of the workload, depth, evaluations).
    warm = (8, 3, 200)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv_path = workdir / "sweep.csv"
        lo, hi = self.nodes
        self.argv = ["run-suite", "--models", "er,ws", "--nodes", f"{lo}..{hi}",
                     "--depths", ",".join(map(str, self.depths)), "--instances", "1",
                     "--jobs", "1", "--seed", str(seed), "--out", str(self.csv_path)]
        self.ops = [(m, 1, n, p) for m in ("ER", "WS") for n in range(lo, hi + 1) for p in self.depths]
        self._first_output = None
        self._graph_checks = {}

    def run_pass(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = cli.main(self.argv)

    def check(self):
        """Returns ({op: [reasons]}, [opt_ar per cell])."""
        failures = {op: [] for op in self.ops}
        if self.exit_code != 0:
            return {op: [f"run-suite exited {self.exit_code}"] for op in self.ops}, []
        text = self.csv_path.read_text(encoding="utf-8")
        if self._first_output is None:
            self._first_output = text
        elif text != self._first_output:
            return {op: ["CSV differs from the first pass"] for op in self.ops}, []
        reader = csv.reader(io.StringIO(text))
        header = next(reader, [])
        if tuple(header) != tuple(experiment.CSV_COLUMNS):
            return {op: [f"CSV header {header} != CSV_COLUMNS"] for op in self.ops}, []
        rows = [dict(zip(header, values)) for values in reader]
        sidecar = json.loads(self.csv_path.with_suffix(".json").read_text(encoding="utf-8"))
        if len(sidecar) != len(self.ops):
            for op in self.ops:
                failures[op].append(f"sidecar has {len(sidecar)} records, expected {len(self.ops)}")
        seen = {}
        ars = []
        for row in rows:
            try:
                for col in ("graph_index", "n", "p", "max_cut", "classical_cut", "graph_seed"):
                    row[col] = int(row[col])
                for col in ("rand_ar", "opt_ar"):
                    row[col] = float(row[col])
            except (KeyError, ValueError) as exc:
                for key in failures:
                    failures[key].append(f"unparseable CSV row {row}: {exc}")
                continue
            op = (row["model"], row["graph_index"], row["n"], row["p"])
            if op not in failures or op in seen:
                for key in failures:
                    failures[key].append(f"unexpected or duplicate CSV row {op}")
                continue
            seen[op] = row
            ars.append(row["opt_ar"])
            cache_key = (op, row["graph_seed"])
            if cache_key not in self._graph_checks:
                graph = graph_from_seed(row["model"], row["n"], row["graph_seed"])
                self._graph_checks[cache_key] = record_checks(
                    self.name, self.seed, row, graph, [THETAS[row["p"]]])
            failures[op].extend(self._graph_checks[cache_key])
        for op in self.ops:
            if op not in seen:
                failures[op].append("no CSV row")
        return failures, ars

    @classmethod
    def points(cls, seed, graph_for):
        lo, hi = cls.nodes
        for model in ("ER", "WS"):
            for n in range(lo, hi + 1):
                g = graph_for(model, n)
                for p in cls.depths:
                    yield f"{cls.name}/{seed}/{model}/{n}/{p}", g, THETAS[p]


class CellLarge:
    """One ``run_instance`` cell: ER, n = 16, p = 3, swarm shrunk to S = 4, T = 4."""

    name = "cell_large"
    model, n, p = "ER", 16, 3
    swarm_size, max_iters = 4, 4
    warm = (16, 3, 10)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cfg = SuiteConfig(models=(self.model,), node_lo=self.n, node_hi=self.n,
                               depths=(self.p,), base_seed=seed,
                               swarm=SwarmConfig(swarm_size=self.swarm_size, max_iters=self.max_iters))
        self.ops = [(self.model, 1, self.n, self.p)]
        self._first_output = None
        self._checks = None

    def run_pass(self) -> None:
        self.record = experiment.run_instance(self.model, 1, self.n, self.p, self.cfg)

    def check(self):
        op = self.ops[0]
        row = self.record.to_json_dict()
        if self._first_output is None:
            self._first_output = row
        elif json.dumps(row, sort_keys=True) != json.dumps(self._first_output, sort_keys=True):
            return {op: ["record differs from the first pass"]}, []
        if self._checks is None:
            graph = graph_from_seed(self.model, self.n, row["graph_seed"])
            self._checks = record_checks(self.name, self.seed, row, graph,
                                         [THETAS[self.p], THETA_LARGE_EXTRA])
        return {op: list(self._checks)}, [row["opt_ar"]]

    @classmethod
    def points(cls, seed, graph_for):
        g = graph_for(cls.model, cls.n)
        for k, theta in enumerate((THETAS[cls.p], THETA_LARGE_EXTRA)):
            yield f"{cls.name}/{seed}/{cls.model}/{cls.n}/{cls.p}/{k}", g, theta


class Landscape:
    """``swarmcut landscape`` on a 12-node ER graph at 96 x 96 points."""

    name = "landscape"
    n = 12
    resolution = 96
    # Lattice rows (gamma-major) compared with the reference.
    sample_rows = (0, 1, 97, 3000, 4607, 6143, 9215)
    warm = (12, 1, 200)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.graph = self.graph_for_seed(seed)
        self.graph_path = workdir / "landscape_graph.json"
        write_graph(self.graph_path, self.graph)
        self.csv_path = workdir / "landscape.csv"
        self.argv = ["landscape", str(self.graph_path), "--resolution", str(self.resolution),
                     "--out", str(self.csv_path)]
        self.ops = [("landscape", self.n, self.resolution)]
        self._first_output = None

    @classmethod
    def graph_for_seed(cls, seed: int):
        return generate_er(cls.n, 0.5, seed)

    @classmethod
    def lattice(cls):
        axis = np.linspace(-math.pi, math.pi, cls.resolution)
        return axis, axis

    def run_pass(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.exit_code = cli.main(self.argv)

    def check(self):
        op = self.ops[0]
        if self.exit_code != 0:
            return {op: [f"landscape exited {self.exit_code}"]}, []
        text = self.csv_path.read_text(encoding="utf-8")
        if self._first_output is None:
            self._first_output = text
        elif text != self._first_output:
            return {op: ["CSV differs from the first pass"]}, []
        lines = text.splitlines()
        if not lines or lines[0] != "gamma,beta,expectation":
            return {op: [f"landscape header {lines[:1]}"]}, []
        try:
            grid = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        except ValueError as exc:
            return {op: [f"unparseable landscape row: {exc}"]}, []
        res = self.resolution
        if grid.shape != (res * res, 3):
            return {op: [f"landscape has shape {grid.shape}, expected {(res * res, 3)}"]}, []
        reasons = []
        gammas, betas = self.lattice()
        if (np.abs(grid[:, 0] - np.repeat(gammas, res)).max() > 1e-12
                or np.abs(grid[:, 1] - np.tile(betas, res)).max() > 1e-12):
            reasons.append("landscape lattice angles differ from linspace(-pi, pi)")
        max_cut = reference.oracle_max_cut(self.graph)
        values = grid[:, 2]
        if not (np.isfinite(values).all() and values.min() >= -AR_SLACK
                and values.max() <= self.graph.edge_count + AR_SLACK):
            reasons.append("landscape expectation outside [0, edge count]")
        for (key, graph, theta), row in zip(self.points(self.seed, None), self.sample_rows):
            ref = reference.reference(key, graph, theta)
            if abs(values[row] - ref) > reference.TOLERANCE:
                reasons.append(f"{key}: CSV value {float(values[row])!r} differs from reference {ref!r}")
        return {op: reasons}, [float(values.max()) / max_cut]

    @classmethod
    def _theta(cls, row: int):
        gammas, betas = cls.lattice()
        return (gammas[row // cls.resolution], betas[row % cls.resolution])

    @classmethod
    def points(cls, seed, graph_for):
        g = cls.graph_for_seed(seed)
        for row in cls.sample_rows:
            yield f"{cls.name}/{seed}/{row}", g, cls._theta(row)


WORKLOADS = {w.name: w for w in (SweepSmall, CellLarge, Landscape)}


def reference_points(seed, graph_for):
    """Every (key, graph, theta) the checks compare, for the table generator."""
    for workload in WORKLOADS.values():
        yield from workload.points(seed, graph_for)


def build(name: str, seed: int, workdir) -> object:
    """Import-and-build step that ``setup_s`` times in a fresh interpreter."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
