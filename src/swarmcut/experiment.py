"""Benchmark sweep over random graph instances: graph models x sizes x depths.

Every cell (model, graph_index, n, p) gets a brute-force MaxCut, a
one-exchange reference cut, a single random-parameter baseline, and a swarm
optimization run. All randomness derives from one base seed through a stable
hash, so a suite is a pure function of its configuration.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import typing
import warnings
from dataclasses import dataclass, field

import numpy as np

from .graphs import (MAX_NODES, Graph, check_int, check_real, generate_er, generate_ws, max_cut_bruteforce,
                     one_exchange_cut, ws_k_for)
from .optimizer import SwarmConfig, adam_fipso_optimize, approx_ratio, random_params
from .simulator import ExpectationEvaluator

MODELS = ("ER", "WS")

CSV_COLUMNS = (
    "model", "graph_index", "n", "p", "max_cut", "classical_cut",
    "rand_cut", "rand_ar", "opt_cut", "opt_ar", "opt_loss",
    "improvement_pct", "graph_seed", "baseline_seed", "swarm_seed", "flag",
)


class UndefinedImprovementError(ValueError):
    """Baseline approximation ratio is 0, so relative improvement is undefined."""


@dataclass(frozen=True)
class ExperimentRecord:
    model: str
    graph_index: int
    n: int
    p: int
    max_cut: int
    classical_cut: int
    rand_params: tuple
    rand_cut: float
    rand_ar: float
    opt_params: tuple
    opt_cut: float
    opt_ar: float
    opt_loss: float
    improvement_pct: float
    graph_seed: int
    baseline_seed: int
    swarm_seed: int
    flag: str = ""
    config: dict = field(default_factory=dict)

    def to_csv_row(self) -> list:
        return [getattr(self, col) for col in CSV_COLUMNS]

    def to_json_dict(self) -> dict:
        doc = {col: getattr(self, col) for col in CSV_COLUMNS}
        doc["rand_params"] = list(self.rand_params)
        doc["opt_params"] = list(self.opt_params)
        doc["config"] = dict(self.config)
        return doc


@dataclass(frozen=True)
class SuiteConfig:
    """Sweep shape, checked at construction; models are kept upper case, depths sorted."""

    models: tuple = MODELS
    node_lo: int = 3
    node_hi: int = 16
    instances_per_size: int = 5
    depths: tuple = (1, 2, 3)
    er_edge_prob: float = 0.5
    ws_rewire_prob: float = 0.3
    base_seed: int = 0
    swarm: SwarmConfig = field(default_factory=SwarmConfig)

    def __post_init__(self):
        for name in ("models", "depths"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be a sequence, got {getattr(self, name)!r}") from None
        object.__setattr__(self, "models", tuple(str(m).upper() for m in self.models))
        # A repeated or unknown entry makes the intersection shorter than the tuple.
        if not self.models or len(set(self.models) & set(MODELS)) < len(self.models):
            raise ValueError(f"models must be distinct entries of {MODELS}, got {self.models}")
        for name, low in (("node_lo", 3), ("instances_per_size", 1), ("base_seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        object.__setattr__(self, "node_hi", check_int("node_hi", self.node_hi, self.node_lo))
        if self.node_hi > MAX_NODES:
            raise ValueError(f"node_hi must be <= {MAX_NODES}, got {self.node_hi}")
        if not isinstance(self.swarm, SwarmConfig):
            raise ValueError(f"swarm must be a SwarmConfig, got {type(self.swarm).__name__}")
        # Checked before the set test: 1.0 and True pass it, a list cannot enter it.
        object.__setattr__(self, "depths", tuple(sorted(check_int("depths", p, 1) for p in self.depths)))
        if not self.depths or len(set(self.depths) & {1, 2, 3}) < len(self.depths):
            raise ValueError(f"depths must be distinct entries of (1, 2, 3), got {self.depths}")
        for p in self.depths:
            self.swarm.box(p)
        for name in ("er_edge_prob", "ws_rewire_prob"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        # Zero is excluded because _generate_instance resamples until the
        # graph has an edge, which never happens at probability 0.
        if not 0.0 < self.er_edge_prob <= 1.0:
            raise ValueError(f"er_edge_prob must be in (0, 1], got {self.er_edge_prob}")
        if not 0.0 <= self.ws_rewire_prob <= 1.0:
            raise ValueError(f"ws_rewire_prob must be in [0, 1], got {self.ws_rewire_prob}")
        if self.node_hi > 16:
            # stacklevel 3: past __post_init__ and __init__ to the constructor call.
            warnings.warn(f"node_hi={self.node_hi} exceeds 16; statevectors grow as 2^n "
                          "and the sweep may take very long", stacklevel=3)

    def cells(self) -> list[tuple[str, int, int, int]]:
        """All (model, graph_index, n, p) combinations in canonical order."""
        return [(model, g_idx, n, p)
                for model in sorted(self.models)
                for g_idx in range(1, self.instances_per_size + 1)
                for n in range(self.node_lo, self.node_hi + 1)
                for p in self.depths]


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from the base seed and any hashable tags."""
    text = "|".join(str(x) for x in (base_seed, *parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _generate_instance(model: str, n: int, cfg: SuiteConfig, graph_seed: int) -> tuple[Graph, int]:
    """Generate a graph, resampling with incremented seed while it has no
    edges (the approximation ratio is undefined for a MaxCut of 0)."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    seed = graph_seed
    while True:
        if model == "ER":
            g = generate_er(n, cfg.er_edge_prob, seed)
        else:
            g = generate_ws(n, ws_k_for(n), cfg.ws_rewire_prob, seed)
        if g.edge_count >= 1:
            return g, seed
        seed += 1


def random_baseline(g: Graph, p: int, seed: int, max_cut: int):
    """One uniform parameter draw and its expectation / approximation ratio
    against max_cut."""
    if g.edge_count == 0:
        raise ValueError("baseline is undefined for an edgeless graph")
    params = random_params(p, np.random.default_rng(seed))
    cut = ExpectationEvaluator(g).expectation(params[:p], params[p:])
    return params, cut, approx_ratio(cut, max_cut)


def improvement(ar_opt: float, ar_rand: float) -> float:
    """Relative percentage gain of the optimized AR over the baseline AR."""
    if ar_rand == 0:
        raise UndefinedImprovementError("baseline approximation ratio is 0")
    return (ar_opt - ar_rand) / ar_rand * 100.0


def run_instance(model: str, graph_index: int, n: int, p: int, cfg: SuiteConfig) -> ExperimentRecord:
    """One sweep cell. The graph seed omits p, so all depths share the graph."""
    model = model.upper()
    graph_index, n, p = check_int("graph_index", graph_index, 1), check_int("n", n, 1), check_int("p", p, 1)
    base_graph_seed = derive_seed(cfg.base_seed, model, graph_index, n, "graph")
    g, graph_seed = _generate_instance(model, n, cfg, base_graph_seed)

    max_cut = max_cut_bruteforce(g).value
    classical_seed = derive_seed(cfg.base_seed, model, graph_index, n, "classical")
    classical_cut = one_exchange_cut(g, classical_seed).value

    baseline_seed = derive_seed(cfg.base_seed, model, graph_index, n, p, "baseline")
    rand_theta, rand_cut, rand_ar = random_baseline(g, p, baseline_seed, max_cut=max_cut)

    swarm_seed = derive_seed(cfg.base_seed, model, graph_index, n, p, "swarm")
    swarm = cfg.swarm.with_seed(swarm_seed)
    result = adam_fipso_optimize(g, p, float(max_cut), swarm)
    opt_cut = result.best_expectation
    opt_ar = approx_ratio(opt_cut, max_cut)

    flag = ""
    try:
        improvement_pct = improvement(opt_ar, rand_ar)
    except UndefinedImprovementError:
        improvement_pct = math.nan
        flag = "undefined_improvement"

    return ExperimentRecord(
        model=model, graph_index=graph_index, n=n, p=p,
        max_cut=max_cut, classical_cut=classical_cut,
        rand_params=tuple(rand_theta), rand_cut=rand_cut, rand_ar=rand_ar,
        opt_params=tuple(result.best_position), opt_cut=opt_cut, opt_ar=opt_ar,
        opt_loss=result.best_loss, improvement_pct=improvement_pct,
        graph_seed=graph_seed, baseline_seed=baseline_seed, swarm_seed=swarm_seed,
        flag=flag, config=swarm.to_dict(),
    )


def _error_record(model, graph_index, n, p, message) -> ExperimentRecord:
    nan = math.nan
    return ExperimentRecord(
        model=model, graph_index=graph_index, n=n, p=p, max_cut=0, classical_cut=0,
        rand_params=(), rand_cut=nan, rand_ar=nan, opt_params=(), opt_cut=nan,
        opt_ar=nan, opt_loss=nan, improvement_pct=nan,
        graph_seed=0, baseline_seed=0, swarm_seed=0,
        flag=f"error: {message}",
    )


def _run_cell(args):
    model, graph_index, n, p, cfg = args
    try:
        return run_instance(model, graph_index, n, p, cfg)
    except Exception as exc:  # suite keeps going; the record carries the failure
        return _error_record(model, graph_index, n, p, exc)


def iter_suite(cfg: SuiteConfig, jobs: int = 1):
    """Check jobs, then return an iterator that runs each cell of the sweep as its record is
    pulled, in canonical order (model, graph_index, n, p) for any worker count."""
    jobs = check_int("jobs", jobs, 1)
    tasks = [(model, g_idx, n, p, cfg) for model, g_idx, n, p in cfg.cells()]
    return map(_run_cell, tasks) if jobs == 1 else _pooled(jobs, tasks)


def _pooled(jobs: int, tasks):
    # Imported here, so that a run on one process never loads the pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs, mp_context=multiprocessing.get_context("spawn")) as executor:
        yield from executor.map(_run_cell, tasks)


def run_suite(cfg: SuiteConfig, jobs: int = 1) -> list[ExperimentRecord]:
    """Every record of the sweep, as a list in canonical order."""
    return list(iter_suite(cfg, jobs))


def write_records_csv(path, records) -> list[ExperimentRecord]:
    """Open the results CSV, then write and flush one row per record as the
    iterable yields it, so an interrupted sweep keeps its finished rows. Returns the records."""
    written = []
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for record in records:
            writer.writerow(record.to_csv_row())
            f.flush()
            written.append(record)
    return written


def write_records_json(path, records) -> None:
    """Sidecar with the full parameter vectors and the swarm config echo."""
    docs = [record.to_json_dict() for record in records]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(docs, f, indent=2, sort_keys=True)
        f.write("\n")


def read_records_csv(path) -> list[dict]:
    """Parse a results CSV back into dicts, validating the schema: each numeric
    column is cast to the type ExperimentRecord declares for it, text stays as read."""
    casts = {col: cast for col, cast in typing.get_type_hints(ExperimentRecord).items()
             if col in CSV_COLUMNS and cast is not str}
    # utf-8-sig drops the byte-order mark a spreadsheet's "CSV UTF-8" starts with.
    with open(path, "r", encoding="utf-8-sig", newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        missing = [col for col in CSV_COLUMNS if col not in header]
        if missing:
            raise ValueError(f"results CSV is missing column(s): {', '.join(missing)}")
        rows = []
        for row in reader:
            for col, cast in casts.items():
                try:
                    row[col] = cast(row[col])
                except (TypeError, ValueError):  # TypeError: a short row's missing value is None
                    raise ValueError(f"{path}: line {reader.line_num}, column {col}: "
                                     f"cannot read {row[col]!r} as {cast.__name__}") from None
            rows.append(row)
    return rows


def aggregate_report(rows: list[dict]) -> dict:
    """Mean improvement percentage per (model, n, p) cell of the rows
    read_records_csv returns.

    Returns {model: {"nodes": [...], "depths": [...], "cells": {(n, p): mean},
    "excluded": {n: count}}}. Flagged records are excluded from the means and
    counted instead.
    """
    if not rows:
        raise ValueError("no records to aggregate")
    report: dict = {}
    for row in rows:
        model = row["model"]
        entry = report.setdefault(model, {"values": {}, "excluded": {}})
        key = (row["n"], row["p"])
        if row.get("flag"):
            entry["excluded"][row["n"]] = entry["excluded"].get(row["n"], 0) + 1
        else:
            entry["values"].setdefault(key, []).append(row["improvement_pct"])
    out = {}
    for model in sorted(report):
        values = report[model]["values"]
        excluded = report[model]["excluded"]
        nodes = sorted({n for n, _ in values} | set(excluded))
        depths = sorted({p for _, p in values})
        cells = {key: float(np.mean(vals)) for key, vals in values.items()}
        out[model] = {"nodes": nodes, "depths": depths, "cells": cells, "excluded": excluded}
    return out


def render_report_text(report: dict) -> str:
    """Aligned table per model: rows are node sizes, columns are depths."""
    lines = []
    for model, entry in report.items():
        depths = entry["depths"]
        header = ["Node"] + [f"p={p}" for p in depths] + ["excluded"]
        body = []
        for n in entry["nodes"]:
            row = [f"Node {n}"]
            for p in depths:
                mean = entry["cells"].get((n, p))
                row.append("-" if mean is None else f"{mean:.1f}%")
            row.append(str(entry["excluded"].get(n, 0)))
            body.append(row)
        widths = [max(len(r[c]) for r in [header] + body) for c in range(len(header))]
        lines.append(f"Mean improvement over random baseline: {model} graphs")
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def write_report_csv(path, report: dict) -> None:
    """Machine-readable mirror of the report tables."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        all_depths = sorted({p for entry in report.values() for p in entry["depths"]})
        writer.writerow(["model", "node"] + [f"p={p}" for p in all_depths] + ["excluded"])
        for model, entry in report.items():
            for n in entry["nodes"]:
                row = [model, n]
                for p in all_depths:
                    mean = entry["cells"].get((n, p))
                    row.append("" if mean is None else repr(mean))
                row.append(entry["excluded"].get(n, 0))
                writer.writerow(row)
