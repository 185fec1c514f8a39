import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from swarmcut import Graph, SwarmConfig, adam_fipso_optimize, generate_ws, max_cut_bruteforce
from swarmcut.experiment import (
    CSV_COLUMNS,
    SuiteConfig,
    UndefinedImprovementError,
    aggregate_report,
    derive_seed,
    improvement,
    iter_suite,
    random_baseline,
    read_records_csv,
    render_report_text,
    run_instance,
    run_suite,
    write_records_csv,
    write_records_json,
    write_report_csv,
)
from swarmcut.graphs import MAX_NODES
from swarmcut.simulator import ExpectationEvaluator

P2 = Graph(2, ((0, 1),))
K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))

SMALL_SUITE = SuiteConfig(models=("ER",), node_lo=3, node_hi=4,
                          instances_per_size=2, depths=(1,), base_seed=7,
                          swarm=SwarmConfig(swarm_size=6, max_iters=6))


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "ER", 2, 5, "swarm") == derive_seed(1, "ER", 2, 5, "swarm")

    def test_distinct_across_roles_and_cells(self):
        seeds = {derive_seed(0, model, g, n, p, role)
                 for model in ("ER", "WS") for g in range(1, 6)
                 for n in range(3, 17) for p in (1, 2, 3)
                 for role in ("baseline", "swarm")}
        assert len(seeds) == 2 * 5 * 14 * 3 * 2

    def test_base_seed_changes_everything(self):
        assert derive_seed(0, "ER", 1, 3, "graph") != derive_seed(1, "ER", 1, 3, "graph")


class TestRandomBaseline:
    def test_forced_zero_params_give_half_edges(self, monkeypatch):
        import swarmcut.experiment as experiment

        monkeypatch.setattr(experiment, "random_params", lambda p, rng: np.zeros(2 * p))
        params, cut, ar = random_baseline(K3, p=1, seed=0, max_cut=2)
        np.testing.assert_array_equal(params, np.zeros(2))
        assert abs(cut - K3.edge_count / 2) < 1e-12
        assert abs(ar - (K3.edge_count / 2) / 2) < 1e-12

    def test_ar_within_unit_interval(self):
        for seed in range(10):
            _, _, ar = random_baseline(P2, p=1, seed=seed, max_cut=1)
            assert -1e-12 <= ar <= 1 + 1e-12

    def test_deterministic(self):
        a = random_baseline(K3, p=2, seed=5, max_cut=2)
        b = random_baseline(K3, p=2, seed=5, max_cut=2)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1:] == b[1:]

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError):
            random_baseline(Graph(3, ()), p=1, seed=0, max_cut=0)


class TestImprovement:
    def test_fifty_percent(self):
        assert improvement(0.9, 0.6) == pytest.approx(50.0)

    def test_no_change(self):
        assert improvement(0.4, 0.4) == 0.0

    def test_degradation(self):
        assert improvement(0.5, 1.0) == pytest.approx(-50.0)

    def test_zero_baseline(self):
        with pytest.raises(UndefinedImprovementError):
            improvement(0.9, 0.0)


class TestRunInstance:
    def test_deterministic(self):
        a = run_instance("ER", 1, 3, 1, SMALL_SUITE)
        b = run_instance("ER", 1, 3, 1, SMALL_SUITE)
        assert a == b

    def test_improvement_recomputes_from_stored_ars(self):
        record = run_instance("ER", 2, 4, 1, SMALL_SUITE)
        recomputed = (record.opt_ar - record.rand_ar) / record.rand_ar * 100.0
        assert abs(record.improvement_pct - recomputed) < 1e-9

    def test_ws_three_nodes_is_triangle(self):
        cfg = SuiteConfig(models=("WS",), node_lo=3, node_hi=3,
                          instances_per_size=1, depths=(1,), base_seed=123,
                          swarm=SwarmConfig(swarm_size=4, max_iters=3))
        record = run_instance("WS", 1, 3, 1, cfg)
        assert record.max_cut == 2
        regenerated = generate_ws(3, 2, cfg.ws_rewire_prob, record.graph_seed)
        assert regenerated == K3

    def test_cuts_bounded_by_max_cut(self):
        for g_idx in (1, 2):
            record = run_instance("ER", g_idx, 4, 1, SMALL_SUITE)
            assert record.opt_cut <= record.max_cut + 1e-9
            assert record.rand_cut <= record.max_cut + 1e-9
            assert record.classical_cut <= record.max_cut

    def test_one_evaluator_per_cell_with_unchanged_record(self, monkeypatch):
        # The baseline and the swarm each build their own evaluator of the
        # cell's one graph, and the cell builds none; the record equals one
        # built from the library calls by hand.
        graphs, init = [], ExpectationEvaluator.__init__

        def counting_init(self, g):
            graphs.append(g)
            init(self, g)

        monkeypatch.setattr(ExpectationEvaluator, "__init__", counting_init)
        record = run_instance("ER", 1, 4, 2, SMALL_SUITE)
        monkeypatch.undo()
        assert len(graphs) == 2
        g = graphs[0]
        assert graphs[1] is g
        _, rand_cut, rand_ar = random_baseline(g, 2, record.baseline_seed, max_cut=record.max_cut)
        result = adam_fipso_optimize(g, 2, float(record.max_cut), SMALL_SUITE.swarm.with_seed(record.swarm_seed))
        assert (record.rand_cut, record.rand_ar) == (rand_cut, rand_ar)
        assert (record.opt_cut, record.opt_loss) == (result.best_expectation, result.best_loss)
        assert record.opt_params == tuple(result.best_position)

    def test_unknown_model_rejected(self):
        # An unknown model must not fall through to the Watts-Strogatz generator.
        with pytest.raises(ValueError, match="model must be one of"):
            run_instance("BA", 1, 6, 1, SMALL_SUITE)

    def test_numpy_integers_give_the_same_record(self):
        record = run_instance("ER", np.int64(1), np.int32(3), np.uint8(1), SMALL_SUITE)
        assert all(type(v) is int for v in (record.graph_index, record.n, record.p))
        assert record == run_instance("ER", 1, 3, 1, SMALL_SUITE)

    def test_graph_shared_across_depths(self):
        r1 = run_instance("ER", 1, 4, 1, SMALL_SUITE)
        r2 = run_instance("ER", 1, 4, 2, SMALL_SUITE)
        assert r1.graph_seed == r2.graph_seed
        assert r1.max_cut == r2.max_cut
        assert r1.baseline_seed != r2.baseline_seed
        assert r1.swarm_seed != r2.swarm_seed


class TestRunSuite:
    def test_restricted_suite_shape(self):
        records = run_suite(SMALL_SUITE)
        assert len(records) == 4  # 1 model x 2 instances x 2 sizes x 1 depth

    def test_canonical_order(self):
        records = run_suite(SMALL_SUITE)
        assert [(r.model, r.graph_index, r.n, r.p) for r in records] == SMALL_SUITE.cells()

    def test_rerun_identical(self):
        assert run_suite(SMALL_SUITE) == run_suite(SMALL_SUITE)

    def test_parallel_matches_sequential(self):
        assert run_suite(SMALL_SUITE, jobs=2) == run_suite(SMALL_SUITE, jobs=1)

    def test_iter_suite_runs_one_cell_per_record_pulled(self, monkeypatch):
        import swarmcut.experiment as experiment

        real = experiment.run_instance
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(experiment, "run_instance", counting)
        stream = iter_suite(SMALL_SUITE)
        assert calls == []
        pulled = []
        for record in stream:
            pulled.append(record)
            assert len(calls) == len(pulled)
        assert pulled == run_suite(SMALL_SUITE)

    @pytest.mark.parametrize("jobs", [0, 1.0])
    def test_bad_jobs_raises_before_the_csv_is_opened(self, tmp_path, jobs):
        # jobs is checked at the call, so the writer never opens (and truncates) its file.
        path = tmp_path / "r.csv"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 1"):
            write_records_csv(path, iter_suite(SMALL_SUITE, jobs=jobs))
        assert path.read_text() == "kept\n"

    def test_default_suite_has_420_cells(self):
        assert len(SuiteConfig().cells()) == 420

    def test_records_are_pure_function_of_config(self):
        other = SuiteConfig(models=("ER",), node_lo=3, node_hi=4,
                            instances_per_size=2, depths=(1,), base_seed=8,
                            swarm=SwarmConfig(swarm_size=6, max_iters=6))
        assert run_suite(SMALL_SUITE) != run_suite(other)

    def test_failed_cell_is_flagged_and_suite_continues(self, monkeypatch):
        import swarmcut.experiment as experiment

        real = experiment.run_instance

        def flaky(model, graph_index, n, p, cfg):
            if n == 3 and graph_index == 1:
                raise RuntimeError("synthetic failure")
            return real(model, graph_index, n, p, cfg)

        monkeypatch.setattr(experiment, "run_instance", flaky)
        records = run_suite(SMALL_SUITE)
        assert len(records) == 4
        flagged = [r for r in records if r.flag]
        assert len(flagged) == 1
        assert "synthetic failure" in flagged[0].flag
        assert math.isnan(flagged[0].improvement_pct)
        report = aggregate_report([r.to_json_dict() for r in records])
        assert report["ER"]["excluded"] == {3: 1}


class TestSuiteConfig:
    def test_default_valid(self):
        SuiteConfig()

    @pytest.mark.parametrize("kwargs", [
        {"node_lo": 2}, {"node_lo": 5, "node_hi": 4}, {"node_hi": 25},
        {"models": ()}, {"models": ("ER", "BA")}, {"depths": (0,)},
        {"depths": (4,)}, {"instances_per_size": 0}, {"instances_per_size": 1.5},
        {"swarm": "default"}, {"base_seed": -1}, {"base_seed": 1.5}, {"base_seed": True},
        {"depths": (1, 1)}, {"depths": (True,)}, {"depths": (1.0,)}, {"models": ("ER", "er")},
        {"node_lo": "3"}, {"swarm": SwarmConfig(bounds=[(0.0, 1.0)] * 4)},
        {"depths": 3}, {"models": 3}, {"depths": ([1],)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    def test_capacity_warning_above_sixteen(self):
        with pytest.warns(UserWarning):
            SuiteConfig(node_hi=18)

    def test_capacity_warning_at_constructor_line(self):
        with pytest.warns(UserWarning) as record:
            SuiteConfig(node_hi=18)
        assert record[0].filename == __file__

    def test_frozen(self):
        cfg = SuiteConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.node_lo = 2
        assert cfg.node_lo == 3

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="node_lo"):
            dataclasses.replace(SuiteConfig(), node_lo=2)

    def test_checked_at_construction(self):
        # run_instance does not check its config; a sweep to node_hi = 25
        # would run every smaller cell before its first n = 25 cell failed.
        with pytest.raises(ValueError, match="node_hi"):
            SuiteConfig(node_hi=MAX_NODES + 1)

    def test_graph_model_probabilities_are_fixed(self):
        with pytest.raises(TypeError):
            SuiteConfig(er_edge_prob=0.4)
        assert SuiteConfig().er_edge_prob == 0.5
        assert SuiteConfig().ws_rewire_prob == 0.3

    def test_bounds_checked_at_every_depth(self):
        swarm = SwarmConfig(bounds=[(0.0, 1.0)] * 4)
        assert SuiteConfig(depths=(2,), swarm=swarm).swarm.box(2).shape == (4, 2)
        with pytest.raises(ValueError, match="depth 3"):
            SuiteConfig(depths=(2, 3), swarm=swarm)

    def test_numpy_scalars_stored_as_plain_numbers(self):
        cfg = SuiteConfig(node_lo=np.int64(3), node_hi=np.int32(4), instances_per_size=np.uint8(2),
                          depths=np.array([2, 1]), base_seed=np.int64(7))
        counts = (cfg.node_lo, cfg.node_hi, cfg.instances_per_size, cfg.base_seed, *cfg.depths)
        assert all(type(v) is int for v in counts)
        assert cfg.depths == (1, 2)
        assert cfg == SuiteConfig(node_lo=3, node_hi=4, instances_per_size=2, depths=(1, 2), base_seed=7)

    def test_models_normalized(self):
        cfg = SuiteConfig(models=("ws", "er"))
        assert cfg.models == ("WS", "ER")
        assert [c[0] for c in cfg.cells()][0] == "ER"  # canonical order sorts


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        records = run_suite(SMALL_SUITE)
        path = tmp_path / "r.csv"
        write_records_csv(path, records)
        rows = read_records_csv(path)
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row["model"] == record.model
            assert row["n"] == record.n
            assert row["max_cut"] == record.max_cut
            assert row["opt_ar"] == pytest.approx(record.opt_ar, abs=0)
            assert row["improvement_pct"] == pytest.approx(record.improvement_pct, abs=0)
            assert row["swarm_seed"] == record.swarm_seed

    def test_numpy_config_sidecar_is_plain_json(self, tmp_path):
        # An np.int64 in the config echo would make json.dump fail after the
        # whole sweep had run, leaving a truncated sidecar.
        def sidecar(name, depths, swarm_size, max_iters):
            cfg = SuiteConfig(models=("ER",), node_lo=3, node_hi=3, instances_per_size=1, depths=depths,
                              swarm=SwarmConfig(swarm_size=swarm_size, max_iters=max_iters))
            write_records_json(tmp_path / name, run_suite(cfg))
            with open(tmp_path / name, encoding="utf-8") as f:
                return json.load(f)

        numpy_doc = sidecar("np.json", depths=np.array([1]), swarm_size=np.int64(3), max_iters=np.int32(2))
        assert numpy_doc == sidecar("py.json", depths=(1,), swarm_size=3, max_iters=2)
        assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()

    def test_csv_with_byte_order_mark(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a leading BOM.
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (RESULTS / "full_sweep_seed0.csv").read_bytes())
        assert read_records_csv(bom) == read_records_csv(RESULTS / "full_sweep_seed0.csv")

    def test_csv_header(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv(path, run_suite(SMALL_SUITE))
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_csv_rows_flushed_as_records_arrive(self, tmp_path):
        records = run_suite(SMALL_SUITE)
        write_records_csv(tmp_path / "all.csv", records)
        rows = (tmp_path / "all.csv").read_text().splitlines()[1:]
        path = tmp_path / "r.csv"

        def stream():
            for k, record in enumerate(records):
                # The row of every record handed over so far is on disk.
                assert path.read_text().splitlines()[1:] == rows[:k]
                yield record

        assert write_records_csv(path, stream()) == records
        assert path.read_text().splitlines()[1:] == rows

    def test_missing_column_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("model,n,p\nER,3,1\n")
        with pytest.raises(ValueError, match="improvement_pct"):
            read_records_csv(path)

    @pytest.mark.parametrize("row, where", [
        ("ER,x,3,1,2,2,1.0,0.5,1.9,0.95,0.01,10.0,1,2,3,", "line 3, column graph_index: cannot read 'x' as int"),
        ("ER,1,3,1,2,2,1.0,0.5,1.9,half,0.01,10.0,1,2,3,", "line 3, column opt_ar: cannot read 'half' as float"),
        ("ER,1,3,1,2,2,1.0,0.5", "line 3, column opt_cut: cannot read None as float"),
    ], ids=["int", "float", "short-row"])
    def test_bad_value_names_line_and_column(self, tmp_path, row, where):
        path = tmp_path / "bad.csv"
        good = "ER,1,3,1,2,2,1.0,0.5,1.9,0.95,0.01,10.0,1,2,3,"
        path.write_text("\n".join([",".join(CSV_COLUMNS), good, row]) + "\n")
        with pytest.raises(ValueError) as exc:
            read_records_csv(path)
        assert str(exc.value) == f"{path}: {where}"

    def test_json_sidecar_holds_params(self, tmp_path):
        records = run_suite(SMALL_SUITE)
        path = tmp_path / "r.json"
        write_records_json(path, records)
        docs = json.loads(path.read_text())
        assert len(docs) == len(records)
        assert docs[0]["opt_params"] == list(records[0].opt_params)
        assert docs[0]["rand_params"] == list(records[0].rand_params)
        assert docs[0]["config"]["swarm_size"] == SMALL_SUITE.swarm.swarm_size


def _fake_row(model, n, p, pct, flag=""):
    return {"model": model, "n": n, "p": p, "improvement_pct": pct, "flag": flag}


class TestAggregateReport:
    def test_cell_mean(self):
        rows = [_fake_row("ER", 3, 1, v) for v in (10, 20, 30, 40, 50)]
        report = aggregate_report(rows)
        assert report["ER"]["cells"][(3, 1)] == pytest.approx(30.0)

    def test_single_cell(self):
        report = aggregate_report([_fake_row("WS", 5, 2, 12.5)])
        assert report == {"WS": {"nodes": [5], "depths": [2],
                                 "cells": {(5, 2): 12.5}, "excluded": {}}}

    def test_empty_input(self):
        with pytest.raises(ValueError):
            aggregate_report([])

    def test_flagged_records_excluded_and_counted(self):
        rows = [_fake_row("ER", 3, 1, 10.0),
                _fake_row("ER", 3, 1, math.nan, flag="undefined_improvement"),
                _fake_row("ER", 3, 1, 30.0)]
        report = aggregate_report(rows)
        assert report["ER"]["cells"][(3, 1)] == pytest.approx(20.0)
        assert report["ER"]["excluded"] == {3: 1}

    def test_text_render_contains_cells(self):
        text = render_report_text(aggregate_report(
            [_fake_row("ER", 3, 1, 42.0), _fake_row("ER", 4, 1, 7.0)]))
        assert "ER graphs" in text
        assert "Node 3" in text and "42.0%" in text
        assert "Node 4" in text and "7.0%" in text

    def test_csv_render(self, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(path, aggregate_report(
            [_fake_row("ER", 3, 1, 42.0), _fake_row("WS", 3, 1, 10.0)]))
        lines = path.read_text().splitlines()
        assert lines[0] == "model,node,p=1,excluded"
        assert lines[1].startswith("ER,3,42.0")
        assert lines[2].startswith("WS,3,10.0")


RESULTS = Path(__file__).resolve().parents[1] / "results"


class TestCommittedSweep:
    def test_paper_sweep_reproduces(self, tmp_path):
        # 12 cells of the committed default sweep (base seed 0, default
        # swarm): both models, graph 1, n = 3, 4, p = 1..3.
        cfg = SuiteConfig(node_lo=3, node_hi=4, instances_per_size=1, base_seed=0)
        records = write_records_csv(tmp_path / "r.csv", run_suite(cfg))
        write_records_json(tmp_path / "r.json", records)
        assert len(records) == 12

        header, *rows = (RESULTS / "full_sweep_seed0.csv").read_text(encoding="utf-8").splitlines(True)
        committed_rows = {tuple(row.split(",")[:4]): row for row in rows}
        expected = [committed_rows[(r.model, str(r.graph_index), str(r.n), str(r.p))] for r in records]
        assert (tmp_path / "r.csv").read_bytes() == (header + "".join(expected)).encode()

        # The committed sidecar is the writer's output, so re-serialising its
        # records reproduces its bytes; a subset serialises the same way.
        def dump(docs):
            return json.dumps(docs, indent=2, sort_keys=True) + "\n"

        sidecar = (RESULTS / "full_sweep_seed0.json").read_text(encoding="utf-8")
        committed_docs = json.loads(sidecar)
        assert dump(committed_docs) == sidecar
        by_key = {(d["model"], d["graph_index"], d["n"], d["p"]): d for d in committed_docs}
        expected_docs = [by_key[r.model, r.graph_index, r.n, r.p] for r in records]
        assert (tmp_path / "r.json").read_bytes() == dump(expected_docs).encode()

    def test_paper_sweep_reproduces_above_the_fold(self, tmp_path):
        # The same check on the 12 cells with n = 7, 8, whose half states of
        # 6 and 7 qubits run the real frame above FOLD_QUBITS.
        cfg = SuiteConfig(node_lo=7, node_hi=8, instances_per_size=1, base_seed=0)
        records = write_records_csv(tmp_path / "r.csv", run_suite(cfg))
        write_records_json(tmp_path / "r.json", records)
        assert len(records) == 12

        header, *rows = (RESULTS / "full_sweep_seed0.csv").read_text(encoding="utf-8").splitlines(True)
        committed_rows = {tuple(row.split(",")[:4]): row for row in rows}
        expected = [committed_rows[(r.model, str(r.graph_index), str(r.n), str(r.p))] for r in records]
        assert (tmp_path / "r.csv").read_bytes() == (header + "".join(expected)).encode()

        by_key = {(d["model"], d["graph_index"], d["n"], d["p"]): d
                  for d in json.loads((RESULTS / "full_sweep_seed0.json").read_text(encoding="utf-8"))}
        expected_docs = [by_key[r.model, r.graph_index, r.n, r.p] for r in records]
        assert (tmp_path / "r.json").read_bytes() == (json.dumps(expected_docs, indent=2, sort_keys=True)
                                                       + "\n").encode()


def test_public_names_pinned():
    import swarmcut

    assert swarmcut.__all__ == [
        "BACKEND", "CapacityError", "CutResult", "Graph", "GraphParseError",
        "GraphValidationError", "OptimizeResult", "QaoaParams", "SwarmConfig",
        "adam_fipso_optimize", "approx_ratio", "generate_er", "generate_ws",
        "landscape_grid", "max_cut_bruteforce", "one_exchange_cut", "qaoa_expectation",
        "read_graph", "write_graph", "ws_k_for",
    ]
