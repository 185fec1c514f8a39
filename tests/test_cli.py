import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarmcut
from swarmcut import Graph, generate_er, write_graph
from swarmcut.cli import main

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
P2 = Graph(2, ((0, 1),))

SMALL_SUITE_FLAGS = ["--models", "er", "--nodes", "3..4", "--depths", "1",
                     "--instances", "1", "--seed", "1"]


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        path = tmp_path / name
        write_graph(path, g)
        return str(path)
    return write


@pytest.fixture
def quick_argv(graph_file, tmp_path):
    """A run-suite (writing tmp_path/r.csv) or optimize call that takes seconds."""
    def argv(command):
        if command == "run-suite":
            return [command, *SMALL_SUITE_FLAGS, "--out", str(tmp_path / "r.csv")]
        return [command, graph_file("p2.json", P2)]
    return argv


class TestMaxcut:
    def test_triangle(self, graph_file, capsys):
        assert main(["maxcut", graph_file("k3.json", K3)]) == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "2"
        assert len(out[1]) == 3

    def test_four_cycle(self, graph_file, capsys):
        assert main(["maxcut", graph_file("c4.json", C4)]) == 0
        assert capsys.readouterr().out.split()[0] == "4"

    def test_empty_graph(self, graph_file, capsys):
        assert main(["maxcut", graph_file("empty.json", Graph(3, ()))]) == 0
        assert capsys.readouterr().out.split()[0] == "0"

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["maxcut", missing]) == 1
        assert "nope.json" in capsys.readouterr().err


class TestOptimize:
    def test_single_edge_reaches_optimum(self, graph_file, capsys):
        assert main(["optimize", graph_file("p2.json", P2), "--depth", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["opt_ar"] >= 0.999
        assert doc["max_cut"] == 1
        assert len(doc["opt_params"]) == 2
        assert doc["iterations"] == 50
        assert doc["evaluations"] > 0

    def test_triangle_bounded(self, graph_file, capsys):
        assert main(["optimize", graph_file("k3.json", K3), "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["opt_cut"] <= 2 + 1e-9

    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert main(["optimize", missing]) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_edgeless_graph_exits_one(self, graph_file, capsys):
        assert main(["optimize", graph_file("empty.json", Graph(2, ()))]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "edgeless" in captured.err

    def test_unknown_graph_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text('{"n": 2, "edges": [[0, 1]], "extra": 1}')
        assert main(["optimize", str(path)]) == 1
        assert "'extra'" in capsys.readouterr().err

    def test_config_file_applies(self, graph_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"swarm_size": 4, "max_iters": 3}))
        assert main(["optimize", graph_file("p2.json", P2), "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["iterations"] == 3

    def test_seed_determinism(self, graph_file, capsys):
        path = graph_file("p2.json", P2)
        assert main(["optimize", path, "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["optimize", path, "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_env_seed_fallback(self, graph_file, capsys, monkeypatch):
        path = graph_file("p2.json", P2)
        monkeypatch.setenv("QAOA_FIPSO_SEED", "9")
        assert main(["optimize", path]) == 0
        env_out = capsys.readouterr().out
        monkeypatch.delenv("QAOA_FIPSO_SEED")
        assert main(["optimize", path, "--seed", "9"]) == 0
        assert capsys.readouterr().out == env_out

    @pytest.mark.parametrize("value", ["abc", "-3", "1.5", ""])
    def test_bad_env_seed_is_usage_error(self, graph_file, capsys, monkeypatch, value):
        monkeypatch.setenv("QAOA_FIPSO_SEED", value)
        with pytest.raises(SystemExit) as exc:
            main(["optimize", graph_file("p2.json", P2)])
        assert exc.value.code == 2
        assert "QAOA_FIPSO_SEED" in capsys.readouterr().err

    def test_bad_env_seed_unused_when_flag_given(self, graph_file, monkeypatch):
        monkeypatch.setenv("QAOA_FIPSO_SEED", "abc")
        assert main(["optimize", graph_file("p2.json", P2), "--seed", "9"]) == 0

    def test_negative_seed_flag_is_usage_error(self, graph_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", graph_file("p2.json", P2), "--seed=-1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


class TestLandscape:
    def test_resolution_two(self, graph_file, tmp_path, capsys):
        out = tmp_path / "land.csv"
        assert main(["landscape", graph_file("k3.json", K3),
                     "--resolution", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,beta,expectation"
        assert len(lines) == 1 + 4

    @staticmethod
    def _axes(out):
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        return sorted({float(r[0]) for r in rows}), sorted({float(r[1]) for r in rows})

    def test_grid_containing_origin(self, graph_file, tmp_path):
        # Each end of a range is a Python float literal, so -.5 reads as -0.5.
        out = tmp_path / "land.csv"
        for gamma, beta in [("-1..1", "-1..1"), ("-.5..0.5", "-1..1"), ("-1..1", "-.5..0.5")]:
            assert main(["landscape", graph_file("k3.json", K3), "--resolution", "3",
                         f"--gamma-range={gamma}", f"--beta-range={beta}",
                         "--out", str(out)]) == 0
            rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
            origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
            assert len(origin) == 1
            assert abs(float(origin[0][2]) - K3.edge_count / 2) < 1e-12
            assert self._axes(out) == (np.linspace(*map(float, gamma.split("..")), 3).tolist(),
                                       np.linspace(*map(float, beta.split("..")), 3).tolist())

    def test_row_count_is_resolution_squared(self, graph_file, tmp_path):
        out = tmp_path / "land.csv"
        assert main(["landscape", graph_file("c4.json", C4),
                     "--resolution", "5", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 25
        for flag, text, lo, hi in [("--gamma-range", ".5..1", 0.5, 1.0), ("--beta-range", ".5..1", 0.5, 1.0),
                                   ("--gamma-range", "1e-3..1", 0.001, 1.0),
                                   ("--beta-range", "1e-3..1", 0.001, 1.0)]:
            assert main(["landscape", graph_file("c4.json", C4), "--resolution", "5",
                         f"{flag}={text}", "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 1 + 25
            axis = self._axes(out)[flag == "--beta-range"]
            assert axis == np.linspace(lo, hi, 5).tolist()

    def test_graph_beyond_enumeration_cap(self, graph_file, tmp_path):
        # The landscape needs no cut spectrum, so the 24-node cap does not apply.
        g = generate_er(30, 0.3, seed=30)
        out = tmp_path / "land.csv"
        assert main(["landscape", graph_file("er30.json", g), "--resolution", "6",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 36
        assert all(0 <= float(r[2]) <= g.edge_count for r in rows)

    @pytest.mark.parametrize("out", ["", ".", "sub", "sub/", "new/"])
    def test_out_naming_a_directory_is_usage_error(self, tmp_path, capsys, monkeypatch, out):
        # The graph file does not exist: the flag is checked before any work.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["landscape", str(tmp_path / "missing.json"), "--out", out])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [tmp_path / "sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    def test_bad_range_syntax_is_usage_error(self, graph_file, tmp_path, capsys):
        for flag in ("--gamma-range", "--beta-range"):
            for text in ("oops", "1", "1..", "..1", "1..2..3", "0x1..2"):
                with pytest.raises(SystemExit) as exc:
                    main(["landscape", graph_file("k3.json", K3),
                          f"{flag}={text}", "--out", str(tmp_path / "x.csv")])
                assert exc.value.code == 2
                assert f"{flag}: expected LO..HI of two float literals, got {text!r}" in capsys.readouterr().err
                assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("resolution", ["1", "0", "-4", "two"])
    def test_bad_resolution_is_usage_error(self, graph_file, tmp_path, capsys, resolution):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["landscape", graph_file("k3.json", K3),
                  f"--resolution={resolution}", "--out", str(out)])
        assert exc.value.code == 2
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_range_is_usage_error(self, graph_file, tmp_path, capsys):
        # A bound past the float range parsed as inf and gave NaN rows, exit 0;
        # float() reads "nan" and "inf" too, which the library rejects the same way.
        for flag in ("--gamma-range", "--beta-range"):
            for text in ("0.." + "9" * 400, "nan..1", "inf..1", "-inf..0"):
                with pytest.raises(SystemExit) as exc:
                    main(["landscape", graph_file("k3.json", K3), f"{flag}={text}",
                          "--out", str(tmp_path / "x.csv")])
                assert exc.value.code == 2
                assert f"{flag}: " in capsys.readouterr().err
                assert not (tmp_path / "x.csv").exists()

    def test_inverted_range_is_usage_error(self, graph_file, tmp_path, capsys):
        # A range the library rejects is a usage error even when the graph file
        # is missing: it is checked before the graph is read.
        graphs = (graph_file("k3.json", K3), str(tmp_path / "missing.json"))
        for graph in graphs:
            for flag in ("--gamma-range", "--beta-range"):
                for text in ("2..-2", "1..1", "nan..1"):
                    with pytest.raises(SystemExit) as exc:
                        main(["landscape", graph, f"{flag}={text}", "--out", str(tmp_path / "x.csv")])
                    assert exc.value.code == 2
                    assert f"{flag}: " in capsys.readouterr().err
                    assert not (tmp_path / "x.csv").exists()


class TestRunSuite:
    def test_small_suite(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + 1x1x2x1 records
        assert (tmp_path / "r.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.count("ER g1") == 2

    def test_rerun_byte_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out_a)]) == 0
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_jobs_flag_output_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out_a)]) == 0
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--jobs", "2", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_one_job_loads_no_process_pool(self, tmp_path):
        # Only --jobs > 1 runs the pool, so a run on one process never imports it.
        argv = ["run-suite", "--models", "er", "--nodes", "3..3", "--depths", "1", "--instances", "1",
                "--jobs", "1", "--out", str(tmp_path / "r.csv")]
        code = (f"import sys\nfrom swarmcut.cli import main\nassert main({argv!r}) == 0\n"
                "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
        src = str(Path(swarmcut.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out.splitlines()[-1] == "[]"
        assert (tmp_path / "r.csv").exists()

    def test_unwritable_out_path(self, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "r.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out)]) == 1
        assert "no_such_dir" in capsys.readouterr().err

    def test_out_equal_to_sidecar_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # The sidecar of r.json is --out itself, so it would overwrite the
        # CSV; "." and "" have an empty name, so they have no sidecar at all;
        # an existing directory, or a path ending in a separator, cannot be
        # opened as the CSV; the sidecar of s.csv is an existing directory,
        # which must be caught before the sweep, not after.
        monkeypatch.chdir(tmp_path)
        dirs = [tmp_path / "s.json", tmp_path / "sub"]
        for d in dirs:
            d.mkdir()
        for out in ("r.json", ".", "", "sub", "sub/", "new/", "s.csv"):
            with pytest.raises(SystemExit) as exc:
                main(["run-suite", *SMALL_SUITE_FLAGS, "--out", out])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--out" in err
            assert sorted(tmp_path.iterdir()) == dirs
            assert all(list(d.iterdir()) == [] for d in dirs)
        assert "s.json" in err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run-suite", "--bogus"])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run-suite", *SMALL_SUITE_FLAGS, "--seed=-1", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("text, shown", [("0", "0"), ("-5", "-5"), ("two", "'two'"), ("1.5", "'1.5'")])
    def test_bad_count_message(self, capsys, text, shown):
        with pytest.raises(SystemExit) as exc:
            main(["run-suite", f"--jobs={text}"])
        assert exc.value.code == 2
        assert f"--jobs: expected an integer >= 1, got {shown}\n" in capsys.readouterr().err

    def test_bad_node_range_is_usage_error(self, capsys):
        for text in ("3-4", "3..4.0", "3.0..4", "3..x"):
            with pytest.raises(SystemExit) as exc:
                main(["run-suite", "--nodes", text])
            assert exc.value.code == 2
            assert f"--nodes: expected LO..HI of two int literals, got {text!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, flag", [
        ("run-suite", ["--instances", "0"], "--instances"),
        ("run-suite", ["--depths", "4"], "--depths"),
        ("run-suite", ["--models", "ba"], "--models"),
        ("run-suite", ["--nodes", "2..3"], "--nodes"),
        ("run-suite", ["--nodes", "3..25"], "--nodes"),
        ("run-suite", ["--jobs", "0"], "--jobs"),
        ("run-suite", ["--jobs=-5"], "--jobs"),
        ("optimize", ["--depth", "0"], "--depth"),
        ("run-suite", ["--depths", "1,1"], "--depths"),
        ("run-suite", ["--models", "er,ER"], "--models"),
    ])
    def test_bad_setting_is_usage_error(self, quick_argv, tmp_path, capsys, command, extra, flag):
        # The later of two equal flags wins, so extra overrides the small suite.
        with pytest.raises(SystemExit) as exc:
            main([*quick_argv(command), *extra])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestConfigFile:
    @pytest.mark.parametrize("text", ['{"swarm_size": 2.5}', "[1, 2]", "{not json",
                                      '{"eta": "0.05"}', '{"bounds": [0, Infinity]}',
                                      # Unchecked, the width hi - lo overflowed in the
                                      # swarm's first draw: optimize exited 1, run-suite 0.
                                      '{"bounds": [[-1e308, 1e308]]}',
                                      # Accepted, it turned adam_fd into FIPSO without Adam.
                                      '{"fd_step": 1e300}',
                                      pytest.param('{"eta": 1%s}' % ("0" * 400), id="eta-400-digits")])
    @pytest.mark.parametrize("command", ["run-suite", "optimize"])
    def test_bad_config_is_usage_error(self, quick_argv, tmp_path, capsys, text, command):
        cfg = tmp_path / "swarm.json"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*quick_argv(command), "--config", str(cfg)])
        assert exc.value.code == 2
        assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, extra", [("optimize", ["--depth", "1"]),
                                                ("run-suite", ["--depths", "1,2"])])
    def test_bound_count_against_depth_is_usage_error(self, quick_argv, tmp_path, capsys,
                                                      command, extra):
        # Unchecked, the file would load and every cell fail later: optimize
        # would exit 1, run-suite 0 with every record flagged.
        cfg = tmp_path / "swarm.json"
        cfg.write_text(json.dumps({"bounds": [[0, 1]] * 3}))
        with pytest.raises(SystemExit) as exc:
            main([*quick_argv(command), *extra, "--config", str(cfg)])
        assert exc.value.code == 2
        assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_sidecar_config_echo_reads_back(self, quick_argv, graph_file, tmp_path, capsys):
        # The echo writes a bare pair as one listed pair, which must mean the
        # same box at every depth.
        cfg = tmp_path / "swarm.json"
        cfg.write_text(json.dumps({"bounds": [-2, 2], "swarm_size": 4, "max_iters": 3}))
        assert main([*quick_argv("run-suite"), "--config", str(cfg)]) == 0
        echo = json.loads((tmp_path / "r.json").read_text())[0]["config"]
        cfg.write_text(json.dumps(echo))
        assert main(["optimize", graph_file("p2.json", P2), "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert all(-2 <= x <= 2 for x in doc["opt_params"])

    def test_seed_precedence(self, graph_file, tmp_path, capsys, monkeypatch):
        # --seed beats the file's seed, which beats QAOA_FIPSO_SEED (unread here).
        path = graph_file("p2.json", P2)
        cfg = tmp_path / "swarm.json"
        monkeypatch.setenv("QAOA_FIPSO_SEED", "abc")
        outputs = []
        for doc, flags in [({"seed": 9}, []), ({"seed": 5}, ["--seed", "9"]), ({}, ["--seed", "9"])]:
            cfg.write_text(json.dumps({"max_iters": 3, **doc}))
            assert main(["optimize", path, "--config", str(cfg), *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        cfg.write_text(json.dumps({"max_iters": 3, "seed": 5}))
        assert main(["optimize", path, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out != outputs[0]

    def test_missing_config_exits_one(self, graph_file, tmp_path, capsys):
        missing = str(tmp_path / "absent_cfg.json")
        assert main(["optimize", graph_file("p2.json", P2), "--config", missing]) == 1
        assert "absent_cfg.json" in capsys.readouterr().err


class TestReport:
    def test_report_over_suite_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.count("ER graphs") == 1
        assert "WS graphs" not in text
        assert "Node 3" in text and "Node 4" in text

    def test_known_means(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        header = ("model,graph_index,n,p,max_cut,classical_cut,rand_cut,rand_ar,"
                  "opt_cut,opt_ar,opt_loss,improvement_pct,graph_seed,"
                  "baseline_seed,swarm_seed,flag")
        rows = [header]
        for idx, pct in enumerate((10.0, 20.0), start=1):
            rows.append(f"ER,{idx},3,1,2,2,1.0,0.5,1.9,0.95,0.01,{pct},1,2,3,")
        path.write_text("\n".join(rows) + "\n")
        assert main(["report", str(path)]) == 0
        assert "15.0%" in capsys.readouterr().out

    def test_byte_order_mark_accepted(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out)]) == 0
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + out.read_bytes())
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", str(bom)]) == 0
        assert capsys.readouterr().out == expected

    def test_report_csv_out(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        report_csv = tmp_path / "tables.csv"
        assert main(["run-suite", *SMALL_SUITE_FLAGS, "--out", str(out)]) == 0
        assert main(["report", str(out), "--csv-out", str(report_csv)]) == 0
        lines = report_csv.read_text().splitlines()
        assert lines[0] == "model,node,p=1,excluded"
        assert len(lines) == 3

    @pytest.mark.parametrize("csv_out", ["", ".", "sub", "sub/", "new/"])
    def test_csv_out_naming_a_directory_is_usage_error(self, tmp_path, capsys, monkeypatch, csv_out):
        # The results file does not exist: the flag is checked before any work.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["report", "missing.csv", "--csv-out", csv_out])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--csv-out" in captured.err
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [tmp_path / "sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    def test_unparsable_value_names_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "hand.csv"
        header = ("model,graph_index,n,p,max_cut,classical_cut,rand_cut,rand_ar,"
                  "opt_cut,opt_ar,opt_loss,improvement_pct,graph_seed,"
                  "baseline_seed,swarm_seed,flag")
        path.write_text(header + "\nER,x,3,1,2,2,1.0,0.5,1.9,0.95,0.01,10.0,1,2,3,\n")
        assert main(["report", str(path)]) == 1
        assert "line 2, column graph_index: cannot read 'x' as int" in capsys.readouterr().err

    def test_missing_column_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("model,n,p\nER,3,1\n")
        assert main(["report", str(bad)]) == 1
        assert "improvement_pct" in capsys.readouterr().err

    def test_header_only_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        header = ("model,graph_index,n,p,max_cut,classical_cut,rand_cut,rand_ar,"
                  "opt_cut,opt_ar,opt_loss,improvement_pct,graph_seed,"
                  "baseline_seed,swarm_seed,flag")
        empty.write_text(header + "\n")
        assert main(["report", str(empty)]) == 1
        assert "no records" in capsys.readouterr().err
