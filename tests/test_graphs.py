import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmcut import (
    CapacityError,
    Graph,
    GraphParseError,
    GraphValidationError,
    generate_er,
    generate_ws,
    max_cut_bruteforce,
    one_exchange_cut,
    read_graph,
    write_graph,
    ws_k_for,
)
from swarmcut import graphs
from swarmcut.experiment import SuiteConfig, iter_suite, run_instance
from swarmcut.graphs import check_int, check_real, cut_size, cut_values_all_masks
from swarmcut.optimizer import SwarmConfig, adam_fipso_optimize, make_objective, random_params
from swarmcut.simulator import ExpectationEvaluator, landscape_grid

from dense_oracle import cut_size_loop

K3 = Graph(3, ((0, 1), (0, 2), (1, 2)))
C4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
C5 = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
P2 = Graph(2, ((0, 1),))


class TestGraphType:
    def test_edges_normalized_and_sorted(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_adjacency_is_symmetric_with_zero_diagonal(self):
        adj = K4.adjacency
        assert (adj == adj.T).all()
        assert (np.diag(adj) == 0).all()
        assert adj.sum() == 2 * K4.edge_count

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 3),))

    @pytest.mark.parametrize("n, edges, error", [
        (3, ((0, 1.5),), GraphParseError),
        (3, ((True, 2),), GraphParseError),
        (3, ((0, 1, 2),), GraphParseError),
        (3, (5,), GraphParseError),
        (2.5, (), GraphValidationError),
        (True, (), GraphValidationError),
        ("3", (), GraphValidationError),
    ])
    def test_field_types_checked(self, n, edges, error):
        with pytest.raises(error):
            Graph(n, edges)

    @pytest.mark.parametrize("edges", [5, None])
    def test_non_iterable_edges_rejected(self, edges):
        with pytest.raises(GraphParseError, match="edges must be a sequence of vertex pairs"):
            Graph(3, edges)

    def test_numpy_integers_accepted(self):
        g = Graph(np.int64(3), ((np.int64(2), np.int32(0)), (np.uint8(1), 2)))
        assert g.edges == ((0, 2), (1, 2))
        assert max_cut_bruteforce(g).value == 2
        assert type(g.n) is int
        assert all(type(v) is int for edge in g.edges for v in edge)

    def test_cut_spectrum_built_once_and_read_only(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return cut_values_all_masks(g)

        monkeypatch.setattr(graphs, "cut_values_all_masks", counting)
        g = generate_er(6, 0.5, seed=3)
        target = max_cut_bruteforce(g).value
        g.cut_spectrum
        ExpectationEvaluator(g).expectation([0.3], [0.2])
        adam_fipso_optimize(g, 1, float(target), SwarmConfig(swarm_size=2, max_iters=1))
        assert len(calls) == 1
        assert g.cut_spectrum is g.cut_spectrum
        with pytest.raises(ValueError):
            g.cut_spectrum[0] = 1


class TestCutSpectrum:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_matches_per_edge_formula(self, n):
        rng = np.random.default_rng(1000 + n)
        for edge_prob in (0.0, rng.uniform(0.1, 0.9), 1.0):
            g = generate_er(n, edge_prob, seed=int(rng.integers(1 << 30)))
            idx = np.arange(1 << n, dtype=np.int64)
            expected = np.zeros(1 << n, dtype=np.int64)
            for i, j in g.edges:
                expected += ((idx >> i) ^ (idx >> j)) & 1
            values = cut_values_all_masks(g)
            assert values.dtype == np.int64
            np.testing.assert_array_equal(values, expected)


class TestGenerateEr:
    def test_prob_one_gives_complete_graph(self):
        g = generate_er(3, 1.0, seed=99)
        assert g.edges == K3.edges

    def test_prob_zero_gives_empty_graph(self):
        assert generate_er(5, 0.0, seed=1).edge_count == 0

    def test_deterministic_per_seed(self):
        assert generate_er(10, 0.5, seed=7) == generate_er(10, 0.5, seed=7)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            generate_er(4, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_er(4, -0.1, seed=0)


class TestGenerateWs:
    def test_ring_of_three_is_triangle(self):
        assert generate_ws(3, 2, 0.0, seed=0).edges == K3.edges

    def test_six_cycle(self):
        g = generate_ws(6, 2, 0.0, seed=0)
        assert g.edge_count == 6
        assert (g.adjacency.sum(axis=0) == 2).all()

    def test_deterministic_per_seed(self):
        assert generate_ws(8, 4, 0.3, seed=11) == generate_ws(8, 4, 0.3, seed=11)

    def test_no_rewire_is_k_regular(self):
        for n, k in [(7, 2), (9, 4), (12, 4)]:
            g = generate_ws(n, k, 0.0, seed=3)
            assert (g.adjacency.sum(axis=0) == k).all()

    def test_rewired_graph_stays_simple(self):
        for seed in range(8):
            g = generate_ws(10, 4, 0.8, seed=seed)
            assert g.edge_count == 20  # rewiring preserves edge count
            Graph(g.n, g.edges)  # revalidates no self-loops/duplicates

    @pytest.mark.parametrize("n,k", [(5, 3), (5, 0), (4, 4), (4, 6)])
    def test_invalid_k(self, n, k):
        with pytest.raises(ValueError):
            generate_ws(n, k, 0.1, seed=0)


class TestWsKFor:
    @pytest.mark.parametrize("n,expected", [(3, 2), (5, 2), (8, 4)])
    def test_values(self, n, expected):
        assert ws_k_for(n) == expected

    def test_always_valid_for_generate_ws(self):
        for n in range(3, 25):
            k = ws_k_for(n)
            assert k % 2 == 0 and 2 <= k < n
            generate_ws(n, k, 0.3, seed=1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            ws_k_for(2)


class TestCutSize:
    def test_k3_single_vertex(self):
        assert cut_size(K3, 0b001) == 2

    def test_zero_mask_cuts_nothing(self):
        assert cut_size(K4, 0) == 0

    def test_p2(self):
        assert cut_size(P2, 0b01) == 1

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            cut_size(K3, 8)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
            mask = int(rng.integers(0, 1 << n))
            flipped = mask ^ ((1 << n) - 1)
            assert cut_size(g, mask) == cut_size(g, flipped)

    def test_matches_independent_loop(self):
        g = generate_er(6, 0.5, seed=2)
        for mask in range(1 << 6):
            assert cut_size(g, mask) == cut_size_loop(g.n, g.edges, mask)


class TestMaxCutBruteforce:
    @pytest.mark.parametrize("g,value", [(K3, 2), (C4, 4), (K4, 4), (C5, 4)])
    def test_fixtures(self, g, value):
        assert max_cut_bruteforce(g).value == value

    def test_mask_attains_value(self):
        for seed in range(6):
            g = generate_er(7, 0.5, seed=seed)
            result = max_cut_bruteforce(g)
            assert cut_size(g, result.mask) == result.value

    def test_matches_independent_enumeration(self):
        for seed in range(4):
            g = generate_er(8, 0.4, seed=seed)
            expected = max(cut_size_loop(g.n, g.edges, m) for m in range(1 << g.n))
            assert max_cut_bruteforce(g).value == expected

    def test_all_mask_values_match_cut_size(self):
        g = generate_er(5, 0.6, seed=9)
        values = cut_values_all_masks(g)
        for mask in range(1 << g.n):
            assert values[mask] == cut_size(g, mask)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            max_cut_bruteforce(Graph(25, ((0, 1),)))


class TestOneExchange:
    def test_p2_reaches_optimum(self):
        assert one_exchange_cut(P2, seed=0).value == 1

    def test_k3_always_two(self):
        for seed in range(10):
            assert one_exchange_cut(K3, seed=seed).value == 2

    def test_empty_graph(self):
        assert one_exchange_cut(Graph(4, ()), seed=0).value == 0

    def test_never_beats_bruteforce(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(3, 13))
            g = generate_er(n, 0.5, seed=int(rng.integers(1 << 30)))
            assert one_exchange_cut(g, seed=int(rng.integers(1 << 30))).value \
                <= max_cut_bruteforce(g).value

    def test_mask_consistent_with_value(self):
        result = one_exchange_cut(C5, seed=3)
        assert cut_size(C5, result.mask) == result.value


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # Either endpoint order is a valid input; Graph stores the pair low-high.
    return Graph(n, tuple((j, i) if draw(st.booleans()) else (i, j) for i, j in chosen))


class TestGraphIo:
    @given(g=_graphs())
    def test_round_trip_generated(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("graphs") / "g.json"
        write_graph(path, g)
        assert read_graph(path) == g

    def test_round_trip(self, tmp_path):
        path = tmp_path / "k3.json"
        write_graph(path, K3)
        assert read_graph(path) == K3

    def test_reversed_edge_order_accepted(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[2, 0], [1, 0]]}')
        assert read_graph(path).edges == ((0, 1), (0, 2))

    def test_self_loop_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 6, "edges": [[5, 5]]}')
        with pytest.raises(GraphParseError, match="bad.json: self-loop"):
            read_graph(path)

    @pytest.mark.parametrize("text,error", [
        ('{"n": true, "edges": []}', GraphValidationError),
        ('{"n": 0, "edges": []}', GraphValidationError),
        ('{"n": 3, "edges": [[true, false]]}', GraphParseError),
        ('{"n": 3, "edges": 5}', GraphParseError),
        ('{"n": 3, "edges": [[0, 1]], "extra": 1}', GraphParseError),
    ])
    def test_malformed_fields_rejected(self, tmp_path, text, error):
        path = tmp_path / "g.json"
        path.write_text(text)
        with pytest.raises(error, match="g.json"):
            read_graph(path)

    def test_duplicate_edge_is_parse_error(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 0]]}')
        with pytest.raises(GraphParseError):
            read_graph(path)

    def test_node_out_of_range_is_validation_error(self, tmp_path):
        path = tmp_path / "range.json"
        path.write_text('{"n": 4, "edges": [[0, 9]]}')
        with pytest.raises(GraphValidationError):
            read_graph(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 3,\n "edges": [[0, 1]\n}')
        with pytest.raises(GraphParseError, match=r"line \d+"):
            read_graph(path)

    def test_round_trip_numpy_integers(self, tmp_path):
        path = tmp_path / "g.json"
        g = Graph(np.int64(3), ((np.int64(0), np.int64(1)), (np.int32(1), np.uint8(2))))
        write_graph(path, g)
        assert json.loads(path.read_text()) == {"n": 3, "edges": [[0, 1], [1, 2]]}
        assert read_graph(path) == g

    def test_written_edges_are_low_high(self, tmp_path):
        path = tmp_path / "g.json"
        write_graph(path, Graph(4, ((3, 1), (2, 0))))
        doc = json.loads(path.read_text())
        assert doc["edges"] == [[0, 2], [1, 3]]


_ONE_CELL = SuiteConfig(models=("ER",), node_lo=3, node_hi=3, instances_per_size=1, depths=(1,),
                        swarm=SwarmConfig(swarm_size=2, max_iters=1))

# Every library entry that takes a count, as (argument name, call).
COUNT_SITES = [
    ("node count", lambda v: Graph(v, ())),
    ("n", lambda v: generate_er(v, 0.5, seed=0)),
    ("n", lambda v: generate_ws(v, 2, 0.1, seed=0)),
    ("k", lambda v: generate_ws(6, v, 0.1, seed=0)),
    ("n", ws_k_for),
    ("mask", lambda v: cut_size(K3, v)),
    ("resolution", lambda v: landscape_grid(K3, resolution=v)),
    ("p", lambda v: random_params(v, np.random.default_rng(0))),
    ("p", lambda v: adam_fipso_optimize(K3, v, 2.0, SwarmConfig(swarm_size=2, max_iters=1))),
    ("p", lambda v: SwarmConfig().box(v)),
    ("graph_index", lambda v: run_instance("ER", v, 3, 1, _ONE_CELL)),
    ("n", lambda v: run_instance("ER", 1, v, 1, _ONE_CELL)),
    ("p", lambda v: run_instance("ER", 1, 3, v, _ONE_CELL)),
    ("swarm_size", lambda v: SwarmConfig(swarm_size=v)),
    ("max_iters", lambda v: SwarmConfig(max_iters=v)),
    ("seed", lambda v: SwarmConfig(seed=v)),
    ("node_lo", lambda v: SuiteConfig(node_lo=v)),
    ("node_hi", lambda v: SuiteConfig(node_hi=v)),
    ("instances_per_size", lambda v: SuiteConfig(instances_per_size=v)),
    ("depths", lambda v: SuiteConfig(depths=(v,))),
    ("base_seed", lambda v: SuiteConfig(base_seed=v)),
    ("jobs", lambda v: iter_suite(_ONE_CELL, jobs=v)),
]

# Every library entry that takes a real number, as (argument name, call).
REAL_SITES = [
    ("edge_prob", lambda v: generate_er(4, v, seed=0)),
    ("rewire_prob", lambda v: generate_ws(6, 2, v, seed=0)),
    ("gamma_range", lambda v: landscape_grid(K3, gamma_range=(v, 1.0))),
    ("beta_range", lambda v: landscape_grid(K3, beta_range=(-1.0, v))),
    ("c_target", lambda v: make_objective(ExpectationEvaluator(K3), v, 1.0)),
    ("c", lambda v: SwarmConfig(c=v)),
    ("bounds", lambda v: SwarmConfig(bounds=[(v, 1.0)])),
    ("er_edge_prob", lambda v: SuiteConfig(er_edge_prob=v)),
    ("ws_rewire_prob", lambda v: SuiteConfig(ws_rewire_prob=v)),
]


class TestNumberChecks:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_check_int_returns_int(self, value):
        assert type(check_int("x", value, 0)) is int
        assert check_int("x", value, 0) == 3

    @pytest.mark.parametrize("value", [0.5, 2, np.float32(0.5), np.float64(0.5), np.int64(2)])
    def test_check_real_returns_float(self, value):
        assert type(check_real("x", value)) is float
        assert check_real("x", value) == float(value)

    @pytest.mark.parametrize("value", [2.0, True, "2", None, -1, np.float64(2.0), np.bool_(True)])
    def test_check_int_rejects(self, value):
        with pytest.raises(ValueError, match=r"^x must be an integer >= 0, got "):
            check_int("x", value, 0)

    @pytest.mark.parametrize("value", ["0.5", True, None, math.nan, -math.inf, 10 ** 400, [0.5]])
    def test_check_real_rejects(self, value):
        with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
            check_real("x", value)

    @pytest.mark.parametrize("value", [2.0, True, "2"])
    @pytest.mark.parametrize("name, call", COUNT_SITES)
    def test_count_sites_reject_non_integers(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
            call(value)

    @pytest.mark.parametrize("name, call", REAL_SITES)
    def test_real_sites_reject_strings(self, name, call):
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number"):
            call("0.5")

    def test_counts_and_reals_used_as_plain_numbers(self):
        # NumPy scalars give the same graphs and lattice as Python numbers.
        assert generate_er(np.int64(6), np.float32(0.5), seed=1) == generate_er(6, float(np.float32(0.5)), seed=1)
        assert generate_ws(np.int32(6), np.int64(2), np.float64(0.3), seed=1) == generate_ws(6, 2, 0.3, seed=1)
        assert ws_k_for(np.uint8(9)) == 4
        assert cut_size(K3, np.int64(1)) == 2
        np.testing.assert_array_equal(landscape_grid(K3, (np.int64(-1), np.float32(0.5)), resolution=np.int64(3)),
                                      landscape_grid(K3, (-1.0, 0.5), resolution=3))
        assert random_params(np.int64(2), np.random.default_rng(0)).shape == (4,)
