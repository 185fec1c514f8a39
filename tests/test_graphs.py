import json

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
from swarmcut.graphs import cut_size, cut_values_all_masks
from swarmcut.optimizer import SwarmConfig, adam_fipso_optimize
from swarmcut.simulator import ExpectationEvaluator, build_cut_spectrum

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

    def test_cut_spectrum_built_once_and_read_only(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return cut_values_all_masks(g)

        monkeypatch.setattr(graphs, "cut_values_all_masks", counting)
        g = generate_er(6, 0.5, seed=3)
        target = max_cut_bruteforce(g).value
        build_cut_spectrum(g)
        ExpectationEvaluator(g).expectation([0.3], [0.2])
        adam_fipso_optimize(g, 1, float(target), SwarmConfig(swarm_size=2, max_iters=1))
        assert len(calls) == 1
        assert g.cut_spectrum is build_cut_spectrum(g)
        with pytest.raises(ValueError):
            g.cut_spectrum[0] = 1


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

    def test_written_edges_are_low_high(self, tmp_path):
        path = tmp_path / "g.json"
        write_graph(path, Graph(4, ((3, 1), (2, 0))))
        doc = json.loads(path.read_text())
        assert doc["edges"] == [[0, 2], [1, 3]]
