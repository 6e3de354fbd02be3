import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import _kernels, alternating
from cqlab.alternating import (
    RedBlueGraph,
    beta_bruteforce,
    build_even_k,
    build_odd_k,
    construction_blue_count,
    has_alternating_cycle,
    max_blue_in_alternating_path,
    red_partner,
    redblue_from_text,
    redblue_to_text,
)
from cqlab.errors import CyclePresent, InstanceTooLarge


# --- alternating-structure oracle (pure itertools, independent) ------------

def oracle_paths(g):
    """Walk every vertex-simple alternating edge sequence; report the best
    blue count over paths and whether any sequence closes into a cycle."""
    nv = 2 * g.num_red
    blue_adj = {v: set() for v in range(1, nv + 1)}
    for u, v in g.blue_edges:
        blue_adj[u].add(v)
        blue_adj[v].add(u)

    best = 0
    cycles = False

    def extend(path, colors):
        nonlocal best, cycles
        last = path[-1]
        if not colors or colors[-1] == "r":
            for w in blue_adj[last]:
                if (w == path[0] and len(path) >= 4
                        and colors[0] == "r" and len(colors) % 2 == 1):
                    cycles = True  # closing blue edge completes a cycle
                if w not in path:
                    best = max(best, colors.count("b") + 1)
                    extend(path + [w], colors + ["b"])
        if not colors or colors[-1] == "b":
            w = red_partner(last)
            if (w == path[0] and len(path) >= 4
                    and colors and colors[0] == "b" and len(colors) % 2 == 1):
                cycles = True  # closing red edge completes a cycle
            if w not in path:
                extend(path + [w], colors + ["r"])

    for s in range(1, nv + 1):
        extend([s], [])
    return best, cycles


class TestCycleChecker:
    def test_single_blue_no_cycle(self):
        g = RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 3)}))
        assert has_alternating_cycle(g) is False

    def test_crossing_pair_is_cycle(self):
        g = RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 3), (2, 4)}))
        assert has_alternating_cycle(g) is True

    def test_empty_blue_no_cycle(self):
        g = RedBlueGraph(num_red=4)
        assert has_alternating_cycle(g) is False

    def test_parallel_ports_no_cycle(self):
        # two blue edges between the same red pair sharing a port: not a cycle
        g = RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 3), (1, 4)}))
        assert has_alternating_cycle(g) is False

    def test_six_cycle(self):
        # 1-(b)-3-(r)-4-(b)-5-(r)-6-(b)-2-(r)-1
        g = RedBlueGraph(num_red=3, blue_edges=frozenset({(1, 3), (4, 5), (6, 2)}))
        assert has_alternating_cycle(g) is True

    def test_closed_walk_without_simple_cycle(self):
        # D-cycle exists in the naive directed contraction, but no
        # vertex-simple alternating cycle (the kernel must say False):
        # reds (1,2),(3,4),(5,6); blues chosen so every closed walk repeats
        g = RedBlueGraph(
            num_red=3, blue_edges=frozenset({(1, 4), (1, 3), (2, 6), (2, 5)})
        )
        assert has_alternating_cycle(g) is False


class TestMaxBluePath:
    def test_single_blue(self):
        g = RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 3)}))
        assert max_blue_in_alternating_path(g) == 1

    def test_empty(self):
        g = RedBlueGraph(num_red=3)
        assert max_blue_in_alternating_path(g) == 0

    def test_cycle_flagged_undefined(self):
        g = RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 3), (2, 4)}))
        with pytest.raises(CyclePresent, match="cycle present"):
            max_blue_in_alternating_path(g)

    def test_two_blue_path(self):
        # 3-(b)-1-(r)-2-(b)-5: two blue edges
        g = RedBlueGraph(num_red=3, blue_edges=frozenset({(1, 3), (2, 5)}))
        assert max_blue_in_alternating_path(g) == 2

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_graphs(self, seed):
        rng = random.Random(seed)
        x = rng.choice([1, 2, 3])
        nv = 2 * x
        candidates = [
            (u, v)
            for u in range(1, nv + 1)
            for v in range(u + 1, nv + 1)
            if red_partner(u) != v
        ]
        blue = frozenset(e for e in candidates if rng.random() < 0.5)
        g = RedBlueGraph(num_red=x, blue_edges=blue)
        obest, ocycles = oracle_paths(g)
        assert has_alternating_cycle(g) == ocycles
        if not ocycles:
            assert max_blue_in_alternating_path(g) == obest


class TestConstructions:
    def test_even_k2_single_block(self):
        g = build_even_k(2, 4)
        assert len(g.blue_edges) == math.comb(4, 2)
        # no right-to-left cross edges: every blue edge joins two left vertices
        assert all(u % 2 == 1 and v % 2 == 1 for u, v in g.blue_edges)

    def test_even_k6_closed_form(self):
        g = build_even_k(6, 30)
        assert g.blocks == (10, 10, 10)
        expected = math.comb(30, 2) + 3 * 100
        assert len(g.blue_edges) == expected == construction_blue_count(g, False)

    def test_odd_k3_tiny(self):
        g = build_odd_k(3, 3)
        assert g.blocks == (2, 1)
        assert len(g.blue_edges) == construction_blue_count(g, True) == 5

    def test_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            build_even_k(3, 6)
        with pytest.raises(ValueError):
            build_odd_k(4, 8)
        with pytest.raises(ValueError):
            build_even_k(6, 2)
        with pytest.raises(ValueError):
            build_odd_k(5, 3)

    @pytest.mark.parametrize("k", [2, 4, 6])
    @pytest.mark.parametrize("mult", [1, 2])
    def test_even_suite_small(self, k, mult):
        x = k * mult
        g = build_even_k(k, x)
        assert has_alternating_cycle(g) is False
        assert max_blue_in_alternating_path(g) == k - 1

    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("mult", [1, 2])
    def test_odd_suite_small(self, k, mult):
        x = k * mult
        g = build_odd_k(k, x)
        assert has_alternating_cycle(g) is False
        assert max_blue_in_alternating_path(g) == k - 1

    @pytest.mark.parametrize("k,odd", [(2, False), (3, True), (4, False), (5, True), (6, False)])
    def test_blue_count_lower_bound(self, k, odd):
        # exact counts from realized blocks stay above (1 - 1/k) x^2 - C_k x
        # with the derived constant C_k = 2 (valid for x >= k across the suite)
        C_k = 2
        build = build_odd_k if odd else build_even_k
        for x in (k, 2 * k, 10 * k, 10 * k + 3):
            g = build(k, x)
            assert len(g.blue_edges) >= (1 - 1 / k) * x * x - C_k * x

    def test_blue_count_equals_block_formula_uneven(self):
        g = build_even_k(4, 9)  # uneven blocks
        assert len(g.blue_edges) == construction_blue_count(g, False)
        g = build_odd_k(5, 13)
        assert len(g.blue_edges) == construction_blue_count(g, True)


class TestConstructionsPinned:
    # (k, x) -> (blocks, sha256 of redblue_to_text), recorded before the
    # constructions were rewritten over one block-index list; x = 3k - 1
    # leaves a remainder for k >= 3
    PINNED = {
        (2, 2): ((2,), "c8f55db4e0d509f02ae5fa40b51d252b2a16ace25bbea591e491af57052f1106"),
        (2, 4): ((4,), "82a0bbb32ce8ebc169a7598a303112283e93a187172630c6de2c082aba18e57f"),
        (2, 5): ((5,), "c0a1811ca08778dbc45ada9cd0d53920b336dd9d4f40c4d44cf5544590cd2605"),
        (2, 20): ((20,), "d997a269151bb3e6177ddeb33799c7bc8f42de81f83498a52d7dc0cb197d764a"),
        (3, 3): ((2, 1), "338ced38edbcca320a5755c22ecbd20cd79899b144d8beec068aca08a8565d2c"),
        (3, 6): ((4, 2), "b239d00e065575674eacc842781dd542a2aec14a206b27217c5b3d8304b3da6f"),
        (3, 8): ((6, 2), "d1c9863a504fe2ae8496318bc936a23c69e626d88cb6f54debaac40958f3c3b6"),
        (3, 30): ((20, 10), "9141db26155b7857d7cbb5476b6186d60590f9ae059a71584ddcb4b60879f755"),
        (4, 4): ((2, 2), "9bd91559154942e5025d7c4028aaeed24adb8a30ea35c0031cc6f2d4e096f61b"),
        (4, 8): ((4, 4), "8794b017f2d50c30c31ce3315274990e10eccaecfdd74d24cc2adad762804af5"),
        (4, 11): ((6, 5), "986257691f5bae6a0632be819e2adf2f53e4c774a95a628a3787846f2c2d72c3"),
        (4, 40): ((20, 20), "0b95e84940e9e79b30e78ce3fa001b0e38ffd164672481155e061cdb4e8208fd"),
        (5, 5): ((2, 2, 1), "53803f121f4c3b7c974a7205396aad16eb23b61337801c9447827285a7a7f67a"),
        (5, 10): ((4, 4, 2), "b0ad3bac9334e7af5936ea1bf1eb86ebbe0d64b1faf435c2d6eeaa119908925b"),
        (5, 14): ((6, 6, 2), "4137046daff105cf7a2203938c6eeac8e1a1f592fcc2f2f73efec32cd253943d"),
        (5, 50): ((20, 20, 10), "07aaab884d33ccb32fbdc66cba554b346464fd86482cb623960aec556cef56dd"),
        (6, 6): ((2, 2, 2), "0d5242f73b8c3022e7fbfb6d42c2f23f687000c661940a2bb921a7a1557b908f"),
        (6, 12): ((4, 4, 4), "7ac4ad45985f9180a4a85fc5481d41dd583fb6543594b27cbabf4450e88ad0b4"),
        (6, 17): ((6, 6, 5), "5af1c4585089fe3323933a203234fb07ac5b6862f5ffa666223a5333a47007df"),
        (6, 60): ((20, 20, 20), "11848634cc391035358898dd50cbf7bd61020fbe58541f8bf8abb46f40ed624c"),
        (7, 7): ((2, 2, 2, 1), "3d7ec840c771b5ab02e243e6f621cef9f0df94f10814752cbfb57c8a2858f7a1"),
        (7, 14): ((4, 4, 4, 2), "84f559b24cdbaeda61967083dc0f410af79f1426e8e896d35d32061fc24b7ee8"),
        (7, 20): ((6, 6, 6, 2), "dbf7cf7ba1819cd68367ac10ad33a3fddb731ae4886e13dbb1b5c8dceb66fbd8"),
        (7, 70): ((20, 20, 20, 10), "1eb1f3b27112d258b1edcb9f9c3f2078bad0a474c1e84a3b1bc8a7c12515a4c6"),
        (8, 8): ((2, 2, 2, 2), "d899a042d9c6c10363df79f266fc2977979aee113b2d132b8efc22aab57351c4"),
        (8, 16): ((4, 4, 4, 4), "9352fa4ace30d32521f84c3d5eb8225886c0086c858f459034808bb6894a7789"),
        (8, 23): ((6, 6, 6, 5), "05d19780f24b909e56f1a59b33837007e7847debde709157b32c0ee44e0dfdb3"),
        (8, 80): ((20, 20, 20, 20), "360df228a03f1267b0ee58edbd7da162474d467d62cbf53c0da363b9e0214e88"),
    }

    @pytest.mark.parametrize("k,x", sorted(PINNED))
    def test_blue_edges_unchanged(self, k, x):
        g = (build_odd_k if k % 2 else build_even_k)(k, x)
        blocks, digest = self.PINNED[(k, x)]
        assert g.blocks == blocks
        assert hashlib.sha256(redblue_to_text(g).encode()).hexdigest() == digest


def beta_by_size(k, x):
    """beta(k, x) by the search the depth-first one replaced: every subset
    of the 2x(x-1) candidate pairs, largest size first, so the first
    feasible size is the maximum."""
    nv = 2 * x
    candidates = [(u, v) for u in range(1, nv + 1) for v in range(u + 1, nv + 1)
                  if red_partner(u) != v]
    for size in range(len(candidates), 0, -1):
        for chosen in itertools.combinations(candidates, size):
            g = RedBlueGraph(num_red=x, blue_edges=frozenset(chosen))
            if not has_alternating_cycle(g) and max_blue_in_alternating_path(g) < k:
                return size
    return 0


class TestBetaBruteforce:
    def test_paper_values(self):
        assert beta_bruteforce(1, 2) == 0
        assert beta_bruteforce(2, 2) == 2
        assert beta_bruteforce(2, 1) == 0

    def test_monotone_in_k(self):
        for x in (1, 2, 3):
            vals = [beta_bruteforce(k, x) for k in (1, 2, 3, 4)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_dominates_construction(self):
        for k, x in ((2, 1), (2, 2), (2, 3)):
            g = build_even_k(k, x)
            assert beta_bruteforce(k, x) >= len(g.blue_edges)
        g = build_odd_k(3, 3)
        assert beta_bruteforce(3, 3) >= len(g.blue_edges)

    def test_equals_size_descending_search(self):
        for k in range(1, 7):
            for x in range(1, 4):
                assert beta_bruteforce(k, x) == beta_by_size(k, x), (k, x)

    def test_x4_values_pinned(self, monkeypatch):
        # 24 candidate pairs, above the default cap; each value is at least
        # the blue count of its construction, and beta(3, 4) and beta(4, 4)
        # exceed theirs (9 and 10)
        monkeypatch.setenv("CQLAB_BRUTE_CAP", "24")
        beta = [beta_bruteforce(k, 4) for k in (2, 3, 4, 5)]
        assert beta == [6, 10, 12, 12]
        blue = [len(build_even_k(2, 4).blue_edges), len(build_odd_k(3, 4).blue_edges),
                len(build_even_k(4, 4).blue_edges)]
        assert blue == [6, 9, 10]
        assert all(b >= c for b, c in zip(beta, blue))

    def test_every_x_up_to_4(self, monkeypatch):
        # every beta(k, x) with x <= 4 and k <= 6, with the values of
        # acceptance criterion 07 and the benchmark's KNOWN_BETA; beta grows
        # with k and stays at or above each construction's blue count
        monkeypatch.setenv("CQLAB_BRUTE_CAP", "24")
        table = {x: [beta_bruteforce(k, x) for k in range(1, 7)] for x in range(1, 5)}
        assert table == {1: [0, 0, 0, 0, 0, 0], 2: [0, 2, 2, 2, 2, 2],
                         3: [0, 4, 6, 6, 6, 6], 4: [0, 6, 10, 12, 12, 12]}
        criterion_07, known_beta = {(1, 2): 0, (2, 2): 2}, {(2, 2): 2}
        for k, x in [*criterion_07, *known_beta]:
            assert table[x][k - 1] == {**criterion_07, **known_beta}[k, x]
        for x, row in table.items():
            assert row == sorted(row)
            for k in range(2, 7):
                if x >= (k if k % 2 else k // 2):
                    g = (build_odd_k if k % 2 else build_even_k)(k, x)
                    assert row[k - 1] >= len(g.blue_edges), (k, x)

    def test_cap_guard(self):
        with pytest.raises(InstanceTooLarge, match="instance too large"):
            beta_bruteforce(2, 4)

    def test_cap_env_override(self, monkeypatch):
        # beta(2, 2) has 4 candidate blue pairs
        monkeypatch.setenv("CQLAB_BRUTE_CAP", "3")
        with pytest.raises(InstanceTooLarge, match="instance too large"):
            beta_bruteforce(2, 2)
        monkeypatch.delenv("CQLAB_BRUTE_CAP")
        assert beta_bruteforce(2, 2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_bruteforce(0, 2)
        with pytest.raises(ValueError):
            beta_bruteforce(2, 0)


class TestBlueCsr:
    @pytest.mark.parametrize("g", [
        build_even_k(4, 12),
        build_odd_k(5, 7),
        RedBlueGraph(num_red=3, blue_edges=frozenset({(1, 3), (4, 5), (6, 2)})),
    ], ids=["even", "odd", "six-cycle"])
    def test_built_once_per_graph(self, g, monkeypatch):
        # the kernels' adjacency and the digraph bound are each built once
        # per graph, and both public checks answer as the kernels do without
        # them; every red edge carries a blue edge here, so the adjacency
        # spans all 2x vertices and csr() is its CSR form
        builds, bounds = [], []

        def counted(edges):
            adj = fresh(edges)
            builds.append(len(adj))
            return adj

        def counted_bound(adj):
            bounds.append(len(adj))
            return fresh_bound(adj)

        fresh, fresh_bound = alternating._adjacency, _kernels._dag_bound_core
        monkeypatch.setattr(alternating, "_adjacency", counted)
        # the answers of the kernels over lists built for each call
        adj = fresh(g.blue_edges)
        cycle = _kernels.alt_cycle_exists(adj)
        best = None if cycle else _kernels.alt_path_max_blue(adj)
        monkeypatch.setattr(_kernels, "_dag_bound_core", counted_bound)
        assert has_alternating_cycle(g) is cycle
        if cycle:
            with pytest.raises(CyclePresent):
                max_blue_in_alternating_path(g)
        else:
            assert max_blue_in_alternating_path(g) == best
        indptr = list(itertools.accumulate(map(len, adj), initial=0))
        assert g.csr() == (tuple(indptr), tuple(w for nbrs in adj for w in nbrs))
        assert builds == bounds == [g.num_vertices]


    def test_sparse_carrier_costs_its_blue_edges(self):
        # x = 10^6 red edges and two blue edges, on the path 1-2-3-4-1999999
        # (red, blue, red, blue): the kernels' lists span the three red
        # edges that carry a blue edge, not the carrier
        text = "1000000\n2 3\n4 1999999\n"
        tracemalloc.start()
        try:
            g = redblue_from_text(text)
            assert has_alternating_cycle(g) is False
            assert max_blue_in_alternating_path(g) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g._adj) == 6
        assert peak < 64 * 1024


class TestRedBlueValidation:
    def test_rejects_red_duplicate(self):
        with pytest.raises(ValueError, match="duplicates a red edge"):
            RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 2)}))

    def test_rejects_out_of_carrier(self):
        with pytest.raises(ValueError, match="carrier"):
            RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 5)}))

    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            RedBlueGraph(num_red=2, blue_edges=frozenset({(3, 3)}))

    def test_needs_a_red_edge(self):
        with pytest.raises(ValueError, match="need at least one red edge"):
            RedBlueGraph(num_red=0)

    def test_blue_count_needs_construction(self):
        with pytest.raises(ValueError, match="not a construction graph"):
            construction_blue_count(RedBlueGraph(num_red=2), False)

    @pytest.mark.parametrize("text,message", [
        ("", "empty red/blue graph file"),
        ("2 3\n1 3\n", r"bad red/blue header line '2 3'"),
        ("2\n1 3\n1 3\n", r"blue edge \(1, 3\) listed twice"),
        ("2\n1 3\n3 1\n", r"blue edge \(3, 1\) listed twice"),
        ("2\n1 3 4\n", r"bad red/blue line '1 3 4'"),
        ("2\n1\n", r"bad red/blue line '1'"),
        ("2\n1 c\n", r"bad red/blue line '1 c'"),
    ])
    def test_text_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            redblue_from_text(text)

    def test_roundtrip(self):
        g = build_odd_k(5, 7)
        g2 = redblue_from_text(redblue_to_text(g))
        assert g2.num_red == g.num_red
        assert g2.blue_edges == g.blue_edges

    def test_red_partner(self):
        assert red_partner(1) == 2
        assert red_partner(2) == 1
        assert red_partner(7) == 8
