import collections
import hashlib
import json
import math
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab.bounds import CliqueBoundQuery, clique_alpha_upper
from cqlab.errors import AdaptivityViolation, BudgetExceeded, CqlabError
from cqlab.simulator import (
    BatchedGreedyStrategy,
    RoundContext,
    _shuffle,
    _verified_result,
    amplify,
    batched_block_runner,
    greedy_block_runner,
    greedy_clique,
    max_clique_bruteforce,
    new_instance,
    partition_blocks,
    query_budget,
    run_l_adaptive,
)


class TestRevealedGraph:
    def test_caching_and_ledger(self):
        g = new_instance(10, 1)
        b1 = g.query(3, 7)
        b2 = g.query(7, 3)
        assert b1 == b2
        assert len(g.query_log) == 2
        assert len(g.revealed) == 1

    def test_determinism_across_instances(self):
        g1, g2 = new_instance(100, 5), new_instance(100, 5)
        pairs = [(i, (i * 7 + 3) % 100) for i in range(50) if i != (i * 7 + 3) % 100]
        assert [g1.query(u, v) for u, v in pairs] == [g2.query(u, v) for u, v in pairs]

    def test_different_seeds_differ(self):
        g1, g2 = new_instance(200, 1), new_instance(200, 2)
        bits1 = [g1.query(u, v) for u in range(20) for v in range(u + 1, 20)]
        bits2 = [g2.query(u, v) for u in range(20) for v in range(u + 1, 20)]
        assert bits1 != bits2

    def test_rejects_loops_and_bad_vertices(self):
        g = new_instance(10, 1)
        with pytest.raises(ValueError):
            g.query(4, 4)
        with pytest.raises(ValueError):
            g.query(0, 10)
        with pytest.raises(ValueError):
            new_instance(1, 0)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bits_equal_one_shot_keyed_hash(self, data):
        n = data.draw(st.integers(min_value=2, max_value=2**17), label="n")
        seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed")
        vertex = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]),
                                   max_size=30), label="pairs")
        # each pair again, reversed, and some a third time as given
        pairs = pairs + [(v, u) for u, v in pairs] + pairs[::3]
        g = new_instance(n, seed)
        log, revealed = [], {}
        for i, (u, v) in enumerate(pairs):
            a, b = min(u, v), max(u, v)
            bit = hashlib.blake2b(struct.pack("<II", a, b), key=seed.to_bytes(8, "little"),
                                  digest_size=8).digest()[0] & 1
            assert g.query(u, v) == bit
            log.append((g.rounds_closed, a, b))
            revealed[(a, b)] = bit
            if i % 7 == 6:
                g.close_round()
        assert g.query_log == log
        assert g.revealed == revealed

    @pytest.mark.parametrize("u,v,message", [
        (3, 3, "no self-loops: u and v must differ"),
        (-1, -1, "no self-loops: u and v must differ"),
        (10, 10, "no self-loops: u and v must differ"),
        (-1, 2, "vertices must lie in 0..9"),
        (2, -1, "vertices must lie in 0..9"),
        (2, 10, "vertices must lie in 0..9"),
        (10, 2, "vertices must lie in 0..9"),
    ])
    def test_refusal_texts(self, u, v, message):
        g = new_instance(10, 1)
        with pytest.raises(ValueError) as exc:
            g.query(u, v)
        assert str(exc.value) == message
        assert g.query_log == [] and g.revealed == {}

    def test_empirical_density_half(self):
        g = new_instance(10**4, 7)
        rng = random.Random(1)
        total = 0
        trials = 10**5
        for _ in range(trials):
            u, v = rng.sample(range(10**4), 2)
            total += g.query(u, v)
        assert abs(total / trials - 0.5) < 0.01

    def test_transcript_format(self):
        g = new_instance(10, 1)
        g.query(2, 5)
        g.close_round()
        g.query(1, 3)
        lines = g.transcript_lines()
        assert len(lines) == 2
        r, u, v, bit = lines[1].split(",")
        assert (r, u, v) == ("1", "1", "3")
        assert bit in ("0", "1")


# every length up to 300, and 2**k - 1, 2**k, 2**k + 1 for k <= 16: each
# bit length's first and last i, and both ends of the rejection odds
_SHUFFLE_LENGTHS = sorted(set(range(301)) | {
    m for k in range(1, 17) for m in (2**k - 1, 2**k, 2**k + 1)})


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_shuffle_matches_random_shuffle(seed):
    for length in _SHUFFLE_LENGTHS:
        expected, got = list(range(length)), list(range(length))
        rng_expected, rng_got = random.Random(seed), random.Random(seed)
        rng_expected.shuffle(expected)
        _shuffle(got, rng_got)
        assert got == expected, length
        assert rng_got.getstate() == rng_expected.getstate(), length


class TestGreedy:
    def test_budget_one_tiny_clique(self):
        g = new_instance(64, 3)
        res = greedy_clique(g, 1)
        assert len(res.vertices) <= 2
        assert res.is_clique

    def test_budget_zero_rejected(self):
        g = new_instance(64, 3)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            greedy_clique(g, 0)
        assert g.queries_used == 0

    def test_always_verified(self):
        for seed in range(5):
            g = new_instance(256, seed)
            res = greedy_clique(g, 4096)
            assert res.is_clique
            assert res.density == 1
            # ledger soundness: on a fresh graph the run accounts for every
            # logged probe, verification re-queries included
            assert res.queries_used == len(g.query_log)

    def test_stays_within_budget(self):
        for budget in (1, 10, 100, 1000):
            g = new_instance(512, 11)
            res = greedy_clique(g, budget)
            assert res.queries_used <= budget

    def test_determinism(self):
        r1 = greedy_clique(new_instance(1024, 9), 10**5)
        r2 = greedy_clique(new_instance(1024, 9), 10**5)
        assert r1 == r2

    @pytest.mark.parametrize("vertices", [[100], [-3], [1, 8], [-1, 0, 5]])
    def test_pool_outside_the_graph_rejected(self, vertices):
        # a lone vertex is never queried, so only the pool check can refuse it
        g = new_instance(8, 1)
        with pytest.raises(ValueError) as exc:
            greedy_clique(g, 10, vertices=vertices)
        assert str(exc.value) == "vertices must lie in 0..7"
        assert g.queries_used == 0

    def test_repeated_pool_vertex_refused_before_any_query(self):
        # the sorted pool puts repeats next to each other; left to the scan,
        # [3, 5, 3] would query (3, 5) twice and return (5,), and [3, 3, 5, 6]
        # would log (3, 6) twice before the oracle's self-loop refusal
        for vertices, v in (([3, 3], 3), ([3, 5, 3], 3), ([3, 3, 5, 6], 3), ([6, 0, 6, 6], 6)):
            g = new_instance(8, 1)
            with pytest.raises(ValueError) as exc:
                greedy_clique(g, 10, vertices=vertices)
            assert str(exc.value) == f"vertices must be distinct; {v} repeats"
            assert g.queries_used == 0

    def test_pool_at_the_edges_accepted(self):
        res = greedy_clique(new_instance(8, 1), 10, vertices=[7])
        assert res.vertices == (7,)
        res = greedy_clique(new_instance(8, 1), 10, vertices=[0, 7])
        assert res.is_clique and set(res.vertices) <= {0, 7}

    def test_size_window_spot(self):
        # the 20-seed acceptance battery lives in test_acceptance; spot-check
        g = new_instance(2**12, 1000)
        res = greedy_clique(g, query_budget(2**12, 1.5))
        assert math.log2(2**12) - 4 <= len(res.vertices) <= math.log2(2**12) + 2


class _FixedBatchStrategy:
    """One round, fixed pair list, returns their union."""

    def __init__(self, pairs):
        self.pairs = pairs

    def round_queries(self, rnd, answers, ctx):
        return list(self.pairs) if rnd == 0 else []

    def result(self, answers, ctx):
        return sorted({v for p in self.pairs for v in p})


class _TwoRoundStrategy:
    """Round 2 queries depend on round 1 answers (legal adaptivity)."""

    def __init__(self):
        self.second = None

    def round_queries(self, rnd, answers, ctx):
        if rnd == 0:
            return [(0, 1), (0, 2)]
        bit = ctx.answered(0, 1)
        self.second = (1, 2) if bit else (2, 3)
        return [self.second]

    def result(self, answers, ctx):
        return [0]


class _SameRoundPeeker:
    """Requests an answer for a pair queried in the same round."""

    def round_queries(self, rnd, answers, ctx):
        def gen():
            yield (0, 1)
            ctx.answered(0, 1)  # same-round feedback: must blow up
            yield (1, 2)

        return gen()

    def result(self, answers, ctx):
        return [0]


class _BudgetBomb:
    def __init__(self, n):
        self.n = n

    def round_queries(self, rnd, answers, ctx):
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)]

    def result(self, answers, ctx):
        return [0]


class _LazyBomb:
    """Round 0: five pairs, one repeated; round 1: a generator over every
    pair of 20 vertices, reversed, that counts what the harness pulls."""

    def __init__(self):
        self.pulled = 0

    def round_queries(self, rnd, answers, ctx):
        def gen():
            pairs = ([(0, 1), (2, 1), (3, 0), (4, 5), (1, 0)] if rnd == 0
                     else ((v, u) for u in range(20) for v in range(u + 1, 20)))
            for p in pairs:
                self.pulled += 1
                yield p

        return gen()

    def result(self, answers, ctx):
        return [0]


class TestRunLAdaptive:
    def test_single_round_fixed_batch(self):
        g = new_instance(32, 2)
        res = run_l_adaptive(g, _FixedBatchStrategy([(0, 1), (2, 3)]), 2.0, 1)
        assert res.rounds_used == 1
        assert res.queries_used >= 2

    def test_two_round_adaptivity_is_legal(self):
        g = new_instance(32, 2)
        strat = _TwoRoundStrategy()
        res = run_l_adaptive(g, strat, 2.0, 2)
        assert strat.second is not None
        assert res.rounds_used == 2

    def test_same_round_peek_violates(self):
        g = new_instance(32, 2)
        with pytest.raises(AdaptivityViolation, match="adaptivity violation"):
            run_l_adaptive(g, _SameRoundPeeker(), 2.0, 1)

    def test_budget_exceeded(self):
        g = new_instance(64, 2)
        with pytest.raises(BudgetExceeded, match="budget exceeded"):
            run_l_adaptive(g, _BudgetBomb(64), 1.0, 1)

    def test_budget_runs_out_mid_round(self):
        # message, ledger and pull count recorded before the harness kept its
        # own count of the room left
        g = new_instance(20, 5)
        strat = _LazyBomb()
        with pytest.raises(BudgetExceeded) as exc:
            run_l_adaptive(g, strat, 1.0, 3, budget=12)
        assert str(exc.value) == "budget exceeded: round 1 passed 12 total queries"
        assert g.queries_used == 12 and strat.pulled == 13
        assert g.rounds_closed == 1 and len(g.revealed) == 9
        assert [line[:-2] for line in g.transcript_lines()] == [
            "0,0,1", "0,1,2", "0,0,3", "0,4,5", "0,0,1",
            "1,0,1", "1,0,2", "1,0,3", "1,0,4", "1,0,5", "1,0,6", "1,0,7",
        ]

    @pytest.mark.parametrize("vertices", [[100], [-3], [2, 8]])
    def test_batched_pool_outside_the_graph_rejected(self, vertices):
        with pytest.raises(ValueError) as exc:
            BatchedGreedyStrategy(8, seed=1, budget=10, ell=2, vertices=vertices)
        assert str(exc.value) == "vertices must lie in 0..7"

    def test_batched_repeated_pool_vertex_refused_before_any_query(self):
        # refused by the strategy itself, before round 0 can reveal (3, 5)
        for vertices in ([3, 3, 5], [3, 5, 3]):
            with pytest.raises(ValueError) as exc:
                BatchedGreedyStrategy(8, seed=1, budget=10, ell=2, vertices=vertices)
            assert str(exc.value) == "vertices must be distinct; 3 repeats"

    def test_verification_past_budget_raises(self):
        # two round queries fit a budget of 2; re-querying the six pairs of
        # the four-vertex result does not
        g = new_instance(16, 2)
        with pytest.raises(BudgetExceeded, match="verification pushed"):
            run_l_adaptive(g, _FixedBatchStrategy([(0, 1), (2, 3)]), 2.0, 1, budget=2)

    def test_needs_a_round(self):
        g = new_instance(16, 2)
        with pytest.raises(ValueError, match="need at least one round"):
            run_l_adaptive(g, _FixedBatchStrategy([(0, 1)]), 2.0, 0)
        assert g.queries_used == 0

    def test_unqueried_pair_has_no_answer(self):
        with pytest.raises(KeyError, match=r"pair \(1, 4\) has not been queried"):
            RoundContext().answered(4, 1)

    def test_zero_query_round_consumes_round(self):
        g = new_instance(16, 2)
        res = run_l_adaptive(g, _FixedBatchStrategy([(0, 1)]), 2.0, 3)
        assert res.rounds_used == 3

    def test_verification_counts_by_default(self):
        g = new_instance(32, 2)
        pairs = [(0, 1)]
        res = run_l_adaptive(g, _FixedBatchStrategy(pairs), 2.0, 1)
        # 1 round query + 1 verification re-query of the same pair
        assert res.queries_used == 2

    def test_batched_greedy_contract(self):
        n = 512
        g = new_instance(n, 5)
        strat = BatchedGreedyStrategy(n, seed=5, budget=query_budget(n, 1.0), ell=3)
        res = run_l_adaptive(g, strat, 1.0, 3)
        assert res.is_clique
        assert res.rounds_used == 3
        assert res.queries_used <= res.budget
        assert len(res.vertices) >= 3

    @pytest.mark.parametrize("ell", [2, 3, 4])
    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_batched_greedy_answers_within_budget(self, n, ell):
        # the rounds may spend the whole budget; the answer is then the
        # longest clique prefix whose verification still fits (at n = 256,
        # ell = 2, seed 0 the whole clique would need 261 > 256 queries)
        for seed in range(20):
            g = new_instance(n, seed)
            strat = BatchedGreedyStrategy(n, seed=seed, budget=query_budget(n, 1.0), ell=ell)
            res = run_l_adaptive(g, strat, 1.0, ell)
            assert res.is_clique and res.density == 1
            assert res.queries_used == len(g.query_log) <= res.budget
            assert res.rounds_used == ell
            assert list(res.vertices) == sorted(strat.clique[: len(res.vertices)])

    def test_batched_greedy_tiny_budgets(self):
        # a later round takes no candidate once its len(clique) pairs no
        # longer fit the budget left
        for budget in range(1, 40):
            for seed in range(10):
                g = new_instance(64, seed)
                strat = BatchedGreedyStrategy(64, seed=seed, budget=budget, ell=3)
                res = run_l_adaptive(g, strat, 1.0, 3, budget=budget)
                assert res.is_clique
                assert res.queries_used == len(g.query_log) <= budget
                assert res.rounds_used == 3

    def test_batched_greedy_soft_bound_check(self):
        # soft sanity vs. theory: logged, never fatally asserted
        n = 2**14
        bound = clique_alpha_upper(CliqueBoundQuery(delta=1.0, ell=3))
        limit = bound * math.log2(n) + 3
        oversized = []
        for seed in range(20):
            g = new_instance(n, seed)
            strat = BatchedGreedyStrategy(n, seed=seed, budget=query_budget(n, 1.0), ell=3)
            res = run_l_adaptive(g, strat, 1.0, 3)
            assert res.is_clique
            if len(res.vertices) > limit:
                oversized.append((seed, len(res.vertices)))
        if oversized:  # pragma: no cover - informational only
            print(f"soft check: runs above the theory line: {oversized}")


class TestMaxCliqueHelper:
    def test_small_graph(self):
        adj = {
            0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2},
        }
        assert max_clique_bruteforce([0, 1, 2, 3], adj) == [0, 1, 2]

    def test_empty(self):
        assert max_clique_bruteforce([], {}) == []


class TestAmplify:
    def test_partition_is_a_partition(self):
        for n in (7, 64, 1000):
            blocks = partition_blocks(n)
            flat = [v for b in blocks for v in b]
            assert sorted(flat) == list(range(n))
            assert len(blocks) == max(1, round(math.log2(n)))

    def test_single_block_identity(self):
        # log2 rounded to 1 block: amplification equals a single run
        n = 2
        g1 = new_instance(n, 4)
        amp = amplify(greedy_block_runner, g1, 2.0, 1)
        assert amp.meta["blocks"] == 1
        g2 = new_instance(n, 4)
        single = greedy_clique(g2, query_budget(n, 2.0), scan_seed=g2.seed + 0x1000)
        assert amp.vertices == single.vertices

    def test_total_queries_sum_over_blocks(self):
        g = new_instance(1024, 8)
        amp = amplify(greedy_block_runner, g, 1.2, 1)
        assert amp.queries_used == len(g.query_log)
        assert amp.meta["failure_probability_heuristic"] == 1 / 1024

    def test_beats_single_block_scale_run_median(self):
        # the wrapper's point: best of ~log n block-scale runs beats the
        # median single run of the base strategy at scale n/log n
        n = 2**14
        singles = []
        for seed in range(20):
            g = new_instance(n, 3000 + seed)
            block = partition_blocks(n)[0]
            res = greedy_clique(g, query_budget(n, 1.0) // len(partition_blocks(n)),
                                vertices=block)
            singles.append(len(res.vertices))
        med = sorted(singles)[10]
        wins = 0
        for seed in range(20):
            g = new_instance(n, 3000 + seed)
            amp = amplify(greedy_block_runner, g, 1.0, 1)
            if len(amp.vertices) >= med:
                wins += 1
        assert wins >= 18

    @pytest.mark.parametrize("ell", [2, 3])
    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_batched_runner_takes_best_block_clique(self, ell, seed):
        # n = 64, delta = 2: six blocks of 10-11 vertices, each revealed in
        # full by round 0, so the best block's clique is a maximum clique of
        # some block
        g = new_instance(64, seed)
        amp = amplify(batched_block_runner, g, 2.0, ell)
        assert amp.is_clique
        assert amp.rounds_used <= ell
        assert amp.queries_used == len(g.query_log) <= amp.budget
        assert "block" in amp.meta["best_block"]
        best = 0
        for block in partition_blocks(64):
            pairs = [(v, w) for v in block for w in block if v < w]
            assert all(p in g.revealed for p in pairs)
            adj = {v: {w for w in block if w != v and g.revealed[min(v, w), max(v, w)]}
                   for v in block}
            best = max(best, len(max_clique_bruteforce(block, adj)))
        assert len(amp.vertices) == best

    def test_amplified_batched_answers_within_budget(self):
        # every block's rounds spend its share; verifying a whole block
        # clique would push that block to 1176 > 1170 queries
        g = new_instance(16384, 91165289)
        amp = amplify(batched_block_runner, g, 1.0, 3)
        assert amp.is_clique and len(amp.vertices) >= 2
        assert amp.queries_used == len(g.query_log) <= 16384
        assert amp.rounds_used == 3

    @pytest.mark.parametrize("runner", [greedy_block_runner, batched_block_runner])
    @pytest.mark.parametrize("block", [[100], [-3], [5, 6, 7, 8]])
    def test_block_outside_the_graph_rejected(self, runner, block):
        g = new_instance(8, 1)
        with pytest.raises(ValueError) as exc:
            runner(g, block, 3, 10, 2)
        assert str(exc.value) == "vertices must lie in 0..7"
        assert g.queries_used == 0

    def test_determinism(self):
        a1 = amplify(greedy_block_runner, new_instance(512, 6), 1.0, 1)
        a2 = amplify(greedy_block_runner, new_instance(512, 6), 1.0, 1)
        assert a1.vertices == a2.vertices
        assert a1.queries_used == a2.queries_used


class TestRunResultJson:
    def test_roundtrip_fields(self):
        g = new_instance(128, 3)
        res = greedy_clique(g, 2000)
        d = res.to_json_dict()
        assert d["size"] == len(res.vertices)
        assert d["is_clique"] is True
        assert d["density"] == 1.0
        assert d["density_exact"] == "1/1"
        assert d["queries_used"] == res.queries_used


def _run_digest(kind, n, seed, delta, ell):
    g = new_instance(n, seed)
    if kind == "greedy":
        res = greedy_clique(g, query_budget(n, delta))
    elif kind == "batched":
        strat = BatchedGreedyStrategy(n, seed=seed, budget=query_budget(n, delta), ell=ell)
        res = run_l_adaptive(g, strat, delta, ell)
    elif kind == "amp_greedy":
        res = amplify(greedy_block_runner, g, delta, 1)
    else:
        res = amplify(batched_block_runner, g, delta, ell)
    text = "\n".join(g.transcript_lines()) + "\n" + json.dumps(res.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the transcript plus the JSON result of runs that fit their
# budget with the whole answer: any change to the query order, the
# verification or the result fields shows here
PINNED_RUNS = [
    ("greedy", 256, 0, 1.5, 1, "9cedd1d64cd148a2fb50ac05eb6d0da23e9741990344875794e3c9ce065a35ef"),
    ("greedy", 1024, 9, 1.5, 1, "57fcc223f618aea886c6bd6fdfcba5fe96fdf5f7c9cc93e99325fed53f7b3c7f"),
    ("greedy", 4096, 1000, 1.5, 1, "17bf8bf6d4564b5307cadb708ce3e50b1a49fb8a3371a39109a1d71d51d76a3b"),
    ("greedy", 512, 11, 1.0, 1, "ccf8a7151fea1deb971826f7cfe96d7a5aa465750a0197778d8bcaec48bf4abf"),
    ("batched", 512, 5, 1.0, 3, "d7c511035a706a7bea7f222a9ba5a37c0cf587e213683f6255aabecb087f6c68"),
    ("batched", 1024, 3, 1.2, 2, "137028b5682d39c2088d8d4ee6e6d1477b7c1e2586b348e914416375bffae711"),
    ("batched", 2048, 7, 1.0, 4, "58415d2f5ff603516e1a67e0b4914a0cbb2eedab34d2f2faddbc48c447f8a01f"),
    ("batched", 16384, 0, 1.0, 3, "afb30c2acf50db02163f448470ecdb99f7a1084f95611f4935d1d0f8d1d8449e"),
    ("amp_greedy", 1024, 8, 1.2, 1, "eab4fa3667729e2c8ef9443e549fe385677222c5ea6ee53ba21a9c9c12897668"),
    ("amp_greedy", 512, 6, 1.0, 1, "faa5ee134cc67607e97f4677c3c589b703d6259af29535b6f2eb44a6edb61881"),
    ("amp_batched", 64, 1, 2.0, 2, "a21d7061239e68025b1a56f042fb7f4493e9bafa88964f17a44e677cc167f4dd"),
    ("amp_batched", 64, 7, 2.0, 3, "161dc4b3de9e5a435b46790167abc5a9371cf1737a5f4b1618bda411151da010"),
]


@pytest.mark.parametrize("kind,n,seed,delta,ell,expected", PINNED_RUNS)
def test_pinned_transcripts(kind, n, seed, delta, ell, expected):
    assert _run_digest(kind, n, seed, delta, ell) == expected


# Reference scans: the greedy loop and the batched pool order written with
# random.Random.shuffle and the budget test as used + reserve > budget. The
# simulator's runs must match them query for query.

def _reference_pool(n, vertices):
    """range(n), or the pool sorted, with a repeated vertex refused first."""
    if vertices is None:
        return list(range(n))
    repeats = sorted(v for v, count in collections.Counter(vertices).items() if count > 1)
    if repeats:
        raise ValueError(f"vertices must be distinct; {repeats[0]} repeats")
    return sorted(vertices)


def _reference_greedy(g, budget, vertices=None, scan_seed=None):
    pool = _reference_pool(g.n, vertices)
    rng = random.Random((g.seed if scan_seed is None else scan_seed) ^ 0x9E3779B97F4A7C15)
    rng.shuffle(pool)
    query, log = g.query, g.query_log
    start = len(log)
    rounds_before = g.rounds_closed
    clique = []
    reserve = 0
    for cand in pool:
        if len(log) - start + reserve > budget:
            break
        for member in clique:
            if not query(cand, member):
                break
        else:
            clique.append(cand)
            k = len(clique)
            reserve = k + math.comb(k + 1, 2)
        g.close_round()
    return _verified_result(g, clique, budget, start, rounds_before, {"strategy": "greedy"})


def _reference_batched(n, seed, budget, ell, vertices=None):
    pool = _reference_pool(n, vertices)
    strat = BatchedGreedyStrategy(n, seed=seed, budget=budget, ell=ell, vertices=vertices)
    random.Random(seed ^ 0xA5A5A5A5).shuffle(pool)
    strat.order = pool
    return strat


def _reference_greedy_block_runner(g, block, seed, share, ell):
    res = _reference_greedy(g, share, vertices=block, scan_seed=seed)
    return replace(res, meta={"strategy": "greedy", "block": (block[0], block[-1])})


def _reference_batched_block_runner(g, block, seed, share, ell):
    strat = _reference_batched(g.n, seed=seed, budget=share, ell=ell, vertices=block)
    res = run_l_adaptive(g, strat, delta=1.0, ell=ell, budget=share)
    return replace(res, meta={**res.meta, "block": (block[0], block[-1])})


def _outcome(n, seed, run):
    """The run's result, or its refusal, and the instance's transcript."""
    g = new_instance(n, seed)
    try:
        res = run(g)
    except (ValueError, CqlabError) as exc:
        res = (type(exc), str(exc))
    return res, g.transcript_lines()


@st.composite
def _sim_cases(draw):
    """n <= 512, a budget in 1..2n, an instance seed, and a vertex pool:
    every vertex, or a sample that may repeat one vertex."""
    n = draw(st.integers(min_value=2, max_value=512), label="n")
    budget = draw(st.integers(min_value=1, max_value=2 * n), label="budget")
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1), label="seed")
    vertices = None
    if draw(st.booleans(), label="pool"):
        size = draw(st.integers(min_value=0, max_value=n), label="size")
        pool_seed = draw(st.integers(min_value=0, max_value=2**32), label="pool_seed")
        vertices = random.Random(pool_seed).sample(range(n), size)
        if vertices and draw(st.booleans(), label="repeat"):
            vertices.append(vertices[pool_seed % len(vertices)])
    return n, budget, seed, vertices


class TestReferenceAgreement:
    @given(_sim_cases(), st.none() | st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_greedy(self, case, scan_seed):
        n, budget, seed, vertices = case
        got = _outcome(n, seed, lambda g: greedy_clique(g, budget, vertices, scan_seed))
        want = _outcome(n, seed, lambda g: _reference_greedy(g, budget, vertices, scan_seed))
        assert got == want

    @given(_sim_cases(), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_batched(self, case, ell, strategy_seed):
        n, budget, seed, vertices = case

        def run(make):
            return lambda g: run_l_adaptive(
                g, make(n, strategy_seed, budget, ell, vertices), 1.0, ell, budget=budget)

        got = _outcome(n, seed, run(BatchedGreedyStrategy))
        want = _outcome(n, seed, run(_reference_batched))
        assert got == want

    @pytest.mark.parametrize("runner,reference", [
        (greedy_block_runner, _reference_greedy_block_runner),
        (batched_block_runner, _reference_batched_block_runner),
    ])
    @given(case=_sim_cases(), ell=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_amplified(self, runner, reference, case, ell):
        n, budget, seed, _ = case
        # floor(n ** delta) is the drawn budget up to float rounding, and the
        # same delta goes to both runs
        delta = math.log(budget) / math.log(n)
        got = _outcome(n, seed, lambda g: amplify(runner, g, delta, ell))
        want = _outcome(n, seed, lambda g: amplify(reference, g, delta, ell))
        assert got == want
