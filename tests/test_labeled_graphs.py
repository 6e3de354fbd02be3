import collections
import hashlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import labeled_graphs
from cqlab.common import INFINITE, as_fraction
from cqlab.errors import InstanceTooLarge
from cqlab.labeled_graphs import (
    FOUR_LABEL,
    LEX_INFINITE,
    THREE_LABEL,
    TWO_LABEL,
    CriticalReport,
    EdgeLabeling,
    Matching,
    _exchange_has_negative_cycle,
    _weight_table,
    anti_lex_min_matching,
    construction_blocks,
    construction_min_ratio_analytic,
    count_critical,
    e_switch,
    is_critical,
    label_weight,
    labeling_from_text,
    labeling_to_text,
    lex_rank,
    m_pair,
    make_construction,
    matching_from_text,
    matching_to_text,
    min_critical_matching_bruteforce,
    random_labeling,
    switch_local_search,
)
from cqlab.partition_bounds import default_epsilon


# --- independent oracles kept inside the tests -----------------------------

def oracle_critical(labeling, matching, u, v):
    """Definition transcribed directly: an edge is critical when a matching
    edge covering one of its endpoints has a strictly larger label."""
    lab = labeling.label(u, v)
    for a, b in matching.edges:
        if u in (a, b) or v in (a, b):
            if labeling.label(a, b) > lab:
                return True
    return False


def oracle_count(labeling, matching):
    total = 0
    medges = set(matching.edges)
    for u in range(1, labeling.n + 1):
        for v in range(u + 1, labeling.n + 1):
            if (u, v) in medges:
                continue
            if oracle_critical(labeling, matching, u, v):
                total += 1
    return total


def per_pair_count_critical(labeling, matching):
    """count_critical as it read every label through labeling.label(u, v),
    one checked call per pair; the reference for the list-reading version."""
    partner = matching.partner_map()
    edge_label = {}
    clazz = {}
    for a, b in matching.edges:
        lv = labeling.label(a, b)
        edge_label[a] = edge_label[b] = lv
        clazz.setdefault(lv, set()).update((a, b))
    total = outward = inner = 0
    per_class = {lv: 0 for lv in clazz}
    medges = set(matching.edges)
    for u, v in labeling.pairs():
        if (u, v) in medges:
            continue
        cu = u in partner
        cv = v in partner
        if not (cu or cv):
            continue
        lab = labeling.label(u, v)
        crit = (cu and edge_label[u] > lab) or (cv and edge_label[v] > lab)
        if not crit:
            continue
        total += 1
        if cu and cv:
            inner += 1
            if edge_label[u] == edge_label[v]:
                per_class[edge_label[u]] += 1
        else:
            outward += 1
    denom = math.comb(2 * matching.size, 2)
    return CriticalReport(critical_count=total, outward_count=outward, inner_count=inner,
                          denominator=denom, ratio=Fraction(total, denom),
                          per_label_class=per_class)


def oracle_all_matchings(n, size):
    """Itertools-based matching enumeration, independent of the library's."""
    verts = range(1, n + 1)
    for chosen in itertools.combinations(verts, 2 * size):
        rest = list(chosen)

        def pairings(pool):
            if not pool:
                yield ()
                return
            head, *tail = pool
            for i, other in enumerate(tail):
                for sub in pairings(tail[:i] + tail[i + 1:]):
                    yield ((head, other),) + sub

        yield from pairings(rest)


LEX4 = EdgeLabeling.lexicographic(4)
M_14_23 = Matching(((1, 4), (2, 3)))
M_12_34 = Matching(((1, 2), (3, 4)))


class TestIsCritical:
    def test_hand_example_true(self):
        assert is_critical(LEX4, M_14_23, 1, 2) is True

    def test_hand_example_false(self):
        assert is_critical(LEX4, M_14_23, 3, 4) is False

    def test_constant_labels_never_critical(self):
        lab = EdgeLabeling.constant(6, num_labels=1)
        m = Matching(((1, 2), (3, 4), (5, 6)))
        for u in range(1, 7):
            for v in range(u + 1, 7):
                if (u, v) not in m.edges:
                    assert is_critical(lab, m, u, v) is False

    def test_rejects_loops_and_matching_edges(self):
        with pytest.raises(ValueError):
            is_critical(LEX4, M_14_23, 2, 2)
        with pytest.raises(ValueError):
            is_critical(LEX4, M_14_23, 1, 4)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_covered_pairs_match_two_sided_reading(self, seed):
        # on pairs with both endpoints covered, "some covering edge larger"
        # equals "label below the max of the two covering labels"
        rng = random.Random(seed)
        n = rng.choice([4, 6, 8])
        lab = random_labeling(n, rng.choice([2, 3, 4]), seed=seed)
        m = Matching(tuple((2 * i + 1, 2 * i + 2) for i in range(n // 2)))
        partner = m.partner_map()
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) in m.edges:
                    continue
                two_sided = lab.label(u, v) < max(
                    lab.label(u, partner[u]), lab.label(v, partner[v])
                )
                assert is_critical(lab, m, u, v) == two_sided


class TestCountCritical:
    def test_lex4_examples(self):
        rep = count_critical(LEX4, M_14_23)
        assert rep.critical_count == 2
        assert rep.ratio == Fraction(2, 6)
        assert count_critical(LEX4, M_12_34).critical_count == 4

    def test_single_label_zero(self):
        lab = EdgeLabeling.constant(6, num_labels=1)
        rep = count_critical(lab, Matching(((1, 2), (3, 4), (5, 6))))
        assert rep.critical_count == 0

    def test_split_into_outward_and_inner(self):
        lab = random_labeling(8, 3, seed=5)
        m = Matching(((1, 2), (3, 4)))  # partial: vertices 5..8 uncovered
        rep = count_critical(lab, m)
        assert rep.critical_count == rep.outward_count + rep.inner_count
        assert rep.denominator == 6
        assert rep.critical_count == oracle_count(lab, m)

    def test_per_label_class_keys(self):
        lab = make_construction(THREE_LABEL, 8)
        m, rep = min_critical_matching_bruteforce(lab, 4)
        labels_in_m = {lab.label(u, v) for u, v in m.edges}
        assert set(rep.per_label_class) == labels_in_m

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_instances(self, seed):
        rng = random.Random(seed)
        n = rng.choice([4, 5, 6, 7, 8])
        size = rng.randint(1, n // 2)
        ell = rng.choice([1, 2, 3, INFINITE])
        lab = random_labeling(n, ell, seed=seed)
        verts = rng.sample(range(1, n + 1), 2 * size)
        m = Matching(tuple(zip(verts[0::2], verts[1::2])))
        assert count_critical(lab, m).critical_count == oracle_count(lab, m)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_report_from_is_critical(self, seed):
        # the whole report rebuilt from is_critical on every non-matching
        # pair, on random partial matchings: inner pairs have both ends
        # covered, and a per-class pair has both ends on edges of one label
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        lab = random_labeling(n, rng.choice([1, 2, 3, 4, INFINITE]), seed=seed)
        verts = rng.sample(range(1, n + 1), 2 * rng.randint(1, n // 2))
        m = Matching(tuple(zip(verts[0::2], verts[1::2])))
        cover = {w: lab.label(a, b) for a, b in m.edges for w in (a, b)}
        total = inner = 0
        per_class = dict.fromkeys((lab.label(a, b) for a, b in m.edges), 0)
        for u, v in itertools.combinations(range(1, n + 1), 2):
            if (u, v) not in m.edges and is_critical(lab, m, u, v):
                total += 1
                if u in cover and v in cover:
                    inner += 1
                    if cover[u] == cover[v]:
                        per_class[cover[u]] += 1
        rep = count_critical(lab, m)
        assert (rep.critical_count, rep.inner_count, rep.outward_count) == (
            total, inner, total - inner)
        assert rep.per_label_class == per_class

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_report_equals_per_pair_reference(self, seed):
        # every field, and the per-class keys in the same order, on random
        # labelings of K_2..K_14 (constructions included) and random partial
        # or perfect matchings
        rng = random.Random(seed)
        n = rng.randint(2, 14)
        ell = rng.choice([1, 2, 3, 4, INFINITE])
        if n >= 12 and rng.random() < 0.3:
            lab = make_construction(rng.choice([TWO_LABEL, THREE_LABEL, FOUR_LABEL]), n)
        else:
            lab = random_labeling(n, ell, seed=seed)
        verts = rng.sample(range(1, n + 1), 2 * rng.randint(1, n // 2))
        m = Matching(tuple(zip(verts[0::2], verts[1::2])))
        rep, ref = count_critical(lab, m), per_pair_count_critical(lab, m)
        assert rep == ref
        assert list(rep.per_label_class.items()) == list(ref.per_label_class.items())


class TestPairAndSwitch:
    def test_m_pair_examples(self):
        assert m_pair(M_14_23, (1, 2)) == (3, 4)
        assert m_pair(M_12_34, (1, 3)) == (2, 4)
        assert m_pair(M_12_34, (1, 4)) == (2, 3)

    def test_m_pair_involution(self):
        for e in ((1, 2), (1, 3), (2, 4), (3, 4)):
            assert m_pair(M_14_23, m_pair(M_14_23, e)) == tuple(sorted(e))

    def test_m_pair_uncovered_endpoint(self):
        m = Matching(((1, 2), (3, 4)))
        with pytest.raises(ValueError, match="uncovered"):
            m_pair(m, (1, 5))

    def test_e_switch_examples(self):
        assert e_switch(M_14_23, (1, 2)).edges == ((1, 2), (3, 4))
        assert e_switch(M_12_34, (1, 3)).edges == ((1, 3), (2, 4))

    def test_e_switch_size_preserved_and_undone(self):
        rng = random.Random(0)
        for _ in range(50):
            n = rng.choice([6, 8, 10])
            verts = rng.sample(range(1, n + 1), n)
            m = Matching(tuple(zip(verts[0::2], verts[1::2])))
            partner = m.partner_map()
            u, v = rng.sample(range(1, n + 1), 2)
            if partner.get(u) == v:
                continue
            e = (min(u, v), max(u, v))
            m2 = e_switch(m, e)
            assert m2.size == m.size
            # switching back on either removed edge restores the original
            removed = sorted(set(m.edges) - set(m2.edges))
            assert e_switch(m2, removed[0]) == m


class TestLabelWeight:
    def test_paper_values(self):
        eps = Fraction(1, 8)
        assert label_weight(1, eps, 4) == 0
        assert label_weight(2, eps, 4) == 1
        assert label_weight(3, eps, 4) == 2 + eps
        assert label_weight(4, eps, 4) == 4 + 2 * eps + eps**2
        assert label_weight(5, eps, INFINITE) == 8 + 4 * eps + 2 * eps**2 + eps**3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            label_weight(0, Fraction(1, 8), 4)
        with pytest.raises(ValueError):
            label_weight(5, Fraction(1, 8), 4)

    def test_more_than_doubles(self):
        eps = Fraction(1, 16)
        for t in range(2, 9):
            assert label_weight(t, eps, 10) > 2 * label_weight(t - 1, eps, 10)


class TestBruteForceMinimum:
    def test_lex4_minimum(self):
        m, rep = min_critical_matching_bruteforce(LEX4, 2)
        assert m.edges == ((1, 4), (2, 3))
        assert rep.critical_count == 2

    def test_single_label_all_zero_lex_tiebreak(self):
        # K_10 with 4 edges has 4725 matchings, more than one scan chunk
        for n, size in ((8, 3), (10, 4)):
            lab = EdgeLabeling.constant(n, num_labels=1)
            m, rep = min_critical_matching_bruteforce(lab, size)
            assert rep.critical_count == 0
            # all counts tie at 0: the lexicographically smallest edge list wins
            assert m.edges == tuple((2 * i + 1, 2 * i + 2) for i in range(size))

    def test_cap_guard(self, monkeypatch):
        # without the override the default cap holds, and the guard fires
        # before any matching is enumerated
        monkeypatch.delenv("CQLAB_BRUTE_CAP", raising=False)
        n = labeled_graphs.DEFAULT_MATCHING_CAP + 1
        lab = EdgeLabeling.constant(n, num_labels=1)
        with pytest.raises(InstanceTooLarge, match=f"instance too large: N={n}"):
            min_critical_matching_bruteforce(lab, 3)
        with pytest.raises(InstanceTooLarge, match=f"instance too large: N={n}"):
            anti_lex_min_matching(EdgeLabeling.lexicographic(n), 3)

    def test_cap_env_override(self, monkeypatch):
        lab = EdgeLabeling.constant(8, num_labels=1)
        monkeypatch.setenv("CQLAB_BRUTE_CAP", "7")
        with pytest.raises(InstanceTooLarge, match="instance too large"):
            min_critical_matching_bruteforce(lab, 3)
        monkeypatch.setenv("CQLAB_BRUTE_CAP", "8")
        min_critical_matching_bruteforce(lab, 3)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_matches_itertools_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.choice([4, 5, 6, 7, 8])
        size = rng.randint(1, n // 2)
        lab = random_labeling(n, rng.choice([2, 3, INFINITE]), seed=seed)
        counts = {m: oracle_count(lab, Matching(m)) for m in oracle_all_matchings(n, size)}
        best = min(counts.values())
        m, rep = min_critical_matching_bruteforce(lab, size)
        assert rep.critical_count == best
        # ties break to the first minimiser in sorted-edge-list order
        assert m.edges == min(e for e, c in counts.items() if c == best)

    def test_two_label_n8_value(self):
        lab = make_construction(TWO_LABEL, 8)
        m, rep = min_critical_matching_bruteforce(lab, 4)
        assert rep.critical_count == 8  # = N^2/8 exactly at this size
        assert rep.ratio == Fraction(2, 7)
        assert rep.ratio <= Fraction(1, 4) + Fraction(2, 8)


class TestAntiLex:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_lex_labeling_pattern(self, n):
        lab = EdgeLabeling.lexicographic(n)
        m = anti_lex_min_matching(lab, n // 2)
        assert m.edges == tuple((i, n + 1 - i) for i in range(1, n // 2 + 1))

    def test_size_one_takes_smallest_rank(self):
        lab = EdgeLabeling.lexicographic(4)
        m = anti_lex_min_matching(lab, 1)
        assert m.edges == ((1, 2),)  # rank 1

    def test_requires_infinite_mode(self):
        with pytest.raises(ValueError):
            anti_lex_min_matching(EdgeLabeling.constant(4, 2), 2)

    def test_antilex_beats_all_on_top_rank(self):
        lab = random_labeling(8, INFINITE, seed=3)
        m = anti_lex_min_matching(lab, 4)
        key = sorted((lab.label(u, v) for u, v in m.edges), reverse=True)
        for other in oracle_all_matchings(8, 4):
            okey = sorted((lab.label(u, v) for u, v in other), reverse=True)
            assert key <= okey


class TestProp23Identities:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_multiplicity_identity(self, n):
        # each matching edge (u, v) makes exactly u+v-3 edges critical with
        # multiplicity, for the lexicographic labeling and any perfect matching
        lab = EdgeLabeling.lexicographic(n)
        for m in oracle_all_matchings(n, n // 2):
            mm = Matching(m)
            partner = mm.partner_map()
            mult = 0
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if (u, v) in mm.edges:
                        continue
                    r = lab.label(u, v)
                    mult += sum(
                        1
                        for w in (u, v)
                        if lab.label(w, partner[w]) > r
                    )
            assert mult == sum(u + v - 3 for u, v in mm.edges)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_antilex_critical_cap(self, n):
        lab = EdgeLabeling.lexicographic(n)
        m = anti_lex_min_matching(lab, n // 2)
        rep = count_critical(lab, m)
        cap = (n * (n - 1) // 2 - n // 2) / 2
        assert rep.critical_count <= cap
        assert rep.outward_count == 0


class TestLocalSearch:
    def test_single_label_trivial(self):
        lab = EdgeLabeling.constant(8, num_labels=1)
        m = switch_local_search(lab, 3, seed=1)
        assert count_critical(lab, m).critical_count == 0

    def test_lex8_no_outward(self):
        lab = EdgeLabeling.lexicographic(8)
        m = switch_local_search(lab, 4, seed=5)
        assert count_critical(lab, m).outward_count == 0

    def test_three_label_ratio(self):
        lab = make_construction(THREE_LABEL, 16)
        m = switch_local_search(lab, 8, seed=1)
        rep = count_critical(lab, m)
        assert rep.ratio <= Fraction(3, 8) + Fraction(4, 16)

    def test_bad_epsilon_rejected(self):
        lab = make_construction(THREE_LABEL, 8)
        with pytest.raises(ValueError, match="epsilon"):
            switch_local_search(lab, 4, epsilon=10, seed=0)

    def test_general_cycle_switch_fires(self):
        # crafted so that from the start {12, 34, 56} (which seed 28's initial
        # matching reproduces) no outward or pair switch improves, and only
        # the three-edge alternating-cycle switch reaches the optimum
        cheap = {(2, 3), (4, 5), (1, 6)}
        start = {(1, 2), (3, 4), (5, 6)}
        labels = {}
        for u in range(1, 7):
            for v in range(u + 1, 7):
                e = (u, v)
                labels[e] = 1 if e in cheap else (2 if e in start else 3)
        lab = EdgeLabeling(6, 3, labels)
        m = switch_local_search(lab, 3, seed=28)
        assert set(m.edges) == cheap
        assert count_critical(lab, m).critical_count == 0

    def test_postconditions_random_battery(self):
        # zero outward critical edges, and no partner-pair of critical edges
        # spanning two label classes
        rng = random.Random(99)
        for i in range(12):
            n = rng.choice([6, 8, 10, 12])
            ell = rng.choice([2, 3, 4])
            size = rng.randint(2, n // 2)
            lab = random_labeling(n, ell, seed=1000 + i)
            m = switch_local_search(lab, size, seed=i)
            rep = count_critical(lab, m)
            assert rep.outward_count == 0
            partner = m.partner_map()
            elab = {v: lab.label(a, b) for a, b in m.edges for v in (a, b)}
            for u in partner:
                for v in partner:
                    if u < v and partner[u] != v:
                        if elab[u] == elab[v]:
                            continue
                        e = (u, v)
                        ep = m_pair(m, e)
                        assert not (
                            is_critical(lab, m, *e) and is_critical(lab, m, *ep)
                        )


class TestWeightTable:
    @pytest.mark.parametrize("max_label", [1, 2, 3, 4, 45, 91, 120])
    def test_equals_scaled_label_weight(self, max_label):
        epsilons = [default_epsilon(ell) for ell in range(2, 7)] + [Fraction(1, 64), Fraction(3, 7)]
        for eps in epsilons:
            wint = _weight_table(max_label, eps)
            assert len(wint) == max_label + 1 and wint[0] == 0
            scale = Fraction(eps.denominator) ** (max_label - 2)
            for t in range(1, max_label + 1):
                exact = label_weight(t, eps, INFINITE) * scale
                assert exact.denominator == 1
                assert wint[t] == int(exact)

    def test_nonpositive_epsilon_rejected(self):
        lab = EdgeLabeling.lexicographic(8)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            switch_local_search(lab, 4, epsilon=0)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            switch_local_search(lab, 4, epsilon="-1/4")


# --- the exchange-digraph certificate against itertools oracles -----------

def weight_matrix(lab, eps):
    """1-based integer weights by vertex pair, read through label()."""
    wint = _weight_table(lab.n * (lab.n - 1) // 2 if lab.num_labels == INFINITE
                         else lab.num_labels, eps)
    W = [[0] * (lab.n + 1) for _ in range(lab.n + 1)]
    for u, v in lab.pairs():
        W[u][v] = W[v][u] = wint[lab.label(u, v)]
    return W


def oracle_improving_cycle(W, edges, wm):
    """Every ordered, oriented sequence of >= 2 distinct matching edges, each
    left by its second endpoint and joined to the next one's first endpoint
    (cyclically): is any switch cheaper than the edges it removes?"""
    k = len(edges)
    for r in range(2, k + 1):
        for seq in itertools.permutations(range(k), r):
            for flips in itertools.product((False, True), repeat=r):
                ends = [edges[j][::-1] if f else edges[j] for j, f in zip(seq, flips)]
                change = sum(W[ends[i - 1][1]][ends[i][0]] - wm[seq[i]] for i in range(r))
                if change < 0:
                    return True
    return False


def oracle_negative_digraph_cycle(W, edges, wm):
    """Every simple directed cycle of the exchange digraph, each listed once
    from its smallest node: is any of them negative?"""
    nodes = [(j, a, b) for j, (c, d) in enumerate(edges) for a, b in ((c, d), (d, c))]
    for s in range(len(nodes)):
        rest = range(s + 1, len(nodes))
        for r in range(1, len(rest) + 1):
            for tail in itertools.permutations(rest, r):
                cyc = [nodes[s]] + [nodes[i] for i in tail]
                if any(cyc[i - 1][0] == cyc[i][0] for i in range(len(cyc))):
                    continue
                if sum(W[cyc[i - 1][2]][cyc[i][1]] - wm[cyc[i][0]] for i in range(len(cyc))) < 0:
                    return True
    return False


def certificate_draws(count, seed, max_k=5):
    """Per draw, a random matching and the local-search optimum from it:
    random matchings nearly always improve, optima nearly never do."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(2, max_k)
        n = rng.randint(2 * k, 10)
        ell = rng.choice([2, 3, 4, INFINITE])
        lab = random_labeling(n, ell, seed=rng.randrange(1 << 20))
        verts = rng.sample(range(1, n + 1), 2 * k)
        W = weight_matrix(lab, default_epsilon(ell))
        for edges in ([tuple(sorted(verts[i:i + 2])) for i in range(0, 2 * k, 2)],
                      list(switch_local_search(lab, k, seed=rng.randrange(1 << 20)).edges)):
            yield W, edges, [W[a][b] for a, b in edges]


# a local-search optimum whose exchange digraph has a negative closed walk
# that reuses a matching edge, so the DFS runs and finds no improving cycle
EXHAUSTS = (6, 3, 481)  # (n, ell, seed of the labeling and of the search)


class TestExchangeCertificate:
    def test_agrees_with_cycle_oracle(self):
        outcomes = collections.Counter()
        for W, edges, wm in certificate_draws(100, seed=5):
            negative = _exchange_has_negative_cycle(W, edges, wm)
            improving = oracle_improving_cycle(W, edges, wm)
            # no negative cycle => no improving alternating cycle, and an
            # improving alternating cycle => a negative cycle
            assert negative or not improving
            # on two matching edges every closed walk splits into 2-cycles,
            # which are switches, so there the certificate is exact
            assert improving or not negative or len(edges) >= 3
            outcomes[negative, improving] += 1
        assert outcomes[True, True] > 0 and outcomes[False, False] > 0

    def test_exact_on_small_digraphs(self):
        # Bellman-Ford decides negative cycles exactly, not just soundly
        for W, edges, wm in certificate_draws(30, seed=6, max_k=4):
            assert _exchange_has_negative_cycle(W, edges, wm) == \
                oracle_negative_digraph_cycle(W, edges, wm)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_slowest_settling_path(self, k):
        # one arc of cost -1 per step of the node path 2k-2, ..., 2, 0,
        # 2k-1, ..., 3, 1 and cost 90 elsewhere: no negative cycle, but the
        # relaxation (by source node) settles the path only in round 2k - 2
        edges = [(2 * j + 1, 2 * j + 2) for j in range(k)]
        W = [[0 if u == v else 100 for v in range(2 * k + 1)] for u in range(2 * k + 1)]
        for a, b in edges:
            W[a][b] = W[b][a] = 10
        path = list(range(2 * k - 2, -1, -2)) + list(range(2 * k - 1, 0, -2))
        leave = [b for c, d in edges for b in (d, c)]  # node 2j enters at c
        enter = [a for c, d in edges for a in (c, d)]
        for s, t in zip(path, path[1:]):
            W[leave[s]][enter[t]] = 9
        wm = [W[a][b] for a, b in edges]
        assert not _exchange_has_negative_cycle(W, edges, wm)
        assert not oracle_improving_cycle(W, edges, wm)

    def test_negative_walk_without_improving_cycle(self):
        n, ell, seed = EXHAUSTS
        lab = random_labeling(n, ell, seed=seed)
        edges = list(switch_local_search(lab, n // 2, seed=seed).edges)
        assert edges == [(1, 5), (2, 3), (4, 6)]
        W = weight_matrix(lab, default_epsilon(ell))
        wm = [W[a][b] for a, b in edges]
        assert _exchange_has_negative_cycle(W, edges, wm)
        assert oracle_negative_digraph_cycle(W, edges, wm)
        assert not oracle_improving_cycle(W, edges, wm)

    def test_every_route_is_reached(self, monkeypatch):
        # routes of the cycle move: the certificate ends the search, the DFS
        # finds an improving cycle, or the DFS finds none (the negative cycle
        # reuses a matching edge) and the search ends there
        calls = []

        def spy(W, edges, wm):
            calls.append(_exchange_has_negative_cycle(W, edges, wm))
            return calls[-1]

        monkeypatch.setattr(labeled_graphs, "_exchange_has_negative_cycle", spy)
        rng = random.Random(7)
        searches = [(make_construction(kind, 12), 6, seed)
                    for kind in (TWO_LABEL, THREE_LABEL, FOUR_LABEL, LEX_INFINITE)
                    for seed in range(3)]
        for i in range(40):
            n = rng.choice([8, 10, 12])
            lab = random_labeling(n, rng.choice([2, 3, 4, INFINITE]), seed=i)
            searches.append((lab, rng.randint(2, n // 2), i))
        n, ell, seed = EXHAUSTS
        searches.append((random_labeling(n, ell, seed=seed), n // 2, seed))
        routes = collections.Counter()
        for lab, size, seed in searches:
            calls.clear()
            switch_local_search(lab, size, seed=seed)
            routes["dfs_improves"] += sum(calls[:-1])
            routes["dfs_exhausts" if calls[-1] else "certificate"] += 1
        assert routes == {"certificate": 52, "dfs_improves": 4, "dfs_exhausts": 1}


def _golden_battery():
    runs = []
    for kind in (TWO_LABEL, THREE_LABEL, FOUR_LABEL, LEX_INFINITE):
        for n, size in ((10, 5), (12, 6), (14, 7)):
            if kind == FOUR_LABEL and n < 12:  # four labels need N >= 12
                continue
            lab = make_construction(kind, n)
            for seed in range(3):
                runs.append(((kind, n, size, seed), switch_local_search(lab, size, seed=seed).edges))
    rng = random.Random(5)
    for i in range(24):
        ell = (2, 3, 4, INFINITE)[i % 4]
        n = rng.choice((8, 10, 12))
        size = rng.randint(2, n // 2)
        lab_seed, ls_seed = rng.randrange(1000), rng.randrange(1000)
        lab = random_labeling(n, ell, lab_seed)
        key = ("random", n, size, "inf" if ell == INFINITE else str(ell), lab_seed, ls_seed)
        runs.append((key, switch_local_search(lab, size, seed=ls_seed).edges))
    return runs


class TestLocalSearchGolden:
    # recorded before the weight table and the exchange-digraph certificate
    # replaced the Fraction weights and the DFS-only cycle move
    DIGEST = "64208fb19e4174f58db21563176562a92eb12586bf04f85dc2186634565e4d6d"
    PINNED = {
        (TWO_LABEL, 10, 5, 0): ((1, 3), (2, 6), (4, 5), (7, 10), (8, 9)),
        (THREE_LABEL, 12, 6, 0): ((1, 5), (2, 10), (3, 11), (4, 8), (6, 9), (7, 12)),
        (FOUR_LABEL, 14, 7, 1): ((1, 13), (2, 9), (3, 10), (4, 6), (5, 7), (8, 12), (11, 14)),
        (LEX_INFINITE, 14, 7, 2): ((1, 14), (2, 13), (3, 12), (4, 11), (5, 10), (6, 9), (7, 8)),
        ("random", 12, 6, "3", 29, 860): ((1, 4), (2, 5), (3, 11), (6, 8), (7, 12), (9, 10)),
        ("random", 10, 3, "4", 664, 53): ((1, 9), (2, 4), (5, 8)),
        ("random", 10, 3, "inf", 780, 816): ((1, 2), (5, 9), (6, 8)),
    }

    def test_matchings_unchanged(self):
        runs = _golden_battery()
        assert len(runs) == 57
        got = dict(runs)
        for key, edges in self.PINNED.items():
            assert got[key] == edges
        digest = hashlib.sha256(repr([edges for _, edges in runs]).encode()).hexdigest()
        assert digest == self.DIGEST


def reference_switch_local_search(labeling, size, epsilon=None, seed=0):
    """The search as closures that edit the edge list in place, kept as the
    reference for the move functions: the order the edits leave the list in
    decides the next scan, so both must return the same edge tuple."""
    ell = labeling.num_labels
    eps = as_fraction(epsilon) if epsilon is not None else default_epsilon(ell)
    n = labeling.n
    max_label = labeling.n * (labeling.n - 1) // 2 if ell == INFINITE else int(ell)
    wint = _weight_table(max_label, eps)
    W = [[wint[t] for t in row] for row in labeling._m.tolist()]

    rng = random.Random(seed)
    verts = rng.sample(range(1, n + 1), 2 * size)
    edges = sorted(
        (min(a, b), max(a, b)) for a, b in zip(verts[0::2], verts[1::2])
    )

    def try_outward(es):
        covered = {v for e in es for v in e}
        free = [v for v in range(1, n + 1) if v not in covered]
        for a, b in es:
            wm = W[a][b]
            for x in (a, b):
                Wx = W[x]
                for c in free:
                    if Wx[c] < wm:
                        es.remove((a, b))
                        es.append((min(x, c), max(x, c)))
                        return True
        return False

    def try_pair_switch(es):
        k = len(es)
        for i in range(k):
            a, b = es[i]
            for j in range(i + 1, k):
                c, d = es[j]
                base = W[a][b] + W[c][d]
                for e1, e2 in (((a, c), (b, d)), ((a, d), (b, c))):
                    if W[e1[0]][e1[1]] + W[e2[0]][e2[1]] < base:
                        del es[j]
                        del es[i]
                        es.append((min(e1), max(e1)))
                        es.append((min(e2), max(e2)))
                        return True
        return False

    def try_cycle(es):
        k = len(es)
        wm = [W[a][b] for a, b in es]
        if not labeled_graphs._exchange_has_negative_cycle(W, es, wm):
            return False
        total = sum(wm)
        order = sorted(range(k), key=lambda i: (es[i],))
        result = None

        def dfs(i0, a0, bcur, used, delta, remaining):
            nonlocal result
            Wb = W[bcur]
            if len(used) >= 2:
                closing = delta + Wb[a0]
                if closing < 0:
                    result = list(used)
                    return
            if delta - remaining >= 0:
                return
            for j in order:
                if j <= i0 or j in used_set:
                    continue
                c, d = es[j]
                for anext, bnext in ((c, d), (d, c)):
                    nd = delta + Wb[anext] - wm[j]
                    used.append((j, anext, bnext))
                    used_set.add(j)
                    dfs(i0, a0, bnext, used, nd, remaining - wm[j])
                    used_set.discard(j)
                    used.pop()
                    if result is not None:
                        return

        for i0 in order:
            a, b = es[i0]
            for a0, b0 in ((a, b), (b, a)):
                used_set = {i0}
                start = [(i0, a0, b0)]
                dfs(i0, a0, b0, start, -wm[i0], total - wm[i0])
                if result is not None:
                    chain = result
                    new_edges = [es[j] for j in range(k) if j not in {c[0] for c in chain}]
                    for (j1, a1, b1), (j2, a2, b2) in zip(chain, chain[1:]):
                        new_edges.append((min(b1, a2), max(b1, a2)))
                    last = chain[-1]
                    new_edges.append((min(last[2], chain[0][1]), max(last[2], chain[0][1])))
                    es[:] = new_edges
                    return True
        return False

    while try_outward(edges) or try_pair_switch(edges) or try_cycle(edges):
        pass
    return Matching(tuple(edges))


class TestLocalSearchAgreement:
    @given(st.integers(min_value=4, max_value=14), st.sampled_from([1, 2, 3, 4, INFINITE]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_in_place_reference(self, n, ell, data):
        # epsilon default_epsilon(ell) / k passes epsilon_check for k = 1..4
        size = data.draw(st.integers(min_value=1, max_value=n // 2))
        lab_seed, seed = data.draw(st.integers(0, 10**6)), data.draw(st.integers(0, 10**6))
        k = data.draw(st.sampled_from([None, 1, 2, 3, 4]))
        epsilon = None if k is None else default_epsilon(ell) / k
        lab = random_labeling(n, ell, seed=lab_seed)
        # the edge lists, in list order, that reach the cycle move
        seen = []

        def spy(W, edges, wm):
            seen.append(list(edges))
            return _exchange_has_negative_cycle(W, edges, wm)

        with mock.patch.object(labeled_graphs, "_exchange_has_negative_cycle", spy):
            got = switch_local_search(lab, size, epsilon=epsilon, seed=seed).edges
            got_seen, seen[:] = seen[:], []
            want = reference_switch_local_search(lab, size, epsilon=epsilon, seed=seed).edges
        assert got == want
        assert got_seen == seen

    def test_matches_reference_on_seeded_battery(self):
        # four labels at n = 10..14 run the cycle DFS most often: about one
        # search in forty there differs if a chain may step to a matching
        # edge listed before its first one
        rng = random.Random(24)
        for _ in range(500):
            n = rng.randint(10, 14)
            ell = rng.choice([3, 4, INFINITE])
            size = rng.randint(n // 4, n // 2)
            lab = random_labeling(n, ell, seed=rng.randrange(10**6))
            seed = rng.randrange(10**6)
            assert switch_local_search(lab, size, seed=seed).edges == \
                reference_switch_local_search(lab, size, seed=seed).edges


class TestConstructions:
    @pytest.mark.parametrize(
        "kind,n,blocks",
        [
            (TWO_LABEL, 8, (2, 6)),
            (THREE_LABEL, 16, (2, 4, 10)),
            (FOUR_LABEL, 24, (2, 4, 4, 14)),
            (TWO_LABEL, 10, (2, 8)),  # floor + remainder into the last block
        ],
    )
    def test_block_sizes(self, kind, n, blocks):
        assert construction_blocks(kind, n) == blocks
        assert make_construction(kind, n).blocks == blocks

    def test_two_label_labels(self):
        lab = make_construction(TWO_LABEL, 8)
        assert lab.label(1, 2) == 1  # inside block 1
        assert lab.label(3, 8) == 2  # inside block 2
        assert lab.label(1, 5) == 1  # across

    def test_three_label_labels(self):
        lab = make_construction(THREE_LABEL, 16)
        assert lab.label(1, 2) == 1  # inside U1
        assert lab.label(3, 4) == 1  # inside U2
        assert lab.label(1, 3) == 1  # U1-U2
        assert lab.label(7, 8) == 3  # inside U3
        assert lab.label(1, 7) == 1  # U1-U3
        assert lab.label(3, 7) == 2  # U2-U3

    def test_four_label_labels(self):
        lab = make_construction(FOUR_LABEL, 24)
        assert lab.label(1, 2) == 1  # inside A1
        assert lab.label(3, 4) == 1  # inside A2
        assert lab.label(1, 11) == 1  # A1-A4
        assert lab.label(3, 11) == 2  # A2-A4: the exception
        assert lab.label(3, 7) == 1  # A2-A3
        assert lab.label(7, 8) == 2  # inside A3
        assert lab.label(7, 11) == 3  # A3-A4
        assert lab.label(11, 12) == 4  # inside A4

    def test_lex_construction(self):
        lab = make_construction(LEX_INFINITE, 5)
        assert lab.num_labels == INFINITE
        assert lab.label(1, 2) == 1
        assert lab.label(4, 5) == 10

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            make_construction(FOUR_LABEL, 11)
        with pytest.raises(ValueError, match="too small"):
            make_construction(THREE_LABEL, 7)

    def test_analytic_ratios(self):
        assert construction_min_ratio_analytic(TWO_LABEL) == Fraction(1, 4)
        assert construction_min_ratio_analytic(THREE_LABEL) == Fraction(3, 8)
        assert construction_min_ratio_analytic(FOUR_LABEL) == Fraction(5, 12)
        assert construction_min_ratio_analytic(LEX_INFINITE) == Fraction(1, 2)

    def test_four_label_two_optimal_matchings_at_desk_scale(self):
        # the brute-force searcher exhibits (at least) two optimal perfect
        # matchings on the four-label construction; observed, not asserted
        # as a general claim
        lab = make_construction(FOUR_LABEL, 12)
        _, rep = min_critical_matching_bruteforce(lab, 6)
        best = rep.critical_count
        optima = []
        for edges in oracle_all_matchings(12, 6):
            mm = Matching(edges)
            if oracle_count(lab, mm) == best:
                optima.append(mm.edges)
                if len(optima) >= 2:
                    break
        assert len(optima) >= 2


class TestConstructionsPinned:
    # sha256 of labeling_to_text, recorded before the labelings were rewritten
    # as block-label tables; n = 13 and four labels at n = 16 leave a remainder
    PINNED = {
        (TWO_LABEL, 8): "ed70bbb43efe607d5e44a32fbbf502a252f895d15f0aa08433ecb5fd16a0dfaa",
        (TWO_LABEL, 13): "48f4418fe6814921b77779f4650266a81fb1667a29efb996bc05d8f85bc41773",
        (TWO_LABEL, 16): "39e8b9a9fe2a7063077cb9bd463c41ce4fef1ea161220a1fa0895180f2dcb62d",
        (TWO_LABEL, 24): "04dfcdd201b6c132bf5b29f9084c9cb2d2afa04671a6fa6459be0c158148c791",
        (THREE_LABEL, 8): "342bd03e33964914447e6d6f7e60b2fa617b73624ff54fc504dc4ce099b063be",
        (THREE_LABEL, 13): "a503f009db69ebf7cd3dbd8ecdfae18e67e88addf00da9d44a81a829a247f357",
        (THREE_LABEL, 16): "8375d612fbe5385ea83ef1c1d82031ef394b6e5984b2eac39fecded0528c5ece",
        (THREE_LABEL, 24): "8bcb0b0d869fef6e53b4a9ad5729755a275ba94deff686d23d34c9beeddbcaf7",
        (FOUR_LABEL, 12): "87a66abae2687822c0e9b4e936a67a003523b7fbddca21a8a886ac9d3a62dd9f",
        (FOUR_LABEL, 13): "8441940b7b9528df551bea5309c8c597d5de2f62264f6bbb180ef2098f3c08a6",
        (FOUR_LABEL, 16): "ff5cc6134b591c80d7c7c41723670301f9be1e863ff45f6a0afdde74d79a1381",
        (FOUR_LABEL, 24): "d68d94b7e59431db1513f72a99db89be371db8ba366b973cbb4001e6421c2820",
        (LEX_INFINITE, 8): "a3788bae7a24f5fee838899147976a112d9b0fe3de45faf6c2d75afafc41884e",
        (LEX_INFINITE, 13): "2aa24f5816839c4ef17766714657d5a922213e0e532cdb3c3056d003fee76e65",
        (LEX_INFINITE, 16): "f33c7f110462ca3ce3a01ede4d98a6004804ca9515a91d270ccab81f921379b7",
        (LEX_INFINITE, 24): "4cf8070ceedca832782a91e47a186c0a6b3c9f5e74093d95f601b0b496ef8a9a",
    }

    @pytest.mark.parametrize("kind,n", sorted(PINNED))
    def test_labels_unchanged(self, kind, n):
        text = labeling_to_text(make_construction(kind, n))
        assert hashlib.sha256(text.encode()).hexdigest() == self.PINNED[(kind, n)]


class TestRefusals:
    @pytest.mark.parametrize("labels,message", [
        ({(2, 1): 1, (1, 3): 1, (2, 3): 1}, r"bad pair \(2, 1\)"),
        ({(1, 2): 1, (1, 4): 1, (2, 3): 1}, r"bad pair \(1, 4\)"),
        ({(1, 2): 1, (1, 3): 3, (2, 3): 0}, r"labels out of 1\.\.2: \[0, 3\]"),
    ])
    def test_labeling_rejects(self, labels, message):
        with pytest.raises(ValueError, match=message):
            EdgeLabeling(3, 2, labels)

    @pytest.mark.parametrize("ell,big,message", [
        (2, 10**30, r"labels out of 1\.\.2: \[1000000000000000000000000000000\]"),
        (2, 2**63, r"labels out of 1\.\.2: \[9223372036854775808\]"),
        (2**70, 2**63, r"labels out of 1\.\.9223372036854775807: \[9223372036854775808\]"),
        (INFINITE, 2**63, "permutation of 1..C"),
        (INFINITE, 10**30, "permutation of 1..C"),
    ], ids=["finite-1e30", "finite-2^63", "ell-2^70", "infinite-2^63", "infinite-1e30"])
    def test_labels_past_int64_are_value_errors(self, ell, big, message):
        # checked on Python ints before the int64 matrix is built, so no
        # OverflowError escapes, for finite and infinite labelings alike
        with pytest.raises(ValueError, match=message):
            EdgeLabeling(3, ell, {(1, 2): big, (1, 3): 1, (2, 3): 2})

    def test_largest_int64_label_is_kept(self):
        top = 2**63 - 1
        lab = EdgeLabeling(3, 2**70, {(1, 2): top, (1, 3): 1, (2, 3): 2})
        assert lab.label(1, 2) == top and lab._rows[2][1] == top
        assert count_critical(lab, Matching(((1, 2),))).critical_count == 2

    def test_infinite_ranks_must_permute(self):
        with pytest.raises(ValueError, match="permutation of 1..C"):
            EdgeLabeling(3, INFINITE, {(1, 2): 1, (1, 3): 1, (2, 3): 3})

    def test_labeling_needs_two_vertices(self):
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            EdgeLabeling(1, 2, {})

    def test_matching_rejects_loop(self):
        with pytest.raises(ValueError, match=r"loop edge \(3, 3\)"):
            Matching(((1, 2), (3, 3)))

    def test_matching_rejects_shared_vertex(self):
        with pytest.raises(ValueError, match="vertex-disjoint"):
            Matching(((1, 2), (2, 3)))

    def test_lex_rank_rejects_bad_pair(self):
        with pytest.raises(ValueError, match=r"need 1 <= u < v <= 4, got \(3, 2\)"):
            lex_rank(3, 2, 4)

    def test_labeling_needs_a_label(self):
        with pytest.raises(ValueError, match="num_labels must be a positive int or INFINITE"):
            EdgeLabeling(2, 0, {(1, 2): 1})

    def test_label_rejects_bad_pair(self):
        with pytest.raises(ValueError, match=r"bad pair \(2, 2\)"):
            EdgeLabeling.constant(4).label(2, 2)

    @pytest.mark.parametrize("edges,message", [
        ((), "matching must be non-empty"),
        (((1, 2), (3, 4), (5, 6)), "matching too large for the vertex count"),
        (((1, 5),), r"matching edge \(1, 5\) outside 1\.\.4"),
    ])
    def test_matching_must_fit_labeling(self, edges, message):
        with pytest.raises(ValueError, match=message):
            count_critical(EdgeLabeling.constant(4), Matching(edges))

    @pytest.mark.parametrize("e,message", [
        ((3, 3), "endpoints coincide"),
        ((2, 1), "matching edges have no partner edge"),
    ])
    def test_m_pair_rejects(self, e, message):
        with pytest.raises(ValueError, match=message):
            m_pair(Matching(((1, 2), (3, 4))), e)

    def test_label_weight_rejects(self):
        with pytest.raises(ValueError, match=r"label 0 outside 1\.\.$"):
            label_weight(0, Fraction(1, 4), INFINITE)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            label_weight(2, 0, 3)

    @pytest.mark.parametrize("search", [
        min_critical_matching_bruteforce, anti_lex_min_matching, switch_local_search,
    ])
    def test_size_without_matchings(self, search):
        with pytest.raises(ValueError, match="no matchings of size 3 in K_4"):
            search(EdgeLabeling.lexicographic(4), 3)

    def test_construction_rejects(self):
        with pytest.raises(ValueError, match="unknown construction kind 'five'"):
            construction_blocks("five", 8)
        with pytest.raises(ValueError, match="need at least 2 vertices"):
            construction_blocks(LEX_INFINITE, 1)
        with pytest.raises(ValueError, match="unknown construction kind 'five'"):
            construction_min_ratio_analytic("five")

    def test_brute_cap_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("CQLAB_BRUTE_CAP", "ten")
        with pytest.raises(ValueError, match="CQLAB_BRUTE_CAP must be an integer, got 'ten'"):
            min_critical_matching_bruteforce(EdgeLabeling.constant(4), 2)


class TestSerialization:
    def test_labeling_roundtrip(self):
        for lab in (
            make_construction(TWO_LABEL, 8),
            EdgeLabeling.lexicographic(5),
            random_labeling(6, 3, seed=1),
        ):
            assert labeling_from_text(labeling_to_text(lab)) == lab

    def test_header_format(self):
        text = labeling_to_text(EdgeLabeling.lexicographic(4))
        assert text.splitlines()[0] == "4 inf"
        assert text.splitlines()[1] == "1 2 1"

    def test_matching_roundtrip(self):
        m = Matching(((1, 4), (2, 3)))
        assert matching_from_text(matching_to_text(m)) == m

    def test_matching_skips_blank_lines(self):
        assert matching_from_text("1 2\n\n3 4\n   \n").edges == ((1, 2), (3, 4))

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            labeling_from_text("")
        with pytest.raises(ValueError):
            labeling_from_text("4 2\n1 2 1\n")  # incomplete

    @pytest.mark.parametrize("text,message", [
        ("4\n", r"bad header '4', expected 'N ell'"),
        ("x 2\n", r"bad header 'x 2', expected 'N ell'"),
        ("3 2\n1 2\n", r"bad labeling line '1 2'"),
        ("3 2\n1 2 x\n", r"bad labeling line '1 2 x'"),
    ])
    def test_rejects_bad_lines(self, text, message):
        with pytest.raises(ValueError, match=message):
            labeling_from_text(text)

    @pytest.mark.parametrize("text,message", [
        ("1 2 3\n", r"bad matching line '1 2 3'"),
        ("1 2\n3\n", r"bad matching line '3'"),
        ("1 b\n", r"bad matching line '1 b'"),
    ])
    def test_matching_rejects_bad_lines(self, text, message):
        with pytest.raises(ValueError, match=message):
            matching_from_text(text)

    def test_rejects_repeated_pair(self):
        # complete without its last line, which would relabel (1, 2)
        with pytest.raises(ValueError, match=r"pair \(1, 2\) listed twice"):
            labeling_from_text("3 2\n1 2 1\n1 3 2\n2 3 1\n1 2 2\n")

    def test_lex_rank_closed_form(self):
        n = 7
        expect = 1
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                assert lex_rank(u, v, n) == expect
                expect += 1


class TestMonotoneApproach:
    def test_two_label_ratios_descend_to_quarter(self):
        ratios = []
        for n in (8, 12, 16):
            lab = make_construction(TWO_LABEL, n)
            _, rep = min_critical_matching_bruteforce(lab, n // 2)
            assert rep.ratio >= Fraction(1, 4) - Fraction(4, n)
            ratios.append(rep.ratio)
        gaps = [abs(r - Fraction(1, 4)) for r in ratios]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_three_label_ratios_descend_to_three_eighths(self):
        ratios = []
        for n in (8, 16):
            lab = make_construction(THREE_LABEL, n)
            _, rep = min_critical_matching_bruteforce(lab, n // 2)
            assert rep.ratio >= Fraction(3, 8) - Fraction(4, n)
            ratios.append(rep.ratio)
        assert abs(ratios[0] - Fraction(3, 8)) >= abs(ratios[1] - Fraction(3, 8))
