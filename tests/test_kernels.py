"""Kernel checks: the matching table against the itertools oracle of
tests/test_labeled_graphs.py (whose order a filter of every edge subset
cross-checks at n <= 8), and the certificate-first alternating kernels
against the uncapped walker cores and the itertools path oracle of
tests/test_alternating.py. There is one build of the kernels, so these
check the public entry points against the cores they call; a chain of 2,000
red edges checks that the walker is not recursive. beta's feasibility
predicate is checked against the path kernel it replaces, on random graphs
with x <= 5 and on cyclic digraphs without an alternating cycle. The dense F1/F2 batch
wrappers are checked against closed forms and one-alpha calls, F1 without
an f' root against f at the f'-argmin, and 16 dense solves against a digest
of their reprs. The certified windows of the f'-argmin and m1 searches are
checked against the windowless bisection written out here, on random points
and on each fallback route, and m1's evaluation count is bounded. The
matching scans are checked here against a digest of their outputs recorded
with the earlier partner-table scans. The minimum's table scan, and the
anti-lex scan, are checked on random labelings against count_critical over
every matching of that oracle (minimum) and a sort of every matching's
labels (anti-lex), at several chunk lengths; planted-twin block labelings,
whose scans skip twin-equivalent matchings, are checked the same way at
every size, and the twin classes against their definition. The minimum's
branch and bound, with no budget, is checked against the same oracle on
both kinds of labeling at every size and two label scales, and against the
table scan on twin-free K_14 and K_16; a budget of 0 answers nothing, the
twin rule's node count is pinned on a construction, and a twin-free
three-label K_12 passes its budget and gets the table scan's answer. The
ordered search of total orders is checked against the table scan on seeded
random total orders and every lexicographic K_n, n <= 16, at every size, in
random vertex orders too, on a pinned case whose first minimiser found is
not the first in lexicographic order, and by its node counts on the
lexicographic K_14 and K_16; the public entry answers every lexicographic
K_n by the search. Over the digest's battery and that K_12 the public
entry takes all three routes.
A fresh process bounds the peak memory of K_16 table scans, pruned and
full. Table scans on a cleared and on a warm block-table memo agree, the
kept tables are read-only, and K_16 scans keep none above the memo's row
cap. tests/test_labeled_graphs.py checks the public scans against itertools
oracles too.
"""
import collections
import contextlib
import gc
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import _kernels as K
from cqlab.bounds import DenseBoundQuery, dense_alpha_upper
from cqlab.common import INFINITE
from cqlab.errors import CyclePresent
from cqlab.alternating import (
    RedBlueGraph,
    build_even_k,
    build_odd_k,
    has_alternating_cycle,
    max_blue_in_alternating_path,
    red_partner,
)
from cqlab.labeled_graphs import (
    CONSTRUCTION_KINDS,
    FOUR_LABEL,
    LEX_INFINITE,
    EdgeLabeling,
    Matching,
    count_critical,
    make_construction,
    random_labeling,
)
from test_alternating import carrier_lists, oracle_paths
from test_labeled_graphs import oracle_all_matchings


@contextlib.contextmanager
def _no_gc():
    # a full collection of the whole suite's heap can take longer than a timed
    # block's budget; collect first, then keep the collector out of the block
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _itertools_matchings(n, m):
    # combinations of the sorted edge list come out in lexicographic order;
    # this filters all C(C(n, 2), m) of them, so it only cross-checks the
    # order of _oracle_matchings at small n
    edges = itertools.combinations(range(n), 2)
    return [c for c in itertools.combinations(edges, m)
            if len({v for e in c for v in e}) == 2 * m]


def _oracle_matchings(n, m):
    # every size-m matching of K_n, 0-based, in lexicographic order of the
    # sorted edge list; each oracle matching lists its edges by ascending
    # lower end, which is that order
    return sorted(tuple((u - 1, v - 1) for u, v in c) for c in oracle_all_matchings(n, m))


class TestMatchingTable:
    def test_oracle_order_equals_itertools(self):
        for n in range(2, 9):
            for m in range(1, n // 2 + 1):
                assert _oracle_matchings(n, m) == _itertools_matchings(n, m)

    def test_order_is_lexicographic(self):
        for n in range(2, 10):
            a, b = np.triu_indices(n, 1)
            for m in range(1, n // 2 + 1):
                table = K._matching_table(n, m)
                rows = [tuple(zip(a[row].tolist(), b[row].tolist())) for row in table]
                assert rows == _oracle_matchings(n, m)

    def test_counts(self):
        for n in range(2, 10):
            a, b = np.triu_indices(n, 1)
            for m in range(1, n // 2 + 1):
                table = K._matching_table(n, m)
                # C(n, 2m) vertex sets times (2m-1)!! perfect matchings of each
                rows = math.comb(n, 2 * m) * math.prod(range(1, 2 * m, 2))
                assert table.shape == (rows, m) == (len(_oracle_matchings(n, m)), m)
                assert table.dtype == np.int16
                # each row holds m ascending edge ids on 2m distinct vertices
                assert np.all(np.diff(table, axis=1) > 0)
                assert table.min() >= 0 and table.max() < len(a)
                verts = np.sort(np.concatenate((a[table], b[table]), axis=1), axis=1)
                assert np.all(np.diff(verts, axis=1) > 0)


def _scan_battery():
    # every construction kind at n 8-12 (the four-label one needs n >= 12),
    # and 100 seeded random labelings at n 4-12 with 2, 3, 4 or infinitely
    # many labels, a third of them scaled by 10^11 (labels past int32); each
    # labeling at every matching size
    labs = [make_construction(kind, n).matrix0() for kind in CONSTRUCTION_KINDS
            for n in range(8, 13) if kind != FOUR_LABEL or n == 12]
    rng = random.Random(2024)
    for i in range(100):
        n = rng.randint(4, 12)
        ell = rng.choice([2, 3, 4, INFINITE])
        lab = random_labeling(n, ell, seed=rng.randrange(10**6)).matrix0()
        labs.append(lab * 10**11 if i % 3 == 0 else lab)
    return [(lab, size) for lab in labs for size in range(1, lab.shape[0] // 2 + 1)]


def _oracle_minimum(lab, size):
    # count_critical's minimum over every size-`size` matching of lab, and
    # the first matching that takes it, 0-based, in lexicographic order
    matchings = _oracle_matchings(lab.n, size)
    counts = [count_critical(lab, Matching(tuple((u + 1, v + 1) for u, v in m))).critical_count
              for m in matchings]
    return min(counts), matchings[counts.index(min(counts))]


@st.composite
def _scan_cases(draw):
    # a random labeling of K_n, n 4-10, with 2, 3, 4 or infinitely many
    # labels, one of its matching sizes, a scale of 1 or 10^11 for the scan's
    # matrix (labels past int32; the order, so the answer, is the same)
    n = draw(st.integers(min_value=4, max_value=10))
    ell = draw(st.sampled_from([2, 3, 4, INFINITE]))
    lab = random_labeling(n, ell, seed=draw(st.integers(min_value=0, max_value=10**6)))
    return lab, draw(st.integers(min_value=1, max_value=n // 2)), draw(st.sampled_from([1, 10**11]))


@st.composite
def _planted_twin_cases(draw):
    # a block labeling of K_n, n 4-10: each vertex falls in one of at most
    # n-1 blocks, so some block holds two vertices, which are twins; the
    # label of (u, v) is a random symmetric rule over the blocks of u and v
    # with 2, 3 or 4 labels. A scale of 1 or 10^11 as in _scan_cases.
    n = draw(st.integers(min_value=4, max_value=10))
    nb = draw(st.integers(min_value=1, max_value=n - 1))
    block = draw(st.lists(st.integers(min_value=0, max_value=nb - 1), min_size=n, max_size=n))
    ell = draw(st.integers(min_value=2, max_value=4))
    rule = {}
    for p in range(nb):
        for q in range(p, nb):
            rule[p, q] = rule[q, p] = draw(st.integers(min_value=1, max_value=ell))
    labels = {(u + 1, v + 1): rule[block[u], block[v]]
              for u in range(n) for v in range(u + 1, n)}
    return EdgeLabeling(n, ell, labels), draw(st.sampled_from([1, 10**11]))


def _table_route(lab, size):
    # min_critical_scan's table scan alone, the route past the search's budget
    return K._table_scan(K._scan_terms(lab), K._twin_classes(lab), size)


def _chunked(scan, lab, size):
    # the scan's answers with chunks of 1, 5, 64 and the default _SCAN_ROWS
    # rows: at n <= 10 the default walks each run's tail of the (n-2, m-1)
    # table in one chunk, so only short ones carry a block's minimum across
    # chunks
    saved, out = K._SCAN_ROWS, []
    try:
        for rows in (1, 5, 64, saved):
            K._SCAN_ROWS = rows
            out.append(scan(lab, size))
    finally:
        K._SCAN_ROWS = saved
    return out


class TestMatchingScans:
    # sha256 of the battery's (count, argmin edges, anti-lex edges), recorded
    # with the partner-table scans the edge-id scans replaced
    BATTERY_DIGEST = "f54312112435e499898a7bc39fc3f94b525ab7e1c4230ab6c0aba3a7843896e7"

    def test_battery_digest(self):
        out = []
        for lab, size in _scan_battery():
            count, edges = K.min_critical_scan(lab, size)
            out.append((count, edges.tolist(), K.anti_lex_scan(lab, size).tolist()))
        assert len(out) == 444
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.BATTERY_DIGEST

    @given(_scan_cases())
    @settings(max_examples=30, deadline=None)
    def test_minimum_over_count_critical(self, case):
        # the inclusion-exclusion count's minimum and first minimiser equal
        # those of count_critical over every matching, in lexicographic order
        lab, size, scale = case
        best, first = _oracle_minimum(lab, size)
        for count, edges in _chunked(_table_route, lab.matrix0() * scale, size):
            assert count == best
            assert tuple(map(tuple, edges.tolist())) == first

    @given(_scan_cases())
    @settings(max_examples=40, deadline=None)
    def test_anti_lex_over_sorted_labels(self, case):
        # each matching's labels sorted largest first, compared as lists: the
        # first matching, in lexicographic order, with the smallest list
        lab, size, scale = case
        matchings = _oracle_matchings(lab.n, size)
        keys = [sorted((lab.label(u + 1, v + 1) for u, v in m), reverse=True) for m in matchings]
        for edges in _chunked(K.anti_lex_scan, lab.matrix0() * scale, size):
            assert tuple(map(tuple, edges.tolist())) == matchings[keys.index(min(keys))]

    @given(_planted_twin_cases())
    @settings(max_examples=20, deadline=None)
    def test_planted_twins_over_count_critical(self, case):
        # scans that skip twin-equivalent matchings keep the minimum and the
        # first minimiser of count_critical over every matching, at every size
        lab, scale = case
        assert K._twin_classes(lab.matrix0()).max() >= 0  # the scan prunes
        for size in range(1, lab.n // 2 + 1):
            best, first = _oracle_minimum(lab, size)
            for count, edges in _chunked(_table_route, lab.matrix0() * scale, size):
                assert count == best
                assert tuple(map(tuple, edges.tolist())) == first

    @pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads Linux VmHWM")
    def test_k16_memory(self):
        # A fresh process runs the table scan, the route past the search's
        # budget, on the two-label K_16 at sizes 7 (16,216,200 matchings)
        # and 8 (2,027,025), which the twin pruning leaves almost empty, and
        # on a seeded infinite-label K_16 at size 7, which has no twins and
        # so scans every matching. A table of every size-7 matching
        # alone takes 227 MB, and a scan that built one peaked at 275 MB. The
        # peak is the process's VmHWM: ru_maxrss of an exec'd child starts
        # from its parent's peak, which a full test run takes far past the
        # bound.
        code = ("import re; from cqlab import _kernels as K; "
                "from cqlab.common import INFINITE; "
                "from cqlab.labeled_graphs import make_construction, random_labeling; "
                "lab = make_construction('two', 16).matrix0(); "
                "inf = random_labeling(16, INFINITE, seed=16).matrix0(); "
                "scan = lambda m, size: K._table_scan(K._scan_terms(m), K._twin_classes(m), size); "
                "print(scan(lab, 7)[0], scan(lab, 8)[0], scan(inf, 7)[0], "
                "re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(K.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.split()
        assert out[:3] == ["24", "32", "6"]
        assert int(out[3]) < 120 * 1024


def _spy(monkeypatch, name):
    # the arguments after the terms and the vertex data (the twin classes,
    # or the ordered search's vertex order) of each call of `name`, a route
    # of min_critical_scan (_table_scan, _branch_and_bound or
    # _ordered_search), from here on, in call order
    route, calls = getattr(K, name), []

    def spy(terms, vertices, *args):
        calls.append(args)
        return route(terms, vertices, *args)

    monkeypatch.setattr(K, name, spy)
    return calls


class TestBranchAndBound:
    # the index-order search that answers min_critical_scan within its
    # budget on labelings that are not total orders

    @staticmethod
    def _search_agrees(lab):
        # with no budget, at every size and at scales 1 and 10^11, the
        # search keeps count_critical's minimum and first minimiser
        for size in range(1, lab.n // 2 + 1):
            best, first = _oracle_minimum(lab, size)
            for scale in (1, 10**11):
                m = lab.matrix0() * scale
                count, edges = K._branch_and_bound(K._scan_terms(m), K._twin_classes(m), size,
                                                   math.inf)
                assert count == best
                assert tuple(map(tuple, edges.tolist())) == first

    @given(_scan_cases())
    @settings(max_examples=20, deadline=None)
    def test_unlimited_over_count_critical(self, case):
        self._search_agrees(case[0])

    @given(_planted_twin_cases())
    @settings(max_examples=20, deadline=None)
    def test_planted_twins_unlimited_over_count_critical(self, case):
        lab, _ = case
        assert K._twin_classes(lab.matrix0()).max() >= 0  # the twin rule prunes
        self._search_agrees(lab)

    def test_twin_free_k14_k16_equal_the_table_scan(self):
        # seeded labelings without twins: K_14 with 2, 3, 4 and infinitely
        # many labels at sizes 5-7, and infinite-label K_16 at sizes 7 and 8,
        # where the table scan takes up to about half a second
        cases = [(random_labeling(14, ell, seed=s), size)
                 for s, ell in enumerate((2, 3, 4, INFINITE)) for size in (5, 6, 7)]
        cases += [(random_labeling(16, INFINITE, seed=16), 7)]
        cases += [(random_labeling(16, INFINITE, seed=s), 8) for s in (1, 2)]
        for lab, size in cases:
            terms, prev = K._scan_terms(lab.matrix0()), K._twin_classes(lab.matrix0())
            assert prev.max() < 0
            count, edges = K._table_scan(terms, prev, size)
            for got in (K._branch_and_bound(terms, prev, size, math.inf),
                        K.min_critical_scan(lab.matrix0(), size)):
                assert got[0] == count and got[1].tolist() == edges.tolist()

    def test_budget_zero_answers_nothing(self):
        # the empty prefix is the first node, so no budget below 1 answers
        labs = [make_construction(kind, 12).matrix0() for kind in CONSTRUCTION_KINDS]
        labs += [random_labeling(n, INFINITE, seed=n).matrix0() for n in (2, 3, 9)]
        for lab in labs:
            terms, prev = K._scan_terms(lab), K._twin_classes(lab)
            for size in range(1, lab.shape[0] // 2 + 1):
                assert K._branch_and_bound(terms, prev, size, 0) is None
                assert K._branch_and_bound(terms, prev, size, math.inf) is not None

    def test_twin_rule_prunes_at_every_depth(self):
        # The two-label K_14 at size 6 needs 24 nodes. Matching the lowest
        # vertex although its next lower twin was left uncovered makes it
        # 96, and dropping the twin rule altogether 262,791.
        lab = make_construction("two", 14).matrix0()
        terms, prev = K._scan_terms(lab), K._twin_classes(lab)
        count, edges = K._table_scan(terms, prev, 6)
        assert K._branch_and_bound(terms, prev, 6, 23) is None
        got = K._branch_and_bound(terms, prev, 6, 24)
        assert got[0] == count and got[1].tolist() == edges.tolist()

    def test_lex_k12_falls_back_to_the_table_scan(self, monkeypatch):
        # The index-order search needs 13,064 nodes on the lexicographic K_12
        # at size 6, against a budget of max(256, 10,395 // 128) = 256, so
        # it would fall back. The lexicographic labeling is a total order,
        # so the public entry takes the ordered search, which needs 191
        # nodes, and answers with the table scan's output without running it.
        lab = EdgeLabeling.lexicographic(12).matrix0()
        terms, prev = K._scan_terms(lab), K._twin_classes(lab)
        count, edges = K._table_scan(terms, prev, 6)
        assert K._branch_and_bound(terms, prev, 6, 13063) is None
        got = K._branch_and_bound(terms, prev, 6, 13064)
        assert got[0] == count and got[1].tolist() == edges.tolist()
        table = _spy(monkeypatch, "_table_scan")
        got = K.min_critical_scan(lab, 6)
        assert got[0] == count and got[1].tolist() == edges.tolist()
        assert table == []

    def test_twin_free_finite_labels_fall_back(self, monkeypatch):
        # A seeded three-label K_12 without twins needs 522 nodes at size 6,
        # against its budget of 256, so the public entry answers with the
        # table scan's output, from one table scan.
        lab = random_labeling(12, 3, seed=17).matrix0()
        terms, prev = K._scan_terms(lab), K._twin_classes(lab)
        assert prev.max() < 0
        count, edges = K._table_scan(terms, prev, 6)
        assert K._branch_and_bound(terms, prev, 6, 521) is None
        got = K._branch_and_bound(terms, prev, 6, 522)
        assert got[0] == count and got[1].tolist() == edges.tolist()
        table = _spy(monkeypatch, "_table_scan")
        got = K.min_critical_scan(lab, 6)
        assert got[0] == count and got[1].tolist() == edges.tolist()
        assert table == [(6,)]

    def test_every_route_is_reached(self, monkeypatch):
        # Over the digest battery and the three-label K_12 above, the
        # ordered search answers the 129 scans of total orders (the
        # lexicographic and the infinite-label random labelings), the
        # index-order search 315, 92 of them on labelings with twins, and
        # the table scan only the three-label K_12. No battery scan reaches
        # the table scan: its lexicographic K_8 to K_12 take the ordered
        # search, and its twin-free random K_11 and K_12 fit the budget.
        routes = collections.Counter()
        table, search = _spy(monkeypatch, "_table_scan"), _spy(monkeypatch, "_branch_and_bound")
        ordered = _spy(monkeypatch, "_ordered_search")
        cases = _scan_battery() + [(random_labeling(12, 3, seed=17).matrix0(), 6)]
        for lab, size in cases:
            for calls in (table, search, ordered):
                calls.clear()
            K.min_critical_scan(lab, size)
            assert len(search) + len(ordered) == 1
            route = "table" if table else "search" if search else "ordered"
            routes[route, K._twin_classes(lab).max() >= 0] += 1
        assert routes == {("ordered", False): 129, ("search", False): 223, ("search", True): 92,
                          ("table", False): 1}


class TestOrderedSearch:
    # the search that answers min_critical_scan within its budget on total
    # orders, heaviest vertex first, against the table scan

    @staticmethod
    def _agrees(lab, sizes, orders=None):
        # at each size the ordered search with no budget, in each order
        # (heaviest first by default), and the public entry give the table
        # scan's count and first minimiser
        terms, prev = K._scan_terms(lab), K._twin_classes(lab)
        for size in sizes:
            count, edges = K._table_scan(terms, prev, size)
            got = [K._ordered_search(terms, order, size, math.inf)
                   for order in orders or [K._heaviest_first(lab)]]
            for c, e in got + [K.min_critical_scan(lab, size)]:
                assert c == count and e.tolist() == edges.tolist()

    def test_random_total_orders_equal_the_table_scan(self):
        # seeded infinite-label K_n, n 3-14, at every size; a third of them
        # scaled by 10^11, past int32
        for n in range(3, 15):
            for seed in range(3):
                lab = random_labeling(n, INFINITE, seed=100 * n + seed).matrix0()
                self._agrees(lab * 10**11 if seed == 2 else lab, range(1, n // 2 + 1))

    def test_lex_is_answered_by_the_search(self, monkeypatch):
        # the lexicographic K_n, n <= 16, at every size: the public entry
        # runs no table scan, not even on K_16 at size 7, where the search
        # needs 6,100 nodes against a budget of 126,689
        for n in range(2, 17):
            lab = EdgeLabeling.lexicographic(n).matrix0()
            self._agrees(lab, range(1, n // 2 + 1))
        table = _spy(monkeypatch, "_table_scan")
        for n in range(2, 17):
            lab = EdgeLabeling.lexicographic(n).matrix0()
            for size in range(1, n // 2 + 1):
                K.min_critical_scan(lab, size)
        assert table == []

    def test_any_vertex_order_gives_the_same_answer(self):
        # the order changes only the speed: random vertex orders, the index
        # order and its reverse on random and lexicographic total orders
        rng = random.Random(29)
        for n in range(4, 13):
            lab = (EdgeLabeling.lexicographic(n) if n % 3 == 0
                   else random_labeling(n, INFINITE, seed=n)).matrix0()
            orders = [rng.sample(range(n), n) for _ in range(3)]
            orders += [list(range(n)), list(range(n))[::-1]]
            self._agrees(lab, range(1, n // 2 + 1), orders)

    def test_every_minimiser_is_kept(self):
        # The seeded infinite-label K_8 at size 4 has three minimisers. The
        # search, heaviest vertex first (5, 6, 1, 3, 0, 4, 2, 7), reaches
        # (0, 6), (1, 3), (2, 5), (4, 7) first; the first in lexicographic
        # order is (0, 1), (2, 5), (3, 4), (6, 7), which it must still return.
        lab = random_labeling(8, INFINITE, seed=3)
        matchings = _oracle_matchings(8, 4)
        counts = [count_critical(lab, Matching(tuple((u + 1, v + 1) for u, v in m))).critical_count
                  for m in matchings]
        assert counts.count(min(counts)) == 3
        first = matchings[counts.index(min(counts))]
        assert first == ((0, 1), (2, 5), (3, 4), (6, 7))
        assert K._heaviest_first(lab.matrix0()) == [5, 6, 1, 3, 0, 4, 2, 7]
        count, edges = K._ordered_search(K._scan_terms(lab.matrix0()),
                                         K._heaviest_first(lab.matrix0()), 4, math.inf)
        assert count == min(counts) and tuple(map(tuple, edges.tolist())) == first

    def test_node_counts(self):
        # the lexicographic K_14 at size 7 needs 818 nodes (141,377 in
        # index order) and K_16 at size 7 6,100
        for n, nodes in ((14, 818), (16, 6100)):
            lab = EdgeLabeling.lexicographic(n).matrix0()
            terms, order = K._scan_terms(lab), K._heaviest_first(lab)
            assert K._ordered_search(terms, order, 7, nodes - 1) is None
            assert K._ordered_search(terms, order, 7, nodes) is not None

    def test_budget_zero_answers_nothing(self):
        labs = [EdgeLabeling.lexicographic(12).matrix0()]
        labs += [random_labeling(n, INFINITE, seed=n).matrix0() for n in (2, 3, 9)]
        for lab in labs:
            terms, order = K._scan_terms(lab), K._heaviest_first(lab)
            for size in range(1, lab.shape[0] // 2 + 1):
                assert K._ordered_search(terms, order, size, 0) is None
                assert K._ordered_search(terms, order, size, math.inf) is not None

    def test_heaviest_first_sums_past_int64(self):
        # descending off-diagonal label sums, ties by index, any diagonal:
        # scaling every label by one positive factor keeps the order, also
        # when the row sums pass 2^63 (int64 sums would wrap)
        rng = np.random.default_rng(29)
        for n in (3, 8, 16):
            lab = EdgeLabeling.lexicographic(n).matrix0()
            p = rng.permutation(n)
            lab = lab[np.ix_(p, p)]
            np.fill_diagonal(lab, rng.integers(0, lab.max() + 1, n))
            sums = [int(lab[x].sum() - lab[x, x]) for x in range(n)]
            want = sorted(range(n), key=lambda x: (-sums[x], x))
            scale = (2**63 - 1) // int(lab.max())
            for m in (lab, lab * scale):
                assert K._heaviest_first(m) == want
        assert K._heaviest_first(np.array([[0, 5, 5], [5, 0, 5], [5, 5, 0]])) == [0, 1, 2]


def _twins_by_swap(lab):
    # each vertex's largest twin below it, or -1, from the definition: the
    # matrix with x and y swapped equals lab off the diagonal
    n = lab.shape[0]
    off = ~np.eye(n, dtype=bool)
    prev = [-1] * n
    for x, y in itertools.combinations(range(n), 2):  # the last x < y wins
        p = np.arange(n)
        p[[x, y]] = y, x
        if np.array_equal(lab[np.ix_(p, p)][off], lab[off]):
            prev[y] = x
    return prev


class TestTwinClasses:
    def test_construction_blocks_are_the_classes(self):
        # blocks are consecutive vertex ranges: each vertex's next lower
        # twin is the vertex before it, except at the start of a block
        for kind in set(CONSTRUCTION_KINDS) - {LEX_INFINITE}:
            for n in range(12 if kind == FOUR_LABEL else 8, 17):
                lab = make_construction(kind, n)
                starts = set(itertools.accumulate(lab.blocks[:-1], initial=0))
                want = [-1 if x in starts else x - 1 for x in range(n)]
                assert K._twin_classes(lab.matrix0()).tolist() == want

    def test_total_orders_have_none(self):
        for seed in range(5):
            lab = random_labeling(10, INFINITE, seed=seed).matrix0()
            assert K._twin_classes(lab).tolist() == [-1] * 10
        # the one pair of K_2 swaps onto itself
        assert K._twin_classes(np.array([[0, 1], [1, 0]])).tolist() == [-1, 0]

    def test_definition_with_any_diagonal(self):
        # planted block labelings with blocks in random positions and a
        # random diagonal, which no count reads
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            block = rng.integers(0, int(rng.integers(1, n + 1)), n)
            rule = rng.integers(1, 4, (n, n))
            lab = np.triu(rule + rule.T)[block][:, block]
            lab = np.maximum(lab, lab.T)
            np.fill_diagonal(lab, rng.integers(0, 9, n))
            assert K._twin_classes(lab).tolist() == _twins_by_swap(lab)


class TestBlocksMemo:
    # _first_edge_blocks keeps its tables per (n, m) when the (n-2, m-1)
    # table has at most _MEMO_ROWS rows. The scans here take the table route,
    # since the public entry may answer by the search before any table exists.

    def test_cold_and_warm_scans_agree(self):
        # every scan on a cleared memo builds its tables afresh; a memo warm
        # with every size of K_n must give each size its own tables
        rng = random.Random(18)
        for n in range(6, 15):
            lab = random_labeling(n, rng.choice([2, 3, 4, INFINITE]), seed=rng.randrange(10**6))
            lab = lab.matrix0()
            sizes = range(1, n // 2 + 1)

            def scans(cold):
                out = []
                for size in sizes:
                    if cold:
                        K._blocks_memo.clear()
                    count, edges = _table_route(lab, size)
                    if cold:
                        K._blocks_memo.clear()
                    out.append((count, edges.tolist(), K.anti_lex_scan(lab, size).tolist()))
                return out

            cold = scans(True)
            scans(False)
            assert all((n, size) in K._blocks_memo for size in sizes)
            assert scans(False) == cold

    def test_kept_arrays_are_read_only(self):
        _table_route(random_labeling(10, 3, seed=1).matrix0(), 4)
        for arr in K._blocks_memo[10, 4]:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_k16_keeps_no_entry_above_the_row_cap(self):
        lab = make_construction("two", 16).matrix0()
        assert _table_route(lab, 7)[0] == 24
        assert _table_route(lab, 8)[0] == 32
        assert all(len(sub) <= K._MEMO_ROWS for *_, sub in K._blocks_memo.values())
        assert (16, 7) not in K._blocks_memo and (16, 8) not in K._blocks_memo
        assert len(K._blocks_memo[14, 6][3]) == 62370  # the largest kept table


def _random_graph(rng, max_x):
    x = rng.randint(1, max_x)
    nv = 2 * x
    cand = [
        (u, v)
        for u in range(1, nv + 1)
        for v in range(u + 1, nv + 1)
        if red_partner(u) != v
    ]
    prob = rng.random()
    return RedBlueGraph(num_red=x, blue_edges=frozenset(e for e in cand if rng.random() < prob))


class TestDfsParity:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_public_kernels_equal_cores(self, seed):
        g = _random_graph(random.Random(seed), 5)
        adj = g._adj
        cyc_core = K._has_cycle_core(adj)
        max_core = K._max_blue_core(adj, len(adj))  # cap len(adj): exhaustive
        bound = K._dag_bound_core(adj)
        # the certificate-first public kernels equal the uncapped cores; the
        # path kernel answers -1 exactly when the graph has a cycle
        assert K.alt_cycle_exists(adj) == cyc_core
        assert K.alt_path_max_blue(adj) == (-1 if cyc_core else max_core)
        # and the cores and the bound are sound against the independent
        # itertools oracle
        obest, ocycles = oracle_paths(g)
        assert max_core == obest and cyc_core == ocycles
        assert K.alt_path_max_blue(adj) == (-1 if ocycles else obest)
        if ocycles:
            assert bound == -1
        assert bound == -1 or bound >= obest

    def test_every_route_is_reached(self):
        # over a fixed sample, each route of the public kernels answers some
        # graph: the DFS stopping at the bound, the DFS exhausting below it,
        # and the cycle DFS on a cyclic digraph. A cyclic digraph without an
        # alternating cycle is rare here (3 in 3,000 draws), so a pinned case
        # in TestDigraphBound covers it.
        routes = set()
        rng = random.Random(2024)
        for _ in range(600):
            g = _random_graph(rng, 5)
            adj = g._adj
            bound = K._dag_bound_core(adj)
            cyc = K._has_cycle_core(adj)
            best = K._max_blue_core(adj, len(adj))
            if bound < 0:
                routes.add("cycle DFS" if cyc else "cycle DFS, none found")
            else:
                routes.add("stopped at bound" if best == bound else "exhausted below bound")
        assert {"stopped at bound", "exhausted below bound", "cycle DFS"} <= routes


def _relabel(rng, x, edges):
    # the blue edges under a random permutation of the x red edges and a
    # random swap of the ends of each; red edges, and so every alternating
    # path and cycle, are kept
    perm, flip = rng.sample(range(x), x), [rng.randrange(2) for _ in range(x)]

    def f(v):
        r, side = divmod(v - 1, 2)
        return 2 * perm[r] + (side ^ flip[r]) + 1

    return frozenset((min(f(u), f(v)), max(f(u), f(v))) for u, v in edges)


# the graph of test_closed_walk_without_simple_cycle: a cyclic digraph, and
# no alternating cycle
_WALK_GADGET = ((1, 4), (1, 3), (2, 6), (2, 5))


class TestAdjacencyAgreement:
    def _check(self, g):
        # the public kernels over the graph's adjacency against the itertools
        # oracle; returns the digraph bound and the oracle's cycle answer
        obest, ocycles = oracle_paths(g)
        adj = g._adj
        assert K.alt_cycle_exists(adj) == ocycles
        assert K.alt_path_max_blue(adj) == (-1 if ocycles else obest)
        assert K.alt_cycle_exists(adj, g._dag_bound) == ocycles
        assert K.alt_path_max_blue(adj, g._dag_bound) == (-1 if ocycles else obest)
        return g._dag_bound, ocycles

    def test_cyclic_digraphs_with_cycles(self):
        rng = random.Random(31)
        seen = 0
        while seen < 150:
            g = _random_graph(rng, 5)
            if g._dag_bound < 0:
                seen += 1
                self._check(g)
        # a cyclic digraph without an alternating cycle is rare in these
        # draws, so the test below builds such graphs

    def test_cyclic_digraphs_without_cycles(self):
        # a cycle-free random graph beside the gadget, red edges shuffled:
        # the digraph is cyclic, the graph has no alternating cycle, and the
        # path DFS caps at len(adj) // 2
        rng = random.Random(32)
        seen = 0
        while seen < 60:
            host = _random_graph(rng, 4)
            if oracle_paths(host)[1]:
                continue
            x = host.num_red + 3
            gadget = {(u + 2 * host.num_red, v + 2 * host.num_red) for u, v in _WALK_GADGET}
            g = RedBlueGraph(num_red=x, blue_edges=_relabel(rng, x, host.blue_edges | gadget))
            assert self._check(g) == (-1, False)
            seen += 1

    def test_sparse_graphs_are_renumbered(self):
        # a random graph placed on random red edges of a larger carrier:
        # the adjacency spans only the red edges with a blue edge, and
        # every answer is the small graph's
        rng = random.Random(33)
        for _ in range(200):
            small = _random_graph(rng, 4)
            x = small.num_red + rng.randint(0, 40)
            g = RedBlueGraph(num_red=x, blue_edges=_relabel(rng, x, small.blue_edges))
            reds = {(v - 1) // 2 for e in g.blue_edges for v in e}
            assert len(g._adj) == 2 * len(reds)
            assert all(nbrs == sorted(nbrs) for nbrs in g._adj)
            assert oracle_paths(g) == oracle_paths(small)
            self._check(g)


class TestDigraphBound:
    def test_bound_above_maximum_runs_the_dfs(self):
        # both blue edges meet at vertex 1, so no path has two of them, but
        # the digraph walk 1 -> 3 -> 2 (blue 1-4, red 4-3, blue 3-1, red 1-2)
        # revisits vertex 1 and has length 2
        g = RedBlueGraph(num_red=2, blue_edges=frozenset({(1, 3), (1, 4)}))
        assert len(g._adj) == 4
        assert K._dag_bound_core(g._adj) == 2
        assert K.alt_path_max_blue(g._adj) == 1
        assert max_blue_in_alternating_path(g) == 1

    def test_cyclic_digraph_without_cycle(self):
        # the graph of test_closed_walk_without_simple_cycle
        g = RedBlueGraph(
            num_red=3, blue_edges=frozenset({(1, 4), (1, 3), (2, 6), (2, 5)})
        )
        assert len(g._adj) == 6
        assert K._dag_bound_core(g._adj) == -1
        assert has_alternating_cycle(g) is False
        assert max_blue_in_alternating_path(g) == oracle_paths(g)[0]

    def test_deep_chain_needs_no_recursion(self):
        # red edges (1, 2), ..., (2x-1, 2x) joined by blue (2i, 2i+1) into one
        # alternating path of 2x vertices: a recursive walker would pass
        # Python's default recursion limit of 1,000 frames
        x = 2000
        chain = frozenset((2 * i, 2 * i + 1) for i in range(1, x))
        g = RedBlueGraph(num_red=x, blue_edges=chain)
        with _no_gc():
            start = time.perf_counter()
            assert has_alternating_cycle(g) is False
            assert max_blue_in_alternating_path(g) == x - 1
            assert time.perf_counter() - start < 0.05
        # blue (1, 2x) closes the path into one alternating cycle
        closed = RedBlueGraph(num_red=x, blue_edges=chain | {(1, 2 * x)})
        with _no_gc():
            start = time.perf_counter()
            assert has_alternating_cycle(closed) is True
            with pytest.raises(CyclePresent):
                max_blue_in_alternating_path(closed)
            assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("k", range(2, 9))
    def test_constructions_bound_is_k_minus_1(self, k):
        build = build_odd_k if k % 2 else build_even_k
        for x in (k, 2 * k, 10 * k):
            g = build(k, x)
            assert len(g._adj) == g.num_vertices
            assert K._dag_bound_core(g._adj) == k - 1
            assert max_blue_in_alternating_path(g) == k - 1


class TestPathsBelow:
    # beta's feasibility predicate against the path kernel it replaces, on
    # random blue subsets with x <= 5 and on the walk gadget beside random
    # graphs (cyclic digraphs without an alternating cycle), over the
    # graph's renumbered lists and over lists of every carrier vertex
    def test_agrees_with_the_path_maximum(self):
        rng = random.Random(30)
        graphs = [_random_graph(rng, 5) for _ in range(300)]
        for _ in range(40):
            host = _random_graph(rng, 2)
            x = host.num_red + 3
            gadget = {(u + 2 * host.num_red, v + 2 * host.num_red) for u, v in _WALK_GADGET}
            graphs.append(RedBlueGraph(num_red=x,
                                       blue_edges=_relabel(rng, x, host.blue_edges | gadget)))
        routes = collections.Counter()
        for g in graphs:
            bound = K._dag_bound_core(g._adj)
            for adj in (g._adj, carrier_lists(g)):
                best = K.alt_path_max_blue(adj)
                for k in range(1, 7):
                    got = K.alt_paths_below(adj, k)
                    assert got == (0 <= best < k)
                    route = ("bound" if 0 <= bound < k else
                             "cycle" if best < 0 else "path")
                    routes[route, got] += 1
        assert set(routes) == {("bound", True), ("cycle", False), ("path", True),
                               ("path", False)}


class TestDenseEvalParity:
    DENSE_DIGEST = "2348b4f151839c30727d51458406d7ef73055be7d2ff137fedee9e5576d7afda"

    @pytest.mark.parametrize(
        "delta,gamma,eta",
        [(1.0, 0.5, 0.951), (1.0, 0.25, 0.93), (1.5, 0.375, 0.9), (2.0, 0.5, 0.97)],
    )
    def test_batches_agree(self, delta, gamma, eta):
        alphas = np.linspace(1.2, 3.4, 57)
        # F2 is f at m = alpha/2, written out here independently of the kernels
        m = alphas / 2
        den = alphas**2 / 2 - 2 * gamma * m**2
        p = (eta * alphas**2 / 2 - 2 * gamma * m**2) / den
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(p * np.log2(p) + (1 - p) * np.log2(1 - p))
        f = np.where(p <= 0.5 + 1e-12, np.inf, den * (1 - h) - alphas + (2 - delta) * m)
        p2 = np.array([K._p_val(a / 2, a, gamma, eta) for a in alphas])
        assert np.allclose(p2, p, rtol=0, atol=1e-12)
        f2 = K.f2_values(alphas, delta, gamma, eta)
        assert f2.shape == alphas.shape
        finite = np.isfinite(f)
        assert np.array_equal(finite, np.isfinite(f2))
        assert np.allclose(f2[finite], f[finite], rtol=0, atol=1e-12)
        # one batched F1 call equals one call per alpha
        batch = K.f1_values(alphas, delta, gamma, eta)
        single = np.array([K.f1_values(np.array([a]), delta, gamma, eta)[0] for a in alphas])
        assert batch.shape == alphas.shape
        assert np.array_equal(batch, single)

    def test_f1_at_the_argmin_where_fprime_has_no_root(self):
        # two labels past the stationary threshold: f' > 0 on [0, alpha/2], so
        # F1 is f at the f'-argmin, finite
        a, d, g, eta = 2.2836, 1.0, 0.25, 0.937
        assert K._solve_m1_val(a, d, g, eta)[1] is False
        f1 = K.f1_values(np.array([a]), d, g, eta)[0]
        assert math.isfinite(f1)
        assert f1 == K._f_val(K._argmin_fprime(a, d, g, eta), a, d, g, eta)

    def test_derivatives_read_inf_where_p_is_zero(self):
        # at the model's edge m = alpha/2 with gamma = eta = 1/2, eta A = q
        # exactly, so p = 0 and log2 p is undefined
        assert K._p_val(1.5, 3.0, 0.5, 0.5) == 0.0
        assert K._fprime_val(1.5, 3.0, 1.0, 0.5, 0.5) == math.inf
        assert K._fsecond_val(1.5, 3.0, 1.0, 0.5, 0.5) == math.inf

    def test_dense_solutions_pinned(self):
        # every field and bracket of 16 solves, recorded before F1 had one
        # definition; the two-label rows at eta >= 0.937 have no stationary root
        text = "\n".join(
            repr(dense_alpha_upper(DenseBoundQuery(delta=d, ell=ell, eta=eta)))
            for d in (1.0, 1.5) for ell in (2, INFINITE) for eta in (0.93, 0.937, 0.95, 0.99))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DENSE_DIGEST

    def test_backend_reported(self):
        assert K.BACKEND == "numpy"


def plain_argmin(a, d, g, eta):
    # the f'-argmin by the windowless bisection over [0, a/2]
    lo, hi = K._bisect(lambda m: K._fsecond_val(m, a, d, g, eta) < 0.0, 0.0, 0.5 * a, 1e-13)
    return 0.5 * (lo + hi)


def plain_m1(a, d, g, eta):
    # m1 by the windowless bisection over [0, argmin], the reference for the
    # certified windows
    if 2.0 - d <= 0.0:
        return 0.0, True
    mstar = plain_argmin(a, d, g, eta)
    if K._fprime_val(mstar, a, d, g, eta) > 0.0:
        return mstar, False
    lo, hi = K._bisect(lambda m: K._fprime_val(m, a, d, g, eta) > 0.0, 0.0, mstar, K.M_TOL)
    return 0.5 * (lo + hi), True


def _tangent_delta(a, g, eta):
    # delta that puts f' = 0 at the f'-argmin, to rounding
    mstar = K._argmin_fprime(a, 1.0, g, eta)
    return 2.0 - 4.0 * g * mstar * (1.0 + math.log2(K._p_val(mstar, a, g, eta)))


class TestCertifiedWindows:
    """The windowed searches return the windowless bisection's floats."""

    def test_bisect_calls_below_only_inside_the_window(self):
        # midpoints 0.5 and 0.25 land on the window's ends and are decided
        # without a call; the pair is the plain bisection's
        seen = []

        def below(m):
            seen.append(m)
            return m < 0.3

        plain = K._bisect(below, 0.0, 1.0, 1e-9)
        seen.clear()
        assert K._bisect(below, 0.0, 1.0, 1e-9, (0.25, 0.5)) == plain
        assert seen and all(0.25 < m < 0.5 for m in seen)

    def test_random_points_equal_the_plain_bisection(self):
        rng = random.Random(7)
        for _ in range(6000):
            a = 10.0 ** rng.uniform(0.0, 12.0)
            d = rng.uniform(1.0, 2.0)
            g = rng.choice([0.0, 0.25, 0.375, 0.5, rng.uniform(0.0, 0.5)])
            eta = rng.choice([1.0, 1.0 - 0.5 * rng.random()])  # uniform on (1/2, 1]
            assert K._argmin_fprime(a, d, g, eta) == plain_argmin(a, d, g, eta)
            assert K._solve_m1_val(a, d, g, eta) == plain_m1(a, d, g, eta)

    def test_gamma_zero_has_no_window(self):
        # f'' = 0 certifies no side, and f' = 2 - delta has no root
        assert K._argmin_window(2.4, 0.0, 0.93) == (-math.inf, math.inf)
        for a, d in ((2.4, 1.0), (7.5, 1.9)):
            assert K._argmin_fprime(a, d, 0.0, 0.93) == plain_argmin(a, d, 0.0, 0.93)
            assert K._solve_m1_val(a, d, 0.0, 0.93) == plain_m1(a, d, 0.0, 0.93)

    @pytest.mark.parametrize("a,g,eta", [(3.0, 0.25, 0.9), (2.4, 0.5, 1.0), (40.0, 0.375, 1.0)])
    def test_argmin_at_half_alpha(self, a, g, eta):
        # f'' < 0 on all of [0, a/2]: the right end lies past a/2, where no
        # midpoint reaches, and only the left end is evaluated
        l, h = K._argmin_window(a, g, eta)
        assert 0.0 < l < 0.5 * a <= h
        assert 0.5 * a - K._argmin_fprime(a, 1.0, g, eta) < 1e-12
        for d in (1.0, 1.5, _tangent_delta(a, g, eta)):
            assert K._argmin_fprime(a, d, g, eta) == plain_argmin(a, d, g, eta)
            assert K._solve_m1_val(a, d, g, eta) == plain_m1(a, d, g, eta)

    @pytest.mark.parametrize("a,g,eta", [(1.5, 0.375, 0.76), (2.0, 0.5, 0.8), (2.5, 0.4375, 0.8)])
    def test_near_tangent_fprime(self, a, g, eta):
        # delta in [1, 2] puts f' = 0 at an interior argmin, to rounding
        l_arg, h_arg = K._argmin_window(a, g, eta)
        mstar = K._argmin_fprime(a, 1.0, g, eta)
        assert 0.0 < l_arg < mstar < h_arg < 0.5 * a
        d = _tangent_delta(a, g, eta)
        assert 1.0 <= d <= 2.0
        roots = 0
        for dd in (math.nextafter(d, 0.0), d, math.nextafter(d, 3.0)):
            vstar = K._fprime_val(mstar, a, dd, g, eta)
            assert abs(vstar) < 1e-13
            if vstar <= 0.0:
                # f'(argmin) has no margin, so the right end falls back to inf
                assert K._m1_window(a, dd, g, eta, mstar, vstar)[1] == math.inf
                roots += 1
            assert K._solve_m1_val(a, dd, g, eta) == plain_m1(a, dd, g, eta)
        assert roots

    def test_end_failing_its_margin(self, monkeypatch):
        a, d, g, eta = 2.4, 1.0, 0.25, 0.93
        mstar = K._argmin_fprime(a, d, g, eta)
        vstar = K._fprime_val(mstar, a, d, g, eta)
        # one Newton step stops short of m1: f' at the right end is still
        # positive, so only the left end counts
        monkeypatch.setattr(K, "_NEWTON_CAP", 1)
        l, h = K._m1_window(a, d, g, eta, mstar, vstar)
        assert 0.0 < l < mstar and h == math.inf
        assert K._solve_m1_val(a, d, g, eta) == plain_m1(a, d, g, eta)
        # a margin no value exceeds: no end counts, on either search (the
        # argmin sits at a/2 here, and an end past a/2 needs no value)
        monkeypatch.setattr(K, "_MARGIN", 1.0)
        K._argmin_shape.cache_clear()
        try:
            l_arg, h_arg = K._argmin_window(a, g, eta)
            assert l_arg == -math.inf and h_arg >= 0.5 * a
            assert K._m1_window(a, d, g, eta, mstar, vstar) == (-math.inf, math.inf)
            assert K._solve_m1_val(a, d, g, eta) == plain_m1(a, d, g, eta)
        finally:
            K._argmin_shape.cache_clear()

    def test_each_end_needs_its_own_certificate(self, monkeypatch):
        a, d, g, eta = 2.4, 1.0, 0.25, 0.93
        mstar = K._argmin_fprime(a, d, g, eta)
        vstar = K._fprime_val(mstar, a, d, g, eta)
        l, h = K._m1_window(a, d, g, eta, mstar, vstar)
        assert 0.0 < l < h < mstar
        # f'(argmin) without its margin: the chord bound on [h, argmin]
        # fails, so the right end falls back to inf
        assert K._m1_window(a, d, g, eta, mstar, 0.0) == (l, math.inf)
        # values of the right sign at both ends but within their margins
        fprime = K._fprime_val
        with monkeypatch.context() as mp:
            mp.setattr(K, "_fprime_val", lambda m, *rest: math.copysign(1e-300, fprime(m, *rest))
                       if m in (l, h) else fprime(m, *rest))
            assert K._m1_window(a, d, g, eta, mstar, vstar) == (-math.inf, math.inf)
        # a left end past the region where f'' < 0 is certified: f' need not
        # grow to its left
        monkeypatch.setattr(K, "_argmin_window", lambda a, g, eta: (0.5 * l, math.inf))
        assert K._m1_window(a, d, g, eta, mstar, vstar) == (-math.inf, h)

    def test_newton_without_a_negative_slope(self, monkeypatch):
        # f'' that is not negative at m = 0 stops Newton before its first
        # step: neither end counts, and m1 is the plain bisection's
        a, d, g, eta = 3.0, 1.0, 0.375, 0.9
        mstar = K._argmin_fprime(a, d, g, eta)  # fills _argmin_shape's cache
        vstar = K._fprime_val(mstar, a, d, g, eta)
        assert K._m1_window(a, d, g, eta, mstar, vstar) != (-math.inf, math.inf)
        plain = plain_m1(a, d, g, eta)
        fsecond = K._fsecond_val
        monkeypatch.setattr(K, "_fsecond_val",
                            lambda m, *rest: 0.0 if m == 0.0 else fsecond(m, *rest))
        assert K._m1_window(a, d, g, eta, mstar, vstar) == (-math.inf, math.inf)
        assert K._solve_m1_val(a, d, g, eta) == plain

    def test_m1_evaluation_count(self, monkeypatch):
        calls = [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper

        args = (2.4, 1.0, 0.25, 0.93)
        K._solve_m1_val(*args)  # t* of (0.25, 0.93) is computed once per process
        monkeypatch.setattr(K, "_fprime_val", counted(K._fprime_val))
        monkeypatch.setattr(K, "_fsecond_val", counted(K._fsecond_val))
        assert plain_m1(*args) == K._solve_m1_val(*args)
        calls[0] = 0
        plain_m1(*args)
        assert calls[0] >= 80
        calls[0] = 0
        K._solve_m1_val(*args)
        assert calls[0] <= 30
