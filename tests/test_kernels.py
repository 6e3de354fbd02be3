"""Kernel checks: the matching table against an itertools enumeration, and
the compiled kernels against their interpreted fallback.

When numba is active (the default build) the fallback implementations are
still importable, so both sides of the DFS and dense-bound parity tests run
here regardless of CQLAB_NO_NUMBA. The matching scans built on the table are
checked against itertools oracles in tests/test_labeled_graphs.py.
"""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import _kernels as K
from cqlab.alternating import RedBlueGraph, red_partner


def _itertools_matchings(n, m):
    # combinations of the sorted edge list come out in lexicographic order
    edges = itertools.combinations(range(n), 2)
    return [c for c in itertools.combinations(edges, m)
            if len({v for e in c for v in e}) == 2 * m]


class TestMatchingTable:
    def test_order_is_lexicographic(self):
        for n in range(2, 10):
            for m in range(1, n // 2 + 1):
                rows = [tuple(map(tuple, K._row_edges(row).tolist()))
                        for row in K._matching_table(n, m)]
                assert rows == _itertools_matchings(n, m)

    def test_counts(self):
        for n in range(2, 10):
            for m in range(1, n // 2 + 1):
                table = K._matching_table(n, m)
                # C(n, 2m) vertex sets times (2m-1)!! perfect matchings of each
                rows = math.comb(n, 2 * m) * math.prod(range(1, 2 * m, 2))
                assert table.shape == (rows, n) == (len(_itertools_matchings(n, m)), n)
                assert table.dtype == np.int8
                assert np.all((table == -1).sum(axis=1) == n - 2 * m)
                matched = table >= 0
                back = np.take_along_axis(table, np.where(matched, table, 0), axis=1)
                assert np.array_equal(back[matched], np.nonzero(matched)[1])


class TestDfsParity:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_interpreted_equals_compiled(self, seed):
        rng = random.Random(seed)
        x = rng.choice([2, 3, 4])
        nv = 2 * x
        cand = [
            (u, v)
            for u in range(1, nv + 1)
            for v in range(u + 1, nv + 1)
            if red_partner(u) != v
        ]
        blue = frozenset(e for e in cand if rng.random() < 0.4)
        g = RedBlueGraph(num_red=x, blue_edges=blue)
        indptr, indices = g.csr()
        cyc_py = K._has_cycle_core(indptr, indices, nv)
        max_py = K._max_blue_core(indptr, indices, nv)
        if K.HAVE_NUMBA:
            assert bool(K._has_cycle_njit(indptr, indices, nv)) == bool(cyc_py)
            assert int(K._max_blue_njit(indptr, indices, nv)) == int(max_py)
        assert K.alt_cycle_exists(indptr, indices, nv) == bool(cyc_py)
        if not cyc_py:
            assert K.alt_path_max_blue(indptr, indices, nv) == int(max_py)


class TestDenseEvalParity:
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
        f2, p2 = K.f2_values(alphas, delta, gamma, eta)
        assert np.allclose(p2, p, rtol=0, atol=1e-12)
        finite = np.isfinite(f)
        assert np.array_equal(finite, np.isfinite(f2))
        assert np.allclose(f2[finite], f[finite], rtol=0, atol=1e-12)
        # one batched F1 call equals one call per alpha, on both branches
        for curve in (False, True):
            batch = K.f1_values(alphas, delta, gamma, eta, 1e-12, curve)
            single = [K.f1_values(np.array([a]), delta, gamma, eta, 1e-12, curve)
                      for a in alphas]
            for k in range(3):
                col = np.array([out[k][0] for out in single])
                assert np.array_equal(batch[k], col, equal_nan=True)

    def test_curve_extends_where_definitional_is_inf(self):
        # two labels past the stationary threshold: curve finite, branch inf
        alphas = np.array([2.2836])
        f_def, m_def, _ = K.f1_values(alphas, 1.0, 0.25, 0.937)
        f_cur, m_cur, _ = K.f1_values(alphas, 1.0, 0.25, 0.937, curve=True)
        assert not np.isfinite(f_def[0])
        assert np.isfinite(f_cur[0])

    def test_backend_reported(self):
        assert K.BACKEND in ("numba", "numpy")
        assert (K.BACKEND == "numba") == K.HAVE_NUMBA
