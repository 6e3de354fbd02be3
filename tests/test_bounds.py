import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import _kernels
from cqlab.common import INFINITE
from cqlab.errors import NoCrossing, POutOfRange
from cqlab.bounds import (
    SCAN_STEP,
    CliqueBoundQuery,
    DenseBoundQuery,
    alpha2_closed_form,
    binary_entropy,
    clique_alpha_upper,
    clique_lhs,
    corollary_alpha,
    dense_alpha_upper,
    dense_f,
    dense_fprime,
    density_threshold,
    resolve_gamma,
    solve_m1,
    sweep_rows,
    table_l2_rows,
    trivial_dense_bound,
)
from cqlab.partition_bounds import gamma_upper_bound


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_headline_value(self):
        assert 2 / (1 - binary_entropy(0.951)) < 2.7861

    def test_rejects_outside_unit(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert abs(h - binary_entropy(1.0 - p)) < 1e-12


class TestCliqueLHS:
    def test_zero_at_alpha_two(self):
        assert clique_lhs(2.0, 0.0, 2.0, 0.5) == 0.0

    @pytest.mark.parametrize("delta", [1.0, 1.2, 1.5, 1.9])
    def test_zero_at_stationary_point_full_adaptivity(self, delta):
        alpha = 1 + math.sqrt(1 - (2 - delta) ** 2 / 2)
        m0 = (2 - delta) / 2
        assert abs(clique_lhs(alpha, m0, delta, 0.5)) < 1e-12

    def test_zero_at_endpoint_two_labels(self):
        delta = 1.0
        alpha = 4 * delta / 3
        assert abs(clique_lhs(alpha, alpha / 2, delta, 0.25)) < 1e-12

    def test_rejects_m_outside(self):
        with pytest.raises(ValueError):
            clique_lhs(2.0, 1.5, 1.0, 0.5)


class TestCliqueAlphaUpper:
    def test_headline_one_three(self):
        q = CliqueBoundQuery(delta=1.0, ell=3)
        assert abs(clique_alpha_upper(q) - (1 + 1 / math.sqrt(3))) < 1e-12

    def test_delta_two_saturates(self):
        for ell in (2, 3, 4, 7, INFINITE):
            assert abs(clique_alpha_upper(CliqueBoundQuery(delta=2.0, ell=ell)) - 2.0) < 1e-12

    def test_two_label_branch(self):
        assert abs(clique_alpha_upper(CliqueBoundQuery(delta=1.0, ell=2)) - 4 / 3) < 1e-12
        for delta in np.linspace(1.0, 1.2, 9):
            q = CliqueBoundQuery(delta=float(delta), ell=2)
            assert abs(clique_alpha_upper(q) - 4 * delta / 3) < 1e-12

    def test_branch_continuity_at_six_fifths(self):
        left = 4 * 1.2 / 3
        right = 1 + math.sqrt(1 - (2 - 1.2) ** 2 / (4 * 0.25))
        assert abs(left - right) < 1e-12
        q = CliqueBoundQuery(delta=1.2, ell=2)
        assert abs(clique_alpha_upper(q) - left) < 1e-12

    def test_rejects_one_label(self):
        with pytest.raises(ValueError, match="one label: the ratio is 0"):
            clique_alpha_upper(CliqueBoundQuery(delta=1.0, ell=1))

    @pytest.mark.parametrize("ell,exact,upper", [
        (2, 0.25, 0.25),
        (3, 0.375, 0.375),
        (4, None, 7 / 16),
        (7, None, 0.5 - 1 / 172),
        (INFINITE, 0.5, 0.5),
    ])
    def test_resolve_gamma_modes(self, ell, exact, upper):
        # 1/2 - 1/(2 S_ell) with S_ell = 3*2**(ell-2) - 2 ell + 4: S_4 = 8, S_7 = 86;
        # where an exact ratio is known the upper bound equals it
        assert resolve_gamma(ell) == upper
        if exact is not None:
            assert resolve_gamma(ell) == exact

    @pytest.mark.parametrize("ell", [*range(2, 13), INFINITE])
    def test_resolve_gamma_is_the_upper_bound(self, ell):
        assert resolve_gamma(ell) == float(gamma_upper_bound(ell))

    def test_justification_inequality(self):
        # 2 - delta <= 2 gamma alpha at the returned bound, for ell >= 3
        for ell in (3, 4, 5, INFINITE):
            gamma = resolve_gamma(ell)
            for delta in np.linspace(1.0, 1.99, 12):
                alpha = clique_alpha_upper(CliqueBoundQuery(delta=float(delta), ell=ell))
                assert 2 - delta <= 2 * gamma * alpha + 1e-12


class TestCorollary:
    def test_matches_three_labels(self):
        assert abs(corollary_alpha(1.0, 3) - (1 + 1 / math.sqrt(3))) < 1e-12

    def test_delta_two(self):
        for ell in (3, 5, 8):
            assert abs(corollary_alpha(2.0, ell) - 2.0) < 1e-12

    def test_four_label_closed_form(self):
        assert abs(corollary_alpha(1.0, 4) - (1 + math.sqrt(3 / 7))) < 1e-12

    @pytest.mark.parametrize("ell", [3, 4, 5, 6, 8])
    def test_agrees_with_upper_mode(self, ell):
        for delta in np.linspace(1.0, 2.0, 11):
            q = CliqueBoundQuery(delta=float(delta), ell=ell)
            assert abs(corollary_alpha(float(delta), ell) - clique_alpha_upper(q)) < 1e-12

    def test_rejects_small_ell(self):
        with pytest.raises(ValueError):
            corollary_alpha(1.0, 2)

    @pytest.mark.parametrize("delta", [0.5, 2.5])
    def test_rejects_delta_outside_range(self, delta):
        with pytest.raises(ValueError, match=r"delta must lie in \[1, 2\]"):
            corollary_alpha(delta, 3)
        with pytest.raises(ValueError, match=r"delta must lie in \[1, 2\]"):
            CliqueBoundQuery(delta=delta, ell=3)


class TestDenseF:
    def test_eta_one_reduces_to_clique(self):
        for m, alpha, delta, gamma in ((0.3, 2.0, 1.0, 0.375), (0.9, 2.4, 1.5, 0.5)):
            assert abs(
                dense_f(m, alpha, delta, gamma, 1.0) - clique_lhs(alpha, m, delta, gamma)
            ) < 1e-12

    def test_m_zero(self):
        alpha, eta = 2.5, 0.9
        expect = alpha**2 / 2 * (1 - binary_entropy(eta)) - alpha
        assert abs(dense_f(0.0, alpha, 1.0, 0.5, eta) - expect) < 1e-12

    @pytest.mark.parametrize("m", [-0.1, 1.3])
    def test_rejects_m_outside_range(self, m):
        with pytest.raises(ValueError, match=r"m must lie in \[0, alpha/2\]"):
            dense_f(m, 2.5, 1.0, 0.5, 0.9)

    def test_fprime_at_zero(self):
        for delta in (1.0, 1.3, 2.0):
            assert dense_fprime(0.0, 2.0, delta, 0.5, 0.9) == 2 - delta

    def test_p_guard(self):
        # eta at 3/4 with m at the endpoint pushes p down to exactly 1/2
        with pytest.raises(POutOfRange, match="p out of range"):
            dense_f(1.0, 2.0, 1.0, 0.5, 0.75)
        with pytest.raises(POutOfRange, match="p out of range"):
            dense_fprime(1.0, 2.0, 1.0, 0.5, 0.75)

    @pytest.mark.parametrize("call,match", [
        (lambda: solve_m1(2, 1, 0.5, 1.2), "eta"),
        (lambda: dense_f(0.3, 2, 1, 0.5, 1.2), "eta"),
        (lambda: dense_fprime(0.3, 2, 1, 0.5, 1.2), "eta"),
        (lambda: solve_m1(2, 1, 0.5, 0.5), "eta"),
        (lambda: solve_m1(2, 1, 0.9, 0.9), "gamma"),
        (lambda: dense_f(0.3, 2, 1, -0.1, 0.9), "gamma"),
        (lambda: dense_fprime(0.3, 2, 1, 0.9, 0.9), "gamma"),
    ])
    def test_helpers_reject_eta_and_gamma_outside_the_model(self, call, match):
        # eta in (1/2, 1] and gamma in [0, 1/2]; beyond them p can exceed 1
        with pytest.raises(ValueError, match=f"{match} must lie in"):
            call()

    @pytest.mark.parametrize("alpha", [0.0, 1e-300, -3.0, math.inf, math.nan, 1e160])
    @pytest.mark.parametrize("call", [
        lambda a: solve_m1(a, 1, 0.25, 0.9),
        lambda a: dense_f(0.0, a, 1, 0.25, 0.9),
        lambda a: dense_fprime(0.0, a, 1, 0.25, 0.9),
    ])
    def test_helpers_reject_alpha_outside_the_float_range(self, call, alpha):
        # alpha^2/2 must be a positive finite float: 0 and 1e-300 divided by
        # zero, -3 and inf answered inf, nan answered nan
        with pytest.raises(ValueError, match="alpha must be positive"):
            call(alpha)

    def test_fprime_matches_finite_difference(self):
        h = 1e-7
        for m, alpha, delta, gamma, eta in (
            (0.4, 2.3, 1.0, 0.5, 0.95),
            (0.7, 2.5, 1.4, 0.375, 0.9),
            (0.2, 2.0, 1.8, 0.25, 0.99),
        ):
            fd = (dense_f(m + h, alpha, delta, gamma, eta)
                  - dense_f(m - h, alpha, delta, gamma, eta)) / (2 * h)
            assert abs(fd - dense_fprime(m, alpha, delta, gamma, eta)) < 1e-6


# (alpha, delta, gamma, eta) cases spanning the label ratios and query exponents
CONVEXITY_CASES = [
    (2.4, 1.0, 0.5, 0.951), (2.0, 1.0, 0.375, 0.9), (2.2, 1.3, 0.25, 0.99),
    (3.0, 1.5, 0.5, 0.8), (2.6, 1.9, 0.4375, 0.97), (2.1, 1.1, 0.375, 0.85),
    (2.9, 1.7, 0.5, 0.93), (2.3, 1.0, 0.25, 0.9301), (2.48, 1.0, 0.5, 0.951),
    (2.0, 2.0, 0.5, 0.9), (2.7, 1.25, 0.375, 0.88), (2.5, 1.6, 0.46875, 0.96),
]


class TestSolveM1:
    def test_eta_one_closed_form(self):
        # m1 = (2 - delta)/(4 gamma) whenever that sits inside [0, alpha/2]
        for delta, gamma in ((1.0, 0.5), (1.5, 0.375), (1.2, 0.5)):
            alpha = 2.2
            m1 = solve_m1(alpha, delta, gamma, 1.0)
            assert abs(m1 - (2 - delta) / (4 * gamma)) < 1e-9

    def test_delta_two_gives_zero(self):
        assert solve_m1(2.0, 2.0, 0.5, 0.9) == 0.0

    def test_infinite_when_no_stationary_point(self):
        # two labels, eta = 1, alpha < 2: f' = 1 - m > 0 on [0, alpha/2]
        assert solve_m1(1.5, 1.0, 0.25, 1.0) == math.inf

    @pytest.mark.parametrize("alpha,delta,gamma,eta", CONVEXITY_CASES)
    def test_grid_scan_oracle(self, alpha, delta, gamma, eta):
        # independent fine-grid sign scan brackets the bisection answer
        m1 = solve_m1(alpha, delta, gamma, eta)
        grid = np.linspace(0.0, alpha / 2, int(round(alpha / 2 * 1e6)) + 1)  # 1e-6 cells
        p = (eta * alpha**2 / 2 - 2 * gamma * grid**2) / (alpha**2 / 2 - 2 * gamma * grid**2)
        fp = -4 * gamma * grid * (1 + np.log2(p)) + (2 - delta)
        sign_change = np.nonzero(np.diff(np.sign(fp)))[0]
        if m1 == math.inf:
            assert len(sign_change) == 0
        else:
            assert m1 == 0.0 if delta == 2.0 else 0.0 < m1 < alpha / 2
            assert len(sign_change) >= 1
            lo = grid[sign_change[0]]
            hi = grid[sign_change[0] + 1]
            assert lo <= m1 <= hi
        # the argmin found by bisection on f'' lands in the cell of the grid minimum
        i = int(np.argmin(fp))
        mstar = _kernels._argmin_fprime(alpha, delta, gamma, eta)
        assert grid[max(i - 1, 0)] <= mstar <= grid[min(i + 1, len(grid) - 1)]

    def test_convexity_second_difference(self):
        # f' is convex in m: centered second difference stays >= -1e-9
        for alpha, delta, gamma, eta in CONVEXITY_CASES:
            m = np.linspace(0.0, alpha / 2, 1001)[1:-1]
            p = (eta * alpha**2 / 2 - 2 * gamma * m**2) / (alpha**2 / 2 - 2 * gamma * m**2)
            fp = -4 * gamma * m * (1 + np.log2(p)) + (2 - delta)
            second_diff = np.diff(fp, 2)
            assert np.min(second_diff) >= -1e-9


def _no_root_cases(count, seed=0):
    # (alpha, delta, gamma, eta, argmin) where f' > 0 on all of [0, alpha/2]
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        a, d, e = rng.uniform(1.0, 4.0), rng.uniform(1.0, 1.99), rng.uniform(0.76, 1.0)
        g = float(rng.choice([0.25, 0.375, 0.4375, 0.46875, 0.5]))
        m, found = _kernels._solve_m1_val(a, d, g, e)
        if not found:
            cases.append((a, d, g, e, m))
    return cases


class TestDenseSearch:
    """The one bisection behind m1, the f'-argmin, the alpha roots and eta."""

    def test_fsecond_matches_centred_difference(self):
        h = 1e-6
        for alpha, delta, gamma, eta in CONVEXITY_CASES:
            for m in np.linspace(0.0, alpha / 2, 41)[1:-1].tolist():
                fd = (_kernels._fprime_val(m + h, alpha, delta, gamma, eta)
                      - _kernels._fprime_val(m - h, alpha, delta, gamma, eta)) / (2 * h)
                assert abs(fd - _kernels._fsecond_val(m, alpha, delta, gamma, eta)) < 1e-6

    def test_fsecond_nondecreasing(self):
        # f' convex: the assumption the argmin bisection on the sign of f'' rests on
        for alpha, delta, gamma, eta in CONVEXITY_CASES:
            fs = [_kernels._fsecond_val(m, alpha, delta, gamma, eta)
                  for m in np.linspace(0.0, alpha / 2, 1001).tolist()]
            assert np.min(np.diff(fs)) >= -1e-9

    def test_argmin_at_fsecond_sign_change(self):
        # without a root the argmin is the answer, so it must sit where f''
        # changes sign, or at alpha/2 when f'' < 0 throughout
        for alpha, delta, gamma, eta, m in _no_root_cases(300):
            assert m == _kernels._argmin_fprime(alpha, delta, gamma, eta)
            if alpha / 2 - m <= 1e-11:
                continue
            assert _kernels._fsecond_val(m - 1e-11, alpha, delta, gamma, eta) < 0.0
            assert _kernels._fsecond_val(m + 1e-11, alpha, delta, gamma, eta) >= 0.0

    @given(
        st.floats(min_value=1.0, max_value=8.0),
        st.floats(min_value=1.0, max_value=1.99),
        st.floats(min_value=0.05, max_value=0.5),
        st.floats(min_value=0.7501, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_m1_is_the_first_sign_change(self, alpha, delta, gamma, eta):
        m1, found = _kernels._solve_m1_val(alpha, delta, gamma, eta)
        noise = 1e-12  # f' is accurate to a few ulps of its O(1) terms
        if found:
            h = _kernels.M_TOL
            assert _kernels._fprime_val(max(m1 - h, 0.0), alpha, delta, gamma, eta) > -noise
            assert _kernels._fprime_val(min(m1 + h, alpha / 2), alpha, delta, gamma, eta) <= noise
        else:
            for m in np.linspace(0.0, alpha / 2, 2001).tolist():
                assert _kernels._fprime_val(m, alpha, delta, gamma, eta) > -noise


class TestOneRoot:
    def test_branch_over_alpha_is_nondecreasing(self):
        # F1 and F2 are convex in alpha with F(0) = 0 (see _descending_root),
        # so F(alpha)/alpha never falls along the SCAN_STEP grid below the
        # trivial bound; sampled (delta, ell, eta) of the dense benchmark grid
        rng = np.random.default_rng(19)
        etas = [0.76 + 0.01 * i for i in range(24)] + [0.930 + 0.001 * i for i in range(8)]
        for _ in range(12):
            delta = float(rng.choice([1.0, 1.1, 1.25, 1.5]))
            gamma = resolve_gamma([2, 3, 4, 5, INFINITE][rng.integers(5)])
            eta = round(float(rng.choice(etas)), 3)
            alphas = np.arange(trivial_dense_bound(eta), 1.0, -SCAN_STEP)[::-5]  # ascending
            for values in (_kernels.f1_values, _kernels.f2_values):
                ratio = values(alphas, delta, gamma, eta) / alphas
                ratio = ratio[np.isfinite(ratio)]
                assert len(ratio) > 0
                assert np.all(np.diff(ratio) >= -1e-12)


class TestDenseAlphaUpper:
    def test_headline_value(self):
        sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=INFINITE, eta=0.951))
        assert abs(sol.alpha0 - 2.48227) < 5e-5
        assert round(sol.alpha0, 4) == round(2.48227, 4)
        assert sol.case == "stationary"
        assert 0.5 < sol.p_at_opt <= 1.0

    def test_l2_table_row(self):
        sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=2, eta=0.930))
        assert round(sol.alpha1, 4) == 2.4116
        assert round(sol.alpha2, 4) == 2.4133

    @pytest.mark.parametrize("delta", [1.0, 1.25, 1.5, 1.75])
    @pytest.mark.parametrize("ell", [3, INFINITE])
    def test_eta_one_matches_clique(self, delta, ell):
        sol = dense_alpha_upper(DenseBoundQuery(delta=delta, ell=ell, eta=1.0))
        clique = clique_alpha_upper(CliqueBoundQuery(delta=delta, ell=ell))
        assert abs(sol.alpha0 - clique) < 1e-6

    def test_root_residuals(self):
        for ell, eta in ((INFINITE, 0.951), (3, 0.9), (2, 0.93), (4, 0.97)):
            sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=ell, eta=eta))
            gamma = resolve_gamma(ell)
            assert abs(dense_f(sol.m2, sol.alpha2, 1.0, gamma, eta)) < 1e-8
            if sol.alpha1 != math.inf:
                assert abs(dense_f(sol.m1, sol.alpha1, 1.0, gamma, eta)) < 1e-8

    def test_dominated_by_trivial_bound(self):
        for ell in (2, 3, INFINITE):
            for eta in (0.8, 0.9, 0.97):
                for delta in (1.0, 1.5, 1.9):
                    sol = dense_alpha_upper(DenseBoundQuery(delta=delta, ell=ell, eta=eta))
                    assert sol.alpha0 < trivial_dense_bound(eta) + 1e-9

    def test_monotone_in_delta_and_eta(self):
        etas = (0.85, 0.9, 0.95, 0.99)
        a_by_eta = [
            dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=INFINITE, eta=e)).alpha0
            for e in etas
        ]
        assert all(x >= y - 1e-9 for x, y in zip(a_by_eta, a_by_eta[1:]))
        deltas = (1.0, 1.3, 1.6, 1.9)
        a_by_delta = [
            dense_alpha_upper(DenseBoundQuery(delta=d, ell=3, eta=0.9)).alpha0
            for d in deltas
        ]
        assert all(x <= y + 1e-9 for x, y in zip(a_by_delta, a_by_delta[1:]))

    def test_monotone_in_ell(self):
        vals = [
            dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=ell, eta=0.93)).alpha0
            for ell in (2, 3, 4, INFINITE)
        ]
        assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:]))

    def test_delta_two_degenerates_to_trivial(self):
        for eta in (0.9, 0.951):
            sol = dense_alpha_upper(DenseBoundQuery(delta=2.0, ell=INFINITE, eta=eta))
            assert abs(sol.alpha0 - trivial_dense_bound(eta)) < 1e-6

    def test_stationary_branch_vanishes_past_threshold(self):
        # two labels, eta beyond ~0.936: the stationary branch has no root
        sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=2, eta=0.937))
        assert sol.alpha1 == math.inf
        assert sol.case == "endpoint"
        assert round(sol.alpha1_curve, 4) == round(sol.alpha2, 4) == 2.2836

    @pytest.mark.parametrize("eta", [0.750000001, 0.75 + 1e-13])
    def test_eta_near_three_quarters_answers(self, eta):
        # the endpoint root delta/((1 - gamma)(1 - H(2 eta - 1))) is above 1e17
        # and 1 - H(p) is below float resolution, so F2 never changes sign;
        # at 3/4 + 1e-13, p sits under the kernel's floor and F2 is undefined
        sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=INFINITE, eta=eta))
        assert sol.alpha2 == sol.m2 == math.inf
        assert "alpha2" not in sol.brackets
        assert sol.case == "stationary"
        assert sol.alpha0 == sol.alpha1 == sol.alpha1_curve
        assert abs(sol.alpha1 - 10.1486) < 1e-4 and sol.alpha1 < trivial_dense_bound(eta)
        assert abs(dense_f(sol.m1, sol.alpha1, 1.0, 0.5, eta)) < 1e-8
        if eta == 0.75 + 1e-13:  # p = (eta - gamma)/(1 - gamma) at m = alpha/2, any alpha
            alphas = np.linspace(1.0, 1e6, 101)
            assert np.all(_kernels.f2_values(alphas, 1.0, 0.5, eta) == math.inf)

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseBoundQuery(delta=1.0, ell=3, eta=0.74)
        with pytest.raises(ValueError):
            DenseBoundQuery(delta=0.5, ell=3, eta=0.9)


class TestAlpha2ClosedForm:
    def test_trivial_cases(self):
        assert abs(alpha2_closed_form(INFINITE, 1.0) - 2.0) < 1e-12
        assert abs(alpha2_closed_form(3, 1.0) - 8 / 5) < 1e-12

    def test_paper_table_value(self):
        assert round(alpha2_closed_form(2, 0.934), 4) == 2.3382

    @pytest.mark.parametrize(
        "ell,eta",
        [(2, 0.93), (2, 0.937), (3, 0.9), (3, 0.95), (INFINITE, 0.951), (INFINITE, 0.99)],
    )
    def test_agrees_with_solver(self, ell, eta):
        # includes the INFINITE case where alpha2 exceeds the trivial bound
        sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=ell, eta=eta))
        assert abs(sol.alpha2 - alpha2_closed_form(ell, eta)) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            alpha2_closed_form(4, 0.9)
        with pytest.raises(ValueError):
            alpha2_closed_form(2, 0.6)


class TestTrivialBound:
    def test_eta_one(self):
        assert trivial_dense_bound(1.0) == 2.0

    def test_headline(self):
        assert trivial_dense_bound(0.951) < 2.7861

    def test_divergence_near_half(self):
        assert trivial_dense_bound(0.5 + 1e-7) > 1e3

    def test_rejects_low_eta(self):
        with pytest.raises(ValueError):
            trivial_dense_bound(0.5)


class TestDensityThreshold:
    def test_headline(self):
        eta = density_threshold(1.0, INFINITE, 2.0)
        assert abs(eta - 0.98226) < 5e-5

    def test_target_at_an_end_returns_that_end(self):
        lo = 0.75 + 1e-6
        for eta in (1.0, lo):
            target = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=INFINITE, eta=eta)).alpha0
            assert density_threshold(1.0, INFINITE, target) == eta

    def test_no_crossing(self):
        target = trivial_dense_bound(0.750001) + 0.1
        with pytest.raises(NoCrossing, match="no crossing"):
            density_threshold(1.0, INFINITE, target)


class TestTables:
    def test_l2_table_paper_cells(self):
        rows = table_l2_rows()
        reference = [
            (0.930, 2.4116, 2.4133), (0.931, 2.3931, 2.3943),
            (0.932, 2.3746, 2.3754), (0.933, 2.3562, 2.3567),
            (0.934, 2.3380, 2.3382), (0.935, 2.3197, 2.3198),
            (0.936, 2.3016, 2.3016), (0.937, 2.2836, 2.2836),
        ]
        for row, (eta, a1, a2) in zip(rows, reference):
            assert row["eta"] == eta
            assert round(row["alpha1"], 4) == a1
            assert round(row["alpha2"], 4) == a2

    def test_l2_crossover_at_six_decimals(self):
        rows = {r["eta"]: r for r in table_l2_rows()}
        r = rows[0.936]
        assert r["alpha1"] < r["alpha2"]
        assert round(r["alpha2"], 6) == 2.301621
        # the reference alpha1 is 2.301617; the solver agrees to ~5e-6 (the
        # reference value's own precision), and the ordering is reproduced exactly
        assert abs(r["alpha1"] - 2.301617) <= 1e-5
        assert r["alpha2"] - r["alpha1"] > 5e-6

    def test_sweep_appends_eta_one_closed_forms(self):
        rows = sweep_rows(1.0, [INFINITE, 3, 2], 0.98, 0.99, 0.01)
        tail = [r for r in rows if r["eta"] == 1.0]
        assert [round(r["alpha0"], 4) for r in tail] == [1.7071, 1.5774, 1.3333]
        assert all(r["trivial"] == 2.0 for r in tail)

    def test_sweep_below_trivial(self):
        rows = sweep_rows(1.0, [INFINITE], 0.96, 0.99, 0.01, append_eta1=False)
        assert rows
        for r in rows:
            assert r["alpha0"] < r["trivial"]

    def test_sweep_skips_infeasible_eta(self):
        rows = sweep_rows(1.0, [3], 0.75, 0.77, 0.01, append_eta1=False)
        assert [r["eta"] for r in rows] == [0.76, 0.77]

    @pytest.mark.parametrize("eta_from,eta_to,step,count", [
        (0.80, 0.85, 0.03, 2),  # 0.86 would overshoot
        (0.76, 0.99, 0.01, 24),  # (0.99 - 0.76) / 0.01 is 22.999999999999996 in floats
        (0.93, 0.93, 0.01, 1),
    ])
    def test_sweep_stops_at_eta_to(self, eta_from, eta_to, step, count):
        rows = sweep_rows(1.0, [2], eta_from, eta_to, step, append_eta1=False)
        etas = [r["eta"] for r in rows]
        assert len(etas) == count
        assert etas[0] == eta_from
        assert etas[-1] <= eta_to
