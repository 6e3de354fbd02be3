from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab.common import INFINITE, as_fraction, validate_ell
from cqlab.labeled_graphs import (
    FOUR_LABEL,
    LEX_INFINITE,
    THREE_LABEL,
    TWO_LABEL,
    construction_min_ratio_analytic,
    label_weight,
)
from cqlab.partition_bounds import (
    c_vector,
    default_epsilon,
    epsilon_check,
    gamma_exact,
    gamma_upper_bound,
    optimal_partition,
)


def grid_maximum(kv, M):
    """Maximum of sum_{i<j} 2 x_i x_j + sum_i (1 - 1/k_i) x_i^2 over the
    allocations of M to the classes of kv on the grid of step M/200, the last
    class taking the rest. One size of the first class is evaluated at a time
    with a running maximum, so no full grid is held: at four classes a slice
    has 201^2 points, against 201^3 for the whole grid."""
    step = M / 200
    ticks = np.arange(0, M + step / 2, step)
    best = -np.inf
    for x0 in ticks:
        free = np.meshgrid(*[ticks] * (len(kv) - 2), indexing="ij")
        rest = M - x0
        for x in free:
            rest = rest - x
        xs = np.stack([np.full_like(rest, x0), *free, np.maximum(rest, 0)])
        cross = M * M - np.sum(xs**2, axis=0)  # sum_{i<j} 2 x_i x_j
        own = sum((1 - 1 / k) * xs[i] ** 2 for i, k in enumerate(kv))
        best = max(best, np.where(rest >= -1e-9, cross + own, -np.inf).max())
    return best


class TestCVector:
    @pytest.mark.parametrize(
        "ell,entries,s",
        [
            (2, (1, 1), 2),
            (3, (1, 2, 1), 4),
            (4, (1, 4, 2, 1), 8),
            (5, (1, 8, 6, 2, 1), 18),
            (6, (1, 16, 14, 6, 2, 1), 40),
        ],
    )
    def test_known_vectors(self, ell, entries, s):
        cv = c_vector(ell)
        assert cv.entries == entries
        assert cv.s_value == s

    @pytest.mark.parametrize("ell", range(3, 11))
    def test_sum_closed_form(self, ell):
        assert c_vector(ell).s_value == 3 * 2 ** (ell - 2) - 2 * ell + 4

    def test_endpoints_are_one(self):
        for ell in range(2, 12):
            cv = c_vector(ell)
            assert cv.entries[0] == 1 and cv.entries[-1] == 1

    def test_rejects_small_ell(self):
        with pytest.raises(ValueError):
            c_vector(1)

    def test_conjectured_variant_marked_apart(self):
        cv = c_vector(4, conjectured_c2=True)
        assert cv.entries == (1, 3, 2, 1)
        assert cv.s_value == 7


class TestGammaUpperBound:
    @pytest.mark.parametrize(
        "ell,expected",
        [
            (2, Fraction(1, 4)),
            (3, Fraction(3, 8)),
            (4, Fraction(7, 16)),
            (INFINITE, Fraction(1, 2)),
        ],
    )
    def test_exact_values(self, ell, expected):
        assert gamma_upper_bound(ell) == expected

    def test_monotone_and_below_half(self):
        vals = [gamma_upper_bound(ell) for ell in range(2, 13)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(v < Fraction(1, 2) for v in vals)
        assert gamma_upper_bound(INFINITE) == Fraction(1, 2)

    def test_construction_ratios_below_bound(self):
        assert construction_min_ratio_analytic(TWO_LABEL) == gamma_upper_bound(2)
        assert construction_min_ratio_analytic(THREE_LABEL) == gamma_upper_bound(3)
        assert construction_min_ratio_analytic(FOUR_LABEL) <= gamma_upper_bound(4)
        assert construction_min_ratio_analytic(LEX_INFINITE) == gamma_upper_bound(INFINITE)

    def test_conjectured_four_label_bound(self):
        assert gamma_upper_bound(4, conjectured_c2=True) == Fraction(3, 7)

    def test_gamma_exact_table(self):
        assert gamma_exact(1) == 0
        assert gamma_exact(2) == Fraction(1, 4)
        assert gamma_exact(3) == Fraction(3, 8)
        assert gamma_exact(INFINITE) == Fraction(1, 2)
        with pytest.raises(ValueError):
            gamma_exact(4)

    @pytest.mark.parametrize("ell", [2, 3, INFINITE])
    def test_upper_bound_is_exact_where_known(self, ell):
        assert gamma_upper_bound(ell) == gamma_exact(ell)


class TestExactInputs:
    def test_as_fraction_rejects_none(self):
        with pytest.raises(ValueError, match="cannot interpret None as an exact rational"):
            as_fraction(None)
        with pytest.raises(ValueError, match="exact rational"):
            optimal_partition((1, 1), None)

    def test_as_fraction_takes_float_exactly(self):
        assert as_fraction(0.125) == Fraction(1, 8)

    def test_validate_ell_rejects_non_integer(self):
        with pytest.raises(ValueError, match="must be an integer or INFINITE, got 2.5"):
            validate_ell(2.5)
        with pytest.raises(ValueError, match="integer or INFINITE"):
            gamma_exact(2.5)


class TestRefusals:
    def test_c_vector_needs_finite_labels(self):
        with pytest.raises(ValueError, match="finite label counts only"):
            c_vector(INFINITE)

    def test_upper_bound_needs_two_labels(self):
        with pytest.raises(ValueError, match=r"at least 2 labels \(gamma\(1\) = 0\)"):
            gamma_upper_bound(1)

    def test_partition_needs_positive_m(self):
        with pytest.raises(ValueError, match="M must be positive"):
            optimal_partition((1, 1), 0)

    def test_epsilon_check_rejects(self):
        with pytest.raises(ValueError, match="applies to finite label counts"):
            epsilon_check(INFINITE, Fraction(1, 64))
        with pytest.raises(ValueError, match="epsilon must be positive"):
            epsilon_check(3, 0)


class TestOptimalPartition:
    def test_two_classes(self):
        opt = optimal_partition((1, 1), 10)
        assert opt.sizes == (5, 5)
        assert opt.max_value == 50

    def test_four_classes(self):
        opt = optimal_partition((1, 4, 2, 1), 8)
        assert opt.sizes == (1, 4, 2, 1)
        assert opt.max_value == 56

    def test_single_class_degenerate(self):
        sizes, value = optimal_partition((1,), 5)
        assert sizes == (5,)
        assert value == 0

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            optimal_partition((1, 0), 5)
        with pytest.raises(ValueError):
            optimal_partition((), 5)

    def test_linear_remainder_identity(self):
        # max_value == (1/2 - 1/(2S)) * C(2M, 2) + linear_term, exactly
        for kv, M in (((1, 1), 10), ((1, 2, 1), 7), ((1, 4, 2, 1), 100)):
            opt = optimal_partition(kv, M)
            S = sum(Fraction(k) for k in kv)
            coeff = Fraction(1, 2) - 1 / (2 * S)
            assert coeff * (2 * M * M - M) + opt.linear_term == opt.max_value

    @pytest.mark.parametrize("kv", [(1, 1), (1, 2, 1), (1, 4, 2, 1)])
    def test_grid_bruteforce_oracle(self, kv):
        # independent oracle: exhaustive grid of feasible allocations at
        # resolution M/200; the closed-form optimum sits on this grid for
        # these cap vectors, so the values agree exactly up to float noise.
        M = 100
        best = grid_maximum(kv, M)
        opt = optimal_partition(kv, M)
        assert abs(float(opt.max_value) - float(best)) < 1e-6


class TestEpsilonCheck:
    @pytest.mark.parametrize("ell", range(2, 11))
    def test_default_epsilon_passes(self, ell):
        assert epsilon_check(ell, default_epsilon(ell)) is True
        assert default_epsilon(ell) == Fraction(1, 2**ell)

    def test_small_ell_examples(self):
        assert epsilon_check(3, Fraction(1, 8)) is True
        assert epsilon_check(2, Fraction(1, 2)) is True
        assert epsilon_check(2, Fraction(9, 10)) is True

    @pytest.mark.parametrize("ell", [3, 4, 6, 8])
    def test_large_epsilon_fails(self, ell):
        assert epsilon_check(ell, 10) is False

    def test_exact_rational_arithmetic(self):
        # a value astronomically close to the (a)-inequality boundary:
        # floats could not distinguish it, Fractions must
        eps = Fraction(1, 10**40)
        assert epsilon_check(4, eps) is True

    @given(st.integers(min_value=2, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_some_feasible_epsilon_exists(self, ell):
        assert epsilon_check(ell, Fraction(1, 2**ell)) is True


def reference_b_sides(ell, eps, t):
    """Both sides of condition (b) at label t, summed term by term as
    epsilon_check's docstring writes them."""
    red = sum(
        (Fraction(2) ** (ell - 1 - s) - Fraction(2) ** (t - 2 - s)) * eps**s
        for s in range(t - 1)
    )
    blue = sum(
        (Fraction(2) ** (ell - 1 - s) - Fraction(2) ** (t - 2 - s)) * eps**s
        for s in range(t - 2)
    ) + sum(Fraction(2) ** (ell - 2 - s) * eps**s for s in range(t - 2, ell - 1))
    return red, blue


def reference_epsilon_check(ell, epsilon):
    """Condition (a) and every (b), each summed term by term in Fractions;
    epsilon_check's one comparison must give the same answer."""
    eps = as_fraction(epsilon)
    lhs_a = sum(Fraction(2) ** (ell - 2 - s) * eps**s for s in range(ell - 1))
    if not lhs_a < 2 ** (ell - 2) + 1:
        return False
    for t in range(3, ell):
        red, blue = reference_b_sides(ell, eps, t)
        if not red > blue:
            return False
    return True


@st.composite
def ell_and_epsilon(draw):
    # plain rationals, or epsilons on both sides of the (a) threshold 2**(3-ell)
    ell = draw(st.integers(min_value=2, max_value=14))
    if draw(st.booleans()):
        eps = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))
    else:
        eps = Fraction(2) ** (3 - ell) * Fraction(draw(st.integers(1, 150)), 97)
    return ell, eps


class TestEpsilonCheckAgreement:
    @given(ell_and_epsilon())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_term_by_term_check(self, case):
        ell, eps = case
        assert epsilon_check(ell, eps) is reference_epsilon_check(ell, eps)

    def test_b_sides_differ_by_the_scaled_weight_gap(self):
        # the identity epsilon_check's docstring reads (b) through
        epsilons = [Fraction(1, 2**12), Fraction(1, 64), Fraction(1, 10), Fraction(1, 3),
                    Fraction(3, 7), Fraction(1), Fraction(10)]
        for ell in range(4, 15):
            for eps in epsilons:
                for t in range(3, ell):
                    red, blue = reference_b_sides(ell, eps, t)
                    m = ell - t + 2
                    gap = 2 ** (m - 1) - 1 - label_weight(m, eps, ell)
                    assert red - blue == eps ** (t - 2) * gap
