"""Per-label alternating-path caps, their sums, and the resulting ratio bounds.

Everything here is exact rational arithmetic (fractions.Fraction); floats are
only produced on request by the callers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .common import INFINITE, as_fraction, is_infinite, validate_ell


@dataclass(frozen=True)
class CVector:
    """Per-label cap vector c_ell with its sum S."""

    ell: int
    entries: tuple[int, ...]
    s_value: int


def c_vector(ell: int, conjectured_c2: bool = False) -> CVector:
    """Cap vector: (1, 1) for two labels; for ell >= 3 the first and last caps
    are 1, the second is 2**(ell-2), and cap t is 2**(ell-t+1) - 2 for
    3 <= t <= ell-1.

    conjectured_c2=True replaces the second cap by 3 for ell >= 4. That variant
    is an unproven conjecture and is never used by default.
    """
    ell = validate_ell(ell, minimum=2)
    if is_infinite(ell):
        raise ValueError("cap vectors are defined for finite label counts only")
    if ell == 2:
        entries = (1, 1)
    else:
        second = 3 if (conjectured_c2 and ell >= 4) else 2 ** (ell - 2)
        mid = tuple(2 ** (ell - t + 1) - 2 for t in range(3, ell))
        entries = (1, second) + mid + (1,)
    return CVector(ell=ell, entries=entries, s_value=sum(entries))


def gamma_upper_bound(ell, conjectured_c2: bool = False) -> Fraction:
    """Upper bound on the worst-case critical-edge ratio: 1/2 - 1/(2 S_ell)
    for finite ell >= 2, and exactly 1/2 for INFINITE.

    For ell >= 3 the sum satisfies S_ell = 3*2**(ell-2) - 2*ell + 4, giving
    1/2 - 1/(3*2**(ell-1) - 4*ell + 8).

    This is the ratio the bounds module uses. It equals the exact ratio
    (EXACT_GAMMA) for 2, 3 and INFINITE labels.
    """
    ell = validate_ell(ell, minimum=1)
    if is_infinite(ell):
        return Fraction(1, 2)
    if ell < 2:
        raise ValueError("ratio bound needs at least 2 labels (gamma(1) = 0)")
    s = c_vector(ell, conjectured_c2=conjectured_c2).s_value
    return Fraction(1, 2) - Fraction(1, 2 * s)


#: The exactly known critical-edge ratios: 0, 1/4, 3/8 for 1-3 labels and 1/2
#: for the totally ordered case.
EXACT_GAMMA = {1: Fraction(0), 2: Fraction(1, 4), 3: Fraction(3, 8), INFINITE: Fraction(1, 2)}


def gamma_exact(ell) -> Fraction:
    """The exactly known critical-edge ratio (EXACT_GAMMA). Raises for other
    label counts."""
    ell = validate_ell(ell, minimum=1)
    if ell not in EXACT_GAMMA:
        raise ValueError(f"no exact ratio is known for {ell} labels; use the upper bound")
    return EXACT_GAMMA[ell]


@dataclass(frozen=True)
class PartitionOptimum:
    """Constrained maximum of sum_{i<j} 2 x_i x_j + sum_t (1 - 1/k_t) x_t^2
    subject to x_t >= 0 and sum x_t = M.

    max_value = M^2 (1 - 1/S) with S = sum k_t, attained at x_t = M k_t / S.
    linear_term is the exact O(M) remainder in
    max_value = (1/2 - 1/(2S)) * C(2M, 2) + linear_term, reported separately.
    """

    sizes: tuple[Fraction, ...]
    max_value: Fraction
    linear_term: Fraction

    def __iter__(self):
        # unpack as (sizes, max_value) per the operation signature
        yield self.sizes
        yield self.max_value


def optimal_partition(k_vec, M) -> PartitionOptimum:
    """Closed-form optimum of the class-size allocation problem."""
    ks = [as_fraction(k) for k in k_vec]
    if not ks:
        raise ValueError("k_vec must be non-empty")
    if any(k <= 0 for k in ks):
        raise ValueError("k_vec entries must be positive")
    M = as_fraction(M)
    if M <= 0:
        raise ValueError("M must be positive")
    S = sum(ks)
    sizes = tuple(M * k / S for k in ks)
    max_value = M * M * (1 - Fraction(1, 1) / S)
    coeff = Fraction(1, 2) - 1 / (2 * S)
    linear_term = max_value - coeff * (2 * M * M - M)
    return PartitionOptimum(sizes=sizes, max_value=max_value, linear_term=linear_term)


def default_epsilon(ell) -> Fraction:
    """Default weight-scheme perturbation: 2**(-ell) for finite ell, 1/4 in
    the totally ordered case where the finitely many label inequalities do
    not arise. epsilon_check passes 2**(-ell) for every ell >= 2: there
    w(ell) - 2**(ell-2) = sum_{s=1}^{ell-2} 2**(ell-2-s(ell+1)) < 1/7."""
    if is_infinite(ell):
        return Fraction(1, 4)
    return Fraction(1, 2 ** int(ell))


@functools.lru_cache(maxsize=256)
def _weight_table(max_label: int, eps: Fraction) -> tuple[int, ...]:
    """Integer label weights: entry t is label_weight(t, eps) * q**(M-2) for
    eps = p/q and M = max_label, entries 0 and 1 are 0. Built by the exact
    recurrence label_weight(t+1) = 2 label_weight(t) + eps**(t-1), scaled:
    wint[2] = q**(M-2) and wint[t] = 2 wint[t-1] + p**(t-2) q**(M-t).
    Kept per (max_label, eps), as a tuple, since callers share it."""
    p, q = eps.numerator, eps.denominator
    wint = [0] * (max_label + 1)
    if max_label >= 2:
        wint[2] = q ** (max_label - 2)
        for t in range(3, max_label + 1):
            wint[t] = 2 * wint[t - 1] + p ** (t - 2) * q ** (max_label - t)
    return tuple(wint)


def epsilon_check(ell: int, epsilon) -> bool:
    """Exact check of the finitely many strict inequalities the weight scheme
    needs for a given label count, with w(t) = label_weight(t, eps):

    (a) w(ell) = sum_{s=0}^{ell-2} 2**(ell-2-s) eps^s < 2**(ell-2) + 1, and
    (b) for each 3 <= t <= ell-1, the weight of 2**(ell-t+1) - 1 label-t edges
        strictly exceeds the worst-case weight of the replacing edges:
        sum_{s=0}^{t-2} (2**(ell-1-s) - 2**(t-2-s)) eps^s
          > sum_{s=0}^{t-3} (2**(ell-1-s) - 2**(t-2-s)) eps^s
            + sum_{s=t-2}^{ell-2} 2**(ell-2-s) eps^s.

    Only (a) is evaluated, on _weight_table in exact integers (both sides
    scaled by q**(ell-2) for eps = p/q), because (a) implies (b). The left
    side of (b) minus its right side is eps^(t-2) (2**(m-1) - 1 - w(m)) with
    m = ell-t+2, so (b) at t reads w(m) < 2**(m-1) - 1 for m in 3..ell-1.
    Without its s = 0 term, (a) reads sum_{s>=1} 2**(ell-2-s) eps^s < 1, so
    its s = 1 term forces eps < 2**(3-ell) <= 1/2 when ell >= 4 (for
    ell <= 3 there is no t). Then w(m) = 2**(m-2) sum_s (eps/2)^s
    < 2**(m-2)/(1 - eps/2) < 2**m/3 <= 2**(m-1) - 1 for every m >= 3.
    """
    ell = validate_ell(ell, minimum=2)
    if is_infinite(ell):
        raise ValueError("epsilon_check applies to finite label counts")
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return _weight_table(ell, eps)[ell] < (2 ** (ell - 2) + 1) * eps.denominator ** (ell - 2)
