"""Closed-form clique bounds and the implicit dense-subgraph bound solver.

All logarithms are base 2. alpha values measure subgraph size in log2(n)
units; delta is the query exponent; eta the target edge density. gamma is the
critical-edge ratio, and the bounds use its proven upper bound
1/2 - 1/(2 S_ell), which is the exact ratio for 2, 3 and infinitely many
labels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels
from .common import ell_text, is_infinite, validate_ell
from .errors import NoCrossing, POutOfRange, RootDiagnostic
from .partition_bounds import gamma_upper_bound

SCAN_STEP = 1e-3
ALPHA_TOL = 1e-9
ETA_TOL = 1e-6


@dataclass(frozen=True)
class CliqueBoundQuery:
    delta: float
    ell: object  # int >= 2 or INFINITE

    def __post_init__(self):
        if not (1.0 <= self.delta <= 2.0):
            raise ValueError(f"delta must lie in [1, 2], got {self.delta}")
        validate_ell(self.ell, minimum=1)


@dataclass(frozen=True)
class DenseBoundQuery:
    delta: float
    ell: object
    eta: float

    def __post_init__(self):
        if not (1.0 <= self.delta <= 2.0):
            raise ValueError(f"delta must lie in [1, 2], got {self.delta}")
        validate_ell(self.ell, minimum=1)
        if not (0.75 < self.eta <= 1.0):
            raise ValueError(f"eta must lie in (3/4, 1], got {self.eta}")


@dataclass(frozen=True)
class DenseSolution:
    """Solved dense bound: alpha0 = min(alpha1, alpha2) dominates the query.

    alpha1_curve is the root of the stationary curve F1 (f at m1, or at the
    f'-argmin where f' has no root), as plotted and tabulated. alpha1 equals
    it where m1 exists there; otherwise m1 and alpha1 are math.inf. A branch
    with no root in floating point reads as math.inf, and only finite roots
    have a bracket. case reports which branch gives alpha0.
    """

    m1: float
    m2: float
    alpha1: float
    alpha2: float
    alpha0: float
    p_at_opt: float
    case: str
    alpha1_curve: float
    brackets: dict = field(default_factory=dict)

    def __post_init__(self):
        assert self.alpha0 == min(self.alpha1, self.alpha2)

    def to_json_dict(self) -> dict:
        def enc(x):
            return "inf" if x == math.inf else x

        return {
            "alpha0": enc(self.alpha0),
            "alpha1": enc(self.alpha1),
            "alpha2": enc(self.alpha2),
            "m1": enc(self.m1),
            "m2": enc(self.m2),
            "p_at_opt": self.p_at_opt,
            "case": self.case,
            "alpha1_curve": enc(self.alpha1_curve),
            "brackets": self.brackets,
        }


def binary_entropy(p: float) -> float:
    """Shannon entropy in bits; H(0) = H(1) = 0 by the 0 log 0 = 0 convention."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"entropy argument must lie in [0, 1], got {p}")
    return _kernels._entropy_val(p)


def resolve_gamma(ell) -> float:
    """Critical-edge ratio used by the bounds: the proven upper bound, exact
    for 2, 3 and INFINITE labels."""
    if validate_ell(ell, minimum=1) == 1:
        raise ValueError("no meaningful bound for one label: the ratio is 0")
    return float(gamma_upper_bound(ell))


def clique_lhs(alpha: float, m: float, delta: float, gamma: float) -> float:
    """alpha^2/2 - alpha - 2 gamma m^2 + (2 - delta) m, the feasibility
    left-hand side of the clique counting bound."""
    if not (0.0 <= m <= alpha / 2):
        raise ValueError(f"m must lie in [0, alpha/2], got m={m}, alpha={alpha}")
    return alpha * alpha / 2 - alpha - 2 * gamma * m * m + (2 - delta) * m


def clique_alpha_upper(query: CliqueBoundQuery) -> float:
    """Clique-size exponent bound: 4 delta/3 for two labels with delta in
    [1, 6/5]; otherwise 1 + sqrt(1 - (2-delta)^2 / (4 gamma))."""
    ell, delta = query.ell, query.delta
    gamma = resolve_gamma(ell)
    if ell == 2 and delta <= 1.2:
        return 4 * delta / 3
    return 1 + math.sqrt(1 - (2 - delta) ** 2 / (4 * gamma))


def corollary_alpha(delta: float, ell: int) -> float:
    """Closed form 1 + sqrt(1 - (2-delta)^2/(2 - 1/(3*2**(ell-3) - ell + 2)))
    for finite ell >= 3; equals clique_alpha_upper with the upper-bound ratio."""
    if is_infinite(ell) or ell < 3:
        raise ValueError("the closed form applies to finite ell >= 3")
    if not (1.0 <= delta <= 2.0):
        raise ValueError(f"delta must lie in [1, 2], got {delta}")
    denom = 2 - 1 / (3 * 2 ** (ell - 3) - ell + 2)
    return 1 + math.sqrt(1 - (2 - delta) ** 2 / denom)


def _check_domain(gamma: float, eta: float) -> None:
    if not (0.5 < eta <= 1.0):
        raise ValueError(f"eta must lie in (1/2, 1], got {eta}")
    if not (0.0 <= gamma <= 0.5):
        raise ValueError(f"gamma must lie in [0, 1/2], got {gamma}")


def _check_alpha(alpha: float) -> None:
    # alpha^2/2 is the denominator of p at m = 0, so it must be a positive
    # finite float: alpha = 0 or 1e-300 would divide by zero, and inf or
    # 1e160 give nan (nan fails every comparison)
    if not (alpha > 0 and 0.0 < 0.5 * alpha * alpha < math.inf):
        raise ValueError(f"alpha must be positive with alpha^2/2 a positive finite float, "
                         f"got {alpha}")


def _check_feasible(m: float, alpha: float, gamma: float, eta: float) -> None:
    _check_alpha(alpha)
    _check_domain(gamma, eta)
    if not (0.0 <= m <= alpha / 2):
        raise ValueError(f"m must lie in [0, alpha/2], got m={m}, alpha={alpha}")
    p = _kernels._p_val(m, alpha, gamma, eta)
    if p <= _kernels._P_FLOOR:
        raise POutOfRange(f"p out of range: p={p} <= 1/2 (infeasible m)")


def dense_f(m: float, alpha: float, delta: float, gamma: float, eta: float) -> float:
    """(alpha^2/2 - 2 gamma m^2)(1 - H(p)) - alpha + (2-delta) m with
    p = (eta alpha^2/2 - 2 gamma m^2)/(alpha^2/2 - 2 gamma m^2)."""
    _check_feasible(m, alpha, gamma, eta)
    return _kernels._f_val(m, alpha, delta, gamma, eta)


def dense_fprime(m: float, alpha: float, delta: float, gamma: float, eta: float) -> float:
    """d/dm of dense_f: -4 gamma m (1 + log2 p) + (2 - delta)."""
    _check_feasible(m, alpha, gamma, eta)
    return _kernels._fprime_val(m, alpha, delta, gamma, eta)


def solve_m1(alpha: float, delta: float, gamma: float, eta: float) -> float:
    """Smallest root of dense_fprime on [0, alpha/2], to 1e-12 in m, or
    math.inf when the derivative stays positive. The derivative is convex in
    m, so locating its minimum (bisection on the sign of the second
    derivative) certifies "smallest": the first root, if any, lies left of
    the argmin. Both bisections run inside a certified window, which only
    skips evaluations: the argmin window comes from m/alpha, on which the
    second derivative alone depends, and the root window is centred at
    Newton's iterate from m = 0. An end counts only when its sign holds with
    a margin above the kernels' rounding bound; an end that fails is
    dropped, and the search is the plain bisection on that side. The result
    is the plain bisection's, float for float."""
    _check_alpha(alpha)
    _check_domain(gamma, eta)
    m, found = _kernels._solve_m1_val(float(alpha), float(delta), float(gamma), float(eta))
    return m if found else math.inf


def trivial_dense_bound(eta: float) -> float:
    """2/(1 - H(eta)): the size exponent of the largest density-eta subgraph."""
    if not (0.5 < eta <= 1.0):
        raise ValueError(f"eta must lie in (1/2, 1], got {eta}")
    return 2 / (1 - binary_entropy(eta))


def _bisect_root(evaluate, lo: float, hi: float):
    # invariant: value(lo) <= 0 < value(hi); undefined (inf/nan) counts as > 0
    lo, hi = _kernels._bisect(lambda a: -math.inf < evaluate(a) <= 0, lo, hi, ALPHA_TOL)
    # certify a genuine crossing: lo only ever moves to points whose value is
    # finite and <= 0, so a defined upper end with value >= 0 means the
    # continuous branch has a root inside the bracket. An undefined upper end
    # means the bisection slid onto a branch-existence boundary instead.
    vhi = evaluate(hi)
    if not (math.isfinite(vhi) and vhi >= 0):
        raise RootDiagnostic(
            f"bracket [{lo}, {hi}] does not certify a root "
            f"(upper value {vhi}); the branch boundary was hit"
        )
    return 0.5 * (lo + hi), (lo, hi)


def _descending_root(evaluate, upper: float):
    """Largest root at or below `upper` by a descending SCAN_STEP scan plus
    bisection; when the branch is still non-positive at `upper` the root lies
    above it and is bracketed geometrically instead (the endpoint branch can
    exceed the trivial bound). A value that is not finite (F reads inf where
    p <= _P_FLOOR) means "branch undefined here". The scan evaluates grid
    points from the top down and stops at the first sign change, so points
    below the root are never evaluated. Grid point i is upper + i*d with d =
    (upper - SCAN_STEP) - upper, for i up to ceil((1 - upper)/-SCAN_STEP)
    exclusive: numpy's arange(upper, 1.0, -SCAN_STEP), float for float.
    Returns (root, (lo, hi)), or (math.inf, None) when the branch never
    crosses in floating point, below or within 60 doublings above `upper`.

    Each branch has at most one root. With m = t alpha, p depends on t alone,
    and f = alpha^2 g(t) + alpha ((2 - delta) t - 1) with g(t) = (1/2 - 2
    gamma t^2)(1 - H(p)) >= 0. f rises up to m1 and falls from m1 to the
    f'-argmin m*, so F1(alpha) is the maximum of f over t in [0, t*], where
    t* = m*/alpha does not depend on alpha (f'' depends on t alone). Each
    term is convex in alpha and 0 at alpha = 0. So F1, and F2 (the t = 1/2
    term), are convex with F(0) = 0: F(alpha)/alpha is nondecreasing, and F
    changes sign at most once for alpha > 0. A binary search over the
    SCAN_STEP grid would therefore find the scan's own cell.
    """
    v_up = evaluate(upper)
    if math.isfinite(v_up) and v_up <= 0:
        lo = hi = upper
        for _ in range(60):
            hi *= 2
            vh = evaluate(hi)
            if math.isfinite(vh) and vh <= 0:
                lo = hi
            elif math.isfinite(vh):
                return _bisect_root(evaluate, lo, hi)
        return math.inf, None

    # the grid starts at upper, whose value v_up is already known; a cell
    # brackets a root when its lower end is defined and <= 0 and its upper
    # end defined and > 0
    d = (upper - SCAN_STEP) - upper
    prev = v_up
    for i in range(1, math.ceil((1.0 - upper) / -SCAN_STEP)):
        v = evaluate(upper + i * d)
        if -math.inf < v <= 0 < prev < math.inf:
            return _bisect_root(evaluate, upper + i * d, upper + (i - 1) * d)
        prev = v
    return math.inf, None


def dense_alpha_upper(query: DenseBoundQuery) -> DenseSolution:
    """Implicit dense bound: alpha1 from the stationary branch (m = m1(alpha)),
    alpha2 from the endpoint branch (m = alpha/2), alpha0 = min. One scan of
    F1 finds alpha1_curve; it is alpha1 when m1 exists there."""
    delta, eta = query.delta, query.eta
    gamma = resolve_gamma(query.ell)
    upper = trivial_dense_bound(eta)

    def root(values):
        # the branch's root and bracket through the kernel attribute
        return _descending_root(lambda a: float(values((a,), delta, gamma, eta)[0]), upper)

    alpha2, br2 = root(_kernels.f2_values)
    alpha1_curve, br1 = root(_kernels.f1_values)
    m1 = solve_m1(alpha1_curve, delta, gamma, eta) if br1 else math.inf
    alpha1 = alpha1_curve if m1 < math.inf else math.inf
    brackets = {}
    if br2:
        brackets["alpha2"] = br2
    if alpha1 < math.inf:
        brackets["alpha1"] = br1

    if alpha1 <= alpha2:
        case, p_opt = "stationary", _kernels._p_val(m1, alpha1, gamma, eta)
    else:
        case, p_opt = "endpoint", _kernels._p_val(alpha2 / 2, alpha2, gamma, eta)

    # fields in order: m1, m2, alpha1, alpha2, alpha0, p_at_opt, case, alpha1_curve, brackets
    return DenseSolution(m1, alpha2 / 2, alpha1, alpha2, min(alpha1, alpha2), p_opt, case,
                         alpha1_curve, brackets)


def alpha2_closed_form(ell, eta: float) -> float:
    """Endpoint-branch root at delta = 1: 1/((1 - gamma)(1 - H((eta - gamma)/
    (1 - gamma)))) with gamma = resolve_gamma(ell), for every ell >= 2. At
    m = alpha/2, F2 = alpha^2 (1 - gamma)(1 - H)/2 - alpha delta/2, so the
    root at any delta is delta times this. For 2, 3 and INFINITE labels it
    gives the floats of 4/(3(1-H((4 eta - 1)/3))), 8/(5(1-H((8 eta - 3)/5)))
    and 2/(1-H(2 eta - 1)). Where 1 - H rounds to 0 (INFINITE with eta
    within about 2.2e-9 of 3/4) the root is math.inf, as the solver reports."""
    gamma = resolve_gamma(ell)
    arg = (eta - gamma) / (1 - gamma)
    if not (0.5 < arg <= 1.0):
        raise ValueError(f"eta={eta} puts the entropy argument {arg} outside (1/2, 1]")
    gap = 1 - binary_entropy(arg)
    return (1 / (1 - gamma)) / gap if gap > 0 else math.inf


def density_threshold(delta: float, ell, target_alpha: float) -> float:
    """The eta at which the dense bound alpha0 equals target_alpha, to ETA_TOL,
    by bisection over (3/4, 1]; raises NoCrossing when the target is never hit."""
    if math.isnan(target_alpha):
        raise ValueError(f"target_alpha must be a number, got {target_alpha}")
    lo, hi = 0.75 + 1e-6, 1.0

    def a0(eta):
        return dense_alpha_upper(DenseBoundQuery(delta=delta, ell=ell, eta=eta)).alpha0

    flo = a0(lo) - target_alpha
    fhi = a0(hi) - target_alpha
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoCrossing(
            f"no crossing: alpha0 - {target_alpha} keeps sign {'+' if flo > 0 else '-'} on (3/4, 1]"
        )
    lo, hi = _kernels._bisect(lambda eta: (a0(eta) - target_alpha > 0) == (flo > 0),
                              lo, hi, ETA_TOL)
    return 0.5 * (lo + hi)


def sweep_rows(delta: float, ells, eta_from: float, eta_to: float, step: float,
               append_eta1: bool = True):
    """Table rows for the figure data: one row per (eta, ell), eta ascending,
    with the clique closed form appended at eta = 1 when requested.

    Row dict keys: eta, ell, trivial, alpha0, alpha1, alpha2, m1, p_at_opt.
    alpha1 reports alpha1_curve, the stationary curve's root; alpha0 is
    min(alpha1, alpha2) with the definitional alpha1.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if not -math.inf < eta_from <= eta_to < math.inf:
        raise ValueError(f"eta_from ({eta_from}) must not exceed eta_to ({eta_to}), both finite")
    # the last eta stays at or below eta_to; the tolerance absorbs the
    # rounding in (0.99 - 0.76) / 0.01 = 22.999999999999996
    nsteps = math.floor((eta_to - eta_from) / step + 1e-9)

    def index(eta):  # grid position of eta, clamped to [0, nsteps]
        return min(max((eta - eta_from) / step, 0), nsteps)

    # round(x, 12) lands in (3/4, 1] only for x in (3/4, 1 + 5e-13], so only
    # those indices are built, with one index of margin on each side
    first = max(0, math.floor(index(0.75)) - 1)
    last = min(nsteps, math.ceil(index(1 + 5e-13)) + 1)
    grid = [round(eta_from + i * step, 12) for i in range(first, last + 1)]
    # the bound's range is (3/4, 1]; an appended eta = 1 replaces the grid's
    etas = [eta for eta in grid if 0.75 < eta < 1.0 or (eta == 1.0 and not append_eta1)]
    if append_eta1:
        etas.append(1.0)
    rows = []
    for eta in etas:
        for ell in ells:
            sol = dense_alpha_upper(DenseBoundQuery(delta=delta, ell=ell, eta=eta))
            if append_eta1 and eta == 1.0:
                alpha0 = clique_alpha_upper(CliqueBoundQuery(delta=delta, ell=ell))
            else:
                alpha0 = sol.alpha0
            rows.append(
                {
                    "eta": eta,
                    "ell": ell_text(ell),
                    "trivial": trivial_dense_bound(eta),
                    "alpha0": alpha0,
                    "alpha1": sol.alpha1_curve,
                    "alpha2": sol.alpha2,
                    "m1": sol.m1,
                    "p_at_opt": sol.p_at_opt,
                }
            )
    return rows


def table_l2_rows():
    """The eight-row eta/alpha1/alpha2 table for two labels at delta = 1
    (eta = 0.930 .. 0.937). alpha1 is the stationary-curve value."""
    return [{key: row[key] for key in ("eta", "alpha1", "alpha2")}
            for row in sweep_rows(1.0, [2], 0.930, 0.937, 0.001, append_eta1=False)]
