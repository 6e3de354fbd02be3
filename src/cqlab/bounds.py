"""Closed-form clique bounds and the implicit dense-subgraph bound solver.

All logarithms are base 2. alpha values measure subgraph size in log2(n)
units; delta is the query exponent; eta the target edge density. gamma is the
critical-edge ratio: exact for 2, 3 and infinitely many labels, otherwise the
proven upper bound (gamma_mode "auto" picks per label count, which is the
default everywhere).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .common import is_infinite, validate_ell
from .errors import NoCrossing, POutOfRange, RootDiagnostic
from .partition_bounds import gamma_exact, gamma_upper_bound

SCAN_STEP = 1e-3
ALPHA_TOL = 1e-9
M_TOL = 1e-12


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

    m1/alpha1 are math.inf when the stationary branch contributes no root
    (case reports which branch fired). alpha1_curve extends the stationary
    curve continuously past the existence boundary by clamping m to the
    f'-argmin; it equals alpha1 whenever that is finite and exists purely to
    reproduce plotted/tabulated curves.
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
            "m2": self.m2,
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


def resolve_gamma(ell, gamma_mode: str = "auto") -> float:
    """Critical-edge ratio used by the bounds. "exact" is available for 2, 3
    and INFINITE labels; "upper" uses the proven bound for finite counts;
    "auto" picks exact where known, the upper bound otherwise."""
    ell = validate_ell(ell, minimum=1)
    if not is_infinite(ell) and ell == 1:
        raise ValueError("no meaningful bound for one label: the ratio is 0")
    if gamma_mode not in ("auto", "exact", "upper"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    if gamma_mode == "upper":
        return float(gamma_upper_bound(ell))
    exactly_known = is_infinite(ell) or ell in (2, 3)
    if gamma_mode == "exact":
        if not exactly_known:
            raise ValueError(f"no exact ratio known for ell={ell}; use gamma_mode='upper'")
        return float(gamma_exact(ell))
    return float(gamma_exact(ell)) if exactly_known else float(gamma_upper_bound(ell))


def clique_lhs(alpha: float, m: float, delta: float, gamma: float) -> float:
    """alpha^2/2 - alpha - 2 gamma m^2 + (2 - delta) m, the feasibility
    left-hand side of the clique counting bound."""
    if not (0.0 <= m <= alpha / 2):
        raise ValueError(f"m must lie in [0, alpha/2], got m={m}, alpha={alpha}")
    return alpha * alpha / 2 - alpha - 2 * gamma * m * m + (2 - delta) * m


def clique_alpha_upper(query: CliqueBoundQuery, gamma_mode: str = "auto") -> float:
    """Clique-size exponent bound: 4 delta/3 for two labels with delta in
    [1, 6/5]; otherwise 1 + sqrt(1 - (2-delta)^2 / (4 gamma))."""
    ell, delta = query.ell, query.delta
    if not is_infinite(ell) and ell == 1:
        raise ValueError("no meaningful bound for one label (ratio 0 empties the radicand)")
    gamma = resolve_gamma(ell, gamma_mode)
    if not is_infinite(ell) and ell == 2 and delta <= 1.2:
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


def _check_feasible(m: float, alpha: float, gamma: float, eta: float) -> None:
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
    m, so locating its minimum (golden-section search) certifies "smallest":
    the first root, if any, lies left of the argmin."""
    m, ok = _kernels.solve_m1_scalar(alpha, delta, gamma, eta, M_TOL)
    return m if ok else math.inf


def trivial_dense_bound(eta: float) -> float:
    """2/(1 - H(eta)): the size exponent of the largest density-eta subgraph."""
    if not (0.5 < eta <= 1.0):
        raise ValueError(f"eta must lie in (1/2, 1], got {eta}")
    return 2 / (1 - binary_entropy(eta))


def _bisect_root(evaluate, lo: float, hi: float, tol: float):
    # invariant: value(lo) <= 0 < value(hi); undefined (inf/nan) counts as > 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float spacing exhausted (huge-alpha brackets)
        vm = evaluate(mid)
        if math.isfinite(vm) and vm <= 0:
            lo = mid
        else:
            hi = mid
    # certify a genuine crossing: both ends defined with opposite signs means
    # the continuous branch has a root inside the bracket. An undefined upper
    # end means the bisection slid onto a branch-existence boundary instead.
    vhi = evaluate(hi)
    vlo = evaluate(lo)
    if not (math.isfinite(vhi) and math.isfinite(vlo) and vlo <= 0 <= vhi):
        raise RootDiagnostic(
            f"bracket [{lo}, {hi}] does not certify a root "
            f"(values {vlo}, {vhi}); the branch boundary was hit"
        )
    return 0.5 * (lo + hi), (lo, hi)


def _descending_root(evaluate, upper: float, step: float, tol: float):
    """Largest root at or below `upper` by a descending step-`step` scan plus
    bisection; when the branch is still non-positive at `upper` the root lies
    above it and is bracketed geometrically instead (the endpoint branch can
    exceed the trivial bound). np.inf encodes "branch undefined here". The
    scan evaluates grid points from the top down and stops at the first sign
    change, so points below the root are never evaluated.
    Returns (root, (lo, hi)) or (None, None) when the branch never crosses.
    """
    v_up = evaluate(upper)
    if math.isfinite(v_up) and v_up <= 0:
        lo = upper
        hi = upper
        for _ in range(60):
            hi *= 2
            vh = evaluate(hi)
            if math.isfinite(vh) and vh <= 0:
                lo = hi
            elif math.isfinite(vh):
                return _bisect_root(evaluate, lo, hi, tol)
        raise RootDiagnostic("no sign change found while expanding above the trivial bound")

    prev_alpha = None
    prev_val = None
    for a in np.arange(upper, 1.0, -step).tolist():
        v = evaluate(a)
        if not math.isfinite(v):
            prev_alpha, prev_val = None, None
            continue
        if v <= 0 and prev_val is not None and prev_val > 0:
            return _bisect_root(evaluate, a, prev_alpha, tol)
        prev_alpha, prev_val = a, v
    return None, None


def dense_alpha_upper(query: DenseBoundQuery, gamma_mode: str = "auto") -> DenseSolution:
    """Implicit dense bound: alpha1 from the stationary branch (m = m1(alpha)),
    alpha2 from the endpoint branch (m = alpha/2), alpha0 = min."""
    delta, eta = query.delta, query.eta
    gamma = resolve_gamma(query.ell, gamma_mode)
    upper = trivial_dense_bound(eta)

    def f2(a):
        return float(_kernels.f2_values(np.array([a]), delta, gamma, eta)[0][0])

    alpha2, br2 = _descending_root(f2, upper, SCAN_STEP, ALPHA_TOL)
    if alpha2 is None:
        raise RootDiagnostic("endpoint branch lost its root; this should be impossible")

    def f1(a):
        return float(_kernels.f1_values(np.array([a]), delta, gamma, eta, M_TOL)[0][0])

    alpha1, br1 = _descending_root(f1, upper, SCAN_STEP, ALPHA_TOL)

    def f1_curve(a):
        return float(_kernels.f1_values(np.array([a]), delta, gamma, eta, M_TOL,
                                        curve=True)[0][0])

    if alpha1 is not None:
        alpha1_curve = alpha1
    else:
        alpha1_curve, _ = _descending_root(f1_curve, upper, SCAN_STEP, ALPHA_TOL)
        if alpha1_curve is None:
            alpha1_curve = math.inf

    brackets = {"alpha2": br2}
    if br1 is not None:
        brackets["alpha1"] = br1

    if alpha1 is not None and alpha1 <= alpha2:
        m1 = solve_m1(alpha1, delta, gamma, eta)
        alpha0 = alpha1
        case = "stationary"
        p_opt = _kernels._p_val(m1, alpha1, gamma, eta)
    else:
        alpha0 = alpha2
        case = "endpoint"
        p_opt = _kernels._p_val(alpha2 / 2, alpha2, gamma, eta)
        m1 = solve_m1(alpha1, delta, gamma, eta) if alpha1 is not None else math.inf

    return DenseSolution(
        m1=m1,
        m2=alpha2 / 2,
        alpha1=alpha1 if alpha1 is not None else math.inf,
        alpha2=alpha2,
        alpha0=alpha0 if alpha1 is not None else alpha2,
        p_at_opt=p_opt,
        case=case,
        alpha1_curve=alpha1_curve,
        brackets=brackets,
    )


def alpha2_closed_form(ell, eta: float, delta: float = 1.0) -> float:
    """Endpoint-branch closed forms at delta = 1: 2/(1-H(2 eta - 1)) for
    INFINITE, 8/(5(1-H((8 eta - 3)/5))) for 3 labels, and
    4/(3(1-H((4 eta - 1)/3))) for 2 labels."""
    if delta != 1.0:
        raise ValueError("closed forms are stated for delta = 1")
    if is_infinite(ell):
        arg = 2 * eta - 1
        scale = 2.0
    elif ell == 3:
        arg = (8 * eta - 3) / 5
        scale = 8 / 5
    elif ell == 2:
        arg = (4 * eta - 1) / 3
        scale = 4 / 3
    else:
        raise ValueError("closed forms exist for ell in {2, 3, INFINITE}")
    if not (0.5 < arg <= 1.0):
        raise ValueError(f"eta={eta} puts the entropy argument {arg} outside (1/2, 1]")
    return scale / (1 - binary_entropy(arg))


def density_threshold(delta: float, ell, target_alpha: float, tol: float = 1e-6) -> float:
    """The eta at which the dense bound alpha0 equals target_alpha, by
    bisection over (3/4, 1]; raises NoCrossing when the target is never hit."""
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
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (a0(mid) - target_alpha > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sweep_rows(delta: float, ells, eta_from: float, eta_to: float, step: float,
               gamma_mode: str = "auto", append_eta1: bool = True):
    """Table rows for the figure data: one row per (eta, ell), eta ascending,
    with the clique closed form appended at eta = 1 when requested.

    Row dict keys: eta, ell, trivial, alpha0, alpha1, alpha2, m1, p_at_opt.
    alpha1 reports the stationary curve (equal to the definitional alpha1
    whenever that is finite); alpha0 stays definitional.
    """
    from .common import ell_text  # local import to keep module deps one-way

    nsteps = int(round((eta_to - eta_from) / step))
    etas = [round(eta_from + i * step, 12) for i in range(nsteps + 1)]
    rows = []
    for eta in etas:
        if eta <= 0.75 or eta > 1.0 or (eta >= 1.0 and append_eta1):
            continue  # outside the bound's (3/4, 1] range, or handled below
        for ell in ells:
            sol = dense_alpha_upper(DenseBoundQuery(delta=delta, ell=ell, eta=eta), gamma_mode)
            rows.append(
                {
                    "eta": eta,
                    "ell": ell_text(ell),
                    "trivial": trivial_dense_bound(eta),
                    "alpha0": sol.alpha0,
                    "alpha1": sol.alpha1_curve,
                    "alpha2": sol.alpha2,
                    "m1": sol.m1,
                    "p_at_opt": sol.p_at_opt,
                }
            )
    if append_eta1:
        for ell in ells:
            clique = clique_alpha_upper(CliqueBoundQuery(delta=delta, ell=ell), gamma_mode)
            sol = dense_alpha_upper(DenseBoundQuery(delta=delta, ell=ell, eta=1.0), gamma_mode)
            rows.append(
                {
                    "eta": 1.0,
                    "ell": ell_text(ell),
                    "trivial": 2.0,
                    "alpha0": clique,
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
    rows = []
    for i in range(8):
        eta = round(0.930 + 0.001 * i, 3)
        sol = dense_alpha_upper(DenseBoundQuery(delta=1.0, ell=2, eta=eta))
        rows.append({"eta": eta, "alpha1": sol.alpha1_curve, "alpha2": sol.alpha2})
    return rows
