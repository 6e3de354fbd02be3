"""Hot numeric kernels with two builds.

Default build compiles the kernels with numba @njit; setting CQLAB_NO_NUMBA=1
(or running without numba installed) selects the fallback build, which runs
the same loops interpreted for the alternating-structure DFS and the
dense-bound evaluators, and a vectorized NumPy count for the matching scan.
The dense formulas f, f', p and the entropy live here only; `bounds` calls
them. `python3 cqbench/run.py` times the kernels through their callers.

Encodings used throughout:
  * labelings: contiguous (n, n) int64 matrix, vertices 0-based, symmetric;
  * matchings inside kernels: partner array, partner[v] = matched vertex or -1;
  * red/blue graphs: red edge i joins vertices 2i and 2i+1, so the red partner
    of v is v ^ 1; blue adjacency is CSR (indptr, indices), vertices 0-based.
"""
from __future__ import annotations

import math
import os

import numpy as np

_P_FLOOR = 0.5 + 1e-12
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)

NUMBA_REQUESTED = os.environ.get("CQLAB_NO_NUMBA", "") != "1"
try:
    if NUMBA_REQUESTED:
        from numba import njit as _njit

        HAVE_NUMBA = True
    else:
        HAVE_NUMBA = False
except ImportError:  # pragma: no cover - the test environment has numba
    HAVE_NUMBA = False

BACKEND = "numba" if HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# minimum-critical matching enumeration
# ---------------------------------------------------------------------------

def _min_critical_core(lab, n, m):
    # Iterative backtracking over all size-m matchings of K_n, in lexicographic
    # order of the sorted edge list (partner candidates ascending, then the
    # skip branch last), so keeping the first strict improvement realizes the
    # documented tie-break. Returns (min critical count, argmin matching).
    partner = np.full(n, -1, np.int64)
    fu = np.zeros(n + 2, np.int64)
    fnext = np.zeros(n + 2, np.int64)  # next partner; ==n: skip branch; ==n+1: done
    fprev = np.full(n + 2, -1, np.int64)
    fch = np.zeros(n + 2, np.int64)
    best = np.int64(1) << 62
    best_edges = np.full((m, 2), -1, np.int64)

    depth = 0
    fu[0] = 0
    fnext[0] = 1
    fprev[0] = -1
    fch[0] = 0
    while depth >= 0:
        u = fu[depth]
        if fprev[depth] >= 0:
            partner[u] = -1
            partner[fprev[depth]] = -1
            fprev[depth] = -1
        nxt = fnext[depth]
        if nxt < n:
            v = nxt
            while v < n and partner[v] >= 0:
                v += 1
            if v >= n:
                fnext[depth] = n
                continue
            fnext[depth] = v + 1
            partner[u] = v
            partner[v] = u
            fprev[depth] = v
            ch = fch[depth] + 1
            if ch == m:
                c = np.int64(0)
                for a in range(n):
                    pa = partner[a]
                    for b in range(a + 1, n):
                        if pa == b:
                            continue
                        pb = partner[b]
                        if pa < 0 and pb < 0:
                            continue
                        lab_ab = lab[a, b]
                        if (pa >= 0 and lab[a, pa] > lab_ab) or (
                            pb >= 0 and lab[b, pb] > lab_ab
                        ):
                            c += 1
                if c < best:
                    best = c
                    idx = 0
                    for a in range(n):
                        b2 = partner[a]
                        if b2 > a:
                            best_edges[idx, 0] = a
                            best_edges[idx, 1] = b2
                            idx += 1
            else:
                w = u + 1
                while w < n and partner[w] >= 0:
                    w += 1
                if w < n:
                    depth += 1
                    fu[depth] = w
                    fnext[depth] = w + 1
                    fprev[depth] = -1
                    fch[depth] = ch
            continue
        if nxt == n:
            fnext[depth] = n + 1
            free_after = 0
            for w in range(u + 1, n):
                if partner[w] < 0:
                    free_after += 1
            if free_after >= 2 and fch[depth] + free_after // 2 >= m:
                w = u + 1
                while w < n and partner[w] >= 0:
                    w += 1
                ch0 = fch[depth]
                depth += 1
                fu[depth] = w
                fnext[depth] = w + 1
                fprev[depth] = -1
                fch[depth] = ch0
            continue
        depth -= 1
    return best, best_edges


def iter_matchings(n: int, m: int):
    """Yield all size-m matchings of K_n (0-based) as sorted edge tuples,
    in lexicographic order of the sorted edge list."""
    used = [False] * n
    edges: list[tuple[int, int]] = []

    def rec(u: int, chosen: int):
        if chosen == m:
            yield tuple(edges)
            return
        while u < n and used[u]:
            u += 1
        if u >= n:
            return
        free_after = 0
        for w in range(u + 1, n):
            if not used[w]:
                free_after += 1
        used[u] = True
        for v in range(u + 1, n):
            if not used[v]:
                used[v] = True
                edges.append((u, v))
                yield from rec(u + 1, chosen + 1)
                edges.pop()
                used[v] = False
        used[u] = False
        if chosen + free_after // 2 >= m:
            yield from rec(u + 1, chosen)

    yield from rec(0, 0)


def _min_critical_numpy(lab, n, m, chunk=4096):
    # Fallback: matchings come from the Python generator (same order as the
    # compiled kernel); critical counts are evaluated vectorized per chunk.
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rows = np.arange(n)[None, :]
    best = None
    best_edges = None

    def flush(partners, edge_lists):
        nonlocal best, best_edges
        P = np.asarray(partners, dtype=np.int64)
        cov = np.where(P >= 0, lab[rows, np.clip(P, 0, n - 1)], np.int64(-1))
        counts = np.zeros(P.shape[0], dtype=np.int64)
        for a, b in pairs:
            lab_ab = lab[a, b]
            crit = ((cov[:, a] > lab_ab) | (cov[:, b] > lab_ab)) & (P[:, a] != b)
            counts += crit
        i = int(np.argmin(counts))
        if best is None or counts[i] < best:
            best = int(counts[i])
            best_edges = edge_lists[i]

    partners: list[list[int]] = []
    edge_lists: list[tuple] = []
    for edges in iter_matchings(n, m):
        p = [-1] * n
        for a, b in edges:
            p[a] = b
            p[b] = a
        partners.append(p)
        edge_lists.append(edges)
        if len(partners) >= chunk:
            flush(partners, edge_lists)
            partners, edge_lists = [], []
    if partners:
        flush(partners, edge_lists)
    out = np.asarray(best_edges, dtype=np.int64).reshape(m, 2)
    return best, out


# ---------------------------------------------------------------------------
# alternating-structure DFS
# ---------------------------------------------------------------------------

def _max_blue_core(indptr, indices, nv):
    # Exact maximum number of blue edges over vertex-simple alternating paths.
    # DFS over "about to take a blue edge" states; any maximum is attained by
    # a path that starts and ends with blue (leading/trailing red edges only
    # add vertices), so starting before-blue at every vertex is exhaustive.
    best = 0
    visited = np.zeros(nv, np.bool_)
    sv = np.empty(nv + 2, np.int64)
    sp = np.empty(nv + 2, np.int64)
    sw = np.empty(nv + 2, np.int64)
    for s in range(nv):
        visited[s] = True
        depth = 0
        sv[0] = s
        sp[0] = indptr[s]
        sw[0] = -1
        blue = 0
        while depth >= 0:
            v = sv[depth]
            p = sp[depth]
            pushed = False
            while p < indptr[v + 1]:
                w = indices[p]
                p += 1
                if visited[w]:
                    continue
                if blue + 1 > best:
                    best = blue + 1
                w2 = w ^ 1
                if not visited[w2]:
                    sp[depth] = p
                    visited[w] = True
                    visited[w2] = True
                    blue += 1
                    depth += 1
                    sv[depth] = w2
                    sp[depth] = indptr[w2]
                    sw[depth] = w
                    pushed = True
                    break
            if pushed:
                continue
            wch = sw[depth]
            if wch >= 0:
                visited[wch] = False
                visited[wch ^ 1] = False
                blue -= 1
            depth -= 1
        visited[s] = False
    return best


def _has_cycle_core(indptr, indices, nv):
    # Alternating cycle through red edge (s, s+1), oriented to leave s by a
    # blue edge and re-enter s+1 by a blue edge; trying every even s covers
    # every red edge a cycle could use. Vertex-simple by the visited set.
    visited = np.zeros(nv, np.bool_)
    sv = np.empty(nv + 2, np.int64)
    sp = np.empty(nv + 2, np.int64)
    sw = np.empty(nv + 2, np.int64)
    for s in range(0, nv, 2):
        target = s + 1
        visited[s] = True
        visited[target] = True
        depth = 0
        sv[0] = s
        sp[0] = indptr[s]
        sw[0] = -1
        found = False
        while depth >= 0:
            v = sv[depth]
            p = sp[depth]
            pushed = False
            while p < indptr[v + 1]:
                w = indices[p]
                p += 1
                if w == target:
                    if depth >= 1:
                        found = True
                        break
                    continue
                if visited[w]:
                    continue
                w2 = w ^ 1
                if not visited[w2]:
                    sp[depth] = p
                    visited[w] = True
                    visited[w2] = True
                    depth += 1
                    sv[depth] = w2
                    sp[depth] = indptr[w2]
                    sw[depth] = w
                    pushed = True
                    break
            if found:
                break
            if pushed:
                continue
            wch = sw[depth]
            if wch >= 0:
                visited[wch] = False
                visited[wch ^ 1] = False
            depth -= 1
        if found:
            return True
        for i in range(nv):
            visited[i] = False
    return False


# ---------------------------------------------------------------------------
# dense-bound evaluation (Shannon entropy in base 2 throughout)
# ---------------------------------------------------------------------------

def _entropy_val(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def _p_val(m, a, g, eta):
    den = 0.5 * a * a - 2.0 * g * m * m
    return (eta * 0.5 * a * a - 2.0 * g * m * m) / den


def _f_val(m, a, d, g, eta):
    den = 0.5 * a * a - 2.0 * g * m * m
    p = _p_val(m, a, g, eta)
    if p <= _P_FLOOR:
        return np.inf
    return den * (1.0 - _entropy_val(p)) - a + (2.0 - d) * m


def _fprime_val(m, a, d, g, eta):
    p = _p_val(m, a, g, eta)
    if p <= 0.0:
        return np.inf
    return -4.0 * g * m * (1.0 + math.log2(p)) + (2.0 - d)


def _argmin_fprime(a, d, g, eta):
    # Golden-section search: f' is convex in m (the suite certifies this
    # numerically), and each step reuses one interior value, so it costs one
    # f' evaluation. Stops at the tolerance or when float spacing exhausts
    # the interval.
    l = 0.0
    r = 0.5 * a
    c = r - _INV_PHI * (r - l)
    e = l + _INV_PHI * (r - l)
    fc = _fprime_val(c, a, d, g, eta)
    fe = _fprime_val(e, a, d, g, eta)
    while r - l > 1e-13:
        if fc < fe:
            r = e
            e, fe = c, fc
            c = r - _INV_PHI * (r - l)
            if c <= l or c >= e:
                break
            fc = _fprime_val(c, a, d, g, eta)
        else:
            l = c
            c, fc = e, fe
            e = l + _INV_PHI * (r - l)
            if e <= c or e >= r:
                break
            fe = _fprime_val(e, a, d, g, eta)
    return 0.5 * (l + r)


def _solve_m1_val(a, d, g, eta, mtol):
    # Smallest root of f' on [0, a/2]: returns (m1, 1.0), or (argmin, 0.0)
    # when f' > 0 throughout (no stationary point).
    if 2.0 - d <= 0.0:
        return 0.0, 1.0
    mstar = _argmin_fprime(a, d, g, eta)
    if _fprime_val(mstar, a, d, g, eta) > 0.0:
        return mstar, 0.0
    lo = 0.0
    hi = mstar
    while hi - lo > mtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _fprime_val(mid, a, d, g, eta) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), 1.0


def _f1_batch_core(alphas, d, g, eta, mtol, curve):
    # F1(alpha) = f(m1(alpha), alpha). With curve=0 the stationary branch is
    # definitional: no root of f' means no constraint from this branch, coded
    # as F1 = +inf. curve=1 clamps m to the f'-argmin instead, extending the
    # curve continuously past the existence boundary.
    nd = alphas.shape[0]
    out_f = np.empty(nd)
    out_m = np.empty(nd)
    out_p = np.empty(nd)
    for i in range(nd):
        a = alphas[i]
        m1, ok = _solve_m1_val(a, d, g, eta, mtol)
        if ok == 0.0 and curve == 0:
            out_f[i] = np.inf
            out_m[i] = np.inf
            out_p[i] = np.nan
        else:
            out_f[i] = _f_val(m1, a, d, g, eta)
            out_m[i] = m1
            out_p[i] = _p_val(m1, a, g, eta)
    return out_f, out_m, out_p


def _f2_batch_core(alphas, d, g, eta):
    nd = alphas.shape[0]
    out_f = np.empty(nd)
    out_p = np.empty(nd)
    for i in range(nd):
        a = alphas[i]
        m = 0.5 * a
        out_f[i] = _f_val(m, a, d, g, eta)
        out_p[i] = _p_val(m, a, g, eta)
    return out_f, out_p


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if HAVE_NUMBA:
    _min_critical_njit = _njit(cache=True)(_min_critical_core)
    _max_blue_njit = _njit(cache=True)(_max_blue_core)
    _has_cycle_njit = _njit(cache=True)(_has_cycle_core)
    _entropy_val = _njit(cache=True)(_entropy_val)
    _p_val = _njit(cache=True)(_p_val)
    _f_val = _njit(cache=True)(_f_val)
    _fprime_val = _njit(cache=True)(_fprime_val)
    _argmin_fprime = _njit(cache=True)(_argmin_fprime)
    _solve_m1_val = _njit(cache=True)(_solve_m1_val)
    _f1_batch_core = _njit(cache=True)(_f1_batch_core)
    _f2_batch_core = _njit(cache=True)(_f2_batch_core)


def min_critical_scan(lab: np.ndarray, size: int):
    """Exact (min critical count, argmin matching edges) over all size-`size`
    matchings of the labeled K_n given as a 0-based (n, n) int64 matrix."""
    lab = np.ascontiguousarray(lab, dtype=np.int64)
    n = lab.shape[0]
    if HAVE_NUMBA:
        best, edges = _min_critical_njit(lab, n, size)
        return int(best), edges
    best, edges = _min_critical_numpy(lab, n, size)
    return int(best), edges


def alt_path_max_blue(indptr: np.ndarray, indices: np.ndarray, nv: int) -> int:
    if HAVE_NUMBA:
        return int(_max_blue_njit(indptr, indices, nv))
    return int(_max_blue_core(indptr, indices, nv))


def alt_cycle_exists(indptr: np.ndarray, indices: np.ndarray, nv: int) -> bool:
    if HAVE_NUMBA:
        return bool(_has_cycle_njit(indptr, indices, nv))
    return bool(_has_cycle_core(indptr, indices, nv))


def f1_values(alphas, delta, gamma, eta, mtol=1e-12, curve=False):
    """Batch F1 evaluation; returns (f1, m1, p) arrays."""
    a = np.ascontiguousarray(alphas, dtype=np.float64)
    return _f1_batch_core(a, float(delta), float(gamma), float(eta), mtol,
                          1 if curve else 0)


def f2_values(alphas, delta, gamma, eta):
    """Batch F2 evaluation (m = alpha/2); returns (f2, p) arrays."""
    a = np.ascontiguousarray(alphas, dtype=np.float64)
    return _f2_batch_core(a, float(delta), float(gamma), float(eta))


def solve_m1_scalar(alpha, delta, gamma, eta, mtol=1e-12):
    """Smallest root of f' on [0, alpha/2]: (m1, True), or (argmin, False)
    when f' has no root there."""
    m, ok = _solve_m1_val(float(alpha), float(delta), float(gamma), float(eta), mtol)
    return float(m), ok == 1.0
