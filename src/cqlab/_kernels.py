"""Hot numeric kernels.

The alternating-structure searches and the dense-bound evaluators are plain
Python over lists and floats; there is one build. Both alternating searches
call one iterative walker over vertex-simple alternating paths. They are
certificate-first: a linear pass computes the longest path of the digraph
with an arc v -> w^1 per blue edge {v, w} (both ways). When that digraph is
acyclic there is no alternating cycle, and the exact path DFS stops as soon
as a path reaches its length; the answer always comes from the DFS. Only a
cyclic digraph runs the exact cycle DFS, and only a path maximum below the
bound (or a cyclic digraph) makes the path DFS exhaustive. The matching
scans are vectorised NumPy: one partner table lists every matching in
lexicographic order, and the scans compare labels over it in row chunks.
The dense formulas f, f', p and the entropy live here only; `bounds` calls
them. `python3 cqbench/run.py` times the kernels through their callers.

Encodings used throughout:
  * labelings: contiguous (n, n) int64 matrix, vertices 0-based, symmetric;
  * matchings inside kernels: partner array, partner[v] = matched vertex or -1,
    one row of the int8 partner table per matching;
  * red/blue graphs: red edge i joins vertices 2i and 2i+1, so the red partner
    of v is v ^ 1; blue adjacency is CSR as two lists (indptr, indices),
    vertices 0-based.
"""
from __future__ import annotations

import math

import numpy as np

_P_FLOOR = 0.5 + 1e-12
M_TOL = 1e-12  # bisection width of the f' root m1
_INV_PHI = 0.5 * (math.sqrt(5.0) - 1.0)

# stamped on every benchmark result; cqbench/compare.py refuses to mix backends
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# matching enumeration
# ---------------------------------------------------------------------------

# rows per vectorised step of the matching scans; each int64 temporary of a
# step is 1024 x C(n, 2) x 8 bytes (745 kB at K_14, 983 kB at K_16), and a
# step holds several at once
_SCAN_ROWS = 1024


def _matching_table(n, m):
    """Every size-m matching of K_n as one row of an int8 (rows, n) partner
    table (row[v] = v's partner, or -1 when v is unmatched). Rows come in
    lexicographic order of the sorted edge list."""
    rows = math.comb(n, 2 * m) * math.prod(range(1, 2 * m, 2))
    table = np.empty((rows, n), np.int8)
    if m == 0:
        table.fill(-1)
        return table
    # vertex 0 matched to v = 1, 2, ...: those edge lists start with (0, v);
    # the rest is the (n-2, m-1) table mapped in order onto the other vertices
    sub = _matching_table(n - 2, m - 1)
    r = 0
    for v in range(1, n):
        rest = np.delete(np.arange(1, n, dtype=np.int8), v - 1)
        block = table[r:r + len(sub)]
        block[:, 0] = v
        block[:, v] = 0
        block[:, rest] = np.where(sub >= 0, rest[sub], -1)
        r += len(sub)
    # vertex 0 unmatched: every edge list here starts at a vertex above 0
    if r < rows:
        sub = _matching_table(n - 1, m)
        table[r:, 0] = -1
        table[r:, 1:] = np.where(sub >= 0, sub + 1, -1)
    return table


def _row_edges(row):
    # sorted (m, 2) edge list of one partner-table row
    low = np.flatnonzero(row > np.arange(len(row)))
    return np.column_stack((low, row[low])).astype(np.int64)


# ---------------------------------------------------------------------------
# alternating-structure search
# ---------------------------------------------------------------------------

def _dag_bound_core(indptr, indices, nv):
    # Longest path, in arcs, of the digraph D with an arc v -> w^1 for each
    # blue edge {v, w} taken both ways (node v: "just crossed a red edge into
    # v"), or -1 when D has a directed cycle. An alternating cycle is a closed
    # walk in D and a vertex-simple alternating path with b blue edges a
    # b-arc walk, so an acyclic D rules out cycles and bounds the path
    # maximum. Kahn's order: a node is settled once all its in-arcs are.
    indeg = [0] * nv
    for w in indices:
        indeg[w ^ 1] += 1
    order = [v for v in range(nv) if indeg[v] == 0]
    dist = [0] * nv
    best = 0
    for v in order:  # also visits the nodes appended below
        d = dist[v] + 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            u = w ^ 1
            if dist[u] < d:
                dist[u] = d
                if d > best:
                    best = d
            indeg[u] -= 1
            if indeg[u] == 0:
                order.append(u)
    return best if len(order) == nv else -1


def _walk(indptr, indices, visited, s, take):
    # Depth-first walk over the vertex-simple alternating paths that leave s
    # by a blue edge: each step crosses a blue edge into w, then w's red edge
    # into w ^ 1. take(w, blue) is called on each blue edge into an unvisited
    # w, blue counting that edge; when it returns True the walk stops and
    # returns True, leaving `visited` marked (callers stop too). The walk
    # continues through w only when w ^ 1 is unvisited as well. A stack of
    # neighbour iterators replaces recursion, so path length has no limit.
    visited[s] = True
    stack = [iter(indices[indptr[s]:indptr[s + 1]])]
    path = []  # the blue endpoints w entered, one per stack entry above s
    while stack:
        for w in stack[-1]:
            if visited[w]:
                continue
            if take(w, len(stack)):
                return True
            w2 = w ^ 1
            if not visited[w2]:
                visited[w] = visited[w2] = True
                path.append(w)
                stack.append(iter(indices[indptr[w2]:indptr[w2 + 1]]))
                break
        else:
            stack.pop()
            if path:
                w = path.pop()
                visited[w] = visited[w ^ 1] = False
    visited[s] = False
    return False


def _max_blue_core(indptr, indices, nv, cap):
    # Exact maximum number of blue edges over vertex-simple alternating paths,
    # or cap as soon as some path reaches it (cap >= the true maximum makes
    # the answer exact; cap = nv never triggers). Any maximum is attained by
    # a path that starts and ends with blue (leading/trailing red edges only
    # add vertices), so walking from every vertex is exhaustive.
    best = 0

    def take(w, blue):
        nonlocal best
        if blue > best:
            best = blue
        return best >= cap

    visited = [False] * nv
    for s in range(nv):
        if _walk(indptr, indices, visited, s, take):
            break
    return best


def _has_cycle_core(indptr, indices, nv):
    # Alternating cycle through red edge (s, s+1), oriented to leave s by a
    # blue edge and re-enter s+1 by a blue edge; trying every even s covers
    # every red edge a cycle could use. s+1 stays unmarked: only s reaches it
    # by red, so the walk never passes through it, and every blue edge into
    # it closes a cycle (a blue edge s-s+1 would duplicate the red edge,
    # which RedBlueGraph rejects).
    visited = [False] * nv
    for s in range(0, nv, 2):
        if _walk(indptr, indices, visited, s, lambda w, blue: w == s + 1):
            return True
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


def _solve_m1_val(a, d, g, eta):
    # Smallest root of f' on [0, a/2], to M_TOL: returns (m1, True), or
    # (argmin, False) when f' > 0 throughout (no stationary point).
    if 2.0 - d <= 0.0:
        return 0.0, True
    mstar = _argmin_fprime(a, d, g, eta)
    if _fprime_val(mstar, a, d, g, eta) > 0.0:
        return mstar, False
    lo = 0.0
    hi = mstar
    tol = M_TOL  # a local: the loop below reads it on every step
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if _fprime_val(mid, a, d, g, eta) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), True


def _f1_val(a, d, g, eta, curve):
    # F1(alpha) = f(m1(alpha), alpha), as (f1, m1, p). Without curve the
    # stationary branch is definitional: no root of f' means no constraint
    # from this branch, coded as F1 = +inf. curve clamps m to the f'-argmin
    # instead, extending the curve continuously past the existence boundary.
    m1, found = _solve_m1_val(a, d, g, eta)
    if not found and not curve:
        return math.inf, math.inf, math.nan
    return _f_val(m1, a, d, g, eta), m1, _p_val(m1, a, g, eta)


def min_critical_scan(lab: np.ndarray, size: int):
    """Exact (min critical count, argmin matching edges) over all size-`size`
    matchings of the labeled K_n given as a 0-based (n, n) int64 matrix. Ties
    keep the first matching in lexicographic order of the sorted edge list."""
    lab = np.ascontiguousarray(lab, dtype=np.int64)
    n = lab.shape[0]
    table = _matching_table(n, size)
    a, b = np.triu_indices(n, 1)
    lab_ab = lab[a, b]
    verts = np.arange(n)
    best, best_row = -1, None
    for s in range(0, len(table), _SCAN_ROWS):
        P = table[s:s + _SCAN_ROWS]
        # label of the matching edge covering each vertex; -1 when uncovered,
        # below every label, so an uncovered endpoint never makes (a, b) critical;
        # a matching edge's covering labels equal its own, so the strict
        # comparison never counts it
        cov = np.where(P >= 0, lab[verts, P], -1)
        counts = ((cov[:, a] > lab_ab) | (cov[:, b] > lab_ab)).sum(axis=1)
        i = int(np.argmin(counts))
        if best < 0 or counts[i] < best:
            best, best_row = int(counts[i]), P[i]
    return best, _row_edges(best_row)


def anti_lex_scan(lab: np.ndarray, size: int):
    """Edges of the size-`size` matching of K_n whose edge labels, sorted from
    the largest down, form the lexicographically smallest sequence; ties keep
    the first matching in lexicographic order of the sorted edge list."""
    lab = np.ascontiguousarray(lab, dtype=np.int64)
    n = lab.shape[0]
    table = _matching_table(n, size)
    verts = np.arange(n)
    best_key, best_row = None, None
    for s in range(0, len(table), _SCAN_ROWS):
        P = table[s:s + _SCAN_ROWS]
        # each row's matching-edge labels (read at the lower endpoint), largest first
        keys = np.sort(lab[verts, P][P > verts].reshape(len(P), size), axis=1)[:, ::-1]
        i = int(np.lexsort(keys.T[::-1])[0])  # stable: first row of the minimal key
        if best_key is None or tuple(keys[i]) < best_key:
            best_key, best_row = tuple(keys[i]), P[i]
    return _row_edges(best_row)


def alt_path_max_blue(indptr: list[int], indices: list[int], nv: int) -> int:
    """Exact blue maximum over alternating paths, or -1 when the graph has an
    alternating cycle. The digraph bound runs once. When the digraph is
    acyclic, the DFS stops at the first path that reaches its bound. A
    cyclic digraph runs the cycle DFS, which answers -1 on a cycle;
    otherwise the path DFS caps at nv // 2, which only a path through every
    vertex reaches."""
    bound = _dag_bound_core(indptr, indices, nv)
    if bound < 0:
        if _has_cycle_core(indptr, indices, nv):
            return -1
        bound = nv // 2
    return _max_blue_core(indptr, indices, nv, bound)


def alt_cycle_exists(indptr: list[int], indices: list[int], nv: int) -> bool:
    """Exact alternating-cycle test: an acyclic digraph answers False at
    once; only a cyclic one runs the DFS, since a closed walk there need not
    contain a vertex-simple cycle."""
    return _dag_bound_core(indptr, indices, nv) < 0 and _has_cycle_core(indptr, indices, nv)


def f1_values(alphas, delta, gamma, eta, curve=False):
    """Batch F1 evaluation; returns (f1, m1, p) arrays."""
    d, g, eta = float(delta), float(gamma), float(eta)
    f1, m1, p = [], [], []
    for a in alphas:
        fa, ma, pa = _f1_val(float(a), d, g, eta, curve)
        f1.append(fa)
        m1.append(ma)
        p.append(pa)
    return np.array(f1), np.array(m1), np.array(p)


def f2_values(alphas, delta, gamma, eta):
    """Batch F2 evaluation (m = alpha/2); returns (f2, p) arrays."""
    d, g, eta = float(delta), float(gamma), float(eta)
    f2, p = [], []
    for a in alphas:
        a = float(a)
        f2.append(_f_val(0.5 * a, a, d, g, eta))
        p.append(_p_val(0.5 * a, a, g, eta))
    return np.array(f2), np.array(p)
