"""Hot numeric kernels.

The alternating-structure searches and the dense-bound evaluators are plain
Python over lists and floats; there is one build. Both alternating searches
call one iterative walker over vertex-simple alternating paths. They are
certificate-first: a linear pass computes the longest path of the digraph
with an arc v -> w^1 per blue edge {v, w} (both ways). When that digraph is
acyclic there is no alternating cycle, and the exact path DFS stops as soon
as a path reaches its length; the answer always comes from the DFS. Only a
cyclic digraph runs the exact cycle DFS, and only a path maximum below the
bound (or a cyclic digraph) makes the path DFS exhaustive. Both read the
graph as it was built, one list of neighbour lists, and take the bound as an
optional argument: a RedBlueGraph computes it once for both, and
beta_bruteforce grows one adjacency in place and lets each call compute it.

The minimum critical count is first sought by a depth-first branch and bound
in plain Python over lists. It extends matchings edge by edge in the scans'
lexicographic order, prunes a prefix whose count already reaches the best
found, and covers a vertex only after its next lower twin (two vertices are
twins when swapping them keeps every label, as inside a block of the
paper's constructions). Twin-free K_16 labelings take 1-5 ms, the K_16
constructions under 1 ms. Past a budget of max(128, rows // 128) prefixes,
rows the number of matchings, the vectorised table scan answers instead,
from the same per-edge terms; total orders such as the lexicographic
labeling get there (K_16: 0.1 s at size 8, 0.85 s at size 7). The matching
scans are vectorised NumPy over first-edge blocks: the matchings of K_n with
first edge (i, v) are that edge plus a tail of the one (n-2, m-1) table of
edge ids, read through the block's map to the edge ids of K_n. The blocks
of one first vertex share their tail's first row and form a run; each run
walks its own tail in row chunks, scoring each chunk for all its blocks at
once, so no chunk starts inside a run, and no scan builds the (n, m) table.
The minimum table scan skips twin-equivalent matchings: it scores only the
blocks whose first edge is canonical and, past one chunk, only the table
rows whose first edge (the matching's second) is canonical for some kept
block. The first minimiser is canonical, so the answer is the full scan's;
on the two-, three- and four-label K_16 at sizes 6-8 it takes 0.01-0.07 s,
and a labeling with no twins (any total order on n >= 3 vertices) is
scanned in full, 0.55 s for a K_16 at size 7. Timings are best of 2 or 3 on
a 2-vCPU x86 machine. The block tables of each (n, m) are built once per
process and kept read-only when the (n-2, m-1) table has at most _MEMO_ROWS
= 100,000 rows. The 49 keys with n <= 14 then take 1.72 MiB together and
the 57 with n <= 16 (the default matching cap) 2.29 MiB; the K_16 tables of
sizes 5-8 are rebuilt on every call.

The dense formulas f, f', f'', p and the entropy live here only, and so does
`_bisect`, the one search loop behind the f'-argmin, the f' root m1 and the
alpha and eta searches in `bounds`. The argmin and m1 searches pass it a
certified window: f'' depends on m/alpha alone, so the argmin window comes
from one search per (gamma, eta) at alpha = 1, and the m1 window is centred
at Newton's iterate from m = 0. A window end counts only when its value has
the right sign with a margin of 16 times a stated rounding bound (see
_MARGIN); otherwise it is -inf or inf. The bisection evaluates only inside
the window and returns the plain bisection's floats. The stationary branch F1
has one definition: f at m1, or at the f'-argmin where f' has no root. The
endpoint branch F2 is f at m = alpha/2. `python3 cqbench/run.py` times the
kernels through their callers.

Encodings used throughout:
  * labelings: contiguous (n, n) int64 matrix, vertices 0-based, symmetric;
  * matchings inside kernels: rows of sorted edge ids in an int16 matching
    table; the id of (u, v), u < v, is its rank in lexicographic order from
    0, which is np.triu_indices order;
  * red/blue graphs: red edge i joins vertices 2i and 2i+1, so the red partner
    of v is v ^ 1; blue adjacency is one list adj of ascending neighbour
    lists, adj[v] for the 0-based vertex v, so the graph has len(adj)
    vertices.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_P_FLOOR = 0.5 + 1e-12
M_TOL = 1e-12  # bisection width of the f' root m1
_LN2 = math.log(2.0)

# stamped on every benchmark result; cqbench/compare.py refuses to mix backends
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# matching enumeration
# ---------------------------------------------------------------------------

# rows of the (n-2, m-1) table per vectorised step of the matching scans; a
# step's temporaries hold blocks x rows x (m-1 + C(m-1, 2)) entries for the
# at most n-1 blocks sharing a first vertex, whatever n and m make the length
# of the table
_SCAN_ROWS = 1024


def _pairs(n):
    # (a, b) of the edges (a, b), a < b, of K_n in lexicographic order, the
    # order of np.triu_indices(n, 1), without its mask set-up
    w = np.arange(n)
    return np.nonzero(w[:, None] < w)


def _matching_table(n, m):
    """Every size-m matching of K_n as one row of an int16 (rows, m) table of
    ascending edge ids, m >= 1. Rows come in lexicographic order of the
    sorted edge list."""
    first, emap, start, sub = _first_edge_blocks(n, m)
    table = np.empty((len(first) * len(sub) - start.sum(), m), np.int16)
    r = 0
    for f, e, s in zip(first, emap, start):
        block = table[r:r + len(sub) - s]
        block[:, 0] = f
        block[:, 1:] = e[sub[s:]]
        r += len(block)
    return table


# _first_edge_blocks results by (n, m), kept when their (n-2, m-1) table has
# at most _MEMO_ROWS rows
_MEMO_ROWS = 100_000
_blocks_memo = {}


def _first_edge_blocks(n, m):
    """The size-m matchings of K_n, m >= 1, in blocks by first edge, in
    lexicographic order: (first, emap, start, sub). Block k holds the
    matchings first[k] + emap[k][sub[r]] for the rows r >= start[k] of sub,
    the (n-2, m-1) matching table, in order. With first edge (i, v), vertices
    below i stay unmatched and the other m-1 edges match vertices above i but
    v. Read through `others`, the vertices of K_n but i and v in order, these
    are the rows of sub whose lowest vertex is >= i, a tail of sub. emap[k]
    maps the edge ids of K_{n-2} to those of K_n through `others`, which is
    increasing, so edge ids and rows keep their order.

    Kept per (n, m) when sub has at most _MEMO_ROWS rows, read-only since
    every caller shares the arrays. A kept entry holds at most _MEMO_ROWS x
    (m-1) int16 table ids, and block maps 2(1 + C(n-2, 2)) times smaller than
    the weight table a scan builds from them. The largest kept key with
    n <= 16 is (14, 6): 62,370 rows, 0.60 MiB. K_16 at sizes 5-8 (135,135 to
    945,945 rows) is rebuilt on every call."""
    hit = _blocks_memo.get((n, m))
    if hit is not None:
        return hit
    a, b = _pairs(n)
    eid = np.zeros((n, n), np.int16)
    eid[a, b] = np.arange(len(a))
    keep = a <= n - 2 * m  # room for m-1 edges above i; a prefix of the edge ids
    i, v = a[keep], b[keep]
    sa, sb = _pairs(n - 2)
    if m == 1:  # one empty row
        sub, start = np.zeros((1, 0), np.int16), np.zeros(len(i), np.intp)
    else:
        sub = _matching_table(n - 2, m - 1)
        start = np.searchsorted(sub[:, 0], np.searchsorted(sa, i))  # first edge at or above i
    w = np.arange(n - 2)
    others = w + (w >= i[:, None]) + (w >= v[:, None] - 1)
    blocks = eid[i, v], eid[others[:, sa], others[:, sb]], start, sub
    if len(sub) <= _MEMO_ROWS:
        for arr in blocks:
            arr.flags.writeable = False
        _blocks_memo[n, m] = blocks
    return blocks


def _twin_classes(lab):
    """The twin classes of the labeling, as each vertex's next lower twin,
    or -1 for the lowest vertex of its class. Vertices x and y are twins
    when swapping them keeps every label: lab[x, w] == lab[y, w] for every w
    but x and y, so the diagonal, which the counts never read, is ignored.
    Twinship is an equivalence (x ~ y and y ~ z force lab[x, y] = lab[x, z]
    = lab[y, z], hence x ~ z), so a class is read down from any vertex x as
    x, prev[x], prev[prev[x]], ..."""
    n = lab.shape[0]
    w = np.arange(n)
    same = lab[:, None, :] == lab  # same[x, y, w]: lab[x, w] == lab[y, w]
    same[w, :, w] = True
    same[:, w, w] = True
    return np.where(same.all(2) & (w < w[:, None]), w, -1).max(1)


def _runs(start):
    # (k0, k1, r0) for each run k0..k1-1 of blocks sharing the tail start r0;
    # blocks are in start order, and each run walks its tail r0.. of the
    # sub-table in chunks of _SCAN_ROWS rows
    cut = np.flatnonzero(np.diff(start, prepend=-1)).tolist()
    return zip(cut, cut[1:] + [len(start)], start[cut].tolist())


def _first_lex_min(keys):
    # index along axis 1 of the first lexicographically smallest row of each
    # keys[k], keys shaped (blocks, rows, width): each column keeps the rows
    # still tied at its minimum
    tied = np.ones(keys.shape[:2], bool)
    for c in range(keys.shape[2]):
        col = np.where(tied, keys[:, :, c], np.iinfo(np.int64).max)
        tied &= col == col.min(1, keepdims=True)
    return tied.argmax(1)


# ---------------------------------------------------------------------------
# alternating-structure search
# ---------------------------------------------------------------------------

def _dag_bound_core(adj):
    # Longest path, in arcs, of the digraph D with an arc v -> w^1 for each
    # blue edge {v, w} taken both ways (node v: "just crossed a red edge into
    # v"), or -1 when D has a directed cycle. An alternating cycle is a closed
    # walk in D and a vertex-simple alternating path with b blue edges a
    # b-arc walk, so an acyclic D rules out cycles and bounds the path
    # maximum. Kahn's order: a node is settled once all its in-arcs are.
    nv = len(adj)
    indeg = [len(adj[u ^ 1]) for u in range(nv)]  # the arcs v -> u come from adj[u ^ 1]
    order = [v for v in range(nv) if indeg[v] == 0]
    dist = [0] * nv
    best = 0
    for v in order:  # also visits the nodes appended below
        d = dist[v] + 1
        for w in adj[v]:
            u = w ^ 1
            if dist[u] < d:
                dist[u] = d
                if d > best:
                    best = d
            indeg[u] -= 1
            if indeg[u] == 0:
                order.append(u)
    return best if len(order) == nv else -1


def _walk(adj, visited, s, take):
    # Depth-first walk over the vertex-simple alternating paths that leave s
    # by a blue edge: each step crosses a blue edge into w, then w's red edge
    # into w ^ 1. take(w, blue) is called on each blue edge into an unvisited
    # w, blue counting that edge; when it returns True the walk stops and
    # returns True, leaving `visited` marked (callers stop too). The walk
    # continues through w only when w ^ 1 is unvisited as well. A stack of
    # neighbour iterators replaces recursion, so path length has no limit.
    visited[s] = True
    stack = [iter(adj[s])]
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
                stack.append(iter(adj[w2]))
                break
        else:
            stack.pop()
            if path:
                w = path.pop()
                visited[w] = visited[w ^ 1] = False
    visited[s] = False
    return False


def _max_blue_core(adj, cap):
    # Exact maximum number of blue edges over vertex-simple alternating paths,
    # or cap as soon as some path reaches it (cap >= the true maximum makes
    # the answer exact; cap = len(adj) never triggers). Any maximum is
    # attained by a path that starts and ends with blue (leading/trailing red
    # edges only add vertices), so walking from every vertex is exhaustive.
    best = 0

    def take(w, blue):
        nonlocal best
        if blue > best:
            best = blue
        return best >= cap

    visited = [False] * len(adj)
    for s in range(len(adj)):
        if _walk(adj, visited, s, take):
            break
    return best


def _has_cycle_core(adj):
    # Alternating cycle through red edge (s, s+1), oriented to leave s by a
    # blue edge and re-enter s+1 by a blue edge; trying every even s covers
    # every red edge a cycle could use. s+1 stays unmarked: only s reaches it
    # by red, so the walk never passes through it, and every blue edge into
    # it closes a cycle (a blue edge s-s+1 would duplicate the red edge,
    # which RedBlueGraph rejects).
    visited = [False] * len(adj)
    for s in range(0, len(adj), 2):
        if _walk(adj, visited, s, lambda w, blue: w == s + 1):
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


def _fsecond_val(m, a, d, g, eta):
    # d/dm of f': with A = a^2/2, q = 2 g m^2, D = A - q and N = p D = eta A - q,
    # f'' = -4 g (1 + log2 p) + 16 g^2 m^2 A (1 - eta) / (D N ln 2)
    A = 0.5 * a * a
    q = 2.0 * g * m * m
    D = A - q
    N = eta * A - q
    if N <= 0.0:
        return np.inf
    return -4.0 * g * (1.0 + math.log2(N / D)) + 8.0 * g * q * A * (1.0 - eta) / (D * N * _LN2)


def _bisect(below, lo, hi, tol, window=(-math.inf, math.inf)):
    """Halves [lo, hi] down to width tol, or until float spacing runs out,
    moving lo to the midpoint wherever below(mid) holds and hi elsewhere;
    returns the final (lo, hi). The one search loop of the dense solver.

    window = (l, h) is the caller's certificate that below(m) holds for every
    m <= l and fails for every m >= h (the dense callers count an end only
    when its value clears a margin above the rounding bound, see _MARGIN);
    an end it could not certify is -inf or inf, and the default is the plain
    bisection. Only midpoints inside (l, h) call below, so every decision,
    and the returned pair, is the plain bisection's."""
    l, h = window
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= l or (mid < h and below(mid)):
            lo = mid
        else:
            hi = mid
    return lo, hi


# Certified windows for the f'-argmin and m1 searches. With u = 2^-53 and
# kappa = (eta + g)/(eta - g), which bounds the cancellation in eta A - q, a
# first-order count of the roundings (log2 within one ulp) puts _fprime_val
# within 32 kappa u (4 g m + |2 - d|) of its exact value, and _fsecond_val
# within 32 kappa u (4 g + 8 g^2 (1 - eta) / ((1 - g)(eta - g) ln 2)), for
# eta in (1/2, 1], g in [0, 1/2] and 0 <= m <= a/2. The sums are the
# magnitudes of the terms, so the bound for f' grows with m. A window end
# counts only when its value has the right sign and exceeds _MARGIN kappa
# times that sum, 16 times the bound: twice the bound is what covers the end
# and any point on its side. Windows are built only for a in _ALPHA_RANGE and
# g >= _G_MIN, where no intermediate of either kernel leaves the normal float
# range at the points the searches evaluate, so the count holds.
_MARGIN = 2.0 ** -44
_ALPHA_RANGE = (2.0 ** -20, 2.0 ** 70)
_G_MIN = 2.0 ** -20
_NEWTON_CAP = 16
_NEWTON_STEP = 2.0 ** -24  # relative step at which Newton's iterate is taken as m1


@functools.lru_cache(maxsize=256)
def _argmin_shape(g, eta):
    # f'' depends on t = m/a alone (N/D and q A/(D N) are ratios of degree-2
    # terms), so the f'-argmin is a * t*(g, eta). Returns (t_l, t_h): f'' at
    # a = 1 is below -margin at t_l and above margin at t_h, the nearest such
    # points among t* -+ 2^-50, 2^-49, ...; t_h >= 1/2 needs no value, since
    # no midpoint reaches a/2. An end with no such point is -inf or inf.
    margin = _MARGIN * (eta + g) / (eta - g) * (
        4.0 * g + 8.0 * g * g * (1.0 - eta) / ((1.0 - g) * (eta - g) * _LN2))

    def fs(t):
        return _fsecond_val(t, 1.0, 0.0, g, eta)

    lo, hi = _bisect(lambda t: fs(t) < 0.0, 0.0, 0.5, 1e-13)
    t = 0.5 * (lo + hi)
    tl, th, w = -math.inf, math.inf, 2.0 ** -50
    while w < 0.5 and (tl == -math.inf or th == math.inf):
        if tl == -math.inf and t - w > 0.0 and fs(t - w) < -margin:
            tl = t - w
        if th == math.inf and (t + w >= 0.5 or fs(t + w) > margin):
            th = t + w
        w *= 2.0
    return tl, th


def _argmin_window(a, g, eta):
    # _argmin_shape's ends scaled to a, each rounded outward past a * t: f''
    # is nondecreasing in t (f' is convex), so the signs certified at a = 1
    # hold on either side, and the rounding bound is the same at every a in
    # _ALPHA_RANGE
    if not (_ALPHA_RANGE[0] <= a <= _ALPHA_RANGE[1] and g >= _G_MIN):
        return -math.inf, math.inf
    tl, th = _argmin_shape(g, eta)
    return math.nextafter(a * tl, -math.inf), math.nextafter(a * th, math.inf)


def _argmin_fprime(a, d, g, eta):
    # f' is convex in m (the suite certifies this numerically), so f''
    # changes sign at most once on [0, a/2], at the argmin of f'.
    lo, hi = _bisect(lambda m: _fsecond_val(m, a, d, g, eta) < 0.0, 0.0, 0.5 * a, 1e-13,
                     _argmin_window(a, g, eta))
    return 0.5 * (lo + hi)


def _m1_window(a, d, g, eta, mstar, vstar):
    # Newton on f' from m = 0 with slope f''. f' is convex and decreasing on
    # [0, mstar], so Newton climbs to the first root without passing it. The
    # window is centred at the last iterate. Its left end l counts when
    # f'(l) > margin and l lies where the argmin window certifies f'' < 0, so
    # f' only grows to the left of l. Its right end h counts when f'(h) and
    # vstar = f'(mstar) are both below -margin: convex f' stays under its
    # chord on [h, mstar], and the bound is linear in m.
    l_arg = _argmin_window(a, g, eta)[0]
    if not l_arg > 0.0:
        return -math.inf, math.inf
    c0 = 2.0 - d
    k = _MARGIN * (eta + g) / (eta - g)
    m, v = 0.0, c0
    for _ in range(_NEWTON_CAP):
        s = _fsecond_val(m, a, d, g, eta)
        if not s < 0.0:
            return -math.inf, math.inf
        step = -v / s
        if not m + step < mstar:
            break
        m += step
        if step <= _NEWTON_STEP * (1.0 + m):
            break
        v = _fprime_val(m, a, d, g, eta)
        if not v > 0.0:
            break
    w = max(2.0 * k * (4.0 * g * m + c0) / -s, M_TOL)
    l, h = m - w, m + w
    if not (0.0 < l <= l_arg and _fprime_val(l, a, d, g, eta) > k * (4.0 * g * l + c0)):
        l = -math.inf
    if not (h < mstar and vstar < -k * (4.0 * g * mstar + c0)
            and _fprime_val(h, a, d, g, eta) < -k * (4.0 * g * h + c0)):
        h = math.inf
    return l, h


def _solve_m1_val(a, d, g, eta):
    # Smallest root of f' on [0, a/2], to M_TOL: returns (m1, True), or
    # (argmin, False) when f' > 0 throughout (no stationary point).
    if 2.0 - d <= 0.0:
        return 0.0, True
    mstar = _argmin_fprime(a, d, g, eta)
    vstar = _fprime_val(mstar, a, d, g, eta)
    if vstar > 0.0:
        return mstar, False
    lo, hi = _bisect(lambda m: _fprime_val(m, a, d, g, eta) > 0.0, 0.0, mstar, M_TOL,
                     _m1_window(a, d, g, eta, mstar, vstar))
    return 0.5 * (lo + hi), True


# min_critical_scan's branch and bound visits at most max(_BNB_SHARE, rows //
# _BNB_SHARE) prefixes, rows the number of matchings, before the table scan
# answers instead. A prefix costs 1-2 us and 128 table rows about 4.5 us
# (K_14 and K_16 on a 2-vCPU VM), so a search that spends its budget adds
# 25-50% to the table scan's time.
_BNB_SHARE = 128


def _scan_terms(lab):
    """(a, b, single, both, prev) of a 0-based labeling for min_critical_scan:
    the ends of the edges of K_n in id order, the inclusion-exclusion terms
    and the twin classes."""
    lab = np.ascontiguousarray(lab, dtype=np.int64)
    a, b = _pairs(lab.shape[0])
    L = lab[a, b]
    # w = x's partner has label L_e, so it never counts; the terms w = x are
    # subtracted, so no diagonal value is assumed
    single = sum((lab[x] < L[:, None]).sum(1) - (lab[x, x] < L) for x in (a, b))
    E = len(L)
    lo = np.minimum.outer(L, L)
    ab = np.concatenate((a, b))
    both = (lab[ab][:, ab].reshape(2, E, 2, E) < lo[None, :, None, :]).sum((0, 2))
    return a, b, single, both, _twin_classes(lab)


def min_critical_scan(lab: np.ndarray, size: int):
    """Exact (min critical count, argmin matching edges) over all size-`size`
    matchings of the labeled K_n given as a 0-based symmetric (n, n) int64
    matrix. Ties keep the first matching in lexicographic order of the sorted
    edge list. By inclusion-exclusion (an edge has two endpoints), the count
    of M is sum_e single[e] - sum_{e<f} both[e, f]: single[e] counts pairs
    (x, w), x in e, w outside e, with lab(x, w) < L_e, and both[e, f] pairs
    x in e, y in f with lab(x, y) < min(L_e, L_f).

    The branch and bound answers unless it visits more than max(128,
    rows // 128) prefixes, rows = C(n, 2 size)(2 size - 1)!! the number of
    matchings; then the table scan answers from the same terms. Both return
    the count and first minimiser of the full scan."""
    terms = _scan_terms(lab)
    rows = math.comb(len(lab), 2 * size) * math.prod(range(1, 2 * size, 2))
    return (_branch_and_bound(terms, size, max(_BNB_SHARE, rows // _BNB_SHARE))
            or _table_scan(terms, size))


def _branch_and_bound(terms, size, budget):
    """min_critical_scan's answer by depth-first branch and bound, or None
    once it has visited more than `budget` prefixes, the empty one included.
    The lowest undecided vertex i is matched to each undecided v > i in
    ascending order and then left uncovered, so matchings come in
    lexicographic order. Adding edge e to a prefix P adds single[e] -
    sum_{f in P} both[e, f] >= 0 to its count, since critical pairs are only
    ever added, so a prefix's count bounds every completion from below and
    pruning at count >= best keeps the first minimiser.

    A vertex is covered only once its next lower twin u (see _twin_classes)
    is, by an earlier edge or the same one. The first minimiser keeps this
    rule: were w covered before u, or u never, swapping u and w would keep
    the count, turn w's edge into a smaller one and change no edge before
    it, giving a lexicographically smaller matching."""
    a, b, single, both, prev = terms
    n = len(prev)
    single, prev = single.tolist(), prev.tolist()
    # rows[e] is both[e, :e] as a list, converted when e is first tried: a
    # prefix holds only edges of lower vertices, so of lower ids
    rows = [None] * len(single)
    covered, prefix = [False] * n, []
    best, best_ids, nodes = math.inf, None, 1

    def extend(i, count, skips):
        # every extension of prefix, whose count is `count`, that leaves at
        # most `skips` more vertices uncovered, all vertices below i being
        # decided; False once the budget is spent
        nonlocal best, best_ids, nodes
        while True:
            while covered[i]:
                i += 1
            p = prev[i]
            if p < 0 or covered[p]:
                covered[i] = True
                base = i * (2 * n - i - 3) // 2 - 1  # the id of (i, v) is base + v
                for v in range(i + 1, n):
                    q = prev[v]
                    if covered[v] or (q >= 0 and not covered[q]):
                        continue
                    e = base + v
                    row, c = rows[e], count + single[e]
                    if row is None:
                        row = rows[e] = both[e, :e].tolist()
                    for f in prefix:
                        c -= row[f]
                    if c >= best:
                        continue
                    nodes += 1
                    if nodes > budget:
                        return False
                    prefix.append(e)
                    if len(prefix) == size:
                        best, best_ids = c, prefix[:]
                    else:
                        covered[v] = True
                        if not extend(i + 1, c, skips):
                            return False
                        covered[v] = False
                    prefix.pop()
                covered[i] = False
            if not skips:
                return True
            i, skips = i + 1, skips - 1

    if nodes > budget or not extend(0, 0, n - 2 * size):
        return None
    return best, np.column_stack((a[best_ids], b[best_ids]))


def _table_scan(terms, size):
    """min_critical_scan's answer from the first-edge blocks of the matching
    table, scored in vectorised chunks.

    A matching is canonical when, reading the ends i < v of the first edge
    of the sorted edge list and then the ends x < y of the second, no end
    has a twin (see _twin_classes) below it but the ends read before it.
    Where an end e has another twin u < e, swapping u and e keeps the count
    and lowers the first or the second edge, since every vertex below x but
    i and v is unmatched: a lexicographically smaller matching. The first
    minimiser is therefore canonical, so the scan may skip any other
    matching and still return the full scan's count and witness. It skips
    the blocks whose first edge is not canonical, and in tables longer than
    one chunk the rows whose first edge is canonical for no kept block."""
    a, b, single, both, prev = terms
    n = len(prev)
    first, emap, start, sub = _first_edge_blocks(n, size)
    if prev.max() >= 0:
        # keep the blocks whose first edge (i, v) is canonical
        i, v = a[first], b[first]
        keep = (prev[i] < 0) & ((prev[v] < 0) | (prev[v] == i))
        first, emap, start = first[keep], emap[keep], start[keep]
        if len(sub) > _SCAN_ROWS:
            # Past one chunk, keep only the rows of sub whose first edge
            # (x, y) is canonical in the tail of some kept block, and only
            # the blocks with such a row in their tail. P[k] is prev with
            # block k's i and v taken out of the chains, and sa[e] the lower
            # end of sub's edge e among the vertices but i and v, which must
            # lie in the tail and start rows of sub. A row kept for one block
            # is scored by every block whose tail holds it, which only adds
            # matchings. In one chunk each run scores the table in one step,
            # which costs less than this selection.
            i, v = i[keep, None], v[keep, None]
            P = np.where((prev == i) | (prev == v), -1, prev)
            x, y, r = a[emap], b[emap], np.arange(len(P))[:, None]
            sa = _pairs(n - 2)[0]
            own = ((P[r, x] < 0) & ((P[r, y] < 0) | (P[r, y] == x))
                   & (sa >= i) & (sa <= n - 2 * size))
            rows = np.flatnonzero(own.any(0)[sub[:, 0]])
            keep = own.any(1)
            first, emap, start = first[keep], emap[keep], np.searchsorted(rows, start[keep])
            sub = sub[rows]
    # The count of first[k] + R, R a tail row of block k, is single[first[k]]
    # plus a sum over R of W[k]: per edge f, single[f] - both[first[k], f],
    # and per pair f < g, -both[f, g] at column c2 + f * c2 + g, for the c2
    # edge ids of K_{n-2}. Counts stay below n^2, so int32 holds the sums.
    # Rows of sizes 1 and 2 hold no pair, so W has no pair columns there.
    c2 = emap.shape[1]
    W = single[emap] - both[first[:, None], emap]
    if size >= 3:
        W = np.concatenate((W, -both[emap[:, :, None], emap[:, None, :]].reshape(len(first), -1)),
                           axis=1)
    W = W.astype(np.int32)
    j, k = _pairs(size - 1)
    best = np.full(len(first), np.iinfo(np.int32).max)  # each block's first minimum
    best_row = np.zeros(len(first), np.intp)
    for k0, k1, r0 in _runs(start):
        for s in range(r0, len(sub), _SCAN_ROWS):
            T = sub[s:s + _SCAN_ROWS].T.astype(np.intp)
            Q = np.concatenate((T, c2 + T[j] * c2 + T[k]))  # the W columns of each row
            counts = np.take(W[k0:k1], Q, axis=1).sum(1, dtype=np.int32)
            i, c = counts.argmin(1), counts.min(1)
            better = c < best[k0:k1]
            best[k0:k1][better] = c[better]
            best_row[k0:k1][better] = s + i[better]
    total = single[first] + best
    kb = int(np.argmin(total))  # the first block holding the minimum
    ids = np.concatenate(([first[kb]], emap[kb][sub[best_row[kb]]]))
    return int(total[kb]), np.column_stack((a[ids], b[ids]))


def anti_lex_scan(lab: np.ndarray, size: int):
    """Edges of the size-`size` matching of K_n whose edge labels, sorted from
    the largest down, form the lexicographically smallest sequence; ties keep
    the first matching in lexicographic order of the sorted edge list."""
    lab = np.ascontiguousarray(lab, dtype=np.int64)
    a, b = _pairs(lab.shape[0])
    L = lab[a, b]
    first, emap, start, sub = _first_edge_blocks(lab.shape[0], size)
    # Within a block the first edge's label is common to every matching, and
    # inserting one value into two descending sequences of equal length keeps
    # their order, so each block compares its tails' labels alone. best holds
    # each block's first smallest tail key so far, starting from a sentinel
    # no key exceeds (a tie keeps best_row at the block's first row).
    Lb = L[emap]
    best = np.full((len(first), size - 1), np.iinfo(np.int64).max)
    best_row = start.copy()
    for k0, k1, r0 in _runs(start):
        for s in range(r0, len(sub), _SCAN_ROWS):
            keys = np.sort(Lb[k0:k1, sub[s:s + _SCAN_ROWS]], axis=2)[:, :, ::-1]  # largest first
            keys = np.concatenate((best[k0:k1, None], keys), axis=1)  # ties keep best
            i = _first_lex_min(keys)
            took = i > 0
            best[k0:k1][took] = keys[took, i[took]]
            best_row[k0:k1][took] = s + i[took] - 1
    full = np.sort(np.column_stack((L[first], best)), axis=1)[:, ::-1]
    kb = int(_first_lex_min(full[None])[0])
    ids = np.concatenate(([first[kb]], emap[kb][sub[best_row[kb]]]))
    return np.column_stack((a[ids], b[ids]))


def alt_path_max_blue(adj: list[list[int]], bound=None) -> int:
    """Exact blue maximum over alternating paths, or -1 when the graph has an
    alternating cycle. `bound` is _dag_bound_core(adj) when the caller keeps
    it; otherwise it is computed here, once. When the digraph is acyclic,
    the DFS stops at the first path that reaches its bound. A cyclic
    digraph runs the cycle DFS, which answers -1 on a cycle; otherwise the
    path DFS caps at len(adj) // 2, since a path with b blue edges visits
    2b vertices."""
    if bound is None:
        bound = _dag_bound_core(adj)
    if bound < 0:
        if _has_cycle_core(adj):
            return -1
        bound = len(adj) // 2
    return _max_blue_core(adj, bound)


def alt_cycle_exists(adj: list[list[int]], bound=None) -> bool:
    """Exact alternating-cycle test: an acyclic digraph answers False at
    once; only a cyclic one runs the DFS, since a closed walk there need not
    contain a vertex-simple cycle. `bound` is as in alt_path_max_blue."""
    if bound is None:
        bound = _dag_bound_core(adj)
    return bound < 0 and _has_cycle_core(adj)


def f1_values(alphas, delta, gamma, eta):
    """F1 = f(m1(alpha), alpha) at each alpha, as one float array, with m1 the
    first root of f' on [0, alpha/2], or the f'-argmin where f' has no root
    there. At fixed m/alpha, f' falls as alpha grows, so m1 exists on some
    [alpha_e, inf), and the argmin only extends F1 continuously below
    alpha_e."""
    d, g, eta = float(delta), float(gamma), float(eta)
    return np.array([_f_val(_solve_m1_val(a, d, g, eta)[0], a, d, g, eta)
                     for a in map(float, alphas)])


def f2_values(alphas, delta, gamma, eta):
    """F2 = f(alpha/2, alpha) at each alpha, as one float array."""
    d, g, eta = float(delta), float(gamma), float(eta)
    return np.array([_f_val(0.5 * a, a, d, g, eta) for a in map(float, alphas)])
