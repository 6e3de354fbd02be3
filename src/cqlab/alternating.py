"""Red perfect matchings with blue edges: alternating cycles and paths.

The carrier has 2x vertices, 1-based; red edge i joins 2i-1 and 2i. A path or
cycle is alternating when its edges alternate red/blue; paths are
vertex-simple and a lone blue edge counts as a path with one blue edge.
beta(k, x) is the largest number of blue edges addable to x red edges with no
alternating cycle and no alternating path carrying k or more blue edges.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass, field

from . import _kernels
from .common import check_brute_cap, int_fields
from .errors import CyclePresent

DEFAULT_BETA_PAIR_CAP = 12  # candidate blue pairs; 2x(x-1) <= 12 means x <= 3


def red_partner(v: int) -> int:
    """Red neighbor of v in the canonical matching (1-based)."""
    return v + 1 if v % 2 == 1 else v - 1


def _bucketed(blue, nv):
    # One pass over blue edges of a carrier with nv vertices: the edges as
    # (u, v) with u < v, in order; their 0-based ends bucketed by vertex, a
    # dict over only the vertices with a blue edge; and whether every edge
    # passes RedBlueGraph's checks.
    edges, nbrs, ok = [], collections.defaultdict(list), True
    for u, v in blue:
        if u > v:
            u, v = v, u
        if not (0 < u < v <= nv) or (u & 1 and v == u + 1):
            ok = False
        edges.append((u, v))
        nbrs[u - 1].append(v - 1)
        nbrs[v - 1].append(u - 1)
    return edges, nbrs, ok


def _adjacency(nbrs) -> list[list[int]]:
    # The kernels' blue adjacency from a graph's buckets: each bucket is
    # sorted in place and becomes its vertex's list. The lists span only
    # the red edges that carry a blue edge, renumbered in order, so red
    # partners stay v ^ 1 and the lists grow with the blue edges, not with
    # x. Every answer is kept: a vertex without a blue edge lies on no cycle
    # and adds no blue edge to a path, and a path with b blue edges visits
    # 2b kept vertices.
    for bucket in nbrs.values():
        bucket.sort()
    reds = sorted({v >> 1 for v in nbrs})
    if not reds or reds[-1] < len(reds):  # kept: red edges 0..len(reds)-1, ids unchanged
        return [nbrs.get(v, []) for v in range(2 * len(reds))]
    new = {}
    for i, r in enumerate(reds):
        new[2 * r], new[2 * r + 1] = 2 * i, 2 * i + 1
    return [list(map(new.__getitem__, nbrs.get(v, ()))) for v in new]


@dataclass(frozen=True)
class RedBlueGraph:
    num_red: int
    blue_edges: frozenset = field(default_factory=frozenset)
    blocks: tuple[int, ...] | None = None  # realized construction block sizes

    def __post_init__(self):
        # One pass canonicalises, checks and buckets the edges; the buckets
        # become the kernels' adjacency on the first check. A failed check
        # is found again over the canonical set, so the first edge reported
        # does not depend on the input's order, and an edge given both ways
        # is bucketed again from that set.
        x = self.num_red
        if x < 1:
            raise ValueError("need at least one red edge")
        edges, nbrs, ok = _bucketed(self.blue_edges, 2 * x)
        canon = frozenset(edges)
        if not ok:
            for u, v in canon:
                if u == v:
                    raise ValueError(f"loop blue edge ({u}, {v})")
                if u < 1 or v > 2 * x:
                    raise ValueError(f"blue edge ({u}, {v}) outside the 2x={2*x} carrier")
                if v == u + 1 and u % 2 == 1:
                    raise ValueError(f"blue edge ({u}, {v}) duplicates a red edge")
        if len(canon) < len(edges):
            nbrs = _bucketed(canon, 2 * x)[1]
        object.__setattr__(self, "blue_edges", canon)
        object.__setattr__(self, "_nbrs", nbrs)

    @property
    def num_vertices(self) -> int:
        return 2 * self.num_red

    @functools.cached_property
    def _blue_csr(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        nbrs = [[] for _ in range(self.num_vertices)]
        for u, v in sorted(self.blue_edges):
            nbrs[u - 1].append(v - 1)
            nbrs[v - 1].append(u - 1)
        return (tuple(itertools.accumulate(map(len, nbrs), initial=0)),
                tuple(w for a in nbrs for w in a))

    def csr(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """0-based blue adjacency over all 2x vertices in CSR form (indptr,
        indices), each vertex's neighbours ascending; built once per graph,
        since the graph is frozen. The kernels do not read it: they take
        the adjacency lists the graph builds once for its checks."""
        return self._blue_csr

    @functools.cached_property
    def _adj(self) -> list[list[int]]:
        # the kernels' adjacency, built from the buckets on the first check
        # and shared by both
        return _adjacency(self._nbrs)

    @functools.cached_property
    def _dag_bound(self) -> int:
        # the kernels' digraph bound (longest path, or -1 when cyclic), one
        # linear pass per graph, shared by the cycle test and the path maximum
        return _kernels._dag_bound_core(self._adj)


def has_alternating_cycle(g: RedBlueGraph) -> bool:
    """Exact alternating-cycle test. The digraph on the 2x vertices with an
    arc v -> w' (w' the red partner of w) for each blue edge {v, w}, both
    ways, carries every alternating cycle as a closed walk, so when it is
    acyclic the answer is False at once. Otherwise an exact DFS over
    vertex-simple alternating closed walks decides: a closed walk of the
    digraph need not contain a simple alternating cycle."""
    return _kernels.alt_cycle_exists(g._adj, g._dag_bound)


def max_blue_in_alternating_path(g: RedBlueGraph) -> int:
    """Exact maximum blue-edge count over alternating paths; requires a
    cycle-free graph (raises CyclePresent otherwise). The graph keeps the
    digraph bound of has_alternating_cycle, computed once for both. Its
    longest path L bounds the count, since a path with b blue edges is a
    b-arc walk there; the exact DFS stops at the first path with L blue
    edges and searches exhaustively only when none exists. A cyclic digraph
    gives no bound: the cycle DFS runs, a cycle comes back as -1 and is
    raised as CyclePresent, and without one the path DFS caps at the
    number of red edges that carry a blue edge."""
    best = _kernels.alt_path_max_blue(g._adj, g._dag_bound)
    if best < 0:
        raise CyclePresent("cycle present: the path maximum is undefined")
    return best


def _spread_blocks(x: int, weights: tuple[int, ...]) -> tuple[int, ...]:
    # Integer split of x red edges proportional to weights; floors first, then
    # the remainder (below len(weights)) one each to the first blocks, keeping
    # sizes within 1 of the ideal split.
    total = sum(weights)
    sizes = [x * w // total for w in weights]
    for i in range(x - sum(sizes)):
        sizes[i] += 1
    return tuple(sizes)


def _construction_blue(blocks, skip_top_left_clique: bool) -> list:
    # Blocks take consecutive red edges; red edge p (0-based) has left vertex
    # 2p+1 and right vertex 2p+2. For p < q: left-left always, except inside
    # the top block when skipped; right of q to left of p when q's block is
    # higher. Each pair (p, q) adds distinct edges, so the list has no
    # repeats, and RedBlueGraph hashes it once.
    block = [i for i, b in enumerate(blocks) for _ in range(b)]
    top = len(blocks) - 1
    blue = []
    for q in range(len(block)):
        for p in range(q):
            if not (skip_top_left_clique and block[p] == top):
                blue.append((2 * p + 1, 2 * q + 1))
            if block[p] < block[q]:
                blue.append((2 * p + 1, 2 * q + 2))
    return blue


def build_even_k(k: int, x: int) -> RedBlueGraph:
    """Extremal cycle-free construction for even k: k/2 near-equal blocks of
    red edges; all left vertices pairwise blue, and right-to-left blue edges
    exactly when the right vertex's block index exceeds the left's. Blue count
    is C(x,2) + sum_{i<j} b_i b_j from the realized block sizes."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be even and >= 2, got {k}")
    if x < k // 2:
        raise ValueError(f"need x >= k/2 = {k // 2} red edges, got {x}")
    blocks = _spread_blocks(x, (2,) * (k // 2))
    return RedBlueGraph(num_red=x, blue_edges=_construction_blue(blocks, False), blocks=blocks)


def build_odd_k(k: int, x: int) -> RedBlueGraph:
    """Extremal cycle-free construction for odd k >= 3: (k-1)/2 full blocks
    plus a top block half their size, as even k but with no blue edges inside
    the top block's left side."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"k must be odd and >= 3, got {k}")
    if x < k:
        raise ValueError(f"need x >= k = {k} red edges, got {x}")
    blocks = _spread_blocks(x, (2,) * ((k - 1) // 2) + (1,))
    return RedBlueGraph(num_red=x, blue_edges=_construction_blue(blocks, True), blocks=blocks)


def construction_blue_count(g: RedBlueGraph, skip_top_left_clique: bool) -> int:
    """Closed-form blue count from realized block sizes (cross-check)."""
    if g.blocks is None:
        raise ValueError("not a construction graph")
    x = g.num_red
    b = g.blocks
    count = math.comb(x, 2)
    if skip_top_left_clique:
        count -= math.comb(b[-1], 2)
    count += sum(b[i] * b[j] for i in range(len(b)) for j in range(i + 1, len(b)))
    return count


def beta_bruteforce(k: int, x: int) -> int:
    """Exact beta(k, x): the largest feasible blue-edge subset, by a
    depth-first search over the feasible family. Feasible sets (no
    alternating cycle, every alternating path below k blue edges) are closed
    under deleting blue edges, so adding candidate pairs in index order and
    descending only while the set stays feasible visits every feasible set;
    a branch stops once its size plus the candidates left cannot pass the
    best so far. Permuting the red edges and swapping the ends of each acts
    transitively on the candidate pairs, so a nonempty maximum may be taken
    to hold the first pair (1, 3), and beta is 0 when that edge alone is
    infeasible. The search keeps one adjacency of the chosen pairs and
    grows it in place: a pair's two entries are appended when it is chosen
    and popped when it is dropped. A check accepts at once when the digraph
    bound is below k, and runs a DFS only when the bound does not decide.
    Guarded: the number of candidate blue pairs 2x(x-1) must stay within
    the cap (default 12, i.e. x <= 3).
    CQLAB_BRUTE_CAP overrides this cap and the matching scans' cap on N
    alike."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    ncand = 2 * x * (x - 1)
    check_brute_cap(ncand, DEFAULT_BETA_PAIR_CAP, f"{ncand} candidate blue pairs")
    nv = 2 * x
    candidates = [(u, v) for u in range(nv) for v in range(u + 1, nv) if u ^ 1 != v]
    assert len(candidates) == ncand
    adj = [[] for _ in range(nv)]  # the chosen candidates, 0-based, grown in place
    best = 0

    def add(j):
        # Append candidate j to the adjacency; True when the set stays
        # feasible. j is above every chosen candidate, so each neighbour
        # list stays ascending.
        u, v = candidates[j]
        adj[u].append(v)
        adj[v].append(u)
        return _kernels.alt_paths_below(adj, k)

    def drop(j):
        u, v = candidates[j]
        adj[u].pop()
        adj[v].pop()

    def grow(size, nxt):
        # the chosen set, `size` candidates below nxt, is feasible
        nonlocal best
        best = max(best, size)
        for j in range(nxt, ncand):
            if size + ncand - j <= best:
                return
            if add(j):
                grow(size + 1, j + 1)
            drop(j)

    if candidates and add(0):
        grow(1, 1)
    return best


def redblue_to_text(g: RedBlueGraph) -> str:
    lines = [str(g.num_red)]
    for u, v in sorted(g.blue_edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def redblue_from_text(text: str) -> RedBlueGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty red/blue graph file")
    (x,) = int_fields(lines[0], 1, "red/blue header")
    blue = set()
    for ln in lines[1:]:
        u, v = int_fields(ln, 2, "red/blue")
        edge = (min(u, v), max(u, v))
        if edge in blue:
            raise ValueError(f"blue edge ({u}, {v}) listed twice")
        blue.add(edge)
    return RedBlueGraph(num_red=x, blue_edges=frozenset(blue))
