"""Labeled complete graphs, matchings, and critical-edge machinery.

Vertices are 1-based everywhere in this module (matching the text formats).
An edge (u, v) of K_N is critical for a matching M when some matching edge
covering u or v carries a strictly larger label; "outward" critical edges have
exactly one covered endpoint. A labeling is either finite (labels in 1..ell)
or totally ordered (num_labels = INFINITE, labels are ranks 1..C(N,2)).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .common import (INFINITE, as_fraction, check_brute_cap, ell_text, int_fields,
                     is_infinite, parse_ell)
from .partition_bounds import _weight_table, default_epsilon, epsilon_check

TWO_LABEL = "two"
THREE_LABEL = "three"
FOUR_LABEL = "four"
LEX_INFINITE = "lex"

CONSTRUCTION_KINDS = (TWO_LABEL, THREE_LABEL, FOUR_LABEL, LEX_INFINITE)

#: Kind -> label count ell of its staircase construction. The ell blocks
#: (0-based i, consecutive vertex ranges) take the fractions (1, 2, ..., 2,
#: 2 ell - 1)/(4(ell - 1)) of the vertices, floored, and the last (largest)
#: block absorbs the rounding remainder. An edge between blocks i <= j
#: carries label max(1, i + j - ell + 2), and the minimum critical-edge
#: ratio tends to 1/2 - 1/(4(ell - 1)). The lex kind is the total order.
_STAIRCASE_ELL = {TWO_LABEL: 2, THREE_LABEL: 3, FOUR_LABEL: 4}

DEFAULT_MATCHING_CAP = 16

_INT64_MAX = 2**63 - 1  # the largest label the kernels' int64 matrix holds


def lex_rank(u: int, v: int, n: int) -> int:
    """Rank of edge (u, v), u < v, in the lexicographic edge order
    12, 13, ..., 1N, 23, ..., (N-1)N; ranks run 1..C(N,2)."""
    if not (1 <= u < v <= n):
        raise ValueError(f"need 1 <= u < v <= {n}, got ({u}, {v})")
    return (u - 1) * (2 * n - u) // 2 + (v - u)


class EdgeLabeling:
    """Complete graph K_N with one label per unordered vertex pair."""

    def __init__(self, n_vertices: int, num_labels, labels):
        if n_vertices < 2:
            raise ValueError("need at least 2 vertices")
        if not is_infinite(num_labels):
            if not isinstance(num_labels, int) or num_labels < 1:
                raise ValueError("num_labels must be a positive int or INFINITE")
        self.n = n = int(n_vertices)
        self.num_labels = num_labels
        # every check runs on Python ints before the one NumPy conversion,
        # so a label past int64 is refused with ValueError like any other
        rows = [[0] * (n + 1) for _ in range(n + 1)]
        flat = []
        for (u, v), lab in labels.items():
            if not (1 <= u < v <= n):
                raise ValueError(f"bad pair ({u}, {v})")
            lab = int(lab)
            rows[u][v] = rows[v][u] = lab
            flat.append(lab)
        npairs = n * (n - 1) // 2
        if len(labels) != npairs:
            raise ValueError(f"expected {npairs} labeled pairs, got {len(labels)}")
        if is_infinite(num_labels):
            if sorted(flat) != list(range(1, npairs + 1)):
                raise ValueError("infinite mode needs ranks forming a permutation of 1..C(N,2)")
        else:
            top = min(num_labels, _INT64_MAX)
            bad = [x for x in flat if not (1 <= x <= top)]
            if bad:
                raise ValueError(f"labels out of 1..{top}: {sorted(set(bad))[:5]}")
        self._m = np.array(rows, dtype=np.int64)
        self._rows = rows  # _m as nested lists, rows[u][v]; read by the pure-Python scans
        self.blocks: tuple[int, ...] | None = None  # realized construction block sizes

    def label(self, u: int, v: int) -> int:
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"bad pair ({u}, {v})")
        return int(self._m[u, v])

    def pairs(self):
        for u in range(1, self.n + 1):
            for v in range(u + 1, self.n + 1):
                yield u, v

    def matrix0(self) -> np.ndarray:
        """0-based contiguous label matrix for the kernels."""
        return np.ascontiguousarray(self._m[1:, 1:])

    def __eq__(self, other):
        return (
            isinstance(other, EdgeLabeling)
            and self.n == other.n
            and self.num_labels == other.num_labels
            and np.array_equal(self._m, other._m)
        )

    def __repr__(self):
        return f"EdgeLabeling(n={self.n}, ell={ell_text(self.num_labels)})"

    @classmethod
    def lexicographic(cls, n: int) -> "EdgeLabeling":
        """Totally ordered labeling by lexicographic edge ranks."""
        labels = {(u, v): lex_rank(u, v, n) for u in range(1, n + 1) for v in range(u + 1, n + 1)}
        return cls(n, INFINITE, labels)

    @classmethod
    def constant(cls, n: int, num_labels: int = 1) -> "EdgeLabeling":
        """Every pair labeled 1."""
        labels = {(u, v): 1 for u in range(1, n + 1) for v in range(u + 1, n + 1)}
        return cls(n, num_labels, labels)


@dataclass(frozen=True)
class Matching:
    """Pairwise vertex-disjoint edges; canonical form: u < v, edges sorted."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))
        object.__setattr__(self, "edges", canon)
        seen = set()
        for u, v in canon:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v})")
            if u in seen or v in seen:
                raise ValueError("matching edges must be vertex-disjoint")
            seen.add(u)
            seen.add(v)

    @property
    def size(self) -> int:
        return len(self.edges)

    def partner_map(self) -> dict[int, int]:
        out = {}
        for u, v in self.edges:
            out[u] = v
            out[v] = u
        return out


@dataclass(frozen=True)
class CriticalReport:
    """Exact critical-edge tallies for one (labeling, matching) pair."""

    critical_count: int
    outward_count: int
    inner_count: int
    denominator: int
    ratio: Fraction
    per_label_class: dict

    def __post_init__(self):
        assert self.critical_count == self.outward_count + self.inner_count


def _validate(labeling: EdgeLabeling, matching: Matching):
    if matching.size < 1:
        raise ValueError("matching must be non-empty")
    if 2 * matching.size > labeling.n:
        raise ValueError("matching too large for the vertex count")
    for u, v in matching.edges:
        if u < 1 or v > labeling.n:
            raise ValueError(f"matching edge ({u}, {v}) outside 1..{labeling.n}")


def is_critical(labeling: EdgeLabeling, matching: Matching, u: int, v: int) -> bool:
    """True iff some matching edge covering u or v carries a strictly larger
    label than (u, v). On pairs with both endpoints covered this coincides
    with comparing against the maximum of the two covering labels."""
    _validate(labeling, matching)
    if u == v:
        raise ValueError("criticality is defined for proper pairs, got u == v")
    e = (min(u, v), max(u, v))
    if e in matching.edges:
        raise ValueError(f"({u}, {v}) is a matching edge; criticality applies to non-matching edges")
    lab = labeling.label(u, v)
    partner = matching.partner_map()
    for w in (u, v):
        if w in partner and labeling.label(w, partner[w]) > lab:
            return True
    return False


def count_critical(labeling: EdgeLabeling, matching: Matching) -> CriticalReport:
    """Exhaustive pair scan. The ratio uses denominator C(2M, 2) regardless of
    N, so outward critical edges can push the raw count past the denominator
    on partial matchings; both are reported.

    The scan reads one list, cover[w] = the label of w's matching edge, row
    by row beside the label rows, and an uncovered w reads 0. That is exact: every label is at least 1, so an
    uncovered end never makes a pair critical, and a matching edge (u, v)
    has cover[u] = cover[v] = its own label, so it is never critical.
    """
    _validate(labeling, matching)
    labels = labeling._rows  # labels[u][v], 1-based, read without label()'s checks
    cover = [0] * (labeling.n + 1)
    for a, b in matching.edges:
        cover[a] = cover[b] = labels[a][b]
    per_class = dict.fromkeys((cover[a] for a, _ in matching.edges), 0)
    total = inner = 0
    for u in range(1, labeling.n):
        lu = cover[u]
        for lv, lab in zip(cover[u + 1:], labels[u][u + 1:]):
            if lu > lab or lv > lab:
                total += 1
                if lu and lv:
                    inner += 1
                    if lu == lv:
                        per_class[lu] += 1
    outward = total - inner
    denom = math.comb(2 * matching.size, 2)
    return CriticalReport(
        critical_count=total,
        outward_count=outward,
        inner_count=inner,
        denominator=denom,
        ratio=Fraction(total, denom),
        per_label_class=per_class,
    )


def m_pair(matching: Matching, e: tuple[int, int]) -> tuple[int, int]:
    """Partner edge joining the matched neighbors of e's endpoints."""
    u, v = e
    if u == v:
        raise ValueError("not an edge: endpoints coincide")
    eo = (min(u, v), max(u, v))
    if eo in matching.edges:
        raise ValueError("matching edges have no partner edge")
    partner = matching.partner_map()
    if u not in partner or v not in partner:
        raise ValueError(f"endpoint uncovered: both endpoints of {e} must be matched")
    a, b = partner[u], partner[v]
    return (min(a, b), max(a, b))


def e_switch(matching: Matching, e: tuple[int, int]) -> Matching:
    """Replace the two matching edges on e's quadruple by e and its partner."""
    u, v = min(e), max(e)
    ep = m_pair(matching, (u, v))  # u and v lie on two different matching edges
    kept = [ed for ed in matching.edges if u not in ed and v not in ed]
    return Matching(tuple(kept) + ((u, v), ep))


def label_weight(t: int, epsilon, ell) -> Fraction:
    """Weight of a label-t edge: 0 for t = 1 and sum_{s=0}^{t-2} 2**(t-2-s)
    eps**s for t >= 2 (so 1, 2+eps, 4+2 eps+eps**2, ...). Exact rationals."""
    if not is_infinite(ell):
        if not (1 <= t <= ell):
            raise ValueError(f"label {t} outside 1..{ell}")
    elif t < 1:
        raise ValueError(f"label {t} outside 1..")
    eps = as_fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if t == 1:
        return Fraction(0)
    return sum(Fraction(2) ** (t - 2 - s) * eps**s for s in range(t - 1))


def min_critical_matching_bruteforce(
    labeling: EdgeLabeling, size: int
) -> tuple[Matching, CriticalReport]:
    """Exact minimum of the critical count over all size-`size` matchings.

    Ties break to the lexicographically smallest sorted edge list. A
    branch and bound over matching prefixes answers first. On a total
    order (every label distinct) it tries the heaviest vertex first and
    each vertex's cheapest edge first, and keeps every minimiser: the
    lexicographic K_16 takes 3-16 ms at sizes 5-8 and random
    infinite-label K_16 at sizes 7 and 8 0.6-1.3 ms. On any other labeling
    it tries only one matching per swap of twins (vertices whose swap
    keeps every label): the two-, three- and four-label K_16 constructions
    take 0.3-0.6 ms at sizes 6-8. Past its budget, a scan vectorised over
    first-edge blocks of one table of the (N-2, size-1) matchings answers
    with the same minimum and witness; on a K_16 without twins it takes
    0.09 s for the perfect matchings (2,027,025) and 0.57 s at size 7
    (16,216,200). Best of 3 on a 2-vCPU VM.
    """
    if size < 1 or 2 * size > labeling.n:
        raise ValueError(f"no matchings of size {size} in K_{labeling.n}")
    check_brute_cap(labeling.n, DEFAULT_MATCHING_CAP, f"N={labeling.n}")
    best_count, edges0 = _kernels.min_critical_scan(labeling.matrix0(), size)
    edges = tuple((int(a) + 1, int(b) + 1) for a, b in edges0)
    matching = Matching(edges)
    report = count_critical(labeling, matching)
    assert report.critical_count == best_count
    return matching, report


def anti_lex_min_matching(labeling: EdgeLabeling, size: int) -> Matching:
    """Minimal size-`size` matching in the anti-lexicographic order: compare
    rank multisets from the largest rank downward. Brute force; totally
    ordered labelings only."""
    if not is_infinite(labeling.num_labels):
        raise ValueError("anti-lexicographic minimization needs a totally ordered labeling")
    if size < 1 or 2 * size > labeling.n:
        raise ValueError(f"no matchings of size {size} in K_{labeling.n}")
    check_brute_cap(labeling.n, DEFAULT_MATCHING_CAP, f"N={labeling.n}")
    edges0 = _kernels.anti_lex_scan(labeling.matrix0(), size)
    return Matching(tuple((int(a) + 1, int(b) + 1) for a, b in edges0))


def random_labeling(n: int, ell, seed: int = 0) -> EdgeLabeling:
    """Uniform random labeling; for INFINITE, a random rank permutation."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if is_infinite(ell):
        ranks = list(range(1, len(pairs) + 1))
        rng.shuffle(ranks)
        return EdgeLabeling(n, INFINITE, dict(zip(pairs, ranks)))
    return EdgeLabeling(n, ell, {p: rng.randint(1, ell) for p in pairs})


# ---------------------------------------------------------------------------
# switch local search
# ---------------------------------------------------------------------------

def _exchange_has_negative_cycle(W, edges, wm) -> bool:
    """Exact integer Bellman-Ford on the exchange digraph of a matching.

    One node per (matching edge j, entry endpoint a); it leaves j at the other
    endpoint b. The arc to the node entering j' != j at a' costs
    W[b][a'] - wm[j'], so an alternating cycle through distinct matching
    edges is a directed cycle whose cost is the weight change of its switch.
    False therefore proves that no alternating cycle improves the matching.
    True may come from a closed walk that uses a matching edge twice, which
    is no switch, so it proves nothing.
    """
    nodes = [(j, a, b) for j, (c, d) in enumerate(edges) for a, b in ((c, d), (d, c))]
    arcs = [
        (s, t, W[b][a2] - wm[j2])
        for s, (j, _, b) in enumerate(nodes)
        for t, (j2, a2, _) in enumerate(nodes)
        if j2 != j
    ]
    dist = [0] * len(nodes)
    # without a negative cycle, every shortest walk has < len(nodes) arcs
    for _ in range(len(nodes)):
        changed = False
        for s, t, c in arcs:
            d = dist[s] + c
            if d < dist[t]:
                dist[t] = d
                changed = True
        if not changed:
            return False
    return True


def _outward_switch(W, edges, n):
    """The first outward switch: matching edge (a, b) traded for a cheaper
    edge (x, c) from an endpoint x to an uncovered vertex c. Returns the
    other edges in order, then (x, c); None when no outward switch
    improves."""
    covered = {v for e in edges for v in e}
    free = [c for c in range(1, n + 1) if c not in covered]
    for a, b in edges:
        wm = W[a][b]
        for x in (a, b):
            Wx = W[x]
            for c in free:
                if Wx[c] < wm:
                    return [e for e in edges if e != (a, b)] + [(min(x, c), max(x, c))]
    return None


def _pair_switch(W, edges):
    """The first pair switch: matching edges (a, b), (c, d) traded for a
    cheaper pair e1, e2 on the same four vertices. Returns the other edges in
    order, then e1, then e2; None when no pair switch improves."""
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            base = W[a][b] + W[c][d]
            for e1, e2 in (((a, c), (b, d)), ((a, d), (b, c))):
                if W[e1[0]][e1[1]] + W[e2[0]][e2[1]] < base:
                    rest = [e for e in edges if e != (a, b) and e != (c, d)]
                    return rest + [(min(e1), max(e1)), (min(e2), max(e2))]
    return None


def _improving_chain(W, edges, wm, order, chain, delta, remaining):
    """Depth-first extension of an alternating chain to an improving cycle.

    chain lists (j, a, b): matching edge j, entered at a and left at b, and
    each step walks by the non-matching edge (b, a') into the next one. delta
    is the chain's weight change so far and remaining the weight of the
    matching edges not in it. Steps go to edges later in the list than the
    first one, in sorted-edge order and orientation (c, d) before (d, c).
    Returns the first chain of >= 2 edges whose closing edge (b_last, a_0)
    makes the change negative, or None; a chain stops growing once even
    removing every remaining matching edge could not make it negative.
    """
    i0, a0, _ = chain[0]
    Wb = W[chain[-1][2]]
    # with >= 2 edges, b_last lies on another matching edge than a0, so b_last != a0
    if len(chain) >= 2 and delta + Wb[a0] < 0:
        return chain
    if delta - remaining >= 0:
        return None
    used = {j for j, _, _ in chain}
    for j in order:
        if j > i0 and j not in used:
            c, d = edges[j]
            for a, b in ((c, d), (d, c)):
                found = _improving_chain(W, edges, wm, order, chain + [(j, a, b)],
                                         delta + Wb[a] - wm[j], remaining - wm[j])
                if found:
                    return found
    return None


def _cycle_switch(W, edges):
    """The first switch along an improving alternating cycle over >= 2
    matching edges. Returns the edges off the cycle in order, then
    (b_i, a_{i+1}) for each step of the chain and the closing (b_last, a_0);
    None when no alternating cycle improves."""
    wm = [W[a][b] for a, b in edges]
    if not _exchange_has_negative_cycle(W, edges, wm):
        return None
    total = sum(wm)
    order = sorted(range(len(edges)), key=edges.__getitem__)
    for i0 in order:
        a, b = edges[i0]
        for a0, b0 in ((a, b), (b, a)):
            chain = _improving_chain(W, edges, wm, order, [(i0, a0, b0)], -wm[i0], total - wm[i0])
            if chain:
                on_cycle = {j for j, _, _ in chain}
                return [e for j, e in enumerate(edges) if j not in on_cycle] + [
                    (min(b1, a2), max(b1, a2))
                    for (_, _, b1), (_, a2, _) in zip(chain, chain[1:] + chain[:1])
                ]
    return None


def switch_local_search(
    labeling: EdgeLabeling, size: int, epsilon=None, seed: int = 0
) -> Matching:
    """First-improvement local search to a switch-optimal matching.

    Moves, tried in this order: outward switches (swap a matching edge for a
    cheaper edge to an uncovered vertex), pair switches on a quadruple, then
    general alternating cycles (which subsume cycle switches and
    path-plus-closing-edge switches). Each move returns the next edge list,
    whose order decides the next scan, and strictly decreases the total
    weight, which lives in a finite set, so the search terminates. At the
    optimum there is no outward critical edge and no partner-pair of critical
    edges spanning two label classes.

    Weights are exact integers: `label_weight` scaled by q**(M-2) (eps = p/q,
    M the largest label), built once by its doubling recurrence and spread
    over a 1-based vertex-pair table. Before the exhaustive alternating-cycle
    DFS, a Bellman-Ford pass over the exchange digraph (one node per matching
    edge and entry endpoint) looks for a negative cycle. Without one no
    alternating cycle improves, and the search ends without the DFS; nearly
    every search ends this way. With one, the DFS runs and finds the
    improving cycle, or finds none because every negative cycle reuses a
    matching edge. The result is the same as the DFS alone.
    """
    if size < 1 or 2 * size > labeling.n:
        raise ValueError(f"no matchings of size {size} in K_{labeling.n}")
    ell = labeling.num_labels
    eps = as_fraction(epsilon) if epsilon is not None else default_epsilon(ell)
    if not is_infinite(ell) and ell >= 2 and not epsilon_check(ell, eps):
        raise ValueError(f"epsilon {eps} fails the weight-scheme inequalities for ell={ell}")

    n = labeling.n
    max_label = labeling.n * (labeling.n - 1) // 2 if is_infinite(ell) else int(ell)
    if max_label >= 2 and eps <= 0:
        raise ValueError("epsilon must be positive")
    # clear denominators once: integer weights keep the inner loops exact+fast
    wint = _weight_table(max_label, eps)
    W = [[wint[t] for t in row] for row in labeling._rows]

    rng = random.Random(seed)
    verts = rng.sample(range(1, n + 1), 2 * size)
    edges = sorted(
        (min(a, b), max(a, b)) for a, b in zip(verts[0::2], verts[1::2])
    )
    while nxt := _outward_switch(W, edges, n) or _pair_switch(W, edges) or _cycle_switch(W, edges):
        edges = nxt
    return Matching(tuple(edges))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _staircase_ell(kind: str) -> int:
    if kind not in _STAIRCASE_ELL:
        raise ValueError(f"unknown construction kind {kind!r}")
    return _STAIRCASE_ELL[kind]


def construction_blocks(kind: str, n: int) -> tuple[int, ...]:
    """Realized block sizes: floor each fraction, remainder into the last block."""
    if kind == LEX_INFINITE:
        if n < 2:
            raise ValueError("need at least 2 vertices")
        return (n,)
    ell = _staircase_ell(kind)
    q = 4 * (ell - 1)  # the smallest block is floor(n/q)
    if n < q:
        raise ValueError(f"N={n} too small for the {kind}-label construction (need N >= {q})")
    sizes = [n // q] + [2 * n // q] * (ell - 2)
    return (*sizes, n - sum(sizes))


def make_construction(kind: str, n: int) -> EdgeLabeling:
    """Build the named labeling on K_n; blocks are consecutive vertex ranges."""
    blocks = construction_blocks(kind, n)
    if kind == LEX_INFINITE:
        lab = EdgeLabeling.lexicographic(n)
    else:
        ell = len(blocks)
        block = [i for i, s in enumerate(blocks) for _ in range(s)]
        labels = {(u, v): max(1, block[u - 1] + block[v - 1] - ell + 2)
                  for u in range(1, n + 1) for v in range(u + 1, n + 1)}
        lab = EdgeLabeling(n, ell, labels)
    lab.blocks = blocks
    return lab


def construction_min_ratio_analytic(kind: str) -> Fraction:
    """Asymptotic minimum critical-edge ratio of each construction family:
    1/2 - 1/(4(ell - 1)) for the staircases, 1/2 for the total order."""
    if kind == LEX_INFINITE:
        return Fraction(1, 2)
    return Fraction(1, 2) - Fraction(1, 4 * (_staircase_ell(kind) - 1))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def labeling_to_text(labeling: EdgeLabeling) -> str:
    lines = [f"{labeling.n} {ell_text(labeling.num_labels)}"]
    for u, v in labeling.pairs():
        lines.append(f"{u} {v} {labeling.label(u, v)}")
    return "\n".join(lines) + "\n"


def labeling_from_text(text: str) -> EdgeLabeling:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty labeling file")
    try:
        n_field, ell_field = lines[0].split()
        n, ell = int(n_field), parse_ell(ell_field)
    except ValueError:
        raise ValueError(f"bad header {lines[0]!r}, expected 'N ell'") from None
    labels = {}
    for ln in lines[1:]:
        u, v, lab = int_fields(ln, 3, "labeling")
        if (u, v) in labels:
            raise ValueError(f"pair ({u}, {v}) listed twice")
        labels[(u, v)] = lab
    return EdgeLabeling(n, ell, labels)


def matching_to_text(matching: Matching) -> str:
    return "".join(f"{u} {v}\n" for u, v in matching.edges)


def matching_from_text(text: str) -> Matching:
    edges = []
    for ln in text.splitlines():
        if not ln.strip():
            continue
        edges.append(tuple(int_fields(ln, 2, "matching")))
    return Matching(tuple(edges))
