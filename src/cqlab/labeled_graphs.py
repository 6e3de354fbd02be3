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
from .partition_bounds import default_epsilon, epsilon_check

TWO_LABEL = "two"
THREE_LABEL = "three"
FOUR_LABEL = "four"
LEX_INFINITE = "lex"

CONSTRUCTION_KINDS = (TWO_LABEL, THREE_LABEL, FOUR_LABEL, LEX_INFINITE)

#: Kind -> (block-size ratios, block-label rule). Blocks are consecutive
#: vertex ranges; the last block is the largest and absorbs the rounding
#: remainder (floor each ratio, dump the remainder into the last). An edge
#: between blocks i <= j carries label rule[i][j], and ell = len(rule).
_BLOCK_TABLES = {
    TWO_LABEL: (
        (Fraction(1, 4), Fraction(3, 4)),
        ((1, 1), (1, 2)),
    ),
    THREE_LABEL: (
        (Fraction(1, 8), Fraction(1, 4), Fraction(5, 8)),
        ((1, 1, 1), (1, 1, 2), (1, 2, 3)),
    ),
    FOUR_LABEL: (
        (Fraction(1, 12), Fraction(2, 12), Fraction(2, 12), Fraction(7, 12)),
        ((1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 3), (1, 2, 3, 4)),
    ),
}

DEFAULT_MATCHING_CAP = 16


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
        self.n = int(n_vertices)
        self.num_labels = num_labels
        m = np.zeros((self.n + 1, self.n + 1), dtype=np.int64)
        for (u, v), lab in labels.items():
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad pair ({u}, {v})")
            m[u, v] = m[v, u] = int(lab)
        npairs = self.n * (self.n - 1) // 2
        if len(labels) != npairs:
            raise ValueError(f"expected {npairs} labeled pairs, got {len(labels)}")
        flat = [int(m[u, v]) for u in range(1, self.n + 1) for v in range(u + 1, self.n + 1)]
        if is_infinite(num_labels):
            if sorted(flat) != list(range(1, npairs + 1)):
                raise ValueError("infinite mode needs ranks forming a permutation of 1..C(N,2)")
        else:
            bad = [x for x in flat if not (1 <= x <= num_labels)]
            if bad:
                raise ValueError(f"labels out of 1..{num_labels}: {sorted(set(bad))[:5]}")
        self._m = m
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
    on partial matchings; both are reported."""
    _validate(labeling, matching)
    labels = labeling._m.tolist()  # labels[u][v], 1-based, read without label()'s checks
    partner = matching.partner_map()
    edge_label = {}
    clazz = {}
    for a, b in matching.edges:
        lv = labels[a][b]
        edge_label[a] = edge_label[b] = lv
        clazz.setdefault(lv, set()).update((a, b))
    total = outward = inner = 0
    per_class = {lv: 0 for lv in clazz}
    medges = set(matching.edges)
    for u, v in labeling.pairs():
        if (u, v) in medges:
            continue
        cu = u in partner
        cv = v in partner
        if not (cu or cv):
            continue
        lab = labels[u][v]
        crit = (cu and edge_label[u] > lab) or (cv and edge_label[v] > lab)
        if not crit:
            continue
        total += 1
        if cu and cv:
            inner += 1
            if edge_label[u] == edge_label[v]:
                per_class[edge_label[u]] += 1
        else:
            outward += 1
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
    ep = m_pair(matching, (u, v))
    partner = matching.partner_map()
    removed = {
        (min(u, partner[u]), max(u, partner[u])),
        (min(v, partner[v]), max(v, partner[v])),
    }
    kept = [ed for ed in matching.edges if ed not in removed]
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

    Ties break to the lexicographically smallest sorted edge list. The scan
    counts critical edges vectorised over first-edge blocks of one table of
    the (N-2, size-1) matchings, so K_16 perfect matchings (2,027,025 of
    them) take about 0.15 s and size 7 (16,216,200) about a second when the
    labeling has no twins (vertices whose swap keeps every label). With
    twins only canonical matchings are scored, with the same minimum and
    witness: the two-, three- and four-label K_16 constructions take
    0.01-0.02 s at size 8 and 0.07-0.11 s at size 7, on a 2-vCPU VM.
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

def _weight_table(max_label: int, eps: Fraction) -> list[int]:
    """Integer label weights: entry t is label_weight(t, eps) * q**(M-2) for
    eps = p/q and M = max_label, entries 0 and 1 are 0. Built by the exact
    recurrence label_weight(t+1) = 2 label_weight(t) + eps**(t-1), scaled:
    wint[2] = q**(M-2) and wint[t] = 2 wint[t-1] + p**(t-2) q**(M-t)."""
    p, q = eps.numerator, eps.denominator
    wint = [0] * (max_label + 1)
    if max_label >= 2:
        wint[2] = q ** (max_label - 2)
        for t in range(3, max_label + 1):
            wint[t] = 2 * wint[t - 1] + p ** (t - 2) * q ** (max_label - t)
    return wint


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


def switch_local_search(
    labeling: EdgeLabeling, size: int, epsilon=None, seed: int = 0
) -> Matching:
    """First-improvement local search to a switch-optimal matching.

    Moves, scanned in this order: outward switches (swap a matching edge for a
    cheaper edge to an uncovered vertex), pair switches on a quadruple, then
    general alternating cycles (which subsume cycle switches and
    path-plus-closing-edge switches). Each move strictly decreases the total
    weight, which lives in a finite set, so the search terminates. At the
    optimum there is no outward critical edge and no partner-pair of critical
    edges spanning two label classes.

    Weights are exact integers: `label_weight` scaled by q**(M-2) (eps = p/q,
    M the largest label), built once by its doubling recurrence and spread
    over a 1-based vertex-pair table. Before the exhaustive alternating-cycle
    DFS, a Bellman-Ford pass over the exchange digraph (one node per matching
    edge and entry endpoint) looks for a negative cycle. Without one no
    alternating cycle improves, and the search ends without the DFS; nearly
    every search ends this way. With one, the unchanged DFS runs and finds
    the improving cycle, or finds none because every negative cycle reuses a
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
    W = [[wint[t] for t in row] for row in labeling._m.tolist()]

    rng = random.Random(seed)
    verts = rng.sample(range(1, n + 1), 2 * size)
    edges = sorted(
        (min(a, b), max(a, b)) for a, b in zip(verts[0::2], verts[1::2])
    )

    def try_outward(es):
        covered = {v for e in es for v in e}
        free = [v for v in range(1, n + 1) if v not in covered]
        for a, b in es:
            wm = W[a][b]
            for x in (a, b):
                Wx = W[x]
                for c in free:
                    if Wx[c] < wm:
                        es.remove((a, b))
                        es.append((min(x, c), max(x, c)))
                        return True
        return False

    def try_pair_switch(es):
        k = len(es)
        for i in range(k):
            a, b = es[i]
            for j in range(i + 1, k):
                c, d = es[j]
                base = W[a][b] + W[c][d]
                for e1, e2 in (((a, c), (b, d)), ((a, d), (b, c))):
                    if W[e1[0]][e1[1]] + W[e2[0]][e2[1]] < base:
                        del es[j]
                        del es[i]
                        es.append((min(e1), max(e1)))
                        es.append((min(e2), max(e2)))
                        return True
        return False

    def try_cycle(es):
        # alternating cycles over >= 2 matching edges; exit vertex walks by a
        # non-matching edge to the next matched pair. Prune on the largest
        # possible future saving (the total weight of unused matching edges).
        k = len(es)
        wm = [W[a][b] for a, b in es]
        if not _exchange_has_negative_cycle(W, es, wm):
            return False
        total = sum(wm)
        order = sorted(range(k), key=lambda i: (es[i],))
        result = None

        def dfs(i0, a0, bcur, used, delta, remaining):
            # entered only while result is None (callers return once it is set)
            nonlocal result
            Wb = W[bcur]
            # close the cycle (needs >= 2 matching edges; bcur then lies on a
            # matching edge other than a0's, so bcur != a0)
            if len(used) >= 2:
                closing = delta + Wb[a0]
                if closing < 0:
                    result = list(used)
                    return
            if delta - remaining >= 0:
                return
            for j in order:
                if j <= i0 or j in used_set:
                    continue
                c, d = es[j]
                for anext, bnext in ((c, d), (d, c)):
                    nd = delta + Wb[anext] - wm[j]
                    used.append((j, anext, bnext))
                    used_set.add(j)
                    dfs(i0, a0, bnext, used, nd, remaining - wm[j])
                    used_set.discard(j)
                    used.pop()
                    if result is not None:
                        return

        for i0 in order:
            a, b = es[i0]
            for a0, b0 in ((a, b), (b, a)):
                used_set = {i0}
                start = [(i0, a0, b0)]
                dfs(i0, a0, b0, start, -wm[i0], total - wm[i0])
                if result is not None:
                    chain = result
                    new_edges = [es[j] for j in range(k) if j not in {c[0] for c in chain}]
                    for (j1, a1, b1), (j2, a2, b2) in zip(chain, chain[1:]):
                        new_edges.append((min(b1, a2), max(b1, a2)))
                    last = chain[-1]
                    new_edges.append((min(last[2], chain[0][1]), max(last[2], chain[0][1])))
                    es[:] = new_edges
                    return True
        return False

    while try_outward(edges) or try_pair_switch(edges) or try_cycle(edges):
        pass
    return Matching(tuple(edges))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def construction_blocks(kind: str, n: int) -> tuple[int, ...]:
    """Realized block sizes: floor each ratio, remainder into the last block."""
    if kind == LEX_INFINITE:
        if n < 2:
            raise ValueError("need at least 2 vertices")
        return (n,)
    if kind not in _BLOCK_TABLES:
        raise ValueError(f"unknown construction kind {kind!r}")
    ratios = _BLOCK_TABLES[kind][0]
    sizes = [math.floor(r * n) for r in ratios]
    if any(s < 1 for s in sizes):
        need = math.ceil(1 / min(ratios))
        raise ValueError(f"N={n} too small for the {kind}-label construction (need N >= {need})")
    sizes[-1] += n - sum(sizes)
    return tuple(sizes)


def make_construction(kind: str, n: int) -> EdgeLabeling:
    """Build the named labeling on K_n; blocks are consecutive vertex ranges."""
    blocks = construction_blocks(kind, n)
    if kind == LEX_INFINITE:
        lab = EdgeLabeling.lexicographic(n)
    else:
        rule = _BLOCK_TABLES[kind][1]
        block = [i for i, s in enumerate(blocks) for _ in range(s)]
        labels = {(u, v): rule[block[u - 1]][block[v - 1]]
                  for u in range(1, n + 1) for v in range(u + 1, n + 1)}
        lab = EdgeLabeling(n, len(rule), labels)
    lab.blocks = blocks
    return lab


def construction_min_ratio_analytic(kind: str) -> Fraction:
    """Asymptotic minimum critical-edge ratio of each construction family."""
    table = {
        TWO_LABEL: Fraction(1, 4),
        THREE_LABEL: Fraction(3, 8),
        FOUR_LABEL: Fraction(5, 12),
        LEX_INFINITE: Fraction(1, 2),
    }
    if kind not in table:
        raise ValueError(f"unknown construction kind {kind!r}")
    return table[kind]


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
