"""Query-model harness: lazily sampled G(n, 1/2), round bookkeeping, and
illustrative query strategies.

Vertices are 0-based here. A query reveals one adjacency bit; every probe is
logged and counted, budgets are floor(n**delta). The graph bits come from a
keyed hash of (seed, pair), so instances are deterministic and never
materialize the full adjacency matrix.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
import struct
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import AdaptivityViolation, BudgetExceeded

_pack_pair = struct.Struct("<II").pack


def _range_error(n: int) -> ValueError:
    return ValueError(f"vertices must lie in 0..{n - 1}")


def _shuffle(x: list, rng: random.Random) -> None:
    """Shuffle `x` in place exactly as `rng.shuffle(x)` does, draw for draw:
    CPython's Fisher-Yates takes j = randbelow(i + 1) for i = len(x) - 1 down
    to 1, and randbelow(m) redraws getrandbits(m.bit_length()) until the draw
    is below m. Here the bit length is computed once per run of i + 1 within
    [2**(k-1), 2**k), and getrandbits is called directly."""
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # smallest i with (i + 1).bit_length() == k
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def _vertex_pool(n: int, vertices) -> list[int]:
    """All of range(n), or `vertices` sorted; each must be a distinct vertex
    of the graph, refused before any query otherwise."""
    if vertices is None:
        return list(range(n))
    pool = sorted(vertices)
    if pool and (pool[0] < 0 or pool[-1] >= n):
        raise _range_error(n)
    for u, v in zip(pool, pool[1:]):
        if u == v:
            raise ValueError(f"vertices must be distinct; {v} repeats")
    return pool


class RevealedGraph:
    """Adjacency oracle over G(n, 1/2) with a query/round ledger."""

    def __init__(self, n: int, seed: int):
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got {n}")
        self.n = int(n)
        self.seed = int(seed) & (2**64 - 1)
        # keyed state before any message; each fresh pair hashes a copy, which
        # gives the one-shot blake2b(pack(a, b), key=seed as 8 LE bytes) digest
        self._hasher = hashlib.blake2b(key=self.seed.to_bytes(8, "little"), digest_size=8)
        self.revealed: dict[tuple[int, int], int] = {}
        self.query_log: list[tuple[int, int, int]] = []
        self.rounds_closed = 0

    def query(self, u: int, v: int) -> int:
        """Reveal (and cache) the adjacency bit of pair (u, v); logged."""
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n:
            if u == v:
                raise ValueError("no self-loops: u and v must differ")
            raise _range_error(self.n)
        revealed = self.revealed
        key = (u, v)
        bit = revealed.get(key)
        if bit is None:
            h = self._hasher.copy()
            h.update(_pack_pair(u, v))
            bit = revealed[key] = h.digest()[0] & 1
        self.query_log.append((self.rounds_closed, u, v))
        return bit

    def close_round(self):
        self.rounds_closed += 1

    @property
    def queries_used(self) -> int:
        return len(self.query_log)

    def transcript_lines(self) -> list[str]:
        return [f"{r},{u},{v},{self.revealed[(u, v)]}" for r, u, v in self.query_log]


def new_instance(n: int, seed: int) -> RevealedGraph:
    """Deterministic lazy G(n, 1/2): same (n, seed) answers any query sequence
    identically."""
    return RevealedGraph(n, seed)


@dataclass(frozen=True)
class RunResult:
    vertices: tuple[int, ...]
    is_clique: bool
    density: Fraction
    queries_used: int
    rounds_used: int
    budget: int
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "size": len(self.vertices),
            "is_clique": self.is_clique,
            "density": float(self.density),
            "density_exact": f"{self.density.numerator}/{self.density.denominator}",
            "queries_used": self.queries_used,
            "rounds_used": self.rounds_used,
            "budget": self.budget,
            "meta": self.meta,
        }


def query_budget(n: int, delta: float) -> int:
    """floor(n**delta); refuses a delta that is not finite or whose power
    overflows a float."""
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    try:
        return math.floor(n**delta)
    except OverflowError:
        raise ValueError(f"delta={delta} overflows the budget n**delta at n={n}") from None


def _verified_result(g: RevealedGraph, vertices, budget: int, start: int,
                     rounds_before: int, meta: dict) -> RunResult:
    """Verify and report a run that began at query count `start` and round
    `rounds_before`: re-query every pair of `vertices` against `budget`, and
    raise BudgetExceeded if that passes it."""
    vs = tuple(sorted(set(vertices)))
    present = sum(g.query(u, v) for u, v in itertools.combinations(vs, 2))
    pairs = math.comb(len(vs), 2)
    used = g.queries_used - start
    if used > budget:
        raise BudgetExceeded(
            f"budget exceeded: verification pushed the run to {used} > {budget} queries"
        )
    return RunResult(
        vertices=vs,
        is_clique=present == pairs,
        density=Fraction(present, pairs) if pairs else Fraction(1),
        queries_used=used,
        rounds_used=g.rounds_closed - rounds_before,
        budget=budget,
        meta=meta,
    )


def greedy_clique(g: RevealedGraph, budget: int, vertices=None, scan_seed=None) -> RunResult:
    """Fully adaptive baseline: scan vertices in seed-shuffled order, admit a
    candidate iff it is adjacent to every clique member so far. Query head
    room is reserved so that the final verification re-query of all internal
    pairs stays within the budget."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pool = _vertex_pool(g.n, vertices)
    rng = random.Random((g.seed if scan_seed is None else scan_seed) ^ 0x9E3779B97F4A7C15)
    _shuffle(pool, rng)
    query, log = g.query, g.query_log
    start = len(log)
    rounds_before = g.rounds_closed
    clique: list[int] = []
    # stop once the log passes start + budget - reserve, where the reserve is
    # the next candidate's worst case: test it against the k members, then
    # verify C(k+1, 2) pairs; changes only when the clique grows
    limit = start + budget
    for cand in pool:
        if len(log) > limit:
            break
        for member in clique:
            if not query(cand, member):
                break
        else:
            clique.append(cand)
            k = len(clique)
            limit = start + budget - k - math.comb(k + 1, 2)
        g.close_round()
    return _verified_result(g, clique, budget, start, rounds_before, {"strategy": "greedy"})


# ---------------------------------------------------------------------------
# round-limited harness
# ---------------------------------------------------------------------------

class RoundContext:
    """Lookup handle passed to strategies: answers come only from closed
    rounds; a pair pending in the current round raises AdaptivityViolation."""

    def __init__(self):
        self._answers: dict[tuple[int, int], int] = {}
        self._pending: dict[tuple[int, int], int] = {}  # this round's bits

    def answered(self, u: int, v: int) -> int:
        key = (min(u, v), max(u, v))
        if key in self._pending:
            raise AdaptivityViolation(
                f"adaptivity violation: pair {key} was queried this round "
                "and its answer is withheld until the round closes"
            )
        if key not in self._answers:
            raise KeyError(f"pair {key} has not been queried in any closed round")
        return self._answers[key]

    def known(self) -> dict[tuple[int, int], int]:
        return dict(self._answers)


def run_l_adaptive(
    g: RevealedGraph,
    strategy,
    delta: float,
    ell: int,
    budget: int | None = None,
) -> RunResult:
    """Run an ell-round strategy under budget floor(n**delta) (or an explicit
    budget, used by block-wise amplification). The final verification
    re-queries count against the budget too; a batch or a verification that
    passes it raises BudgetExceeded. `rounds_used` is ell.

    A strategy supplies `round_queries(rnd, answers, ctx)` returning the
    round's batch (computable from earlier rounds only: the harness withholds
    same-round answers) and `result(answers, ctx)` returning the vertex set.
    Empty batches are allowed and still consume a round.
    """
    if ell < 1:
        raise ValueError("need at least one round")
    if budget is None:
        budget = query_budget(g.n, delta)
    ctx = RoundContext()
    query, pending = g.query, ctx._pending
    start = g.queries_used
    rounds_before = g.rounds_closed
    room = budget
    for rnd in range(ell):
        batch = strategy.round_queries(rnd, ctx.known(), ctx)
        for u, v in batch:
            if room <= 0:
                raise BudgetExceeded(
                    f"budget exceeded: round {rnd} passed {budget} total queries"
                )
            room -= 1
            pending[(u, v) if u < v else (v, u)] = query(u, v)
        # round closes: release the answers
        ctx._answers.update(pending)
        pending.clear()
        g.close_round()
    chosen = strategy.result(ctx.known(), ctx)
    return _verified_result(
        g, chosen, budget, start, rounds_before, {"strategy": type(strategy).__name__}
    )


def max_clique_bruteforce(vertices, adj) -> list[int]:
    """Exact maximum clique on a small revealed subgraph (Bron-Kerbosch with
    pivoting); adj maps vertex -> set of known neighbors."""
    best: list[int] = []

    def bk(r, p, x):
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = list(r)
            return
        if len(r) + len(p) <= len(best):
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in list(p - adj[pivot]):
            bk(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    bk([], set(vertices), set())
    return sorted(best)


class BatchedGreedyStrategy:
    """Round-limited greedy: round 0 reveals a seed pool completely and takes
    its maximum clique; each later round batch-tests a shortlist against the
    current clique (plus shortlist-internal pairs) and extends by the best
    compatible clique. Unbounded computation, bounded queries: the rounds may
    spend the whole budget, so `result` returns the longest prefix of the
    clique (itself a clique) whose C(k, 2) verification queries fit the rest."""

    def __init__(self, n: int, seed: int, budget: int, ell: int, vertices=None):
        self.budget = budget
        self.ell = ell
        pool = _vertex_pool(n, vertices)
        _shuffle(pool, random.Random(seed ^ 0xA5A5A5A5))
        self.order = pool
        self.cursor = 0
        self.clique: list[int] = []
        self.spent = 0
        self._round_cands: list[int] = []

    def _absorb(self, answers):
        # extend the clique using everything known so far
        if self._round_cands:
            survivors = [
                c
                for c in self._round_cands
                if all(answers.get((min(c, m), max(c, m))) == 1 for m in self.clique)
            ]
            adj = {
                c: {
                    d
                    for d in survivors
                    if d != c and answers.get((min(c, d), max(c, d))) == 1
                }
                for c in survivors
            }
            self.clique.extend(max_clique_bruteforce(survivors, adj))
            self._round_cands = []

    def round_queries(self, rnd, answers, ctx):
        self._absorb(answers)
        room = min(max(1, self.budget // max(1, self.ell)), self.budget - self.spent)
        if rnd == 0:
            # seed pool: reveal all internal pairs of s vertices, C(s,2) <= room
            s = max(2, (1 + math.isqrt(1 + 8 * room)) // 2)
            s = min(s, 44, len(self.order))
            pool = self.order[: s]
            self.cursor = s
            self._round_cands = pool
            batch = list(itertools.combinations(pool, 2))
        else:
            k = max(1, len(self.clique))
            # shortlist size L: L*k + C(L,2) <= room, but at least one
            # candidate while its pairs fit what is left of the budget
            L = 1 if len(self.clique) <= self.budget - self.spent else 0
            while (L + 1) * k + math.comb(L + 1, 2) <= room and self.cursor + L < len(self.order):
                L += 1
            cands = self.order[self.cursor : self.cursor + L]
            self.cursor += len(cands)
            self._round_cands = cands
            batch = [(c, m) for c in cands for m in self.clique]
            batch += itertools.combinations(cands, 2)
        self.spent += len(batch)
        return batch

    def result(self, answers, ctx):
        self._absorb(answers)
        room = self.budget - self.spent
        k = len(self.clique)
        while math.comb(k, 2) > room:
            k -= 1
        return self.clique[:k]


def partition_blocks(n: int) -> list[list[int]]:
    """Near-equal split of range(n) into roughly log2(n) blocks."""
    nblocks = max(1, round(math.log2(n))) if n > 1 else 1
    base, extra = divmod(n, nblocks)
    blocks = []
    start = 0
    for i in range(nblocks):
        size = base + (1 if i < extra else 0)
        blocks.append(list(range(start, start + size)))
        start += size
    return blocks


def amplify(block_runner, g: RevealedGraph, delta: float, ell: int) -> RunResult:
    """Success amplification: partition the vertex set into ~log2(n) blocks,
    run the base strategy independently on each (derived seeds), return the
    best verified result. The 2**(-log n) = 1/n failure heuristic is reported
    as metadata, not asserted."""
    blocks = partition_blocks(g.n)
    budget = query_budget(g.n, delta)
    share = max(1, budget // len(blocks))
    start = g.queries_used
    best: RunResult | None = None
    rounds = 0
    for i, block in enumerate(blocks):
        res = block_runner(g, block, g.seed + 0x1000 * (i + 1), share, ell)
        rounds = max(rounds, res.rounds_used)
        if best is None or len(res.vertices) > len(best.vertices) or (
            len(res.vertices) == len(best.vertices) and res.density > best.density
        ):
            best = res
    assert best is not None
    return replace(
        best,
        queries_used=g.queries_used - start,
        rounds_used=rounds,
        budget=budget,
        meta={
            "amplified": True,
            "blocks": len(blocks),
            "block_sizes": [len(b) for b in blocks],
            "failure_probability_heuristic": 1.0 / g.n,
            "best_block": best.meta,
        },
    )


def greedy_block_runner(g: RevealedGraph, block, seed, share, ell) -> RunResult:
    """Adapter running the fully adaptive greedy inside one block; the derived
    seed drives only the scan order, the graph bits stay the parent's."""
    res = greedy_clique(g, share, vertices=block, scan_seed=seed)
    return replace(res, meta={"strategy": "greedy", "block": (block[0], block[-1])})


def batched_block_runner(g: RevealedGraph, block, seed, share, ell) -> RunResult:
    """Adapter running the round-limited batched greedy inside one block."""
    strat = BatchedGreedyStrategy(g.n, seed=seed, budget=share, ell=ell, vertices=block)
    res = run_l_adaptive(g, strat, delta=1.0, ell=ell, budget=share)
    return replace(res, meta={**res.meta, "block": (block[0], block[-1])})
