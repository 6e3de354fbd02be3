"""Seeded inputs, tasks and output checks for the three cqlab workloads.

A workload turns the run seed into an endless stream of rounds. A round holds
one copy of every task kind in the workload's mix, in a seeded order, with
seeded instance parameters; a run that stops at a round boundary therefore
measures the same mix of work whatever the seed. The library receives only
the generated parameters and builds every instance itself inside the task.

BENCHMARK.json records why each workload was chosen.

Every call into cqlab goes through a module or class attribute
(``bounds.dense_alpha_upper``, ``simulator.RevealedGraph.query``, ...), so
the traced run can wrap those attributes from the outside.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass

from cqlab import alternating, bounds, labeled_graphs, simulator
from cqlab.common import INFINITE
from cqlab.errors import BudgetExceeded


@dataclass(frozen=True)
class Outcome:
    """What the runner records for one task besides its time.

    ``size`` is the task's result quality, higher is better, averaged into
    ``clique_size_mean``: the verified clique's vertex count in query_sim; in
    dense_bounds the trivial size exponent 2/(1-H(eta)) divided by alpha0,
    how far the bound improves on the trivial one; in construction_verify the
    exhaustive minimum critical count divided by the local search's. None
    when a task has no such result. ``queries`` counts the questions the task
    answered: oracle queries in query_sim, one per task elsewhere.
    """

    size: float | None
    queries: int


class Workload:
    name = ""

    def rounds(self, seed: int):
        """Yield lists of tasks forever; the same seed yields the same lists."""
        raise NotImplementedError

    def warmup(self, seed: int) -> list:
        """Tasks run once during set-up: the smallest case of each kind."""
        raise NotImplementedError

    def run(self, task):
        """The timed part of a task: every library call it makes."""
        raise NotImplementedError

    def finish(self, task, raw):
        """The untimed part of a task: reduce the raw result for the checks."""
        return raw

    def check(self, task, out) -> list[str]:
        """Problems found in one task's output; empty when it is correct."""
        raise NotImplementedError

    def outcome(self, task, out) -> Outcome:
        raise NotImplementedError

    def layer_stats(self, pairs) -> dict:
        """Result-derived per-layer values over (task, output) pairs."""
        return {}


# ---------------------------------------------------------------------------
# dense_bounds
# ---------------------------------------------------------------------------

DELTAS = (1.0, 1.1, 1.25, 1.5)
ELLS = (2, 3, 4, 5, INFINITE)
FIGURE_ETAS = tuple(round(0.76 + 0.01 * i, 2) for i in range(24))  # 0.76 .. 0.99
# two labels at delta = 1: eta -> (alpha1 stationary curve, alpha2), the
# four-decimal values of the paper's table
TABLE_L2 = {
    0.930: (2.4116, 2.4133), 0.931: (2.3931, 2.3943),
    0.932: (2.3746, 2.3754), 0.933: (2.3562, 2.3567),
    0.934: (2.3380, 2.3382), 0.935: (2.3197, 2.3198),
    0.936: (2.3016, 2.3016), 0.937: (2.2836, 2.2836),
}
ETAS = tuple(sorted(set(FIGURE_ETAS) | set(TABLE_L2)))
CLOSED_FORM_ELLS = (2, 3, INFINITE)


@dataclass(frozen=True)
class DenseTask:
    delta: float
    ell: object
    eta: float


class DenseBounds(Workload):
    name = "dense_bounds"

    def rounds(self, seed):
        # every (delta, ell) pair once per round, eta drawn with replacement:
        # queries repeat across rounds as they do when the figure and the table
        # are both reproduced
        rng = random.Random(f"dense_bounds:{seed}")
        pairs = [(d, ell) for d in DELTAS for ell in ELLS]
        while True:
            rng.shuffle(pairs)
            yield [DenseTask(d, ell, rng.choice(ETAS)) for d, ell in pairs]

    def warmup(self, seed):
        return [DenseTask(1.0, 2, 0.93)]

    def run(self, task):
        query = bounds.DenseBoundQuery(delta=task.delta, ell=task.ell, eta=task.eta)
        return bounds.dense_alpha_upper(query)

    def check(self, task, sol):
        problems = []
        if sol.alpha0 != min(sol.alpha1, sol.alpha2):
            problems.append(f"alpha0 {sol.alpha0} != min(alpha1 {sol.alpha1}, alpha2 {sol.alpha2})")
        if not (math.isfinite(sol.alpha0) and sol.alpha0 > 1.0):
            problems.append(f"alpha0 {sol.alpha0} is not a finite exponent above 1")
        if task.delta == 1.0 and task.ell in CLOSED_FORM_ELLS:
            ref = bounds.alpha2_closed_form(task.ell, task.eta)
            if not abs(sol.alpha2 - ref) <= 1e-8:
                problems.append(f"alpha2 {sol.alpha2} != closed form {ref}")
        if task.delta == 1.0 and task.ell == 2 and task.eta in TABLE_L2:
            a1, a2 = TABLE_L2[task.eta]
            if round(sol.alpha1_curve, 4) != a1 or round(sol.alpha2, 4) != a2:
                problems.append(
                    f"table row eta={task.eta}: got ({sol.alpha1_curve:.6f}, "
                    f"{sol.alpha2:.6f}), want ({a1}, {a2})")
        return problems

    def outcome(self, task, sol):
        return Outcome(size=bounds.trivial_dense_bound(task.eta) / sol.alpha0, queries=1)


# ---------------------------------------------------------------------------
# construction_verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledTask:
    source: str  # a construction kind, or "random"
    n: int
    size: int
    ell: object = None  # label count of a random labeling
    seed: int = 0  # random labeling and local-search start


@dataclass(frozen=True)
class LabeledOutput:
    best_size: int
    best_count: int
    recount: int
    ls_size: int
    ls_count: int


@dataclass(frozen=True)
class AltTask:
    k: int
    x: int


@dataclass(frozen=True)
class AltOutput:
    cycle: bool
    max_blue: int
    blue: int
    expected_blue: int


@dataclass(frozen=True)
class BetaTask:
    k: int
    x: int


@dataclass(frozen=True)
class BetaOutput:
    beta: int
    construction_blue: int


# (k, x): x keeps each cycle or path check between about 10 ms and 1 s on the
# interpreted DFS, and is large enough that the path maximum is exactly k - 1
ALT_CASES = (
    (4, 17), (4, 24), (4, 30),
    (5, 12), (5, 16), (5, 20),
    (6, 10), (6, 14), (6, 16), (6, 17),
    (8, 9), (8, 12), (8, 13),
)
KNOWN_BETA = {(2, 2): 2}


class ConstructionVerify(Workload):
    name = "construction_verify"

    def rounds(self, seed):
        rng = random.Random(f"construction_verify:{seed}")
        kinds = labeled_graphs.CONSTRUCTION_KINDS
        while True:
            s = lambda: rng.randrange(1 << 30)  # noqa: E731
            tasks = [LabeledTask(kind, 10, 5, seed=s()) for kind in kinds if kind != "four"]
            tasks += [LabeledTask(kind, 12, 6, seed=s()) for kind in kinds]
            tasks += [
                LabeledTask(rng.choice(kinds), 14, 7, seed=s()),
                LabeledTask(rng.choice([k for k in kinds if k != "four"]), 10, 4, seed=s()),
                LabeledTask(rng.choice(kinds), 12, 5, seed=s()),
            ]
            tasks += [LabeledTask("random", n, size, ell=rng.choice((2, 3, INFINITE)), seed=s())
                      for n, size in ((10, 5), (10, 5), (12, 6), (12, 6), (14, 7), (10, 4))]
            tasks += [AltTask(k, x) for k, x in ALT_CASES]
            tasks += [BetaTask(2, 2), BetaTask(3, 3)]
            rng.shuffle(tasks)
            yield tasks

    def warmup(self, seed):
        return [LabeledTask("two", 10, 5), LabeledTask("random", 10, 4, ell=3, seed=seed),
                AltTask(5, 8), BetaTask(2, 2)]

    def run(self, task):
        if isinstance(task, LabeledTask):
            if task.source == "random":
                lab = labeled_graphs.random_labeling(task.n, task.ell, task.seed)
            else:
                lab = labeled_graphs.make_construction(task.source, task.n)
            best, report = labeled_graphs.min_critical_matching_bruteforce(lab, task.size)
            ls = labeled_graphs.switch_local_search(lab, task.size, seed=task.seed)
            return LabeledOutput(
                best_size=best.size,
                best_count=report.critical_count,
                recount=labeled_graphs.count_critical(lab, best).critical_count,
                ls_size=ls.size,
                ls_count=labeled_graphs.count_critical(lab, ls).critical_count,
            )
        if isinstance(task, AltTask):
            odd = task.k % 2 == 1
            build = alternating.build_odd_k if odd else alternating.build_even_k
            g = build(task.k, task.x)
            return AltOutput(
                cycle=alternating.has_alternating_cycle(g),
                max_blue=alternating.max_blue_in_alternating_path(g),
                blue=len(g.blue_edges),
                expected_blue=alternating.construction_blue_count(g, skip_top_left_clique=odd),
            )
        odd = task.k % 2 == 1
        build = alternating.build_odd_k if odd else alternating.build_even_k
        g = build(task.k, task.x)
        return BetaOutput(
            beta=alternating.beta_bruteforce(task.k, task.x),
            construction_blue=len(g.blue_edges),
        )

    def check(self, task, out):
        problems = []
        if isinstance(task, LabeledTask):
            if out.best_size != task.size or out.ls_size != task.size:
                problems.append(f"matching sizes {out.best_size}/{out.ls_size} != {task.size}")
            if out.recount != out.best_count:
                problems.append(f"brute-force count {out.best_count} != recount {out.recount}")
            if out.ls_count < out.best_count:
                problems.append(f"local search {out.ls_count} beat the exhaustive minimum "
                                f"{out.best_count}")
        elif isinstance(task, AltTask):
            if out.cycle:
                problems.append(f"construction k={task.k} x={task.x} has an alternating cycle")
            if out.max_blue != task.k - 1:
                problems.append(f"path maximum {out.max_blue} != k-1 = {task.k - 1}")
            if out.blue != out.expected_blue:
                problems.append(f"blue count {out.blue} != closed form {out.expected_blue}")
        else:
            # the construction is feasible for beta (cycle-free, paths below k)
            if out.beta < out.construction_blue:
                problems.append(f"beta({task.k},{task.x}) = {out.beta} is below the "
                                f"construction's {out.construction_blue} blue edges")
            want = KNOWN_BETA.get((task.k, task.x))
            if want is not None and out.beta != want:
                problems.append(f"beta({task.k},{task.x}) = {out.beta} != {want}")
        return problems

    def outcome(self, task, out):
        if not isinstance(task, LabeledTask):
            return Outcome(size=None, queries=1)
        # ls_count >= best_count, so ls_count == 0 means both found none
        return Outcome(size=out.best_count / out.ls_count if out.ls_count else 1.0, queries=1)

    def layer_stats(self, pairs):
        runs = [out for task, out in pairs if isinstance(task, LabeledTask)]
        optimal = sum(1 for out in runs if out.ls_count == out.best_count)
        return {"local_search_optimal_ratio": optimal / len(runs) if runs else 0.0}


# ---------------------------------------------------------------------------
# query_sim
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimTask:
    runner: str  # greedy | batched | amp_greedy | amp_batched
    n: int
    ell: int
    instance_seed: int
    delta: float = 1.0


@dataclass(frozen=True)
class SimOutput:
    result: simulator.RunResult | None  # None when the harness raised BudgetExceeded
    budget: int
    queries: int
    rounds: int
    clique_bits: tuple  # revealed adjacency bit of every pair of the result
    digest: str


class QuerySim(Workload):
    name = "query_sim"

    def __init__(self):
        self._digests: dict[tuple, str] = {}

    def rounds(self, seed):
        rng = random.Random(f"query_sim:{seed}")
        for r in itertools.count():
            # a fresh instance for every task, so clique_size_mean averages
            # over many graphs; the largest greedy runs twice, so the slowest
            # fifth of the tasks, where task_p90_ms falls, is one kind
            s = lambda: rng.randrange(1 << 30)  # noqa: E731
            tasks = [SimTask("greedy", n, 1, s()) for n in (4096, 16384, 65536, 65536)]
            tasks += [SimTask("batched", 16384, ell, s()) for ell in (2, 3, 4)]
            tasks += [SimTask("amp_greedy", 16384, 1, s()),
                      SimTask("amp_batched", 16384, rng.choice((2, 3, 4)), s())]
            # one task runs again at the end of its round, each kind in turn:
            # the same inputs must give the same transcript
            again = tasks[r % len(tasks)]
            rng.shuffle(tasks)
            yield tasks + [again]

    def warmup(self, seed):
        return [SimTask("greedy", 1024, 1, seed), SimTask("batched", 1024, 2, seed)]

    def run(self, task):
        g = simulator.new_instance(task.n, task.instance_seed)
        budget = simulator.query_budget(task.n, task.delta)
        try:
            if task.runner == "greedy":
                res = simulator.greedy_clique(g, budget)
            elif task.runner == "batched":
                strat = simulator.BatchedGreedyStrategy(
                    task.n, seed=task.instance_seed, budget=budget, ell=task.ell)
                res = simulator.run_l_adaptive(g, strat, task.delta, task.ell)
            elif task.runner == "amp_greedy":
                res = simulator.amplify(simulator.greedy_block_runner, g, task.delta, 1)
            else:
                res = simulator.amplify(simulator.batched_block_runner, g, task.delta, task.ell)
        except BudgetExceeded:
            # the batched strategy spends its whole budget in its rounds and
            # keeps no room for the final verification; the harness refusing
            # that run is the documented outcome, counted in
            # simulator.budget_exceeded
            res = None
        return g, budget, res

    def finish(self, task, raw):
        g, budget, res = raw
        vs = res.vertices if res is not None else ()
        bits = tuple(g.revealed.get((a, b)) for i, a in enumerate(vs) for b in vs[i + 1:])
        digest = hashlib.sha256("\n".join(g.transcript_lines()).encode()).hexdigest()
        return SimOutput(res, budget, g.queries_used, g.rounds_closed, bits, digest)

    def check(self, task, out):
        problems = []
        key = (task.runner, task.n, task.ell, task.instance_seed)
        seen = self._digests.setdefault(key, out.digest)
        if seen != out.digest:
            problems.append(f"transcript of {key} differs from an earlier run of the same inputs")
        res = out.result
        if res is None:
            if task.runner in ("greedy", "amp_greedy"):
                problems.append("greedy reserves verification room but exceeded its budget")
            return problems
        if not res.is_clique or any(bit != 1 for bit in out.clique_bits):
            problems.append(f"result {res.vertices} is not a clique of the revealed graph")
        if res.queries_used > res.budget:
            problems.append(f"{res.queries_used} queries exceed the budget {res.budget}")
        if task.runner in ("batched", "amp_batched") and res.rounds_used > task.ell:
            problems.append(f"{res.rounds_used} rounds exceed the limit {task.ell}")
        return problems

    def outcome(self, task, out):
        size = len(out.result.vertices) if out.result is not None else None
        return Outcome(size=size, queries=out.queries)

    def layer_stats(self, pairs):
        done = [out.result for _, out in pairs if out.result is not None]
        budget = sum(r.budget for r in done)
        return {
            "rounds": sum(out.rounds for _, out in pairs),
            "budget_use_ratio": sum(r.queries_used for r in done) / budget if budget else 0.0,
        }


WORKLOADS = {w.name: w for w in (DenseBounds, ConstructionVerify, QuerySim)}
