"""Spans and counters around calls into cqlab's layers, for the traced run.

The tracer wraps public entry points by replacing module and class attributes
from the benchmark's side; cqlab's own sources stay unchanged. Each call of a
wrapped function records a span ``[name, start, end, parent, task]`` in an
in-memory list; the oracle ``RevealedGraph.query`` runs thousands of times per
task, so it gets counters and accumulated time instead of spans. Self times
are derived from the spans afterwards: a span's duration minus the durations
of its direct children.
"""
from __future__ import annotations

import json
import math
import time
from collections import Counter

from cqlab import _kernels, alternating, bounds, labeled_graphs, simulator
from cqlab.errors import BudgetExceeded, RootDiagnostic


def matchings_count(n: int, m: int) -> int:
    """Number of size-m matchings of K_n: C(n, 2m) * (2m - 1)!!."""
    return math.comb(n, 2 * m) * math.factorial(2 * m) // (2**m * math.factorial(m))


# (owner, attribute, span name, counter fn(args) -> (counter, amount) or None,
#  exception type counted when the call raises it, counter for that)
ENTRY_POINTS = (
    (bounds, "dense_alpha_upper", "bounds.solve", None, RootDiagnostic, "bounds.root_failures"),
    (_kernels, "f1_values", "kernels.f1", lambda a: ("kernels.f1_alphas", len(a[0])), None, None),
    (_kernels, "f2_values", "kernels.f2", None, None, None),
    (_kernels, "min_critical_scan", "kernels.scan",
     lambda a: ("kernels.scan_matchings", matchings_count(len(a[0]), a[1])), None, None),
    (_kernels, "alt_cycle_exists", "kernels.dfs_cycle", None, None, None),
    (_kernels, "alt_path_max_blue", "kernels.dfs_path", None, None, None),
    (labeled_graphs, "make_construction", "labeled_graphs.build", None, None, None),
    (labeled_graphs, "random_labeling", "labeled_graphs.build", None, None, None),
    (labeled_graphs, "min_critical_matching_bruteforce", "labeled_graphs.bruteforce",
     None, None, None),
    (labeled_graphs, "switch_local_search", "labeled_graphs.local_search", None, None, None),
    (labeled_graphs, "count_critical", "labeled_graphs.count_critical", None, None, None),
    (alternating, "build_even_k", "alternating.build", None, None, None),
    (alternating, "build_odd_k", "alternating.build", None, None, None),
    (alternating.RedBlueGraph, "csr", "alternating.csr", None, None, None),
    (alternating, "has_alternating_cycle", "alternating.cycle_check", None, None, None),
    (alternating, "max_blue_in_alternating_path", "alternating.max_blue", None, None, None),
    (alternating, "beta_bruteforce", "alternating.beta_brute", None, None, None),
    (simulator, "greedy_clique", "simulator.greedy", None, BudgetExceeded,
     "simulator.budget_exceeded"),
    (simulator, "run_l_adaptive", "simulator.l_adaptive", None, BudgetExceeded,
     "simulator.budget_exceeded"),
    (simulator, "amplify", "simulator.amplify", None, None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.oracle_s = 0.0
        self.task = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        for owner, attr, name, count, exc, exc_counter in ENTRY_POINTS:
            self._replace(owner, attr, self._span(name, getattr(owner, attr), count,
                                                  exc or (), exc_counter))
        self._replace(simulator.RevealedGraph, "query",
                      self._oracle(simulator.RevealedGraph.query))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, wrapper):
        # getattr on a class returns the plain function, so restoring it with
        # setattr gives the method back unchanged
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn, count, exc, exc_counter):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            if count is not None:
                key, amount = count(args)
                counts[key] += amount
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except exc:
                counts[exc_counter] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _oracle(self, query):
        counts, clock = self.counts, time.perf_counter

        def wrapper(g, u, v):
            counts["simulator.cache_hits"] += (min(u, v), max(u, v)) in g.revealed
            t0 = clock()
            bit = query(g, u, v)
            self.oracle_s += clock() - t0
            counts["simulator.queries"] += 1
            return bit

        wrapper.__wrapped__ = query
        return wrapper

    # -- reduction ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(dur)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        out: dict[str, list] = {}
        for i, rec in enumerate(self.spans):
            acc = out.setdefault(rec[0], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return out

    def layer_metrics(self, stats: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}. ``stats`` carries the
        values derived from task results rather than spans."""
        tot = self.totals()
        c = self.counts

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def busy(*names):
            return sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names)

        def self_time(prefix):
            return sum(v[2] for n, v in tot.items() if n.startswith(prefix))

        solves = calls("bounds.solve")
        under_bounds = sum(
            1 for rec in self.spans
            if rec[0] in ("kernels.f1", "kernels.f2") and rec[3] >= 0
            and self.spans[rec[3]][0] == "bounds.solve")
        sim_top = sum(
            rec[2] - rec[1] for rec in self.spans
            if rec[0].startswith("simulator.")
            and (rec[3] < 0 or not self.spans[rec[3]][0].startswith("simulator.")))
        queries = c["simulator.queries"]
        return {
            "kernels.f1_calls": (calls("kernels.f1"), "count"),
            "kernels.f1_alphas": (c["kernels.f1_alphas"], "count"),
            "kernels.f1_s": (busy("kernels.f1"), "s"),
            "kernels.f2_calls": (calls("kernels.f2"), "count"),
            "kernels.f2_s": (busy("kernels.f2"), "s"),
            "kernels.scan_calls": (calls("kernels.scan"), "count"),
            "kernels.scan_matchings": (c["kernels.scan_matchings"], "count"),
            "kernels.scan_s": (busy("kernels.scan"), "s"),
            "kernels.dfs_cycle_calls": (calls("kernels.dfs_cycle"), "count"),
            "kernels.dfs_cycle_s": (busy("kernels.dfs_cycle"), "s"),
            "kernels.dfs_path_calls": (calls("kernels.dfs_path"), "count"),
            "kernels.dfs_path_s": (busy("kernels.dfs_path"), "s"),
            "bounds.solves": (solves, "count"),
            "bounds.solve_s": (busy("bounds.solve"), "s"),
            "bounds.self_s": (self_time("bounds."), "s"),
            "bounds.root_failures": (c["bounds.root_failures"], "count"),
            "bounds.kernel_calls_per_solve": (under_bounds / solves if solves else 0.0, "calls"),
            "labeled_graphs.bruteforce_calls": (calls("labeled_graphs.bruteforce"), "count"),
            "labeled_graphs.bruteforce_s": (busy("labeled_graphs.bruteforce"), "s"),
            "labeled_graphs.bruteforce_self_s": (tot.get("labeled_graphs.bruteforce",
                                                         (0, 0.0, 0.0))[2], "s"),
            "labeled_graphs.local_search_calls": (calls("labeled_graphs.local_search"), "count"),
            "labeled_graphs.local_search_s": (busy("labeled_graphs.local_search"), "s"),
            "labeled_graphs.count_critical_s": (busy("labeled_graphs.count_critical"), "s"),
            "labeled_graphs.build_s": (busy("labeled_graphs.build"), "s"),
            "labeled_graphs.local_search_optimal_ratio": (
                stats.get("local_search_optimal_ratio", 0.0), "ratio"),
            "alternating.build_s": (busy("alternating.build"), "s"),
            "alternating.csr_calls": (calls("alternating.csr"), "count"),
            "alternating.csr_s": (busy("alternating.csr"), "s"),
            "alternating.cycle_check_s": (busy("alternating.cycle_check"), "s"),
            "alternating.max_blue_s": (busy("alternating.max_blue"), "s"),
            "alternating.beta_brute_s": (busy("alternating.beta_brute"), "s"),
            "alternating.self_s": (self_time("alternating."), "s"),
            "simulator.queries": (queries, "count"),
            "simulator.oracle_s": (self.oracle_s, "s"),
            "simulator.oracle_ns_per_query": (
                self.oracle_s / queries * 1e9 if queries else 0.0, "ns"),
            "simulator.strategy_s": (max(sim_top - self.oracle_s, 0.0), "s"),
            "simulator.rounds": (stats.get("rounds", 0), "count"),
            "simulator.cache_hit_ratio": (
                c["simulator.cache_hits"] / queries if queries else 0.0, "ratio"),
            "simulator.budget_use_ratio": (stats.get("budget_use_ratio", 0.0), "ratio"),
            "simulator.budget_exceeded": (c["simulator.budget_exceeded"], "count"),
        }

    def write(self, path, stamp: dict):
        """Dump every span (compact JSON) with the run's stamp."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"stamp": stamp, "fields": ["name", "start", "end", "parent", "task"],
                       "spans": self.spans, "counters": dict(self.counts),
                       "oracle_s": self.oracle_s}, fh, separators=(",", ":"))
