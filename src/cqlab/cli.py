"""Command-line front door. Every subcommand is a thin adapter over the
library; plain output prints the headline number, --output json adds
diagnostics. Exit codes: 0 success, 1 domain error, 2 usage error."""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import alternating, bounds, labeled_graphs, partition_bounds, simulator
from .common import INFINITE, fmt_float, is_infinite, parse_ell
from .errors import CqlabError, CyclePresent

CSV_COLUMNS = ["eta", "ell", "trivial", "alpha0", "alpha1", "alpha2", "m1", "p_at_opt"]


def _ell_arg(text: str):
    try:
        return parse_ell(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _ells_arg(text: str) -> list:
    ells = [_ell_arg(t) for t in text.split(",") if t.strip()]
    if not ells:
        raise argparse.ArgumentTypeError("expected a comma list of label counts, e.g. 2,3,inf")
    return ells


def _fraction_arg(text: str) -> str:
    # checked here, passed on as typed: the library reads it exactly and the
    # JSON output echoes it
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational such as 1/64 or 0.125, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cqlab", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    def add_output(p, *extra):
        # only the formats the subcommand prints
        p.add_argument("--output", choices=["plain", "json", *extra], default=None)

    b = sub.add_parser("bounds", help="clique/dense-subgraph size bounds")
    bsub = b.add_subparsers(dest="cmd", required=True)

    p = bsub.add_parser("clique", help="closed-form clique bound")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ell", type=_ell_arg, required=True)
    add_output(p)

    p = bsub.add_parser("dense", help="implicit dense-subgraph bound")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ell", type=_ell_arg, required=True)
    p.add_argument("--eta", type=float, required=True)
    add_output(p)

    p = bsub.add_parser("sweep", help="figure data over an eta range (CSV)")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ells", type=_ells_arg, required=True, help="comma list, e.g. 2,3,inf")
    p.add_argument("--eta-from", type=float, required=True)
    p.add_argument("--eta-to", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", type=str, default=None, help="CSV file (default stdout)")
    p.add_argument("--no-eta1", action="store_true", help="skip the appended eta=1 row")

    p = bsub.add_parser("table-l2", help="the eight-column eta/alpha1/alpha2 table")
    add_output(p, "csv")

    p = bsub.add_parser("threshold", help="eta at which the dense bound hits alpha")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ell", type=_ell_arg, required=True)
    p.add_argument("--alpha", type=float, required=True)
    add_output(p)

    g = sub.add_parser("gamma", help="critical-edge machinery")
    gsub = g.add_subparsers(dest="cmd", required=True)

    p = gsub.add_parser("verify", help="minimum critical ratio of a construction")
    p.add_argument("--construction", choices=labeled_graphs.CONSTRUCTION_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--brute-force", action="store_true", default=False)
    mode.add_argument("--local-search", action="store_true", default=False)
    p.add_argument("--epsilon", type=_fraction_arg, default=None, help="local search only")
    p.add_argument("--seed", type=int, default=None, help="local search only (default 0)")
    add_output(p)

    p = gsub.add_parser("upper", help="ratio upper bound 1/2 - 1/(2 S_ell)")
    p.add_argument("--ell", type=_ell_arg, required=True)
    p.add_argument("--conjectured-c2", action="store_true",
                   help="UNPROVEN: second cap 3 instead of 2**(ell-2) for ell >= 4")
    add_output(p)

    p = gsub.add_parser("cvector", help="per-label cap vector and its sum")
    p.add_argument("--ell", type=int, required=True)
    add_output(p)

    p = gsub.add_parser("epscheck", help="weight-scheme inequalities for epsilon")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--epsilon", type=_fraction_arg, required=True)
    add_output(p)

    be = sub.add_parser("beta", help="red/blue alternating structures")
    besub = be.add_subparsers(dest="cmd", required=True)

    p = besub.add_parser("build", help="write the extremal construction for k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--out", type=str, required=True)
    add_output(p)

    p = besub.add_parser("check", help="cycle/path checks on a graph file")
    p.add_argument("file", type=str)
    p.add_argument("--k", type=int, required=True)
    add_output(p)

    p = besub.add_parser("brute", help="exact beta(k, x) at tiny scale")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    add_output(p)

    s = sub.add_parser("simulate", help="G(n, 1/2) query-model runs")
    ssub = s.add_subparsers(dest="cmd", required=True)

    p = ssub.add_parser("greedy", help="greedy clique search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ell", type=_ell_arg, default=INFINITE)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--amplify", action="store_true")
    p.add_argument("--transcript", type=str, default=None,
                   help="write round,u,v,bit lines to this file")
    add_output(p)

    return top


def _emit(args, plain: str, payload: dict):
    fmt = getattr(args, "output", None) or "plain"
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        print(plain)


def _csv_text(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        cells = []
        for col in CSV_COLUMNS:
            val = r[col]
            if col == "eta":
                cells.append(f"{val:.6g}")
            elif col == "ell":
                cells.append(str(val))
            else:
                cells.append(fmt_float(float(val)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _cmd_bounds(args) -> int:
    if args.cmd == "clique":
        q = bounds.CliqueBoundQuery(delta=args.delta, ell=args.ell)
        val = bounds.clique_alpha_upper(q)
        _emit(args, fmt_float(val), {
            "alpha_upper": val,
            "delta": args.delta,
            "ell": "inf" if is_infinite(args.ell) else args.ell,
            "gamma": bounds.resolve_gamma(args.ell),
        })
    elif args.cmd == "dense":
        q = bounds.DenseBoundQuery(delta=args.delta, ell=args.ell, eta=args.eta)
        sol = bounds.dense_alpha_upper(q)
        if (getattr(args, "output", None) or "json") == "plain":
            print(fmt_float(sol.alpha0))
        else:
            print(json.dumps(sol.to_json_dict(), sort_keys=True))
    elif args.cmd == "sweep":
        rows = bounds.sweep_rows(args.delta, args.ells, args.eta_from, args.eta_to, args.step,
                                 append_eta1=not args.no_eta1)
        text = _csv_text(rows)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {len(rows)} rows to {args.out}")
        else:
            sys.stdout.write(text)
    elif args.cmd == "table-l2":
        rows = bounds.table_l2_rows()
        fmt = getattr(args, "output", None) or "plain"
        if fmt == "json":
            print(json.dumps(rows, sort_keys=True))
        elif fmt == "csv":
            lines = ["eta,alpha1,alpha2"]
            for r in rows:
                lines.append(f"{r['eta']:.3f},{r['alpha1']:.6f},{r['alpha2']:.6f}")
            print("\n".join(lines))
        else:
            print("eta    alpha1    alpha2")
            for r in rows:
                print(f"{r['eta']:.3f}  {r['alpha1']:.6f}  {r['alpha2']:.6f}")
    elif args.cmd == "threshold":
        val = bounds.density_threshold(args.delta, args.ell, args.alpha)
        _emit(args, fmt_float(val), {
            "eta_threshold": val, "delta": args.delta, "alpha": args.alpha,
            "ell": "inf" if is_infinite(args.ell) else args.ell,
        })
    return 0


def _cmd_gamma(args) -> int:
    if args.cmd == "verify":
        labeling = labeled_graphs.make_construction(args.construction, args.n)
        size = args.n // 2
        target = labeled_graphs.construction_min_ratio_analytic(args.construction)
        if args.local_search:
            seed = 0 if args.seed is None else args.seed
            matching = labeled_graphs.switch_local_search(labeling, size, epsilon=args.epsilon,
                                                          seed=seed)
            report = labeled_graphs.count_critical(labeling, matching)
            method = "local-search"
        else:
            matching, report = labeled_graphs.min_critical_matching_bruteforce(labeling, size)
            method = "brute-force"
        _emit(args, fmt_float(float(report.ratio)), {
            "method": method,
            "construction": args.construction,
            "n": args.n,
            "matching_size": size,
            "critical_count": report.critical_count,
            "outward_count": report.outward_count,
            "denominator": report.denominator,
            "ratio": f"{report.ratio.numerator}/{report.ratio.denominator}",
            "ratio_float": float(report.ratio),
            "analytic_asymptotic_ratio": f"{target.numerator}/{target.denominator}",
            "matching": [list(e) for e in matching.edges],
            "blocks": list(labeling.blocks),
        })
    elif args.cmd == "upper":
        val = partition_bounds.gamma_upper_bound(args.ell, conjectured_c2=args.conjectured_c2)
        payload = {
            "ell": "inf" if is_infinite(args.ell) else args.ell,
            "bound": str(val),
            "bound_float": float(val),
        }
        if args.conjectured_c2:
            payload["conjectured"] = True
        _emit(args, str(val), payload)
    elif args.cmd == "cvector":
        cv = partition_bounds.c_vector(args.ell)
        _emit(args, f"({', '.join(map(str, cv.entries))}) S={cv.s_value}", {
            "ell": cv.ell, "entries": list(cv.entries), "s_value": cv.s_value,
        })
    elif args.cmd == "epscheck":
        ok = partition_bounds.epsilon_check(args.ell, args.epsilon)
        _emit(args, "true" if ok else "false", {
            "ell": args.ell, "epsilon": args.epsilon, "ok": ok,
        })
    return 0


def _cmd_beta(args) -> int:
    if args.cmd == "build":
        g = alternating.build_even_k(args.k, args.x) if args.k % 2 == 0 else alternating.build_odd_k(args.k, args.x)
        with open(args.out, "w") as fh:
            fh.write(alternating.redblue_to_text(g))
        _emit(args, str(len(g.blue_edges)), {
            "k": args.k, "x": args.x, "blue_count": len(g.blue_edges),
            "blocks": list(g.blocks), "out": args.out,
        })
    elif args.cmd == "check":
        with open(args.file) as fh:
            g = alternating.redblue_from_text(fh.read())
        try:
            maxblue = alternating.max_blue_in_alternating_path(g)
        except CyclePresent:
            print("error: cycle present: the graph admits an alternating cycle", file=sys.stderr)
            return 1
        feasible = maxblue < args.k
        _emit(args, str(maxblue), {
            "x": g.num_red, "blue_count": len(g.blue_edges),
            "cycle_free": True, "max_blue_path": maxblue,
            "k": args.k, "feasible_for_k": feasible,
        })
        return 0 if feasible else 1
    elif args.cmd == "brute":
        val = alternating.beta_bruteforce(args.k, args.x)
        _emit(args, str(val), {"k": args.k, "x": args.x, "beta": val})
    return 0


def _cmd_simulate(args) -> int:
    g = simulator.new_instance(args.n, args.seed)
    budget = simulator.query_budget(args.n, args.delta)
    round_limited = not is_infinite(args.ell)
    if args.amplify:
        runner = simulator.batched_block_runner if round_limited else simulator.greedy_block_runner
        result = simulator.amplify(runner, g, args.delta, int(args.ell) if round_limited else 1)
    elif round_limited:
        strat = simulator.BatchedGreedyStrategy(
            args.n, seed=args.seed, budget=budget, ell=int(args.ell)
        )
        result = simulator.run_l_adaptive(g, strat, args.delta, int(args.ell))
    else:
        result = simulator.greedy_clique(g, budget)
    if args.transcript:
        with open(args.transcript, "w") as fh:
            fh.write("\n".join(g.transcript_lines()) + "\n")
    _emit(args, str(len(result.vertices)), result.to_json_dict())
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.group == "gamma" and args.cmd == "verify" and not args.local_search:
        for flag in ("epsilon", "seed"):
            if getattr(args, flag) is not None:
                parser.error(f"argument --{flag}: only used with --local-search")
    try:
        if args.group == "bounds":
            return _cmd_bounds(args)
        if args.group == "gamma":
            return _cmd_gamma(args)
        if args.group == "beta":
            return _cmd_beta(args)
        if args.group == "simulate":
            return _cmd_simulate(args)
        raise AssertionError("unreachable")
    except (CqlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
