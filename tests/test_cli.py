import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqlab import alternating, bounds
from cqlab.cli import main
from cqlab.common import INFINITE, fmt_float
from cqlab.labeled_graphs import (
    LEX_INFINITE,
    TWO_LABEL,
    count_critical,
    make_construction,
    min_critical_matching_bruteforce,
    switch_local_search,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGolden:
    def test_clique_headline(self, capsys):
        code, out, _ = run(capsys, "bounds", "clique", "--delta", "1", "--ell", "3")
        assert code == 0
        assert out.strip() == "1.577350269"

    def test_gamma_upper_prints_fraction(self, capsys):
        code, out, _ = run(capsys, "gamma", "upper", "--ell", "4")
        assert code == 0
        assert out.strip() == "7/16"

    def test_beta_brute(self, capsys):
        code, out, _ = run(capsys, "beta", "brute", "--k", "1", "--x", "2")
        assert code == 0
        assert out.strip() == "0"

    def test_cvector(self, capsys):
        code, out, _ = run(capsys, "gamma", "cvector", "--ell", "4")
        assert code == 0
        assert out.strip() == "(1, 4, 2, 1) S=8"

    def test_epscheck(self, capsys):
        code, out, _ = run(capsys, "gamma", "epscheck", "--ell", "6", "--epsilon", "1/64")
        assert code == 0
        assert out.strip() == "true"


class TestThinAdapter:
    def test_fmt_float_infinities(self):
        assert fmt_float(-math.inf) == "-inf"
        assert fmt_float(math.inf) == "inf"

    def test_clique_equals_library(self, capsys):
        code, out, _ = run(capsys, "bounds", "clique", "--delta", "1.4", "--ell", "inf")
        lib = bounds.clique_alpha_upper(bounds.CliqueBoundQuery(delta=1.4, ell=INFINITE))
        assert out.strip() == f"{lib:.9f}"

    def test_dense_json_mirrors_solution(self, capsys):
        code, out, _ = run(capsys, "bounds", "dense", "--delta", "1", "--ell", "2",
                           "--eta", "0.93")
        payload = json.loads(out)
        sol = bounds.dense_alpha_upper(bounds.DenseBoundQuery(delta=1.0, ell=2, eta=0.93))
        assert payload["alpha0"] == sol.alpha0
        assert payload["alpha1"] == sol.alpha1
        assert payload["alpha2"] == sol.alpha2
        assert payload["m1"] == sol.m1
        assert payload["case"] == sol.case

    @pytest.mark.parametrize("eta", ["0.750000001", repr(0.75 + 1e-13)])
    def test_dense_json_without_an_endpoint_root(self, capsys, eta):
        # alpha2 and m2 have no float root and print as "inf"; strict JSON
        code, out, _ = run(capsys, "bounds", "dense", "--delta", "1", "--ell", "inf",
                           "--eta", eta, "--output", "json")
        assert code == 0
        payload = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict {name}"))
        assert payload["alpha2"] == payload["m2"] == "inf"
        assert set(payload["brackets"]) == {"alpha1"}
        assert payload["alpha0"] == payload["alpha1"]
        assert abs(payload["alpha1"] - 10.1486) < 1e-4

    def test_dense_plain_prints_alpha0(self, capsys):
        code, out, _ = run(capsys, "bounds", "dense", "--delta", "1", "--ell", "2",
                           "--eta", "0.93", "--output", "plain")
        sol = bounds.dense_alpha_upper(bounds.DenseBoundQuery(delta=1.0, ell=2, eta=0.93))
        assert code == 0
        assert out == f"{sol.alpha0:.9f}\n"

    def test_gamma_verify_matches_bruteforce(self, capsys):
        code, out, _ = run(capsys, "gamma", "verify", "--construction", "two",
                           "--n", "8", "--output", "json")
        payload = json.loads(out)
        lab = make_construction(TWO_LABEL, 8)
        _, rep = min_critical_matching_bruteforce(lab, 4)
        assert payload["critical_count"] == rep.critical_count
        assert payload["ratio"] == "2/7"

    def test_gamma_verify_local_search_matches_library(self, capsys):
        code, out, _ = run(capsys, "gamma", "verify", "--construction", "lex", "--n", "14",
                           "--local-search", "--seed", "2", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        lab = make_construction(LEX_INFINITE, 14)
        m = switch_local_search(lab, 7, seed=2)
        assert payload["method"] == "local-search"
        assert payload["matching"] == [list(e) for e in m.edges]
        assert payload["critical_count"] == count_critical(lab, m).critical_count

    def test_threshold(self, capsys):
        code, out, _ = run(capsys, "bounds", "threshold", "--delta", "1",
                           "--ell", "inf", "--alpha", "2")
        assert code == 0
        assert abs(float(out.strip()) - 0.98226) < 5e-5

    def test_gamma_upper_json(self, capsys):
        code, out, _ = run(capsys, "gamma", "upper", "--ell", "inf", "--output", "json")
        payload = json.loads(out)
        assert payload["bound"] == "1/2"
        assert payload["bound_float"] == 0.5

    def test_gamma_upper_conjectured_json(self, capsys):
        code, out, _ = run(capsys, "gamma", "upper", "--ell", "4", "--conjectured-c2",
                           "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["conjectured"] is True
        assert payload["bound"] == "3/7"


class TestTableL2:
    def test_plain_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "table-l2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9  # header + 8 rows
        first = lines[1].split()
        assert first[0] == "0.930"
        assert first[1] == "2.411634"
        assert first[2] == "2.413270"

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "table-l2", "--output", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "eta,alpha1,alpha2"
        assert len(lines) == 9

    def test_json_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "table-l2", "--output", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows == json.loads(json.dumps(bounds.table_l2_rows()))
        assert len(rows) == 8
        assert sorted(rows[0]) == ["alpha1", "alpha2", "eta"]
        assert f"{rows[0]['alpha1']:.6f}" == "2.411634"


class TestSweep:
    def test_csv_columns_and_stability(self, capsys, tmp_path):
        args = ["bounds", "sweep", "--delta", "1", "--ells", "inf,3",
                "--eta-from", "0.97", "--eta-to", "0.99", "--step", "0.01"]
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert out1 == out2  # byte-stable
        lines = out1.strip().splitlines()
        assert lines[0] == "eta,ell,trivial,alpha0,alpha1,alpha2,m1,p_at_opt"
        # 3 grid etas x 2 ells + 2 appended eta=1 rows
        assert len(lines) == 1 + 3 * 2 + 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "bounds", "sweep", "--delta", "1", "--ells", "2",
                           "--eta-from", "0.98", "--eta-to", "0.99", "--step", "0.01",
                           "--out", str(target), "--no-eta1")
        assert code == 0
        text = target.read_text()
        assert text.splitlines()[0].startswith("eta,ell,")
        assert "wrote" in out

    def test_stops_at_eta_to(self, capsys):
        # 0.80 + 2 * 0.03 = 0.86 lies past --eta-to, so only two rows print
        code, out, _ = run(capsys, "bounds", "sweep", "--delta", "1", "--ells", "2",
                           "--eta-from", "0.80", "--eta-to", "0.85", "--step", "0.03",
                           "--no-eta1")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["0.8", "0.83"]


class TestBetaCommands:
    def test_build_check_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "k4.rbg"
        code, out, _ = run(capsys, "beta", "build", "--k", "4", "--x", "8",
                           "--out", str(target))
        assert code == 0
        g = alternating.redblue_from_text(target.read_text())
        assert out.strip() == str(len(g.blue_edges))
        code, out, _ = run(capsys, "beta", "check", str(target), "--k", "4")
        assert code == 0
        assert out.strip() == "3"  # max blue path = k - 1

    def test_check_infeasible_for_small_k(self, capsys, tmp_path):
        target = tmp_path / "k4.rbg"
        run(capsys, "beta", "build", "--k", "4", "--x", "8", "--out", str(target))
        code, out, _ = run(capsys, "beta", "check", str(target), "--k", "3")
        assert code == 1  # 3 blue edges in a path >= k = 3

    def test_check_large_construction(self, capsys, tmp_path):
        # k=6, x=60 holds 2,970 blue edges: the digraph bound (5) ends the
        # path DFS at the first path with five blue edges
        target = tmp_path / "k6.rbg"
        code, _, _ = run(capsys, "beta", "build", "--k", "6", "--x", "60",
                         "--out", str(target))
        assert code == 0
        code, out, _ = run(capsys, "beta", "check", str(target), "--k", "6",
                           "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_blue_path"] == 5
        assert payload["cycle_free"] is True
        code, out, _ = run(capsys, "beta", "check", str(target), "--k", "5")
        assert code == 1
        assert out.strip() == "5"

    def test_check_cycle_errors(self, capsys, tmp_path):
        target = tmp_path / "cyc.rbg"
        target.write_text("2\n1 3\n2 4\n")
        code, out, err = run(capsys, "beta", "check", str(target), "--k", "5")
        assert code == 1
        assert "cycle present" in err


class TestSimulateCommand:
    def test_greedy_plain_size(self, capsys):
        code, out, _ = run(capsys, "simulate", "greedy", "--n", "256", "--delta", "1.5",
                           "--seed", "3")
        assert code == 0
        size = int(out.strip())
        assert 2 <= size <= 16

    def test_greedy_json(self, capsys):
        code, out, _ = run(capsys, "simulate", "greedy", "--n", "256", "--delta", "1.5",
                           "--seed", "3", "--output", "json")
        payload = json.loads(out)
        assert payload["is_clique"] is True
        assert payload["budget"] == math.floor(256**1.5)

    def test_amplify_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "greedy", "--n", "512", "--delta", "1.2",
                           "--seed", "3", "--amplify", "--output", "json")
        payload = json.loads(out)
        assert payload["meta"]["amplified"] is True
        assert payload["meta"]["blocks"] == round(math.log2(512))

    def test_round_limited_ell(self, capsys):
        code, out, _ = run(capsys, "simulate", "greedy", "--n", "512", "--delta", "1",
                           "--ell", "3", "--seed", "3", "--output", "json")
        payload = json.loads(out)
        assert payload["rounds_used"] == 3
        assert payload["is_clique"] is True
        assert payload["queries_used"] <= payload["budget"]

    def test_amplified_round_limited_tiny_budget(self, capsys):
        # eight vertices, three blocks: each block gets a budget of 2
        code, out, err = run(capsys, "simulate", "greedy", "--n", "8", "--delta", "1",
                             "--ell", "3", "--seed", "0", "--amplify", "--output", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["is_clique"] is True
        assert payload["queries_used"] <= payload["budget"] == 8
        assert payload["rounds_used"] == 3

    def test_transcript_export(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run(capsys, "simulate", "greedy", "--n", "64", "--delta", "1.5",
                           "--seed", "1", "--transcript", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines
        r, u, v, bit = lines[0].split(",")
        assert bit in ("0", "1")


class TestErrorPaths:
    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "clique", "--delta", "1", "--bogus-flag"])
        assert exc.value.code == 2

    def test_bad_ell_token_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "clique", "--delta", "1", "--ell", "abc"])
        assert exc.value.code == 2
        assert "argument --ell" in capsys.readouterr().err

    @pytest.mark.parametrize("ells", ["2,abc", "", " , ", "3,,x"])
    def test_bad_ells_list_exit_2(self, capsys, ells):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "sweep", "--delta", "1", f"--ells={ells}",
                  "--eta-from", "0.97", "--eta-to", "0.99", "--step", "0.01"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --ells" in err

    @pytest.mark.parametrize("cmd", [
        ["gamma", "epscheck", "--ell", "6"],
        ["gamma", "verify", "--construction", "lex", "--n", "8", "--local-search"],
        ["gamma", "verify", "--construction", "lex", "--n", "8", "--brute-force"],
    ])
    @pytest.mark.parametrize("token", ["abc", "1/0", "1/"])
    def test_bad_epsilon_token_exit_2(self, capsys, cmd, token):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--epsilon", token])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --epsilon: expected a rational such as 1/64 or 0.125, got {token!r}" in err

    @pytest.mark.parametrize("mode", [["--brute-force"], []])
    @pytest.mark.parametrize("flag", [["--epsilon", "1/64"], ["--seed", "3"], ["--seed", "0"]])
    def test_local_search_flags_refused_in_brute_force(self, capsys, mode, flag):
        # brute force has no epsilon and no seed; neither mode flag means brute force
        with pytest.raises(SystemExit) as exc:
            main(["gamma", "verify", "--construction", "lex", "--n", "8", *mode, *flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument {flag[0]}: only used with --local-search" in err

    def test_local_search_default_seed_is_0(self, capsys):
        # on the two-label K_14 each of seeds 0-3 ends at a different matching
        args = ["gamma", "verify", "--construction", "two", "--n", "14", "--local-search",
                "--output", "json"]
        code, default, _ = run(capsys, *args)
        assert code == 0
        assert run(capsys, *args, "--seed", "0") == (0, default, "")
        assert run(capsys, *args, "--seed", "1")[1] != default
        m = switch_local_search(make_construction(TWO_LABEL, 14), 7, seed=0)
        assert json.loads(default)["matching"] == [list(e) for e in m.edges]

    def test_epscheck_nonpositive_epsilon_exit_1(self, capsys):
        code, out, err = run(capsys, "gamma", "epscheck", "--ell", "6", "--epsilon", "0")
        assert (code, out, err) == (1, "", "error: epsilon must be positive\n")

    def test_epscheck_echoes_epsilon_as_typed(self, capsys):
        code, out, _ = run(capsys, "gamma", "epscheck", "--ell", "6", "--epsilon", "0.015625",
                           "--output", "json")
        assert code == 0
        assert json.loads(out) == {"ell": 6, "epsilon": "0.015625", "ok": True}

    @pytest.mark.parametrize("cmd", [["clique"], ["dense", "--eta", "0.95"]])
    def test_csv_output_refused_where_not_printed(self, capsys, cmd):
        # only table-l2 prints CSV; elsewhere --output csv is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["bounds", *cmd, "--delta", "1", "--ell", "3", "--output", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "gamma", "verify", "--construction", "four",
                             "--n", "6", "--brute-force")
        assert code == 1
        assert "too small" in err

    def test_infeasible_instance_exit_1(self, capsys):
        code, out, err = run(capsys, "beta", "brute", "--k", "2", "--x", "9")
        assert code == 1
        assert "instance too large" in err

    def test_one_label_bound_rejected(self, capsys):
        code, out, err = run(capsys, "bounds", "clique", "--delta", "1", "--ell", "1")
        assert code == 1
        assert out == ""
        assert err == "error: no meaningful bound for one label: the ratio is 0\n"

    def test_local_search_nonpositive_epsilon_exit_1(self, capsys):
        code, out, err = run(capsys, "gamma", "verify", "--construction", "lex", "--n", "8",
                             "--local-search", "--epsilon", "0")
        assert code == 1
        assert "epsilon must be positive" in err

    @pytest.mark.parametrize("eta_from,eta_to,step,message", [
        ("0.97", "0.99", "0", "step must be positive"),
        ("0.97", "0.99", "-0.01", "step must be positive"),
        ("0.99", "0.97", "0.01", "must not exceed eta_to"),
        ("0.9", "inf", "0.01", "eta_from (0.9) must not exceed eta_to (inf), both finite"),
        ("nan", "0.99", "0.01", "eta_from (nan) must not exceed eta_to (0.99), both finite"),
        ("0.9", "0.99", "nan", "step must be positive and finite, got nan"),
    ])
    def test_sweep_bad_range_exit_1(self, capsys, eta_from, eta_to, step, message):
        code, out, err = run(capsys, "bounds", "sweep", "--delta", "1", "--ells", "2",
                             "--eta-from", eta_from, "--eta-to", eta_to, "--step", step)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("delta,message", [
        ("inf", "delta must be finite, got inf"),
        ("nan", "delta must be finite, got nan"),
        ("1e308", "delta=1e+308 overflows the budget n**delta at n=5"),
    ])
    def test_simulate_budget_refused_exit_1(self, capsys, delta, message):
        code, out, err = run(capsys, "simulate", "greedy", "--n", "5", "--delta", delta,
                             "--seed", "0")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_threshold_nan_alpha_exit_1(self, capsys):
        code, out, err = run(capsys, "bounds", "threshold", "--delta", "1", "--ell", "inf",
                             "--alpha", "nan")
        assert (code, out, err) == (1, "", "error: target_alpha must be a number, got nan\n")


class TestModuleEntry:
    """`python -m cqlab` in a fresh interpreter, through `__main__`."""

    @staticmethod
    def run_module(*argv):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", "cqlab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_exit_codes(self):
        ok = self.run_module("bounds", "clique", "--delta", "1", "--ell", "3")
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "1.577350269\n", "")
        domain = self.run_module("bounds", "clique", "--delta", "1", "--ell", "1")
        assert domain.returncode == 1
        assert domain.stderr == "error: no meaningful bound for one label: the ratio is 0\n"
        usage = self.run_module("bounds", "clique", "--delta", "1", "--ell", "3",
                                "--gamma-mode", "upper")
        assert usage.returncode == 2
        assert "unrecognized arguments: --gamma-mode upper" in usage.stderr
