"""The benchmark's own tests: tiny runs of every workload, the output contract,
and checkers that must reject perturbed results.

Run from the repository root with ``python3 -m pytest cqbench -q``.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_clock  # noqa: E402
from bench_workloads import (  # noqa: E402
    AltTask,
    BetaTask,
    ConstructionVerify,
    DenseBounds,
    DenseTask,
    LabeledTask,
    QuerySim,
    SimTask,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYER_PREFIX = {
    "dense_bounds": ("bounds.", "kernels.f1", "kernels.f2"),
    "construction_verify": ("labeled_graphs.", "alternating.", "kernels.scan", "kernels.dfs"),
    "query_sim": ("simulator.",),
}


def run_bench(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "5", "--seconds", "0",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        # a layer is busy only on the workloads that use it
        for name, value in values.items():
            if name.endswith("_s") and value:
                assert name.startswith(LAYER_PREFIX[workload]), (name, value)
    else:
        assert all(value > 0 for value in values.values()), values


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_compare_refuses_mixed_backends(tmp_path):
    for backend in ("numpy", "numba"):
        stamp = {"workload": "dense_bounds", "trace": 0, "backend": backend}
        result = {"metrics": {"tasks_per_s": {"value": 1.0, "unit": "tasks/s"}}}
        (tmp_path / f"{backend}.json").write_text(json.dumps({"stamp": stamp, "result": result}))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "different backends" in proc.stderr


def test_scaled_clock_divides_by_the_probes_around_the_call(monkeypatch):
    probes = iter([2 * bench_clock.PROBE_REF_S, 4 * bench_clock.PROBE_REF_S])
    monkeypatch.setattr(bench_clock, "probe", lambda: next(probes))
    clock = bench_clock.ScaledClock()
    out, raw, scaled = clock.time(time.sleep, 0.01)
    assert out is None and raw >= 0.01
    assert scaled == pytest.approx(raw / 3)


def finished(workload, task):
    return workload.finish(task, workload.run(task))


def perturbed(out, **changes):
    if dataclasses.is_dataclass(out):
        return dataclasses.replace(out, **changes)
    return types.SimpleNamespace(**{**vars(out), **changes})


def test_dense_checker_rejects_perturbed_solutions():
    w = DenseBounds()
    task = DenseTask(1.0, 2, 0.934)
    sol = finished(w, task)
    assert w.check(task, sol) == []
    sol = types.SimpleNamespace(**{f.name: getattr(sol, f.name) for f in dataclasses.fields(sol)})
    assert w.check(task, perturbed(sol, alpha0=sol.alpha0 + 1e-3))
    assert w.check(task, perturbed(sol, alpha2=sol.alpha2 + 1e-6))
    assert w.check(task, perturbed(sol, alpha1_curve=sol.alpha1_curve + 1e-3))


def test_construction_checker_rejects_perturbed_outputs():
    w = ConstructionVerify()
    task = LabeledTask("two", 10, 5, seed=3)
    out = finished(w, task)
    assert w.check(task, out) == []
    assert w.check(task, perturbed(out, recount=out.recount + 1))
    assert w.check(task, perturbed(out, ls_count=out.best_count - 1))
    assert w.check(task, perturbed(out, ls_size=out.ls_size - 1))

    task = AltTask(4, 8)
    out = finished(w, task)
    assert w.check(task, out) == []
    assert w.check(task, perturbed(out, cycle=True))
    assert w.check(task, perturbed(out, max_blue=task.k))
    assert w.check(task, perturbed(out, blue=out.blue + 1))

    task = BetaTask(2, 2)
    out = finished(w, task)
    assert w.check(task, out) == []
    assert w.check(task, perturbed(out, beta=1))
    assert w.check(BetaTask(3, 3), perturbed(out, construction_blue=out.beta + 1))


def test_query_checker_rejects_perturbed_runs():
    w = QuerySim()
    task = SimTask("batched", 4096, 2, 9)
    out = finished(w, task)
    assert out.result is not None
    assert w.check(task, out) == []
    res = out.result
    assert w.check(task, perturbed(out, result=dataclasses.replace(res, is_clique=False)))
    assert w.check(task, perturbed(out, clique_bits=(0,) + out.clique_bits[1:]))
    assert w.check(task, perturbed(out, result=dataclasses.replace(
        res, queries_used=res.budget + 1)))
    assert w.check(task, perturbed(out, result=dataclasses.replace(
        res, rounds_used=task.ell + 1)))
    assert w.check(task, perturbed(out, digest="0" * 64))
    greedy = SimTask("greedy", 512, 1, 9)
    assert w.check(greedy, perturbed(finished(w, greedy), result=None))
