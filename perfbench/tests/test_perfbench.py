"""Self-tests of the benchmark: smoke passes, the correctness gate, hooks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SMALLEST = {
    "regular-ladder": "cographic-K33",
    "corpus": "square-grid-2d",
    "cell-oracle": "square-grid-2d",
}


def smoke(workload, trace=False, expect=None):
    log = io.StringIO()
    result = run.run_workload(workload, 3, 0.01, trace, expect=expect,
                              only={SMALLEST[workload]}, setup_repeats=1,
                              child_runs=1, out=log)
    return result, log.getvalue()


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_smoke_pass_is_correct_and_reports_every_end_to_end_metric(workload):
    result, log = smoke(workload)
    assert result["correct"], log
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_PASSES + 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(SMALLEST))
def test_traced_smoke_measures_every_per_layer_metric_in_its_unit(workload):
    result, log = smoke(workload, trace=True)
    assert result["correct"], log
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == PER_LAYER
    # The layer probe reaches every layer, so no metric is a constant 0.
    zero = [k for k, v in result["metrics"].items()
            if v["value"] == 0 and k != "trace.overhead_s"]
    assert zero == []


def test_traced_smoke_counts_are_exact():
    result, log = smoke("regular-ladder", trace=True)
    assert result["correct"], log
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # C(9, 3) subsets of the cographic K3,3 normals, 15 edge lines.
    assert ("cographic-K33            edge_set 84 subsets / 78 full-rank"
            " / 15 lines; facets 84 / 15; ridge flats 24; tu minors 714"
            in log)
    assert ("probe-square-grid-2d     edge_set 14 subsets / 14 full-rank"
            " / 14 lines; facets 4 / 4; ridge flats 1; tu minors 5;"
            " signed sums 4; lattice points 60" in log)
    # Pass sums are the instance's counts plus the probe's.
    assert metrics["dicing.edge_set.subsets"] == 84 + 14
    assert metrics["zonotope.ridges.flats"] == 24 + 1
    assert metrics["parallelohedron.quadratic_form.calls"] == 4 + 9
    assert 0.95 < metrics["parallelohedron.certify.stage_share"] <= 1


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    values = [float(x) for x in range(35, 0, -1)]
    assert run.tail_sample(values) == (25.0, pytest.approx(100 * 25 / 35), 10)
    assert run.tail_sample([2.0, 7.0, 5.0]) == (7.0, 100.0, 0)


def _with_pin(workload, instance, key, value):
    expect = copy.deepcopy(run.load_expect())
    expect["pins"][workload][instance][key] = value
    return expect


def test_wrong_pin_makes_the_run_fail():
    expect = _with_pin("regular-ladder", "cographic-K33", "edge_pairs", 16)
    result, log = smoke("regular-ladder", expect=expect)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "edge_pairs 15, pinned 16" in log


def test_wrong_pin_makes_the_command_exit_nonzero(capsys):
    expect = _with_pin("corpus", "hexagonal", "det", "-1")
    code = run.main(["--workload", "corpus", "--seed", "5", "--seconds",
                     "0.01"], expect=expect)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] > 0


def test_missing_hook_target_stops_the_traced_run_naming_the_hook():
    run.import_zonocert()
    tracer = tracing.Tracer()
    hooks = tracing.HOOKS + (tracing.Hook("ratgeom.renamed", "ratgeom",
                                          "no_such_function"),)
    with pytest.raises(tracing.HookError, match="ratgeom.renamed"):
        tracer.install(hooks)
    rank = sys.modules["zonocert.ratgeom"].rank
    assert not hasattr(rank, "__wrapped__"), "a failed install left hooks"


def test_hooks_reach_every_binding_and_uninstall_restores_them():
    zc = run.import_zonocert()
    original = zc.ratgeom.rank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (zc.ratgeom, zc.dicing, zc.zonotope, zc.parallelohedron):
            assert module.rank.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert zc.dicing.rank is original and zc.ratgeom.rank is original


def test_untraced_run_installs_no_hooks(monkeypatch):
    def refuse(self, hooks=None):
        raise AssertionError("the untraced run installed hooks")
    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    result, log = smoke("corpus")
    assert result["correct"], log


def test_fails_without_result_where_only_the_benchmark_exists(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
