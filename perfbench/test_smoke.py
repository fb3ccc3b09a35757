"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric of BENCHMARK.json is reported with its unit in
both modes, and that a NaN injected into the Weyl data is counted as a
failed operation instead of ending the run.
"""

import json

import numpy as np
import pytest

import run
import workloads as wl
from weylinv import WeylData

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def nan_in_M(data):
    M = data.M_samples.copy()
    M[3, 0, 0] = np.nan
    return WeylData(contour=data.contour, M_samples=M,
                    tail_samples=data.tail_samples)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_every_metric_reported_with_unit(workload, trace, capsys, tmp_path):
    result = run.bench(workload, seed=0, seconds=0, trace=trace, size="tiny",
                       setup_reps=1, out_dir=tmp_path)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] == 1
    printed = capsys.readouterr().out
    names = ([m["name"] for m in spec] if trace
             else ["setup_s", "forward_s", "peak_rss_mb", "failed_frac"])
    for name in names:
        assert name in printed
    if trace:
        spans = json.loads(next(tmp_path.glob("trace-*.json")).read_text())
        assert spans["spans"] and spans["env"]["blas_threads_requested"] == 1


def test_issue_metrics_printed_across_workloads(capsys):
    for workload in sorted(wl.WORKLOADS):
        run.bench(workload, seed=1, seconds=0, trace=False, size="tiny",
                  setup_reps=1)
    printed = capsys.readouterr().out
    for name in ("setup_s", "forward_s", "invert_s", "certify_s", "q_l1_rel",
                 "h_err", "A_err", "mstar_resid", "peak_rss_mb", "failed_frac"):
        assert name in printed


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_nan_in_weyl_data_counts_as_failure(workload, monkeypatch):
    generate = wl.generate_weyl_data
    monkeypatch.setattr(wl, "generate_weyl_data",
                        lambda problem, contour: nan_in_M(generate(problem, contour)))
    result = run.bench(workload, seed=0, seconds=0, trace=False, size="tiny",
                       setup_reps=1)
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False
