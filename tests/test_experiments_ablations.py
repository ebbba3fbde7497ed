"""Smoke tests for the ablation experiments (tiny workloads)."""

import numpy as np

from repro.experiments import (
    SMOKE,
    run_knn_ablation,
    run_noise_sweep,
    run_second_filter_ablation,
    run_signsplit_ablation,
    run_split_ablation,
)


def test_signsplit_smoke():
    rows = run_signsplit_ablation(30)
    by_method = dict(zip(rows["method"], rows["container_violations"]))
    assert by_method["sign_split"] == 0
    assert by_method["naive"] > 0


def test_knn_smoke():
    rows = run_knn_ablation(150, 2)
    assert rows["refined_scan"] == [150, 150, 150]
    assert all(r <= 150 for r in rows["refined_multistep"])


def test_second_filter_smoke():
    rows = run_second_filter_ablation(150, 2)
    for c, p, e in zip(rows["candidates"], rows["pruned_by_LB"],
                       rows["exact_dtw"]):
        assert abs(c - (p + e)) <= 0.21


def test_splits_smoke():
    rows = run_split_ablation(200, 2)
    assert rows["strategy"] == ["rstar", "quadratic", "linear"]
    assert all(h >= 1 for h in rows["height"])


def test_noise_smoke():
    rows = run_noise_sweep(SMOKE)
    assert rows["error_level"][0] == 0.0
    assert rows["top1"][0] == SMOKE.table_queries
    assert np.all(np.array(rows["mean_rank"]) >= 1.0)
