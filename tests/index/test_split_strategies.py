"""Tests for the alternative node-split strategies (Guttman 1984)."""

import numpy as np
import pytest

from repro.index.rstartree import RStarTree


def brute(points, q, radius):
    return set(np.nonzero(np.linalg.norm(points - q, axis=1) <= radius)[0].tolist())


@pytest.mark.parametrize("strategy", ["rstar", "quadratic", "linear"])
class TestAllStrategies:
    def test_insert_and_query_exact(self, rng, strategy):
        pts = rng.normal(size=(400, 4))
        tree = RStarTree(4, capacity=10, split_strategy=strategy)
        for i, p in enumerate(pts):
            tree.insert(p, i)
        tree.check_invariants()
        for _ in range(3):
            q = rng.normal(size=4)
            assert set(tree.range_search(q, q, 1.2)) == brute(pts, q, 1.2)

    def test_sorted_inserts(self, rng, strategy):
        """Sorted input is the adversarial case for split quality."""
        tree = RStarTree(2, capacity=8, split_strategy=strategy)
        for i in range(300):
            tree.insert(np.array([float(i), float(i % 5)]), i)
        tree.check_invariants()
        q = np.array([150.0, 2.0])
        expected = {
            i for i in range(300)
            if (i - 150) ** 2 + (i % 5 - 2) ** 2 <= 4.0
        }
        assert set(tree.range_search(q, q, 2.0)) == expected

    def test_duplicates(self, rng, strategy):
        tree = RStarTree(2, capacity=6, split_strategy=strategy)
        for i in range(40):
            tree.insert(np.array([1.0, 1.0]), i)
        assert sorted(tree.range_search(np.ones(2), np.ones(2), 0.0)) == list(
            range(40)
        )


class TestStrategySelection:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="split strategy"):
            RStarTree(2, split_strategy="cubic")

    def test_rstar_quality_at_least_linear(self, rng):
        """R* was designed to beat Guttman's splits on page accesses;
        verify the ordering on clustered data."""
        clusters = np.concatenate(
            [rng.normal(c, 0.3, size=(150, 4)) for c in (-4.0, 0.0, 4.0)]
        )
        order = rng.permutation(len(clusters))
        pages = {}
        for strategy in ("rstar", "linear"):
            tree = RStarTree(4, capacity=10, split_strategy=strategy)
            for i in order:
                tree.insert(clusters[i], int(i))
            tree.reset_stats()
            for centre in (-4.0, 0.0, 4.0):
                q = np.full(4, centre)
                tree.range_search(q, q, 0.5)
            pages[strategy] = tree.page_accesses
        assert pages["rstar"] <= pages["linear"] * 1.2
