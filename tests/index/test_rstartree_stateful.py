"""Stateful (model-based) testing of the R*-tree.

Hypothesis drives random interleavings of insert/query against a
trivial dictionary model; after every step the tree must agree with
the model exactly and keep its structural invariants.  This is the
strongest correctness net for the split/reinsert machinery.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.index.rstartree import RStarTree

coord = st.floats(min_value=-8, max_value=8, allow_nan=False, width=32)
point = st.tuples(coord, coord, coord)


class RStarModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tree = RStarTree(3, capacity=4)
        self.model: dict[int, np.ndarray] = {}
        self.counter = 0

    @rule(p=point)
    def insert(self, p):
        arr = np.array(p, dtype=np.float64)
        self.tree.insert(arr, self.counter)
        self.model[self.counter] = arr
        self.counter += 1

    @rule(q=point, radius=st.floats(0, 6, allow_nan=False))
    def range_query_matches_model(self, q, radius):
        centre = np.array(q, dtype=np.float64)
        expected = {
            key for key, stored in self.model.items()
            if float(np.linalg.norm(stored - centre)) <= radius
        }
        got = set(self.tree.range_search(centre, centre, radius))
        assert got == expected

    @invariant()
    def size_matches(self):
        assert len(self.tree) == len(self.model)

    @invariant()
    def structure_valid(self):
        self.tree.check_invariants()


TestRStarStateful = RStarModel.TestCase
TestRStarStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
