"""Brute-force oracle: exact LDTW against every stored row.

Distances are recomputed with ``ldtw_distance_batch`` over the float64
upcast of the store's ``normalized`` column — no index, no cascade, no
cutoff — and compared with what was served.
"""

from __future__ import annotations

import numpy as np

from repro.dtw.distance import ldtw_distance_batch

TOLERANCE = 1e-9


class Oracle:
    """Checks served answers against one store generation.

    Generations only append rows, so an answer served from an earlier
    generation is checked against a prefix of the latest one.
    """

    def __init__(self, store, normal_form, band: int) -> None:
        self._data = np.asarray(store.normalized, dtype=np.float64)
        self._row_of = {item: row for row, item in enumerate(store.ids)}
        self._normal_form = normal_form
        self._band = band

    def mismatch(self, kind: str, param, hum, results,
                 row_counts=None) -> str | None:
        """Why *results* is not the exact answer, or ``None`` if it is.

        *row_counts* lists the store sizes the answer may legitimately
        have been computed against (a request that overlapped a
        generation swap may have seen either side); default: all rows.
        """
        dists = ldtw_distance_batch(self._normal_form.apply(hum),
                                    self._data, self._band)
        reasons = [self._compare(kind, param, results, dists[:rows])
                   for rows in (row_counts or [len(dists)])]
        return None if None in reasons else reasons[0]

    def _compare(self, kind, param, results, dists) -> str | None:
        served = np.array([dist for _, dist in results], dtype=np.float64)
        if np.any(np.diff(served) < 0):
            return "answer is not sorted by distance"
        for item, dist in results:
            row = self._row_of.get(item)
            if row is None or row >= len(dists):
                return f"id {item!r} is not in the store"
            if abs(dists[row] - dist) > TOLERANCE:
                return (f"id {item!r}: served distance {dist!r}, "
                        f"exact {dists[row]!r}")
        if len({item for item, _ in results}) != len(results):
            return "answer repeats an id"
        if kind == "range":
            if len(served) and served[-1] > param + TOLERANCE:
                return "range answer holds a row beyond epsilon"
            must = int(np.count_nonzero(dists <= param - TOLERANCE))
            may = int(np.count_nonzero(dists <= param + TOLERANCE))
            if not must <= len(results) <= may:
                return (f"range answer has {len(results)} rows, "
                        f"exact has {must}")
            return None
        expect = np.sort(dists)[:param]
        if len(served) != len(expect):
            return f"knn answer has {len(served)} rows, exact {len(expect)}"
        if len(expect) and np.max(np.abs(served - expect)) > TOLERANCE:
            return "knn distances differ from the exact top-k"
        return None
