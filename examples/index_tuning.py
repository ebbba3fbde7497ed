"""Index tuning: envelope transforms and dimensions.

Shows how the pieces of the warping index trade off against each
other on a random-walk workload:

* envelope transform (New_PAA vs Keogh_PAA vs DFT vs SVD),
* feature dimensionality.

Costs are the paper's: candidates the R*-tree filter retrieves and the
pages it reads.

Run with:  python examples/index_tuning.py
"""

import numpy as np

from repro import (
    KeoghPAAEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
    SVDTransform,
    DFTTransform,
    WarpingIndex,
    random_walks,
)
from repro.core import NormalForm

LENGTH = 128
DB_SIZE = 2000
N_QUERIES = 10
DELTA = 0.1


def workload():
    series = list(random_walks(DB_SIZE, LENGTH, seed=1))
    queries = random_walks(N_QUERIES, LENGTH, seed=2)
    radius = 0.5 * np.sqrt(LENGTH)
    return series, queries, radius


def mean_cost(index, queries, radius):
    cand = pages = 0
    for q in queries:
        _, stats = index.filter_query(q, radius)
        cand += stats.candidates
        pages += stats.page_accesses
    return cand / len(queries), pages / len(queries)


def main() -> None:
    series, queries, radius = workload()
    nf = NormalForm(length=LENGTH)
    train = np.vstack([nf.apply(s) for s in series[:300]])

    print(f"Workload: {DB_SIZE} random walks, {N_QUERIES} range queries, "
          f"delta={DELTA}\n")

    print("1. Envelope transform (8 dims, R*-tree):")
    transforms = {
        "New_PAA": NewPAAEnvelopeTransform(LENGTH, 8),
        "Keogh_PAA": KeoghPAAEnvelopeTransform(LENGTH, 8),
        "DFT": SignSplitEnvelopeTransform(DFTTransform(LENGTH, 8), name="DFT"),
        "SVD": SignSplitEnvelopeTransform(
            SVDTransform.fit(train, 8), name="SVD"),
    }
    for name, env_t in transforms.items():
        index = WarpingIndex(series, delta=DELTA, env_transform=env_t,
                             normal_form=nf)
        cand, pages = mean_cost(index, queries, radius)
        print(f"   {name:<10} candidates={cand:8.1f}  pages={pages:6.1f}")

    print("\n2. Feature dimensionality (New_PAA, R*-tree):")
    for dims in (4, 8, 16, 32):
        index = WarpingIndex(series, delta=DELTA, n_features=dims,
                             normal_form=nf)
        cand, pages = mean_cost(index, queries, radius)
        print(f"   N={dims:<3}       candidates={cand:8.1f}  pages={pages:6.1f}")

    print("\nReading: more dimensions -> tighter filter but bigger index "
          "entries; New_PAA dominates Keogh_PAA at every setting.")


if __name__ == "__main__":
    main()
