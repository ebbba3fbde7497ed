/* Banded DTW of one query against a batch of candidate rows.
 *
 * The native body of repro.dtw.kernels.banded_dtw_cost_batch, compiled
 * on first use with `cc -O2 -fPIC -shared -ffp-contract=off` and loaded
 * through ctypes.  Each row runs the row-major Sakoe-Chiba DP of the
 * Python reference banded_dtw_cost with the same per-cell operations
 * (d = x - y, d*d or |d|, min of three, +), so finished costs are bit
 * for bit the reference's; contraction into fused multiply-adds is
 * switched off for that reason.  A row is abandoned (inf) once every
 * cell of one DP row exceeds its bound: every warping path crosses
 * every row.  No static state: calls from several threads may overlap.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Costs from x (length n) to each of the `batch` rows (length m) of
 * `rows`, band half-width k >= 1 with |n - m| <= k, into out.  `bounds`
 * holds one cost cutoff per row, or is NULL for none.  Returns the
 * band cells evaluated, or -1 if the scratch buffers cannot be had. */
int64_t banded_dtw_batch(const double *x, int64_t n, const double *rows,
                         int64_t batch, int64_t m, int64_t k,
                         const double *bounds, int manhattan, double *out)
{
    /* Two DP rows, each with one leading slot that stays inf: the
     * diagonal neighbour of column 0. */
    double *buffers = malloc(2 * (size_t)(m + 1) * sizeof(double));
    if (buffers == NULL)
        return -1;
    int64_t cells = 0;
    for (int64_t b = 0; b < batch; b++) {
        const double *y = rows + b * m;
        const double bound = bounds == NULL ? INFINITY : bounds[b];
        double *prev = buffers + 1;
        double *cur = buffers + m + 2;
        for (int64_t j = -1; j < m; j++)
            prev[j] = cur[j] = INFINITY;
        int64_t i;
        for (i = 0; i < n; i++) {
            const int64_t lo = i > k ? i - k : 0;
            const int64_t hi = i + k < m - 1 ? i + k : m - 1;
            const double xi = x[i];
            double left = INFINITY;
            double row_min = INFINITY;
            cells += hi - lo + 1;
            for (int64_t j = lo; j <= hi; j++) {
                double best;
                if (i == 0) {
                    best = j == 0 ? 0.0 : left;
                } else {
                    best = prev[j] < prev[j - 1] ? prev[j] : prev[j - 1];
                    if (left < best)
                        best = left;
                }
                const double d = xi - y[j];
                const double t = best + (manhattan ? fabs(d) : d * d);
                cur[j] = t;
                left = t;
                if (t < row_min)
                    row_min = t;
            }
            if (row_min > bound)
                break;
            /* Cells right of the band keep inf in both buffers: the
             * band's right edge never moves left. */
            double *swap = prev;
            prev = cur;
            cur = swap;
        }
        out[b] = i == n ? prev[m - 1] : INFINITY;
    }
    free(buffers);
    return cells;
}
