/* The native bodies of the refine kernel and of the cascade's stage
 * bounds: one library, compiled on first use with
 * `cc -O3 -fPIC -shared -ffp-contract=off` and loaded through ctypes,
 * which releases the GIL for every call.
 *
 * banded_dtw_batch is the body of
 * repro.dtw.kernels.banded_dtw_cost_batch.  Each row runs the
 * row-major Sakoe-Chiba DP of the Python reference banded_dtw_cost with
 * the same per-cell operations (d = x - y, d*d or |d|, min of three,
 * +), so finished costs are bit for bit the reference's; contraction
 * into fused multiply-adds is switched off for that reason.  A row is
 * abandoned (inf) once every cell of one DP row exceeds its bound:
 * every warping path crosses every row.
 *
 * The lb_* functions are the bodies of repro.engine.stages' stage
 * bounds, each over the rows an index array selects (NULL: every row).
 * A row's terms are summed in LANES independent accumulators, reduced
 * pairwise at the end (a feature row's handful in order), which GCC
 * vectorises at -O3 and not at -O2: lb_keogh over 1 024 float32 rows
 * in walk order took 0.48 ms at -O2 and 0.23-0.33 ms at -O3, and
 * banded_dtw_batch over 1 024 rows (n = 128, k = 6) 4.40 -> 3.77 ms,
 * its costs bit for bit the same.  Float32 rows are bounded in float32
 * from the outward-rounded query arrays Python passes and deflated by
 * their worst-case rounding error, as the NumPy bodies are; the
 * soundness argument in repro.engine.stages covers a sum in any order.
 * lb_keogh_* also takes a radius: a row whose EC, summed first,
 * exceeds it is not read further and returns EC, a partial bound.
 * frame_means_f32 is CorpusStore.verify's: NumPy's frame means of
 * float32 rows, bit for bit, without a float64 copy.
 *
 * No static state: calls from several threads may overlap.  Functions
 * with an index array return 0, or -1 when an index is out of range.
 */

#include <float.h>
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

#define LANES 16

/* 1 - gamma_terms with u = 2^-24: the factor a float32 bound of
 * `terms` rounded steps is scaled by (stages._deflate). */
static double deflation(int64_t terms)
{
    const double m = (double)terms * 0x1p-24;
    return 1.0 - m / (1.0 - m);
}

/* A float32-computed bound, overflow clipped to sqrt(FLT_MAX), then
 * deflated: what stages._deflate does to the NumPy body's. */
static double deflate(double bound, double scale)
{
    const double clip = (double)sqrtf(FLT_MAX);
    return (bound < clip ? bound : clip) * scale;
}

static int64_t row_at(const int64_t *rows, int64_t i)
{
    return rows == NULL ? i : rows[i];
}

/* 0, read at run time.  Against a constant 0, GCC 12 compiles the
 * scalar `g > 0 ? g : 0` to a compare and a branch, which the stage
 * data mispredicts about every other term (the keogh_paa bound of 10^4
 * rows took 0.47 ms, against 0.08 ms); against a variable, to one max
 * instruction. */
static double runtime_zero(void)
{
    volatile double zero = 0.0;
    return zero;
}

/* Per element type T (suffix S, square root ROOT):
 *
 * lane_sum_S    the LANES accumulators, reduced pairwise;
 * gap_sum_S     sum over j < n of max(a[j] - b[j], c[j] - d[j], 0),
 *               squared unless manhattan, in LANES accumulators (not
 *               inlined: GCC 12 vectorises it worse inside the row loop,
 *               0.26 against 0.41 ms per 1 024 float32 rows);
 * lb_first_last_S, lb_keogh_S: the stage bodies. */
#define DEFINE_BODIES(T, S, ROOT)                                           \
static T lane_sum_##S(T *acc)                                               \
{                                                                           \
    for (int w = LANES / 2; w > 0; w /= 2)                                  \
        for (int l = 0; l < w; l++)                                         \
            acc[l] += acc[l + w];                                           \
    return acc[0];                                                          \
}                                                                           \
                                                                            \
__attribute__((noinline))                                                   \
static T gap_sum_##S(const T *restrict a, const T *restrict b,              \
                     const T *restrict c, const T *restrict d, int64_t n,   \
                     int manhattan)                                         \
{                                                                           \
    const T zero = (T)runtime_zero();                                       \
    T acc[LANES] = {0};                                                     \
    int64_t j = 0;                                                          \
    for (; j + LANES <= n; j += LANES)                                      \
        for (int l = 0; l < LANES; l++) {                                   \
            T g = a[j + l] - b[j + l];                                      \
            const T h = c[j + l] - d[j + l];                                \
            g = g > h ? g : h;                                              \
            g = g > zero ? g : zero;                                        \
            acc[l] += manhattan ? g : g * g;                                \
        }                                                                   \
    for (int l = 0; j < n; j++, l++) {                                      \
        T g = a[j] - b[j];                                                  \
        const T h = c[j] - d[j];                                            \
        g = g > h ? g : h;                                                  \
        g = g > zero ? g : zero;                                            \
        acc[l] += manhattan ? g : g * g;                                    \
    }                                                                       \
    return lane_sum_##S(acc);                                               \
}                                                                           \
                                                                            \
/* Corner cells: |q0 - x0| and |q_last - x_last|, combined in float64. */  \
int lb_first_last_##S(const double *q, int64_t n, const T *data,            \
                      int64_t m, const int64_t *rows, int64_t count,        \
                      int manhattan, double *out)                           \
{                                                                           \
    for (int64_t i = 0; i < count; i++) {                                   \
        const int64_t r = row_at(rows, i);                                  \
        if (r < 0 || r >= m)                                                \
            return -1;                                                      \
        const T *x = data + r * n;                                          \
        const double first = fabs(q[0] - (double)x[0]);                     \
        if (n == 1) {                                                       \
            out[i] = first;                                                 \
            continue;                                                       \
        }                                                                   \
        const double last = fabs(q[n - 1] - (double)x[n - 1]);              \
        out[i] = manhattan ? first + last                                   \
                           : sqrt(first * first + last * last);             \
    }                                                                       \
    return 0;                                                               \
}                                                                           \
                                                                            \
/* max(EQ, EC) of each row: EQ from the query envelope (lo, hi), EC       \
 * from the row's envelope and the query rounded down / up (q_down,       \
 * q_up).  EC, the tighter side, first: a row whose EC exceeds `radius`   \
 * stops there, with EC as its (partial) bound. */                         \
int lb_keogh_##S(const T *lo, const T *hi, const T *q_down,                 \
                 const T *q_up, int64_t n, const T *data,                   \
                 const T *env_lower, const T *env_upper, int64_t m,         \
                 const int64_t *rows, int64_t count, double radius,         \
                 int manhattan, double *out)                                \
{                                                                           \
    const int f32 = sizeof(T) == sizeof(float);                             \
    const double scale = f32 ? deflation(n + 4) : 1.0;                      \
    for (int64_t i = 0; i < count; i++) {                                   \
        const int64_t r = row_at(rows, i);                                  \
        if (r < 0 || r >= m)                                                \
            return -1;                                                      \
        const T ec = gap_sum_##S(q_down, env_upper + r * n,                 \
                                 env_lower + r * n, q_up, n, manhattan);    \
        T bound = manhattan ? ec : ROOT(ec);                                \
        if ((f32 ? deflate(bound, scale) : bound) <= radius) {              \
            const T *x = data + r * n;                                      \
            const T eq = gap_sum_##S(lo, x, x, hi, n, manhattan);           \
            const T side = manhattan ? eq : ROOT(eq);                       \
            if (side > bound)                                               \
                bound = side;                                               \
        }                                                                   \
        out[i] = f32 ? deflate(bound, scale) : bound;                       \
    }                                                                       \
    return 0;                                                               \
}

DEFINE_BODIES(float, f32, sqrtf)
DEFINE_BODIES(double, f64, sqrt)

/* Distance of a feature row (float64, width dims) to the band
 * [lo, hi]: the keogh_paa stage, and the query side of new_paa.  A
 * handful of terms, summed in order. */
static inline double band_distance(const double *restrict x,
                                   const double *restrict lo,
                                   const double *restrict hi, int64_t dims,
                                   int manhattan, double zero)
{
    double sum = 0.0;
    for (int64_t j = 0; j < dims; j++) {
        double g = lo[j] - x[j];
        const double h = x[j] - hi[j];
        g = g > h ? g : h;
        g = g > zero ? g : zero;
        sum += manhattan ? g : g * g;
    }
    return manhattan ? sum : sqrt(sum);
}

int lb_band(const double *features, int64_t dims, int64_t m,
            const int64_t *rows, int64_t count, const double *lo,
            const double *hi, int manhattan, double *out)
{
    const double zero = runtime_zero();
    for (int64_t i = 0; i < count; i++) {
        const int64_t r = row_at(rows, i);
        if (r < 0 || r >= m)
            return -1;
        out[i] = band_distance(features + r * dims, lo, hi, dims, manhattan,
                               zero);
    }
    return 0;
}

/* The new_paa stage: max of the query side (features against the
 * reduced query envelope, float64) and the row side (the query's frame
 * means, rounded up / down to float32, against each row's float32
 * env_paa brackets: `frames` lower means then `frames` upper means,
 * each gap weighted by its frame's width, summed in float32 and
 * deflated by frames + 4 steps). */
int lb_new_paa(const double *features, int64_t dims, const double *lo,
               const double *hi, const float *env_paa, int64_t frames,
               const float *q_up, const float *q_down, const float *widths,
               int64_t m, const int64_t *rows, int64_t count, int manhattan,
               double *out)
{
    const double scale = deflation(frames + 4);
    const double zero = runtime_zero();
    const float zero32 = (float)zero;
    for (int64_t i = 0; i < count; i++) {
        const int64_t r = row_at(rows, i);
        if (r < 0 || r >= m)
            return -1;
        const double query_side = band_distance(features + r * dims, lo, hi,
                                                dims, manhattan, zero);
        const float *paa_lo = env_paa + r * 2 * frames;
        const float *paa_hi = paa_lo + frames;
        float acc[LANES] = {0};
        int64_t j = 0;
        for (; j + LANES <= frames; j += LANES)
            for (int l = 0; l < LANES; l++) {
                float g = paa_lo[j + l] - q_up[j + l];
                const float h = q_down[j + l] - paa_hi[j + l];
                g = g > h ? g : h;
                g = g > zero32 ? g : zero32;
                acc[l] += (manhattan ? g : g * g) * widths[j + l];
            }
        for (int l = 0; j < frames; j++, l++) {
            float g = paa_lo[j] - q_up[j];
            const float h = q_down[j] - paa_hi[j];
            g = g > h ? g : h;
            g = g > zero32 ? g : zero32;
            acc[l] += (manhattan ? g : g * g) * widths[j];
        }
        const double sum = (double)lane_sum_f32(acc);
        const double row_side = deflate(manhattan ? sum : sqrt(sum), scale);
        out[i] = query_side > row_side ? query_side : row_side;
    }
    return 0;
}

/* numpy's pairwise sum of n doubles (its reductions' order), over
 * float32 values read as float64: one pass for n <= 128, halves
 * recursively above. */
static inline double pairwise_block(const float *a, int64_t n)
{
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; i++)
            sum += (double)a[i];
        return sum;
    }
    double r[8];
    for (int l = 0; l < 8; l++)
        r[l] = (double)a[l];
    int64_t i;
    for (i = 8; i < n - n % 8; i += 8)
        for (int l = 0; l < 8; l++)
            r[l] += (double)a[i + l];
    double sum = ((r[0] + r[1]) + (r[2] + r[3]))
                 + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < n; i++)
        sum += (double)a[i];
    return sum;
}

static double pairwise_sum(const float *a, int64_t n)
{
    if (n <= 128)
        return pairwise_block(a, n);
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* Float64 frame means of `count` float32 rows of length n, frame f
 * spanning [bounds[f], bounds[f + 1]): bit for bit what
 * np.add.reduceat over the float64 rows, divided by the widths, gives
 * (its first element plus the pairwise sum of the rest). */
void frame_means_f32(const float *data, int64_t count, int64_t n,
                     const int64_t *bounds, int64_t frames, double *out)
{
    for (int64_t r = 0; r < count; r++) {
        const float *x = data + r * n;
        for (int64_t f = 0; f < frames; f++) {
            const int64_t start = bounds[f], width = bounds[f + 1] - start;
            const double rest = width - 1 <= 128
                ? pairwise_block(x + start + 1, width - 1)
                : pairwise_sum(x + start + 1, width - 1);
            out[r * frames + f] = ((double)x[start] + rest) / (double)width;
        }
    }
}
