/* DTW alignment of two feature tracks, bit-identical to metric._align_python,
 * and the pitch and stress correlations along its path, bit-identical to
 * metric._path_similarity.
 *
 * Build (with _fft.c): cc -O3 -ffp-contract=off -fno-math-errno -fPIC -shared ... -lm
 * No -ffast-math: every sum, product and comparison must round exactly as
 * numpy and the Python recurrence do.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { DIAG = 1, VERT = 2, HORIZ = 3 };

/* metric.DEGENERATE_VARIANCE */
#define DEGENERATE_VARIANCE 1e-10

/* numpy's pairwise sum of x[i * xstep] * y[i * ystep] for i < n, in _fft.c. */
double pairwise_dot(const double *x, int64_t xstep, const double *y, int64_t ystep, int64_t n);

/* out[j] = sum of (a[k] - b[j][k])^2 over k < n, for j < m, in numpy's
 * pairwise summation order, so that each equals ((a - b[j]) ** 2).sum()
 * bit for bit. bt holds b transposed (bt[k * m + j] = b[j][k]), so every
 * loop over j runs on adjacent values and vectorizes; each j keeps its
 * own sums in their own order. tmp needs room for scratch_rows(n) * m. */
static void sq_dists(const double *restrict a, const double *restrict bt, int64_t m, int64_t n,
                     double *restrict out, double *restrict tmp)
{
    if (n < 8) {
        for (int64_t j = 0; j < m; j++)
            out[j] = 0.0;
        for (int64_t k = 0; k < n; k++) {
            for (int64_t j = 0; j < m; j++) {
                double d = a[k] - bt[k * m + j];
                out[j] += d * d;
            }
        }
        return;
    }
    if (n <= 128) {
        double *r = tmp;
        for (int k = 0; k < 8; k++) {
            for (int64_t j = 0; j < m; j++) {
                double d = a[k] - bt[k * m + j];
                r[k * m + j] = d * d;
            }
        }
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                for (int64_t j = 0; j < m; j++) {
                    double d = a[i + k] - bt[(i + k) * m + j];
                    r[k * m + j] += d * d;
                }
            }
        }
        for (int64_t j = 0; j < m; j++)
            out[j] = ((r[j] + r[m + j]) + (r[2 * m + j] + r[3 * m + j]))
                     + ((r[4 * m + j] + r[5 * m + j]) + (r[6 * m + j] + r[7 * m + j]));
        for (; i < n; i++) {
            for (int64_t j = 0; j < m; j++) {
                double d = a[i] - bt[i * m + j];
                out[j] += d * d;
            }
        }
        return;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    sq_dists(a, bt, m, n2, out, tmp);
    sq_dists(a + n2, bt + n2 * m, m, n - n2, tmp, tmp + m);
    for (int64_t j = 0; j < m; j++)
        out[j] += tmp[j];
}

/* Rows of m values that sq_dists(..., n, ...) needs in tmp. */
static int64_t scratch_rows(int64_t n)
{
    if (n <= 128)
        return 8;
    int64_t n2 = n / 2 - (n / 2) % 8;
    int64_t first = scratch_rows(n2), second = 1 + scratch_rows(n - n2);
    return first > second ? first : second;
}

/* dist[j] = Euclidean distance from frame a to frame j of b, for j < m. */
static void distances(const double *a, const double *bt, int64_t m, int64_t dim, double *dist,
                      double *tmp)
{
    sq_dists(a, bt, m, dim, dist, tmp);
    for (int64_t j = 0; j < m; j++)
        dist[j] = sqrt(dist[j]);
}

/* a is n x dim, b is m x dim, both C-contiguous. rows and cols need room
 * for n + m - 1 entries. Writes the optimal path's frame pairs in order,
 * back to front so that they end at index n + m - 2, and its cost;
 * returns the index of the first pair, or -1 if scratch memory is short. */
int64_t speechstyle_dtw(const double *a, const double *b, int64_t n, int64_t m, int64_t dim,
                        int64_t *rows, int64_t *cols, double *cost)
{
    size_t words = (size_t)m * (size_t)(3 + dim + scratch_rows(dim));
    double *acc = malloc(words * sizeof(double));
    unsigned char *move = malloc((size_t)n * (size_t)m);
    if (acc == NULL || move == NULL) {
        free(acc);
        free(move);
        return -1;
    }
    double *above = acc, *row = acc + m, *dist = acc + 2 * m, *bt = acc + 3 * m;
    double *tmp = bt + dim * m;
    for (int64_t j = 0; j < m; j++)
        for (int64_t k = 0; k < dim; k++)
            bt[k * m + j] = b[j * dim + k];
    distances(a, bt, m, dim, dist, tmp);
    row[0] = 2.0 * dist[0];
    move[0] = 0;
    for (int64_t j = 1; j < m; j++) {
        row[j] = row[j - 1] + dist[j];
        move[j] = HORIZ;
    }
    for (int64_t i = 1; i < n; i++) {
        double *swap = above;
        above = row;
        row = swap;
        distances(a + i * dim, bt, m, dim, dist, tmp);
        unsigned char *moves = move + i * m;
        row[0] = above[0] + dist[0];
        moves[0] = VERT;
        for (int64_t j = 1; j < m; j++) {
            double c = dist[j];
            double diag = above[j - 1] + 2.0 * c;
            double vert = above[j] + c;
            double horiz = row[j - 1] + c;
            /* Diagonal, else vertical, else horizontal, as the Python
             * recurrence's if/elif/else picks them, NaN included, but
             * chosen without branches. */
            int take_diag = (diag <= vert) & (diag <= horiz);
            int take_vert = vert <= horiz;
            double side = take_vert ? vert : horiz;
            row[j] = take_diag ? diag : side;
            moves[j] = take_diag ? DIAG : take_vert ? VERT : HORIZ;
        }
    }
    *cost = row[m - 1];
    int64_t start = n + m - 1, i = n - 1, j = m - 1;
    for (;;) {
        start--;
        rows[start] = i;
        cols[start] = j;
        unsigned char step = move[i * m + j];
        if (step == DIAG) {
            i--;
            j--;
        } else if (step == VERT) {
            i--;
        } else if (step == HORIZ) {
            j--;
        } else {
            break;
        }
    }
    free(acc);
    free(move);
    return start;
}

/* metric._similarity of the k >= 1 values in u and v, which it overwrites
 * with their deviations from their means. */
static double similarity(double *u, double *v, int64_t k)
{
    static const double one = 1.0;
    double mean_u = pairwise_dot(u, 1, &one, 0, k) / (double)k;
    double mean_v = pairwise_dot(v, 1, &one, 0, k) / (double)k;
    for (int64_t i = 0; i < k; i++) {
        u[i] -= mean_u;
        v[i] -= mean_v;
    }
    double uu = pairwise_dot(u, 1, u, 1, k), vv = pairwise_dot(v, 1, v, 1, k);
    int u_flat = uu / (double)k < DEGENERATE_VARIANCE;
    int v_flat = vv / (double)k < DEGENERATE_VARIANCE;
    if (u_flat && v_flat)
        return 1.0;
    if (u_flat || v_flat)
        return 0.0;
    double r = pairwise_dot(u, 1, v, 1, k) / sqrt(uu * vv);
    /* Python's min(max(r, -1.0), 1.0), which keeps a NaN. */
    r = -1.0 > r ? -1.0 : r;
    return 1.0 < r ? 1.0 : r;
}

/* The p and ir of metric.compute_triplet along the k >= 1 path pairs
 * (rows[i], cols[i]) between bundles a and b of n and m frames. Each
 * bundle holds its pitch, np.log of its pitch, and its stress, one track
 * after another. p correlates log f0 over the pairs whose pitch is not
 * NaN on either side, 0 when fewer than two are, and ir correlates stress
 * over every pair. Writes out[0] = p and out[1] = ir; returns 0, or -1 if
 * scratch memory is short. */
int64_t speechstyle_path_similarity(const int64_t *rows, const int64_t *cols, int64_t k,
                                    const double *a, int64_t n, const double *b, int64_t m,
                                    double *out)
{
    const double *log_pitch_a = a + n, *stress_a = a + 2 * n;
    const double *log_pitch_b = b + m, *stress_b = b + 2 * m;
    double *u = malloc(4 * (size_t)k * sizeof(double));
    if (u == NULL)
        return -1;
    double *v = u + k, *su = v + k, *sv = su + k;
    int64_t voiced = 0;
    for (int64_t i = 0; i < k; i++) {
        if (!isnan(a[rows[i]]) && !isnan(b[cols[i]])) {
            u[voiced] = log_pitch_a[rows[i]];
            v[voiced] = log_pitch_b[cols[i]];
            voiced++;
        }
        su[i] = stress_a[rows[i]];
        sv[i] = stress_b[cols[i]];
    }
    out[0] = voiced < 2 ? 0.0 : similarity(u, v, voiced);
    out[1] = similarity(su, sv, k);
    free(u);
    return 0;
}
