/* DTW alignment of two feature tracks, bit-identical to metric._align_python.
 *
 * Build: cc -O3 -ffp-contract=off -fno-math-errno -fPIC -shared _dtw.c -lm
 * No -ffast-math: every sum, product and comparison must round exactly as
 * numpy and the Python recurrence do.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

enum { DIAG = 1, VERT = 2, HORIZ = 3 };

/* Sum of (a[k] - b[k])^2 over k < n in numpy's pairwise summation order,
 * so that the result equals ((a - b) ** 2).sum() bit for bit. */
static double sq_dist(const double *a, const double *b, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t k = 0; k < n; k++) {
            double d = a[k] - b[k];
            res += d * d;
        }
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int k = 0; k < 8; k++) {
            double d = a[k] - b[k];
            r[k] = d * d;
        }
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int k = 0; k < 8; k++) {
                double d = a[i + k] - b[i + k];
                r[k] += d * d;
            }
        }
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            double d = a[i] - b[i];
            res += d * d;
        }
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return sq_dist(a, b, n2) + sq_dist(a + n2, b + n2, n - n2);
}

/* a is n x dim, b is m x dim, both C-contiguous. rows and cols need room
 * for n + m - 1 entries. Writes the optimal path's frame pairs in order
 * and its cost; returns the path length, or -1 if scratch memory is short. */
int64_t speechstyle_dtw(const double *a, const double *b, int64_t n, int64_t m, int64_t dim,
                        int64_t *rows, int64_t *cols, double *cost)
{
    double *acc = malloc(2 * (size_t)m * sizeof(double));
    unsigned char *move = malloc((size_t)n * (size_t)m);
    if (acc == NULL || move == NULL) {
        free(acc);
        free(move);
        return -1;
    }
    double *above = acc, *row = acc + m;
    row[0] = 2.0 * sqrt(sq_dist(a, b, dim));
    move[0] = 0;
    for (int64_t j = 1; j < m; j++) {
        row[j] = row[j - 1] + sqrt(sq_dist(a, b + j * dim, dim));
        move[j] = HORIZ;
    }
    for (int64_t i = 1; i < n; i++) {
        double *swap = above;
        above = row;
        row = swap;
        const double *ai = a + i * dim;
        unsigned char *moves = move + i * m;
        row[0] = above[0] + sqrt(sq_dist(ai, b, dim));
        moves[0] = VERT;
        for (int64_t j = 1; j < m; j++) {
            double c = sqrt(sq_dist(ai, b + j * dim, dim));
            double diag = above[j - 1] + 2.0 * c;
            double vert = above[j] + c;
            double horiz = row[j - 1] + c;
            if (diag <= vert && diag <= horiz) {
                row[j] = diag;
                moves[j] = DIAG;
            } else if (vert <= horiz) {
                row[j] = vert;
                moves[j] = VERT;
            } else {
                row[j] = horiz;
                moves[j] = HORIZ;
            }
        }
    }
    *cost = row[m - 1];
    int64_t len = 0, i = n - 1, j = m - 1;
    for (;;) {
        rows[len] = i;
        cols[len] = j;
        len++;
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
    for (int64_t lo = 0, hi = len - 1; lo < hi; lo++, hi--) {
        int64_t t = rows[lo];
        rows[lo] = rows[hi];
        rows[hi] = t;
        t = cols[lo];
        cols[lo] = cols[hi];
        cols[hi] = t;
    }
    free(acc);
    free(move);
    return len;
}
