/* The per-frame passes of features.py: the power spectra of the cepstra
 * and the f0 track, from power-of-two real FFTs bit-identical to
 * numpy.fft's rfft and irfft, and the mean squares of the stress contour.
 *
 * numpy >= 2.0 computes rfft and irfft with pocketfft's rfftp. For a
 * power-of-two size that runs radix-4 passes, with one radix-2 pass
 * moved to the front of the factor list when the exponent is odd, and
 * takes its twiddles from the sincos_2pibyn table. This file copies
 * those passes, that factor order and that table, operation for
 * operation. Each pass runs on LANES frames at once in GCC vector lanes,
 * so every lane does numpy's scalar IEEE operations in numpy's order.
 * The f0 of each frame is then picked from its autocorrelation with
 * _pitch_batch's operations, and the mean squares are summed in numpy's
 * pairwise order.
 *
 * The passes, below the #else at the end, are compiled once per width by
 * including this file in itself: two lanes for every CPU, and on x86-64
 * GCC and Clang eight lanes in AVX-512 code, which the entry points run
 * when the CPU has AVX-512F. Lanes never mix, so both widths give the
 * same bits. Defining SPEECHSTYLE_NARROW leaves the wide copy out.
 *
 * Build (with _dtw.c): cc -O3 -ffp-contract=off -fno-math-errno -fPIC -shared ... -lm
 * Each thread has its own scratch and nothing else is shared, so threads
 * may call these functions at once.
 */
#ifndef LANES
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) \
    && !defined(SPEECHSTYLE_NARROW)
#define WIDE
#endif

/* A size of 2^62 has 32 factors. */
#define MAX_FACTORS 32

struct plan {
    int64_t n, nf;
    int64_t fct[MAX_FACTORS];
    const double *tw[MAX_FACTORS];
    double *mem;
};

/* pocketfft's sincos_2pibyn::calc for x < n / 2: (cos, sin) of 2 pi x / n
 * from the first octant. make_plan never asks for the second half-turn. */
static void calc(size_t x, size_t n, double ang, double *re, double *im)
{
    x <<= 3;
    if (x < 2 * n) {
        if (x < n) {
            *re = cos((double)x * ang), *im = sin((double)x * ang);
        } else {
            *re = sin((double)(2 * n - x) * ang), *im = cos((double)(2 * n - x) * ang);
        }
    } else {
        x -= 2 * n;
        if (x < n) {
            *re = -sin((double)x * ang), *im = cos((double)x * ang);
        } else {
            *re = -cos((double)(2 * n - x) * ang), *im = sin((double)(2 * n - x) * ang);
        }
    }
}

/* Factors and twiddles of size n, a power of two, as pocketfft's rfftp
 * constructor makes them; returns 0, or -1 if memory is short. */
static int make_plan(struct plan *p, int64_t n)
{
    p->n = n;
    p->nf = 0;
    p->mem = NULL;
    int64_t len = n;
    for (; len % 4 == 0; len >>= 2)
        p->fct[p->nf++] = 4;
    if (len % 2 == 0) {
        /* A lone 2 goes to the front, and the 4 it displaces to the back. */
        p->fct[p->nf] = p->nf > 0 ? 4 : 2;
        p->fct[0] = 2;
        p->nf++;
    }
    size_t words = 0;
    for (int64_t k = 0, l1 = 1; k + 1 < p->nf; l1 *= p->fct[k], k++)
        words += (size_t)(p->fct[k] - 1) * (size_t)(n / (l1 * p->fct[k]) - 1);
    if (words == 0)
        return 0;

    /* The sincos_2pibyn table: twid[idx] = v1[idx & mask] * v2[idx >> shift],
     * built only for the indices below n / 2 that the loop below reads. */
    const long double pi = 3.141592653589793238462643383279502884197L;
    double ang = (double)(0.25L * pi / (long double)n);
    size_t nval = ((size_t)n + 2) / 2, shift = 1;
    while (((size_t)1 << shift) * ((size_t)1 << shift) < nval)
        shift++;
    size_t mask = ((size_t)1 << shift) - 1, n2 = (((size_t)n / 2 - 1) >> shift) + 1;
    double *v1 = malloc(2 * (mask + 1 + n2) * sizeof(double));
    p->mem = malloc(words * sizeof(double));
    if (v1 == NULL || p->mem == NULL) {
        free(v1);
        free(p->mem);
        return -1;
    }
    double *v2t = v1 + 2 * (mask + 1);
    v1[0] = v2t[0] = 1.0;
    v1[1] = v2t[1] = 0.0;
    for (size_t i = 1; i <= mask; i++)
        calc(i, (size_t)n, ang, &v1[2 * i], &v1[2 * i + 1]);
    for (size_t i = 1; i < n2; i++)
        calc(i * (mask + 1), (size_t)n, ang, &v2t[2 * i], &v2t[2 * i + 1]);

    double *ptr = p->mem;
    for (int64_t k = 0, l1 = 1; k + 1 < p->nf; l1 *= p->fct[k], k++) {
        int64_t ip = p->fct[k], ido = n / (l1 * ip);
        p->tw[k] = ptr;
        for (int64_t j = 1; j < ip; j++) {
            for (int64_t i = 1; i <= (ido - 1) / 2; i++) {
                /* Every index here is below n / 2, so no conjugate is taken. */
                size_t idx = (size_t)(j * l1 * i);
                const double *x1 = v1 + 2 * (idx & mask), *x2 = v2t + 2 * (idx >> shift);
                ptr[(j - 1) * (ido - 1) + 2 * i - 2] = x1[0] * x2[0] - x1[1] * x2[1];
                ptr[(j - 1) * (ido - 1) + 2 * i - 1] = x1[0] * x2[1] + x1[1] * x2[0];
            }
        }
        ptr += (ip - 1) * (ido - 1);
    }
    free(v1);
    return 0;
}

#define WA(x, i) wa[(i) + (x) * (ido - 1)]
#define PM(a, b, c, d) { a = c + d; b = c - d; }
/* (a + ib) = conj(c + id) * (e + if) */
#define MULPM(a, b, c, d, e, f) { a = c * e + d * f; b = c * f - d * e; }

/* The name of function f in the copy of width LANES: f_2 or f_8. */
#define NAME(f) NAME_(f, LANES)
#define NAME_(f, lanes) NAME__(f, lanes)
#define NAME__(f, lanes) f##_##lanes

/* One grow-only scratch per thread, freed when the thread exits. */
struct scratch {
    size_t bytes;
    void *mem;
};

static pthread_key_t scratch_key;
static pthread_once_t scratch_once = PTHREAD_ONCE_INIT;
static int scratch_key_made;

static void free_scratch(void *s)
{
    free(((struct scratch *)s)->mem);
    free(s);
}

static void make_scratch_key(void)
{
    scratch_key_made = pthread_key_create(&scratch_key, free_scratch) == 0;
}

/* This thread's scratch, at least bytes long and 64-byte aligned for any
 * vector width, or NULL if memory is short. */
static void *scratch(size_t bytes)
{
    pthread_once(&scratch_once, make_scratch_key);
    if (!scratch_key_made)
        return NULL;
    struct scratch *s = pthread_getspecific(scratch_key);
    if (s == NULL) {
        s = calloc(1, sizeof *s);
        if (s == NULL || pthread_setspecific(scratch_key, s) != 0) {
            free(s);
            return NULL;
        }
    }
    if (s->bytes < bytes) {
        free(s->mem);
        s->bytes = 0;
        if (posix_memalign(&s->mem, 64, bytes) != 0) {
            s->mem = NULL;
            return NULL;
        }
        s->bytes = bytes;
    }
    return s->mem;
}

/* The plan of size n and this thread's scratch for two n-point buffers of
 * frame_bytes per point, or NULL. */
static void *start(struct plan *p, int64_t n, size_t frame_bytes)
{
    if (make_plan(p, n) != 0)
        return NULL;
    void *buf = scratch(2 * (size_t)n * frame_bytes);
    if (buf == NULL)
        free(p->mem);
    return buf;
}

/* _pitch_batch's search band and voicing test: lags lag_min..lag_max
 * (lag_min >= 1, lag_max + 1 < n), f0 clamped to [lowest, highest]. */
struct band {
    int64_t lag_min, lag_max;
    double sample_rate, lowest, highest, threshold;
};

#define LANES 2
#define TARGET
#include "_fft.c"
#undef LANES
#undef TARGET

#ifdef WIDE
#define LANES 8
#define TARGET __attribute__((target("avx512f")))
#include "_fft.c"
#undef LANES
#undef TARGET
#endif

/* The frames below are x[r * row_step + t * col_step] for r < rows and
 * t < len, with len <= n. Each function returns 0, or -1 if scratch
 * memory is short. */

/* The windowed power spectra of _cepstra: with X = rfft(frames * window, n),
 * out is rows x (n/2 + 1), (re * re + im * im) / n per bin. */
int64_t speechstyle_power_spectra(const double *x, int64_t rows, int64_t len, int64_t row_step,
                                  int64_t col_step, const double *window, int64_t n, double *out)
{
#ifdef WIDE
    if (__builtin_cpu_supports("avx512f"))
        return power_spectra_8(x, rows, len, row_step, col_step, window, n, out);
#endif
    return power_spectra_2(x, rows, len, row_step, col_step, window, n, out);
}

/* The f0 track of _pitch_batch, NaN where unvoiced, one value per frame:
 * from the autocorrelation irfft(re * re + im * im, n) * (1 / n), with
 * X = rfft(frames, n), picked in the band that the other arguments give
 * (struct band). */
int64_t speechstyle_pitch(const double *x, int64_t rows, int64_t len, int64_t row_step,
                          int64_t col_step, int64_t n, int64_t lag_min, int64_t lag_max,
                          double sample_rate, double lowest, double highest, double threshold,
                          double *out)
{
    const struct band b = {lag_min, lag_max, sample_rate, lowest, highest, threshold};
#ifdef WIDE
    if (__builtin_cpu_supports("avx512f"))
        return pitch_8(x, rows, len, row_step, col_step, n, &b, out);
#endif
    return pitch_2(x, rows, len, row_step, col_step, n, &b, out);
}

/* numpy's pairwise_sum, which np.add.reduce runs on a contiguous array,
 * over x[i * xstep] * y[i * ystep] for i < n: one running sum below 8
 * values, eight up to 128, and above that two halves split at a multiple
 * of 8. The mean squares below and the path kernel in _dtw.c sum with it;
 * a step of 0 on a 1.0 sums x alone. This and pick below stay out of
 * line: inlined, the two made the cold compile about 0.4 s longer and ran
 * no faster. */
__attribute__((noinline, visibility("hidden"))) double
pairwise_dot(const double *x, int64_t xstep, const double *y, int64_t ystep, int64_t n)
{
    if (n < 8) {
        double sum = 0.0;
        for (int64_t i = 0; i < n; i++)
            sum += x[i * xstep] * y[i * ystep];
        return sum;
    }
    if (n <= 128) {
        double r[8];
        for (int64_t j = 0; j < 8; j++)
            r[j] = x[j * xstep] * y[j * ystep];
        int64_t i = 8;
        for (; i < n - n % 8; i += 8)
            for (int64_t j = 0; j < 8; j++)
                r[j] += x[(i + j) * xstep] * y[(i + j) * ystep];
        double sum = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            sum += x[i * xstep] * y[i * ystep];
        return sum;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_dot(x, xstep, y, ystep, half)
           + pairwise_dot(x + half * xstep, xstep, y + half * ystep, ystep, n - half);
}

/* The mean squares of stress_contour, np.mean(frames ** 2, axis=1), for
 * len >= 1; never short of memory. */
int64_t speechstyle_mean_square(const double *x, int64_t rows, int64_t len, int64_t row_step,
                                int64_t col_step, double *out)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *frame = x + r * row_step;
        out[r] = pairwise_dot(frame, col_step, frame, col_step, len) / (double)len;
    }
    return 0;
}

#else /* LANES: the passes and entry loops of one width */

typedef double NAME(vec) __attribute__((vector_size(8 * LANES)));
#define V NAME(vec)

#define CC(a, b, c) cc[(a) + ido * ((b) + l1 * (c))]
#define CH(a, b, c) ch[(a) + ido * ((b) + cdim * (c))]

TARGET static void NAME(radf2)(int64_t ido, int64_t l1, const V *restrict cc, V *restrict ch,
                               const double *restrict wa)
{
    const int64_t cdim = 2;
    for (int64_t k = 0; k < l1; k++)
        PM(CH(0, 0, k), CH(ido - 1, 1, k), CC(0, k, 0), CC(0, k, 1));
    if ((ido & 1) == 0) {
        for (int64_t k = 0; k < l1; k++) {
            CH(0, 1, k) = -CC(ido - 1, k, 1);
            CH(ido - 1, 0, k) = CC(ido - 1, k, 0);
        }
    }
    if (ido <= 2)
        return;
    for (int64_t k = 0; k < l1; k++) {
        for (int64_t i = 2; i < ido; i += 2) {
            int64_t ic = ido - i;
            V tr2, ti2;
            MULPM(tr2, ti2, WA(0, i - 2), WA(0, i - 1), CC(i - 1, k, 1), CC(i, k, 1));
            PM(CH(i - 1, 0, k), CH(ic - 1, 1, k), CC(i - 1, k, 0), tr2);
            PM(CH(i, 0, k), CH(ic, 1, k), ti2, CC(i, k, 0));
        }
    }
}

TARGET static void NAME(radf4)(int64_t ido, int64_t l1, const V *restrict cc, V *restrict ch,
                               const double *restrict wa)
{
    const int64_t cdim = 4;
    const double hsqt2 = (double)0.707106781186547524400844362104849L;
    for (int64_t k = 0; k < l1; k++) {
        V tr1, tr2;
        PM(tr1, CH(0, 2, k), CC(0, k, 3), CC(0, k, 1));
        PM(tr2, CH(ido - 1, 1, k), CC(0, k, 0), CC(0, k, 2));
        PM(CH(0, 0, k), CH(ido - 1, 3, k), tr2, tr1);
    }
    if ((ido & 1) == 0) {
        for (int64_t k = 0; k < l1; k++) {
            V ti1 = -hsqt2 * (CC(ido - 1, k, 1) + CC(ido - 1, k, 3));
            V tr1 = hsqt2 * (CC(ido - 1, k, 1) - CC(ido - 1, k, 3));
            PM(CH(ido - 1, 0, k), CH(ido - 1, 2, k), CC(ido - 1, k, 0), tr1);
            PM(CH(0, 3, k), CH(0, 1, k), ti1, CC(ido - 1, k, 2));
        }
    }
    if (ido <= 2)
        return;
    for (int64_t k = 0; k < l1; k++) {
        for (int64_t i = 2; i < ido; i += 2) {
            int64_t ic = ido - i;
            V ci2, ci3, ci4, cr2, cr3, cr4, ti1, ti2, ti3, ti4, tr1, tr2, tr3, tr4;
            MULPM(cr2, ci2, WA(0, i - 2), WA(0, i - 1), CC(i - 1, k, 1), CC(i, k, 1));
            MULPM(cr3, ci3, WA(1, i - 2), WA(1, i - 1), CC(i - 1, k, 2), CC(i, k, 2));
            MULPM(cr4, ci4, WA(2, i - 2), WA(2, i - 1), CC(i - 1, k, 3), CC(i, k, 3));
            PM(tr1, tr4, cr4, cr2);
            PM(ti1, ti4, ci2, ci4);
            PM(tr2, tr3, CC(i - 1, k, 0), cr3);
            PM(ti2, ti3, CC(i, k, 0), ci3);
            PM(CH(i - 1, 0, k), CH(ic - 1, 3, k), tr2, tr1);
            PM(CH(i, 0, k), CH(ic, 3, k), ti1, ti2);
            PM(CH(i - 1, 2, k), CH(ic - 1, 1, k), tr3, ti4);
            PM(CH(i, 2, k), CH(ic, 1, k), tr4, ti3);
        }
    }
}

#undef CC
#undef CH
#define CC(a, b, c) cc[(a) + ido * ((b) + cdim * (c))]
#define CH(a, b, c) ch[(a) + ido * ((b) + l1 * (c))]

TARGET static void NAME(radb2)(int64_t ido, int64_t l1, const V *restrict cc, V *restrict ch,
                               const double *restrict wa)
{
    const int64_t cdim = 2;
    for (int64_t k = 0; k < l1; k++)
        PM(CH(0, k, 0), CH(0, k, 1), CC(0, 0, k), CC(ido - 1, 1, k));
    if ((ido & 1) == 0) {
        for (int64_t k = 0; k < l1; k++) {
            CH(ido - 1, k, 0) = 2.0 * CC(ido - 1, 0, k);
            CH(ido - 1, k, 1) = -2.0 * CC(0, 1, k);
        }
    }
    if (ido <= 2)
        return;
    for (int64_t k = 0; k < l1; k++) {
        for (int64_t i = 2; i < ido; i += 2) {
            int64_t ic = ido - i;
            V ti2, tr2;
            PM(CH(i - 1, k, 0), tr2, CC(i - 1, 0, k), CC(ic - 1, 1, k));
            PM(ti2, CH(i, k, 0), CC(i, 0, k), CC(ic, 1, k));
            MULPM(CH(i, k, 1), CH(i - 1, k, 1), WA(0, i - 2), WA(0, i - 1), ti2, tr2);
        }
    }
}

TARGET static void NAME(radb4)(int64_t ido, int64_t l1, const V *restrict cc, V *restrict ch,
                               const double *restrict wa)
{
    const int64_t cdim = 4;
    const double sqrt2 = (double)1.414213562373095048801688724209698L;
    for (int64_t k = 0; k < l1; k++) {
        V tr1, tr2;
        PM(tr2, tr1, CC(0, 0, k), CC(ido - 1, 3, k));
        V tr3 = 2.0 * CC(ido - 1, 1, k);
        V tr4 = 2.0 * CC(0, 2, k);
        PM(CH(0, k, 0), CH(0, k, 2), tr2, tr3);
        PM(CH(0, k, 3), CH(0, k, 1), tr1, tr4);
    }
    if ((ido & 1) == 0) {
        for (int64_t k = 0; k < l1; k++) {
            V tr1, tr2, ti1, ti2;
            PM(ti1, ti2, CC(0, 3, k), CC(0, 1, k));
            PM(tr2, tr1, CC(ido - 1, 0, k), CC(ido - 1, 2, k));
            CH(ido - 1, k, 0) = tr2 + tr2;
            CH(ido - 1, k, 1) = sqrt2 * (tr1 - ti1);
            CH(ido - 1, k, 2) = ti2 + ti2;
            CH(ido - 1, k, 3) = -sqrt2 * (tr1 + ti1);
        }
    }
    if (ido <= 2)
        return;
    for (int64_t k = 0; k < l1; k++) {
        for (int64_t i = 2; i < ido; i += 2) {
            int64_t ic = ido - i;
            V ci2, ci3, ci4, cr2, cr3, cr4, ti1, ti2, ti3, ti4, tr1, tr2, tr3, tr4;
            PM(tr2, tr1, CC(i - 1, 0, k), CC(ic - 1, 3, k));
            PM(ti1, ti2, CC(i, 0, k), CC(ic, 3, k));
            PM(tr4, ti3, CC(i, 2, k), CC(ic, 1, k));
            PM(tr3, ti4, CC(i - 1, 2, k), CC(ic - 1, 1, k));
            PM(CH(i - 1, k, 0), cr3, tr2, tr3);
            PM(CH(i, k, 0), ci3, ti2, ti3);
            PM(cr4, cr2, tr1, tr4);
            PM(ci2, ci4, ti1, ti4);
            MULPM(CH(i, k, 1), CH(i - 1, k, 1), WA(0, i - 2), WA(0, i - 1), ci2, cr2);
            MULPM(CH(i, k, 2), CH(i - 1, k, 2), WA(1, i - 2), WA(1, i - 1), ci3, cr3);
            MULPM(CH(i, k, 3), CH(i - 1, k, 3), WA(2, i - 2), WA(2, i - 1), ci4, cr4);
        }
    }
}

/* rfftp::forward on the n values in c, with ch as scratch: the factors
 * last to first. Returns the buffer that holds the FFTPACK-order result
 * r0, R1, I1, ..., R(n/2) (numpy's forward norm factor is 1). */
TARGET static V *NAME(forward)(const struct plan *p, V *c, V *ch)
{
    for (int64_t k = p->nf - 1, l1 = p->n; k >= 0; k--) {
        int64_t ip = p->fct[k], ido = p->n / l1;
        l1 /= ip;
        if (ip == 4)
            NAME(radf4)(ido, l1, c, ch, p->tw[k]);
        else
            NAME(radf2)(ido, l1, c, ch, p->tw[k]);
        V *t = c;
        c = ch;
        ch = t;
    }
    return c;
}

/* rfftp::backward on the FFTPACK-order values in c, the factors first to
 * last, without the norm factor; returns the buffer holding the result. */
TARGET static V *NAME(backward)(const struct plan *p, V *c, V *ch)
{
    for (int64_t k = 0, l1 = 1; k < p->nf; l1 *= p->fct[k], k++) {
        int64_t ip = p->fct[k], ido = p->n / (ip * l1);
        if (ip == 4)
            NAME(radb4)(ido, l1, c, ch, p->tw[k]);
        else
            NAME(radb2)(ido, l1, c, ch, p->tw[k]);
        V *t = c;
        c = ch;
        ch = t;
    }
    return c;
}

/* Frames r .. r + LANES - 1 of x (frame r again past the last row) side
 * by side in c's lanes: len samples, each times window[t] when a window
 * is given, as numpy multiplies them, then zeros up to n. */
TARGET static void NAME(load)(V *c, const double *x, int64_t r, int64_t rows, int64_t len,
                              int64_t row_step, int64_t col_step, const double *window, int64_t n)
{
    const double *frame[LANES];
    for (int64_t l = 0; l < LANES; l++)
        frame[l] = x + (r + l < rows ? r + l : r) * row_step;
    for (int64_t t = 0; t < len; t++) {
        V v;
        for (int64_t l = 0; l < LANES; l++)
            v[l] = frame[l][t * col_step];
        c[t] = window ? v * window[t] : v;
    }
    for (int64_t t = len; t < n; t++)
        c[t] = (V){0.0};
}

/* Bin k of the forward result r in FFTPACK order, as numpy unpacks it:
 * bins 0 and n/2 get the imaginary part 0. */
TARGET static void NAME(bin)(const V *r, int64_t n, int64_t k, V *re, V *im)
{
    *re = k == 0 ? r[0] : 2 * k == n ? r[n - 1] : r[2 * k - 1];
    *im = k == 0 || 2 * k == n ? (V){0.0} : r[2 * k];
}

/* Lane l of v to out[(r + l) * width + k], for the rows that exist. */
TARGET static void NAME(store)(double *out, int64_t r, int64_t rows, int64_t width, int64_t k, V v)
{
    for (int64_t l = 0; l < LANES && r + l < rows; l++)
        out[(r + l) * width + k] = v[l];
}

TARGET static int64_t NAME(power_spectra)(const double *x, int64_t rows, int64_t len,
                                          int64_t row_step, int64_t col_step,
                                          const double *window, int64_t n, double *out)
{
    struct plan p;
    V *buf = start(&p, n, sizeof(V));
    if (buf == NULL)
        return -1;
    for (int64_t r = 0; r < rows; r += LANES) {
        NAME(load)(buf, x, r, rows, len, row_step, col_step, window, n);
        const V *res = NAME(forward)(&p, buf, buf + n);
        for (int64_t k = 0; k <= n / 2; k++) {
            V re, im;
            NAME(bin)(res, n, k, &re, &im);
            NAME(store)(out, r, rows, n / 2 + 1, k, (re * re + im * im) / (double)n);
        }
    }
    free(p.mem);
    return 0;
}

/* _pitch_batch on lane l of the autocorrelation fct * ac: the first
 * largest value at lags lag_min..lag_max (numpy's argmax picks the first
 * NaN, which no frame voices), voiced when it reaches threshold times a
 * positive lag 0; then the parabola through it and its neighbours moves
 * the lag by at most one at a true peak. Returns f0 clamped to the band,
 * or NaN. Out of line, as pairwise_dot is. */
TARGET __attribute__((noinline)) static double NAME(pick)(const V *ac, int64_t l, double fct,
                                                          const struct band *b)
{
    int64_t lag = b->lag_min;
    double peak = fct * ac[lag][l];
    for (int64_t t = b->lag_min; t <= b->lag_max; t++) {
        double v = fct * ac[t][l];
        if (isnan(v))
            return NAN;
        if (v > peak) {
            peak = v;
            lag = t;
        }
    }
    double r0 = fct * ac[0][l];
    if (!(r0 > 0.0 && peak / r0 >= b->threshold))
        return NAN;
    double left = fct * ac[lag - 1][l], right = fct * ac[lag + 1][l];
    double denom = left - 2.0 * peak + right;
    double offset = 0.5 * (left - right) / denom;
    double refined = denom < 0.0 && fabs(offset) <= 1.0 ? (double)lag + offset : (double)lag;
    double f0 = b->sample_rate / refined;
    f0 = f0 < b->lowest ? b->lowest : f0;
    return f0 > b->highest ? b->highest : f0;
}

TARGET static int64_t NAME(pitch)(const double *x, int64_t rows, int64_t len, int64_t row_step,
                                  int64_t col_step, int64_t n, const struct band *b, double *out)
{
    struct plan p;
    V *buf = start(&p, n, sizeof(V));
    if (buf == NULL)
        return -1;
    const double fct = 1.0 / (double)n;
    for (int64_t r = 0; r < rows; r += LANES) {
        NAME(load)(buf, x, r, rows, len, row_step, col_step, NULL, n);
        V *res = NAME(forward)(&p, buf, buf + n);
        V *power = res == buf ? buf + n : buf;
        /* irfft's FFTPACK input: each bin's power as its real part, 0 as
         * the imaginary part of bins 1..n/2-1. */
        for (int64_t k = 0; k <= n / 2; k++) {
            V re, im;
            NAME(bin)(res, n, k, &re, &im);
            power[k == 0 ? 0 : 2 * k - 1] = re * re + im * im;
            if (k > 0 && 2 * k < n)
                power[2 * k] = (V){0.0};
        }
        const V *ac = NAME(backward)(&p, power, res);
        for (int64_t l = 0; l < LANES && r + l < rows; l++)
            out[r + l] = NAME(pick)(ac, l, fct, b);
    }
    free(p.mem);
    return 0;
}

#undef CC
#undef CH
#undef V
#endif /* LANES */
