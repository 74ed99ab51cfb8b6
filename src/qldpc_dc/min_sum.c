/* The iteration loop of normalized min-sum belief propagation (Fossorier,
 * Mihaljevic & Imai, 1999) on a Tanner graph.
 *
 * It gives bit for bit what bp._run_numpy gives for the same iterations,
 * and no branch of an iteration depends on a message: only the graph's
 * segment lengths steer its loops.
 *
 * The check pass runs LANES checks at once, one per lane of GCC's vector
 * extensions.  The checks are grouped by degree into blocks of LANES, and
 * the messages of a block lie in slots blk_starts[b] + LANES * i + k: edge
 * i of the check in lane k, so one vector load takes edge i of every
 * check.  The last block of each degree is padded with lanes that run no
 * check: they read column 0 and write only their own slots, which no
 * variable reads.  Each lane runs its own check's edges in check-major
 * order, and every vector operation is the scalar one per lane, with no
 * merge across lanes and no scalar tail: the v2c update is a subtraction
 * and a clip, two selects; the two smallest magnitudes are kept with
 * multiplicity as min2 = min(max(a, min1), min2), min1 = min(a, min1) (min
 * and max only select values); the sign parity is an XOR; and the output
 * is syn_sign * sign * scale * m, which with two factors of +-1 is
 * +-(scale * m), rounded alike either way, the sign set by flipping the
 * sign bit, which is -x bit for bit.  Selects are bitwise blends of the
 * comparisons' masks, so each lane gets the bits the scalar x < y ? x : y
 * gives.  Without -march=native the compiler lowers the same operations
 * to narrower vectors, with the same bits.
 *
 * The posterior sum over a variable's edges repeats np.add.reduceat's
 * order exactly: the first term plus numpy's pairwise_sum of the others
 * (see var_sum).  pairwise_sum adds fewer than 8 terms one after the
 * other from -0.0, so for a variable of degree n <= 8 the sum is the
 * first term plus the other n - 1 added in order, and -0.0 + x is x.
 * The variables are walked grouped by degree, one loop per degree 1 to 8
 * with its trip count known at compile time; degrees 9 and up take
 * var_sum.  Build with -ffp-contract=off and without -ffast-math, so the
 * compiler neither fuses nor reorders the arithmetic; -O3 -march=native
 * keep both.
 *
 * The hard bit of a column is the sign of its posterior LLR, total <= 0, as
 * in bp._run_numpy, so a decode runs from its first iteration to
 * convergence or max_iter in one call.  The soft output 1 / (1 + exp(t))
 * is computed once after the loop, in numpy: libm's exp need not round as
 * numpy's does.  The kernel keeps no state between calls.
 *
 * The syndrome test reads the check-major edges: edges e in
 * [chk_starts[s], chk_starts[s + 1]) belong to check segment s, of column
 * edge_var[e].  Block b holds the slots [blk_starts[b], blk_starts[b + 1]),
 * a multiple of LANES; its lane k runs check segment blk_chk[LANES * b + k]
 * and slot t reads column slot_var[t].  The variables are in a stable order
 * by degree: positions k in [var_starts[v], var_starts[v + 1]) of var_perm
 * list the slots of the edges of variable var_ids[v], and the variables of
 * degree n end at group_ends[n - 1], n = 1..8.  The last segment of each
 * ends at nnz, and every segment holds at least one edge.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define LANES 8 /* checks per block; bp._lanes reads this line */

struct min_sum_graph { /* one per Tanner graph */
    ptrdiff_t nnz, n_chk, n_var, n_blk;
    const ptrdiff_t *chk_starts, *edge_var;           /* check-major edges */
    const ptrdiff_t *blk_starts, *blk_chk, *slot_var; /* blocks of LANES checks */
    const ptrdiff_t *var_starts, *var_ids, *var_perm; /* variables by degree */
    const ptrdiff_t *group_ends;                      /* 8 entries */
};

struct min_sum_state { /* one per decode */
    const struct min_sum_graph *graph;
    const unsigned char *syndrome; /* per check segment: its syndrome bit */
    const double *lam;             /* per column: prior LLR */
    unsigned char *hard;           /* per column: hard decision, 0 or 1 */
    double *total;                 /* per column: posterior LLR */
    double *m_vc, *m_cv;           /* per slot: messages */
    double scale, clamp, total_clamp;
};

/* x clipped to [-c, c]; for every non-NaN x, +-0.0 included, the value of
 * x > c ? c : x < -c ? -c : x. */
static inline double clip(double x, double c)
{
    x = x > c ? c : x;
    return x < -c ? -c : x;
}

/* Every function below that takes or returns a vector is static, so no
 * vector crosses the library's ABI, whatever the target's vector width. */
#pragma GCC diagnostic ignored "-Wpsabi"

/* LANES doubles, and LANES 64-bit masks of all ones (true) or zeros, as the
 * comparisons of two vdoubles give them; casts between the two reinterpret
 * the bits. */
typedef double vdouble __attribute__((vector_size(LANES * sizeof(double))));
typedef int64_t vmask __attribute__((vector_size(LANES * sizeof(int64_t))));

static inline vdouble splat(double x)
{
    vdouble v = {0};
    for (int k = 0; k < LANES; k++)
        v[k] = x;
    return v;
}

/* Unaligned loads and stores of LANES consecutive doubles. */
static inline vdouble load(const double *p)
{
    vdouble v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, vdouble v)
{
    memcpy(p, &v, sizeof v);
}

/* Lane k of x where mask lane k is true, else lane k of y: the bits of one
 * or the other, as the scalar c ? x : y selects them. */
static inline vdouble select(vmask mask, vdouble x, vdouble y)
{
    return (vdouble)((mask & (vmask)x) | (~mask & (vmask)y));
}

/* Per lane: x < y ? x : y, x > y ? x : y and the scalar clip above; no
 * input here is NaN. */
static inline vdouble vmin(vdouble x, vdouble y)
{
    return select((vmask)(x < y), x, y);
}

static inline vdouble vmax(vdouble x, vdouble y)
{
    return select((vmask)(x > y), x, y);
}

static inline vdouble vclip(vdouble x, vdouble c)
{
    x = select((vmask)(x > c), c, x);
    return select((vmask)(x < -c), -c, x);
}

/* fabs per lane, and x with its sign bit flipped where neg is true (-x bit
 * for bit): both touch only the sign bit. */
static inline vdouble vabs(vdouble x)
{
    return (vdouble)((vmask)x & INT64_MAX);
}

static inline vdouble negate_if(vdouble x, vmask neg)
{
    return (vdouble)((vmask)x ^ (neg & INT64_MIN));
}

/* numpy's pairwise_sum over m[idx[0..n-1]], n >= 1: sequential from -0.0
 * below 8 terms; eight accumulators and the tail up to 128; halves above. */
static double pairwise(const double *m, const ptrdiff_t *idx, ptrdiff_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (ptrdiff_t i = 0; i < n; i++)
            res += m[idx[i]];
        return res;
    }
    if (n <= 128) {
        double r[8];
        ptrdiff_t i;
        for (int j = 0; j < 8; j++)
            r[j] = m[idx[j]];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += m[idx[i + j]];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += m[idx[i]];
        return res;
    }
    ptrdiff_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(m, idx, n2) + pairwise(m, idx + n2, n - n2);
}

/* np.add.reduceat's segment sum: its first term alone, else the first
 * term plus the pairwise sum of the rest. */
static double var_sum(const double *m, const ptrdiff_t *idx, ptrdiff_t n)
{
    return n == 1 ? m[idx[0]] : m[idx[0]] + pairwise(m, idx + 1, n - 1);
}

/* 1 when every check's parity of hard bits equals its syndrome bit. */
static int syndrome_ok(const struct min_sum_state *d)
{
    const struct min_sum_graph *g = d->graph;
    for (ptrdiff_t s = 0; s < g->n_chk; s++) {
        ptrdiff_t lo = g->chk_starts[s];
        ptrdiff_t hi = s + 1 < g->n_chk ? g->chk_starts[s + 1] : g->nnz;
        int parity = d->syndrome[s];
        for (ptrdiff_t e = lo; e < hi; e++)
            parity ^= d->hard[g->edge_var[e]];
        if (parity)
            return 0;
    }
    return 1;
}

/* The totals and hard bits of the variables v in [v0, v1) of the degree
 * order, each of degree n <= 8: var_sum's additions in var_sum's order,
 * with n a constant once this is inlined. */
static inline void var_group(const struct min_sum_state *d, ptrdiff_t v0, ptrdiff_t v1,
                             const int n)
{
    if (v0 >= v1)
        return;
    const struct min_sum_graph *g = d->graph;
    const ptrdiff_t *restrict ids = g->var_ids;
    const ptrdiff_t *restrict idx = g->var_perm + g->var_starts[v0];
    const double *restrict m = d->m_cv, *restrict lam = d->lam;
    unsigned char *restrict hard = d->hard;
    double *restrict total = d->total;
    const double total_clamp = d->total_clamp;

    for (ptrdiff_t v = v0; v < v1; v++, idx += n) {
        double sum = m[idx[0]];
        if (n > 1) {
            double rest = m[idx[1]];
            for (int i = 2; i < n; i++)
                rest += m[idx[i]];
            sum += rest;
        }
        ptrdiff_t j = ids[v];
        double t = clip(lam[j] + sum, total_clamp);
        total[j] = t;
        hard[j] = t <= 0.0;
    }
}

/* The check update of every block:
 *
 *     m_vc[t]  = clip(total[slot_var[t]] - m_cv[t], clamp)
 *     m_cv[t]  = clip(syn_sign * sign * scale * (|m_vc[t]| == min1 ? min2 : min1), clamp)
 *
 * where syn_sign is -1 when the check's syndrome bit is 1, min1 <= min2
 * are the two smallest magnitudes of the check counted with multiplicity
 * (min2 = +inf for a check with one edge), and sign is -1 when an odd
 * number of the check's other messages are < 0 (so -0.0 counts as
 * positive).
 */
static void check_pass(const struct min_sum_state *d)
{
    /* locals, so that stores through the message pointers reload nothing */
    const struct min_sum_graph *g = d->graph;
    const ptrdiff_t n_blk = g->n_blk;
    const ptrdiff_t *restrict blk_starts = g->blk_starts, *restrict blk_chk = g->blk_chk;
    const ptrdiff_t *restrict slot_var = g->slot_var;
    const unsigned char *restrict syndrome = d->syndrome;
    const double *restrict total = d->total;
    double *restrict m_vc = d->m_vc, *restrict m_cv = d->m_cv;
    const vdouble scale = splat(d->scale), clamp = splat(d->clamp), zero = splat(0.0);

    for (ptrdiff_t b = 0; b < n_blk; b++) {
        const ptrdiff_t lo = blk_starts[b], hi = blk_starts[b + 1];
        vdouble min1 = splat(INFINITY), min2 = min1;
        vmask neg = {0};
        for (int k = 0; k < LANES; k++)
            neg[k] = -(int64_t)syndrome[blk_chk[LANES * b + k]];
        for (ptrdiff_t t = lo; t < hi; t += LANES) {
            vdouble v = {0};
            for (int k = 0; k < LANES; k++)
                v[k] = total[slot_var[t + k]];
            v = vclip(v - load(m_cv + t), clamp);
            store(m_vc + t, v);
            neg ^= (vmask)(v < zero);
            vdouble a = vabs(v);
            min2 = vmin(vmax(a, min1), min2);
            min1 = vmin(a, min1);
        }
        vdouble out1 = vclip(scale * min1, clamp), out2 = vclip(scale * min2, clamp);
        for (ptrdiff_t t = lo; t < hi; t += LANES) {
            vdouble v = load(m_vc + t);
            vdouble m = select((vmask)(vabs(v) == min1), out2, out1);
            store(m_cv + t, negate_if(m, neg ^ (vmask)(v < zero)));
        }
    }
}

/* One iteration: the check pass, then
 *
 *     total[v] = clip(lam[v] + sum of m_cv over v's edges, total_clamp)
 *     hard[v]  = total[v] <= 0
 *
 * where only variables with edges are written.
 */
static void iterate(const struct min_sum_state *d)
{
    const struct min_sum_graph *g = d->graph;
    const ptrdiff_t nnz = g->nnz, n_var = g->n_var;
    const ptrdiff_t *restrict var_starts = g->var_starts, *restrict var_ids = g->var_ids;
    const ptrdiff_t *restrict var_perm = g->var_perm, *restrict ends = g->group_ends;
    const double *restrict lam = d->lam, *restrict m_cv = d->m_cv;
    unsigned char *restrict hard = d->hard;
    double *restrict total = d->total;
    const double total_clamp = d->total_clamp;

    check_pass(d);
    var_group(d, 0, ends[0], 1);
    var_group(d, ends[0], ends[1], 2);
    var_group(d, ends[1], ends[2], 3);
    var_group(d, ends[2], ends[3], 4);
    var_group(d, ends[3], ends[4], 5);
    var_group(d, ends[4], ends[5], 6);
    var_group(d, ends[5], ends[6], 7);
    var_group(d, ends[6], ends[7], 8);
    for (ptrdiff_t v = ends[7]; v < n_var; v++) {
        ptrdiff_t lo = var_starts[v];
        ptrdiff_t hi = v + 1 < n_var ? var_starts[v + 1] : nnz;
        ptrdiff_t j = var_ids[v];
        double t = clip(lam[j] + var_sum(m_cv, var_perm + lo, hi - lo), total_clamp);
        total[j] = t;
        hard[j] = t <= 0.0;
    }
}

/* Run iterations 1 to max_iter (max_iter >= 1).  With test set, each
 * iteration first tests the hard decision left by the one before it.
 *
 * Returns -it when that test passed before iteration it (nothing is
 * written then), else max_iter.
 */
ptrdiff_t min_sum_decode(const struct min_sum_state *d, ptrdiff_t max_iter, int test)
{
    for (ptrdiff_t it = 1; it <= max_iter; it++) {
        if (test && syndrome_ok(d))
            return -it;
        iterate(d);
    }
    return max_iter;
}
