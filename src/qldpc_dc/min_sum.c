/* The iteration loop of normalized min-sum belief propagation (Fossorier,
 * Mihaljevic & Imai, 1999) on a Tanner graph in check-major edge order.
 *
 * It gives bit for bit what bp._run_numpy gives for the same iterations,
 * and no branch of an iteration depends on a message: only the graph's
 * segment lengths steer its loops.  The v2c update is a subtraction and a
 * clip, two selects.  The check update uses only fabs,
 * selects, a sign parity and the product syn_sign * sign * scale * m,
 * which with two factors of +-1 is +-(scale * m), rounded alike either
 * way; the sign is set by flipping the sign bit, which is -x bit for bit.
 * Each check's two smallest magnitudes are kept as two running pairs, one
 * over its even edges and one over its odd edges, merged as
 * min1 = min(a1, b1), min2 = min(max(a1, b1), min(a2, b2)): min and max
 * only select values, so the pair is the check's two smallest with
 * multiplicity, whatever the grouping.
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
 * Edges e in [chk_starts[s], chk_starts[s + 1]) belong to check segment s.
 * The variables are in a stable order by degree: positions k in
 * [var_starts[v], var_starts[v + 1]) of var_perm list the edges of
 * variable var_ids[v], and the variables of degree n end at
 * group_ends[n - 1], n = 1..8.  The last segment of each ends at nnz, and
 * every segment holds at least one edge.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

struct min_sum_graph { /* one per Tanner graph */
    ptrdiff_t nnz, n_chk, n_var;
    const ptrdiff_t *chk_starts, *edge_var;
    const ptrdiff_t *var_starts, *var_ids, *var_perm; /* variables by degree */
    const ptrdiff_t *group_ends;                      /* 8 entries */
};

struct min_sum_state { /* one per decode */
    const struct min_sum_graph *graph;
    const unsigned char *syndrome; /* per check segment: its syndrome bit */
    const double *lam;             /* per column: prior LLR */
    unsigned char *hard;           /* per column: hard decision, 0 or 1 */
    double *total;                 /* per column: posterior LLR */
    double *m_vc, *m_cv;           /* per edge: messages */
    double scale, clamp, total_clamp;
};

/* Selects, so that gcc emits minsd and maxsd; no input here is NaN. */
static inline double min_of(double x, double y)
{
    return x < y ? x : y;
}

static inline double max_of(double x, double y)
{
    return x > y ? x : y;
}

/* x clipped to [-c, c]; for every non-NaN x, +-0.0 included, the value of
 * x > c ? c : x < -c ? -c : x. */
static inline double clip(double x, double c)
{
    x = x > c ? c : x;
    return x < -c ? -c : x;
}

/* x with its sign bit flipped when neg is 1: -x bit for bit. */
static inline double negate_if(double x, int neg)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    bits ^= (uint64_t)neg << 63;
    memcpy(&x, &bits, sizeof x);
    return x;
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

/* One iteration:
 *
 *     m_vc[e]  = clip(total[edge_var[e]] - m_cv[e], clamp)
 *     m_cv[e]  = clip(syn_sign * sign * scale * (|m_vc[e]| == min1 ? min2 : min1), clamp)
 *     total[v] = clip(lam[v] + sum of m_cv over v's edges, total_clamp)
 *     hard[v]  = total[v] <= 0
 *
 * where syn_sign is -1 when the check's syndrome bit is 1, min1 <= min2
 * are the two smallest magnitudes of the check counted with multiplicity
 * (min2 = +inf for a check with one edge), sign is -1 when an odd number
 * of the check's other messages are < 0 (so -0.0 counts as positive), and
 * only variables with edges are written.
 */
static void iterate(const struct min_sum_state *d)
{
    /* locals, so that stores through the message pointers reload nothing */
    const struct min_sum_graph *g = d->graph;
    const ptrdiff_t nnz = g->nnz, n_chk = g->n_chk, n_var = g->n_var;
    const ptrdiff_t *restrict chk_starts = g->chk_starts, *restrict edge_var = g->edge_var;
    const ptrdiff_t *restrict var_starts = g->var_starts, *restrict var_ids = g->var_ids;
    const ptrdiff_t *restrict var_perm = g->var_perm, *restrict ends = g->group_ends;
    const unsigned char *restrict syndrome = d->syndrome;
    const double *restrict lam = d->lam;
    unsigned char *restrict hard = d->hard;
    double *restrict total = d->total, *restrict m_vc = d->m_vc, *restrict m_cv = d->m_cv;
    const double scale = d->scale, clamp = d->clamp, total_clamp = d->total_clamp;

    for (ptrdiff_t s = 0; s < n_chk; s++) {
        ptrdiff_t lo = chk_starts[s];
        ptrdiff_t hi = s + 1 < n_chk ? chk_starts[s + 1] : nnz;
        /* the two smallest magnitudes over the even (a) and odd (b) edges */
        double a1 = INFINITY, a2 = INFINITY, b1 = INFINITY, b2 = INFINITY;
        int neg = syndrome[s];
        ptrdiff_t e = lo;
        for (; e + 1 < hi; e += 2) {
            double v = clip(total[edge_var[e]] - m_cv[e], clamp);
            double w = clip(total[edge_var[e + 1]] - m_cv[e + 1], clamp);
            double a = fabs(v), b = fabs(w);
            m_vc[e] = v;
            m_vc[e + 1] = w;
            neg ^= (v < 0.0) ^ (w < 0.0);
            a2 = min_of(max_of(a, a1), a2);
            a1 = min_of(a, a1);
            b2 = min_of(max_of(b, b1), b2);
            b1 = min_of(b, b1);
        }
        if (e < hi) {
            double v = clip(total[edge_var[e]] - m_cv[e], clamp);
            double a = fabs(v);
            m_vc[e] = v;
            neg ^= v < 0.0;
            a2 = min_of(max_of(a, a1), a2);
            a1 = min_of(a, a1);
        }
        double min1 = min_of(a1, b1), min2 = min_of(max_of(a1, b1), min_of(a2, b2));
        double out1 = clip(scale * min1, clamp), out2 = clip(scale * min2, clamp);
        for (e = lo; e < hi; e++) {
            double v = m_vc[e];
            m_cv[e] = negate_if(fabs(v) == min1 ? out2 : out1, neg ^ (v < 0.0));
        }
    }
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
