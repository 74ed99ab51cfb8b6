/* The iteration loop of normalized min-sum belief propagation (Fossorier,
 * Mihaljevic & Imai, 1999) on a Tanner graph in check-major edge order.
 *
 * It gives bit for bit what bp.BpDecoder's numpy loop gives for the same
 * iterations.  The v2c update is a subtraction and a clip.  The check
 * update uses only fabs, comparisons, a sign parity and the product
 * syn_sign * sign * scale * m, which with two factors of +-1 is
 * +-(scale * m), rounded alike either way.  The posterior sum over a
 * variable's edges repeats np.add.reduceat's order exactly: the first term
 * plus numpy's pairwise_sum of the others (see var_sum).  Build with
 * -ffp-contract=off and without -ffast-math, so the compiler neither fuses
 * nor reorders the arithmetic; -O3 -march=native keep both.
 *
 * The hard bit of a column is the sign of its posterior LLR, total <= 0, as
 * in bp.BpDecoder's numpy loop, so a decode runs from its first iteration
 * to convergence or max_iter in one call.  The soft output 1 / (1 + exp(t))
 * is computed once after the loop, in numpy: libm's exp need not round as
 * numpy's does.
 *
 * Edges e in [chk_starts[s], chk_starts[s + 1]) belong to check segment s,
 * and positions k in [var_starts[v], var_starts[v + 1]) of var_perm list
 * the edges of variable var_ids[v]; the last segment of each ends at nnz,
 * and every segment holds at least one edge.
 */

#include <math.h>
#include <stddef.h>

struct min_sum_graph { /* one per Tanner graph */
    ptrdiff_t nnz, n_chk, n_var;
    const ptrdiff_t *chk_starts, *edge_var;
    const ptrdiff_t *var_starts, *var_ids, *var_perm;
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

static double clip(double x, double c)
{
    return x > c ? c : x < -c ? -c : x;
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
    const ptrdiff_t *restrict var_perm = g->var_perm;
    const unsigned char *restrict syndrome = d->syndrome;
    const double *restrict lam = d->lam;
    unsigned char *restrict hard = d->hard;
    double *restrict total = d->total, *restrict m_vc = d->m_vc, *restrict m_cv = d->m_cv;
    const double scale = d->scale, clamp = d->clamp, total_clamp = d->total_clamp;

    for (ptrdiff_t s = 0; s < n_chk; s++) {
        ptrdiff_t lo = chk_starts[s];
        ptrdiff_t hi = s + 1 < n_chk ? chk_starts[s + 1] : nnz;
        double min1 = INFINITY, min2 = INFINITY;
        int neg = syndrome[s];
        for (ptrdiff_t e = lo; e < hi; e++) {
            double v = clip(total[edge_var[e]] - m_cv[e], clamp);
            double a = fabs(v);
            m_vc[e] = v;
            neg ^= v < 0.0;
            if (a < min1) {
                min2 = min1;
                min1 = a;
            } else if (a < min2) {
                min2 = a; /* a tie with min1 sets min2 = min1 */
            }
        }
        double out1 = clip(scale * min1, clamp), out2 = clip(scale * min2, clamp);
        for (ptrdiff_t e = lo; e < hi; e++) {
            double v = m_vc[e];
            double x = fabs(v) == min1 ? out2 : out1;
            m_cv[e] = (neg ^ (v < 0.0)) ? -x : x;
        }
    }
    for (ptrdiff_t v = 0; v < n_var; v++) {
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
