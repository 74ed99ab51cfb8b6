/* One iteration of normalized min-sum belief propagation (Fossorier,
 * Mihaljevic & Imai, 1999) on a Tanner graph in check-major edge order.
 *
 * It gives bit for bit what bp.BpDecoder's numpy loop gives for the same
 * iteration.  The v2c update is a subtraction and a clip.  The check update
 * uses only fabs, comparisons, a sign parity and the product
 * syn_sign * sign * scale * m, which with two factors of +-1 is
 * +-(scale * m), rounded alike either way.  The posterior sum over a
 * variable's edges repeats np.add.reduceat's order exactly: the first term
 * plus numpy's pairwise_sum of the others (see var_sum).  Build with
 * -ffp-contract=off and without -ffast-math, so the compiler neither fuses
 * nor reorders the arithmetic.  exp, and so the soft output and the hard
 * decision, stays in numpy: libm's exp need not round as numpy's does.
 *
 * Edges e in [chk_starts[s], chk_starts[s + 1]) belong to check segment s,
 * and positions k in [var_starts[v], var_starts[v + 1]) of var_perm list
 * the edges of variable var_ids[v]; the last segment of each ends at nnz,
 * and every segment holds at least one edge.
 */

#include <math.h>
#include <stddef.h>

struct min_sum_graph {
    ptrdiff_t nnz, n_chk, n_var;
    const ptrdiff_t *chk_starts, *edge_var;
    const ptrdiff_t *var_starts, *var_ids, *var_perm;
    const unsigned char *syndrome; /* per check segment: its syndrome bit */
    const double *lam;             /* per column: prior LLR */
    const unsigned char *hard;     /* per column: hard decision, 0 or 1 */
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
static int syndrome_ok(const struct min_sum_graph *g)
{
    for (ptrdiff_t s = 0; s < g->n_chk; s++) {
        ptrdiff_t lo = g->chk_starts[s];
        ptrdiff_t hi = s + 1 < g->n_chk ? g->chk_starts[s + 1] : g->nnz;
        int parity = g->syndrome[s];
        for (ptrdiff_t e = lo; e < hi; e++)
            parity ^= g->hard[g->edge_var[e]];
        if (parity)
            return 0;
    }
    return 1;
}

/* With test set, return 1 and write nothing when the hard decision
 * satisfies every check.  Otherwise run one iteration and return 0:
 *
 *     m_vc[e]  = clip(total[edge_var[e]] - m_cv[e], clamp)
 *     m_cv[e]  = clip(syn_sign * sign * scale * (|m_vc[e]| == min1 ? min2 : min1), clamp)
 *     total[v] = clip(lam[v] + sum of m_cv over v's edges, total_clamp)
 *
 * where syn_sign is -1 when the check's syndrome bit is 1, min1 <= min2
 * are the two smallest magnitudes of the check counted with multiplicity
 * (min2 = +inf for a check with one edge), sign is -1 when an odd number
 * of the check's other messages are < 0 (so -0.0 counts as positive), and
 * only variables with edges are written.
 */
int min_sum_iteration(const struct min_sum_graph *g, int test)
{
    if (test && syndrome_ok(g))
        return 1;
    /* locals, so that stores through the message pointers reload nothing */
    const ptrdiff_t nnz = g->nnz, n_chk = g->n_chk, n_var = g->n_var;
    const ptrdiff_t *restrict chk_starts = g->chk_starts, *restrict edge_var = g->edge_var;
    const ptrdiff_t *restrict var_starts = g->var_starts, *restrict var_ids = g->var_ids;
    const ptrdiff_t *restrict var_perm = g->var_perm;
    const unsigned char *restrict syndrome = g->syndrome;
    const double *restrict lam = g->lam;
    double *restrict total = g->total, *restrict m_vc = g->m_vc, *restrict m_cv = g->m_cv;
    const double scale = g->scale, clamp = g->clamp, total_clamp = g->total_clamp;

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
        total[j] = clip(lam[j] + var_sum(m_cv, var_perm + lo, hi - lo), total_clamp);
    }
    return 0;
}
