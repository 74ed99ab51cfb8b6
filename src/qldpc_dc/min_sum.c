/* The iteration loops of belief propagation on a Tanner graph: normalized
 * min-sum (Fossorier, Mihaljevic & Imai, 1999) in one call per decode, and
 * product-sum in three calls per iteration around numpy's tanh and
 * arctanh, which stay in numpy because libm's need not round as numpy's do.
 *
 * Both give bit for bit what bp._run_numpy gives for the same iterations,
 * and no branch of a min-sum iteration depends on a message: only the
 * graph's segment lengths steer its loops.
 *
 * The min-sum check pass runs LANES checks at once, one per lane of GCC's
 * vector extensions.  The checks are grouped by degree into blocks of
 * LANES, and the messages of a block lie in slots blk_starts[b] + LANES * i
 * + k: edge i of the check in lane k, so one vector load takes edge i of
 * every check.  The last block of each degree is padded with lanes that
 * run no check: they read column 0 and write only their own slots, which
 * no variable reads, and blk_used[b] counts the lanes of block b that do
 * run a check.  Each lane runs its own check's edges in check-major
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
 * Product-sum keeps its messages check-major, one per edge, with no slot
 * layout: its state has no blocks, and its var_perm lists edges.  The
 * product of a check's tanh values is np.multiply.reduceat's: the first
 * value, times each later one in turn.
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
 * in bp._run_numpy, and the caller keeps it so on entry.  So the syndrome
 * test reads the totals the v2c update gathers anyway: each check XORs
 * total <= 0 over its edges into its syndrome bit, and the test passes
 * when every check ends at 0.  It tests the hard decision left by the
 * iteration before, and when it passes the messages of the iteration are
 * written but the totals and hard bits are not.  The soft output
 * 1 / (1 + exp(t)) is computed once after the loop, in numpy: libm's exp
 * need not round as numpy's does.  The kernel keeps no state between
 * calls.
 *
 * All a call reads is one struct min_sum_state, which bp._Buffers builds
 * per decoder and graph: the graph's sizes and arrays, the decode's buffers
 * and its constants.  Edges e in [chk_bounds[s], chk_bounds[s + 1]) belong
 * to check segment s, of column edge_var[e].  Block b holds the slots
 * [blk_starts[b], blk_starts[b + 1]), a multiple of LANES; its lane k runs
 * check segment blk_chk[LANES * b + k] and slot t reads column slot_var[t].
 * The variables are in a stable order by degree: positions k in
 * [var_bounds[v], var_bounds[v + 1]) of var_perm list the slots of the
 * edges of variable var_ids[v], and the variables of degree n end at
 * group_ends[n - 1], n = 1..8.  Each bounds array ends with the edge
 * count, and every segment holds at least one edge.  LANES comes from the
 * build, -DLANES=8 from bp._CFLAGS, so the Python that lays out the slots
 * and the C that reads them share one value.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#ifndef LANES
#error "LANES, the checks per block, is not defined: build with -DLANES=8"
#endif

struct min_sum_state { /* one per decoder and graph */
    ptrdiff_t n_chk, n_var, n_blk;
    const ptrdiff_t *chk_bounds, *edge_var;           /* check-major edges */
    const ptrdiff_t *blk_starts, *blk_chk, *slot_var; /* blocks of LANES checks */
    const ptrdiff_t *blk_used;                        /* lanes of each block that run a check */
    const ptrdiff_t *var_bounds, *var_ids, *var_perm; /* variables by degree */
    const ptrdiff_t *group_ends;                      /* 8 entries */
    const unsigned char *syndrome; /* per check segment: its syndrome bit */
    const double *lam;             /* per column: prior LLR */
    unsigned char *hard;           /* per column: hard decision, 0 or 1 */
    double *total;                 /* per column: posterior LLR */
    double *m_vc, *m_cv;           /* per slot: messages */
    double scale, clamp, total_clamp, r_max;
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

/* The totals and hard bits of the variables v in [v0, v1) of the degree
 * order, each of degree n <= 8: var_sum's additions in var_sum's order,
 * with n a constant once this is inlined. */
static inline void var_group(const struct min_sum_state *d, ptrdiff_t v0, ptrdiff_t v1,
                             const int n)
{
    if (v0 >= v1)
        return;
    const ptrdiff_t *restrict ids = d->var_ids;
    const ptrdiff_t *restrict idx = d->var_perm + d->var_bounds[v0];
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

/* The variable pass of both variants:
 *
 *     total[v] = clip(lam[v] + sum of m_cv over v's edges, total_clamp)
 *     hard[v]  = total[v] <= 0
 *
 * where only variables with edges are written.
 */
static void var_pass(const struct min_sum_state *d)
{
    const ptrdiff_t n_var = d->n_var;
    const ptrdiff_t *restrict var_bounds = d->var_bounds, *restrict var_ids = d->var_ids;
    const ptrdiff_t *restrict var_perm = d->var_perm, *restrict ends = d->group_ends;
    const double *restrict lam = d->lam, *restrict m_cv = d->m_cv;
    unsigned char *restrict hard = d->hard;
    double *restrict total = d->total;
    const double total_clamp = d->total_clamp;

    var_group(d, 0, ends[0], 1);
    var_group(d, ends[0], ends[1], 2);
    var_group(d, ends[1], ends[2], 3);
    var_group(d, ends[2], ends[3], 4);
    var_group(d, ends[3], ends[4], 5);
    var_group(d, ends[4], ends[5], 6);
    var_group(d, ends[5], ends[6], 7);
    var_group(d, ends[6], ends[7], 8);
    for (ptrdiff_t v = ends[7]; v < n_var; v++) {
        ptrdiff_t lo = var_bounds[v], hi = var_bounds[v + 1];
        ptrdiff_t j = var_ids[v];
        double t = clip(lam[j] + var_sum(m_cv, var_perm + lo, hi - lo), total_clamp);
        total[j] = t;
        hard[j] = t <= 0.0;
    }
}

/* The min-sum check update of every block:
 *
 *     m_vc[t]  = clip(total[slot_var[t]] - m_cv[t], clamp)
 *     m_cv[t]  = clip(syn_sign * sign * scale * (|m_vc[t]| == min1 ? min2 : min1), clamp)
 *
 * where syn_sign is -1 when the check's syndrome bit is 1, min1 <= min2
 * are the two smallest magnitudes of the check counted with multiplicity
 * (min2 = +inf for a check with one edge), and sign is -1 when an odd
 * number of the check's other messages are < 0 (so -0.0 counts as
 * positive).  Returns 1 when the syndrome test of the totals on entry
 * passed: a lane's parity starts from its syndrome bit and takes in
 * total <= 0 of every slot, and only the lanes that run a check count.
 */
static int check_pass(const struct min_sum_state *d)
{
    /* locals, so that stores through the message pointers reload nothing */
    const ptrdiff_t n_blk = d->n_blk;
    const ptrdiff_t *restrict blk_starts = d->blk_starts, *restrict blk_chk = d->blk_chk;
    const ptrdiff_t *restrict blk_used = d->blk_used, *restrict slot_var = d->slot_var;
    const unsigned char *restrict syndrome = d->syndrome;
    const double *restrict total = d->total;
    double *restrict m_vc = d->m_vc, *restrict m_cv = d->m_cv;
    const vdouble scale = splat(d->scale), clamp = splat(d->clamp), zero = splat(0.0);
    vmask lane = {0}, failed = {0};
    for (int k = 0; k < LANES; k++)
        lane[k] = k;

    for (ptrdiff_t b = 0; b < n_blk; b++) {
        const ptrdiff_t lo = blk_starts[b], hi = blk_starts[b + 1];
        vdouble min1 = splat(INFINITY), min2 = min1;
        vmask neg = {0}, used = {0};
        for (int k = 0; k < LANES; k++) {
            neg[k] = -(int64_t)syndrome[blk_chk[LANES * b + k]];
            used[k] = blk_used[b];
        }
        vmask parity = neg;
        for (ptrdiff_t t = lo; t < hi; t += LANES) {
            vdouble v = {0};
            for (int k = 0; k < LANES; k++)
                v[k] = total[slot_var[t + k]];
            parity ^= (vmask)(v <= zero);
            v = vclip(v - load(m_cv + t), clamp);
            store(m_vc + t, v);
            neg ^= (vmask)(v < zero);
            vdouble a = vabs(v);
            min2 = vmin(vmax(a, min1), min2);
            min1 = vmin(a, min1);
        }
        failed |= parity & (vmask)(lane < used);
        vdouble out1 = vclip(scale * min1, clamp), out2 = vclip(scale * min2, clamp);
        for (ptrdiff_t t = lo; t < hi; t += LANES) {
            vdouble v = load(m_vc + t);
            vdouble m = select((vmask)(vabs(v) == min1), out2, out1);
            store(m_cv + t, negate_if(m, neg ^ (vmask)(v < zero)));
        }
    }
    int64_t any = 0;
    for (int k = 0; k < LANES; k++)
        any |= failed[k];
    return any == 0;
}

/* Run min-sum iterations 1 to max_iter (max_iter >= 1).  With test set,
 * each iteration's check pass tests the hard decision left by the one
 * before it.
 *
 * Returns -it when that test passed in iteration it (the iteration's
 * messages are written then, its totals and hard bits are not), else
 * max_iter.
 */
ptrdiff_t min_sum_decode(const struct min_sum_state *d, ptrdiff_t max_iter, int test)
{
    for (ptrdiff_t it = 1; it <= max_iter; it++) {
        if (check_pass(d) && test)
            return -it;
        var_pass(d);
    }
    return max_iter;
}

/* The first call of a product-sum iteration: for every edge e
 *
 *     m_vc[e] = 0.5 * clip(total[edge_var[e]] - m_cv[e], clamp)
 *
 * which numpy's tanh then takes in place.  Returns 1 when the syndrome
 * test of the totals on entry passed.
 */
int product_sum_v2c(const struct min_sum_state *d)
{
    const ptrdiff_t n_chk = d->n_chk;
    const ptrdiff_t *restrict chk_bounds = d->chk_bounds, *restrict edge_var = d->edge_var;
    const unsigned char *restrict syndrome = d->syndrome;
    const double *restrict total = d->total, *restrict m_cv = d->m_cv;
    double *restrict x = d->m_vc;
    const double clamp = d->clamp;
    int failed = 0;

    for (ptrdiff_t s = 0, e = 0; s < n_chk; s++) {
        int parity = syndrome[s];
        for (const ptrdiff_t hi = chk_bounds[s + 1]; e < hi; e++) {
            const double t = total[edge_var[e]];
            parity ^= t <= 0.0;
            x[e] = 0.5 * clip(t - m_cv[e], clamp);
        }
        failed |= parity;
    }
    return !failed;
}

/* The second call, on the tanh values t in m_vc: per check, the product
 * of its values with each 0.0 read as 1.0, in np.multiply.reduceat's
 * order, and the count of its zeros; then, in place of each t, the
 * extrinsic product
 *
 *     r = zeros == 0 ? prod / t : t == 0 && zeros == 1 ? prod : 0
 *
 * as y = clip(syn_sign * r, r_max), which numpy's arctanh then takes in
 * place.
 */
void product_sum_check(const struct min_sum_state *d)
{
    const ptrdiff_t n_chk = d->n_chk;
    const ptrdiff_t *restrict chk_bounds = d->chk_bounds;
    const unsigned char *restrict syndrome = d->syndrome;
    double *restrict m = d->m_vc;
    const double r_max = d->r_max;

    for (ptrdiff_t s = 0; s < n_chk; s++) {
        const ptrdiff_t lo = chk_bounds[s], hi = chk_bounds[s + 1];
        double prod = m[lo] == 0.0 ? 1.0 : m[lo];
        ptrdiff_t zeros = m[lo] == 0.0;
        for (ptrdiff_t e = lo + 1; e < hi; e++) {
            zeros += m[e] == 0.0;
            prod *= m[e] == 0.0 ? 1.0 : m[e];
        }
        const double syn_sign = syndrome[s] ? -1.0 : 1.0;
        for (ptrdiff_t e = lo; e < hi; e++) {
            const double t = m[e];
            const double r = zeros == 0 ? prod / t : t == 0.0 && zeros == 1 ? prod : 0.0;
            m[e] = clip(r * syn_sign, r_max);
        }
    }
}

/* The third call, on the arctanh values y in m_vc: for every edge e
 *
 *     m_cv[e] = clip(2.0 * y[e], clamp)
 *
 * then the variable pass.
 */
void product_sum_c2v(const struct min_sum_state *d)
{
    const ptrdiff_t nnz = d->chk_bounds[d->n_chk];
    const double *restrict y = d->m_vc;
    double *restrict m_cv = d->m_cv;
    const double clamp = d->clamp;

    for (ptrdiff_t e = 0; e < nnz; e++)
        m_cv[e] = clip(2.0 * y[e], clamp);
    var_pass(d);
}
