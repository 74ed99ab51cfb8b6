/* Normalized min-sum check-node update (Fossorier, Mihaljevic & Imai, 1999)
 * over check-major edge segments.
 *
 * It gives bit for bit what bp._min_sum_numpy gives: the update uses only
 * fabs, comparisons, a sign parity and one product of three factors, taken
 * left to right like numpy's, so no result depends on summation order.
 * Build with -ffp-contract=off and without -ffast-math, so the compiler
 * neither fuses nor reorders the multiplications.
 *
 * Edges e in [starts[s], starts[s + 1]) belong to check segment s; the last
 * segment ends at nnz, and every segment holds at least one edge.  For each
 * edge, with min1 <= min2 the two smallest magnitudes of the check counted
 * with multiplicity (min2 = +inf for a check with one edge):
 *
 *     out[e] = syn_sign[e] * sign * scale * (|v_e| == min1 ? min2 : min1)
 *
 * clipped to [-clamp, clamp], where sign is -1 when an odd number of the
 * check's other messages are < 0 (so -0.0 counts as positive).
 */

#include <math.h>
#include <stddef.h>

void min_sum_check_update(const double *m_vc, const double *syn_sign,
                          const ptrdiff_t *starts, ptrdiff_t n_seg,
                          ptrdiff_t nnz, double scale, double clamp,
                          double *out)
{
    for (ptrdiff_t s = 0; s < n_seg; s++) {
        ptrdiff_t lo = starts[s];
        ptrdiff_t hi = s + 1 < n_seg ? starts[s + 1] : nnz;
        double min1 = INFINITY, min2 = INFINITY;
        int neg = 0;
        for (ptrdiff_t e = lo; e < hi; e++) {
            double a = fabs(m_vc[e]);
            neg ^= m_vc[e] < 0.0;
            if (a < min1) {
                min2 = min1;
                min1 = a;
            } else if (a < min2) {
                min2 = a; /* a tie with min1 sets min2 = min1 */
            }
        }
        for (ptrdiff_t e = lo; e < hi; e++) {
            double a = fabs(m_vc[e]);
            double sign = (neg ^ (m_vc[e] < 0.0)) ? -1.0 : 1.0;
            double x = syn_sign[e] * sign * scale * (a == min1 ? min2 : min1);
            if (x > clamp)
                x = clamp;
            else if (x < -clamp)
                x = -clamp;
            out[e] = x;
        }
    }
}
