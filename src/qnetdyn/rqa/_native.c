/* Recurrence counts per diagonal offset, for qnetdyn.rqa.
 *
 * Built with -ffp-contract=off, so every product and sum is rounded on
 * its own, as numpy's separate multiply and add are: the squared sums
 * equal those of _kernels_py.squared_sums bit for bit.  The function
 * allocates nothing and takes no lock; callers run it on several threads
 * at once, each with its own set of offsets.
 */
#include <stdint.h>

/* Bucket the pairs (t, t + d) for d = first, first + step, ... below n.
 *
 * x holds n points of dim coordinates, row-major.  bounds holds r
 * strictly ascending squared bounds (_kernels_py.squared_bounds).  A pair
 * adds one to out[k * n + d] for the first k whose bound is at least its
 * squared distance; a pair beyond bounds[r - 1] adds nothing.  Only
 * column d of out is written for each offset d, so calls on disjoint
 * offsets never write the same entry.
 */
void radius_bucket_counts(const double *x, int64_t n, int64_t dim,
                          const double *bounds, int64_t r,
                          int64_t first, int64_t step, int64_t *out)
{
    const double top = bounds[r - 1];
    for (int64_t d = first; d < n; d += step) {
        const double *end = x + (n - d) * dim;
        for (const double *a = x, *b = x + d * dim; a < end; a += dim, b += dim) {
            double diff = b[0] - a[0];
            double acc = diff * diff;
            /* a rounded sum of squares never falls below one of its terms */
            if (!(acc <= top))
                continue;
            for (int64_t i = 1; i < dim; i++) {
                diff = b[i] - a[i];
                acc += diff * diff;
            }
            if (!(acc <= top))
                continue;
            int64_t k = 0;
            while (!(acc <= bounds[k]))
                k++;
            out[k * n + d]++;
        }
    }
}
