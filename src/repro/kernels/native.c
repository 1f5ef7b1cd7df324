/* Fused near-field pair loops of the 1/r kernel: the U, W and X lists.
 *
 * Each loop walks the blocks the execution plan already holds (one target
 * box and the concatenated sources of its partners, repro.core.plan) and,
 * per target box, gathers the partners' box-local coordinates and
 * densities into structure-of-arrays scratch.  Per target it then walks
 * the gathered sources CHUNK at a time: one contiguous SIMD pass for the
 * weights 1/r (zero at a coincident pair), then one reduction
 * sum += w * q per right-hand side over them.  Each target's total is
 * scaled once by the kernel constant.
 *
 *   near_u  partner sources       -> pot[rhs][target]
 *   near_w  partner equivalent    -> pot[rhs][target]
 *           surfaces, made here from the box centres, the radius of the
 *           upward equivalent surface and the unit surface grid
 *   near_x  partner sources       -> dc[rhs][box][check point]
 *
 * Every column of a multi-RHS block runs the reductions of the single-RHS
 * apply over the same weights in the same order, so its sums are the
 * single-RHS sums bit for bit.  The code keeps no static state and
 * allocates its scratch per call, so concurrent calls are independent.
 * It must not be built with -ffast-math: the coincident-pair zero and NaN
 * propagation rely on IEEE comparisons and arithmetic.
 *
 * repro/kernels/native.py builds, loads and binds this file and checks
 * every index the loops dereference before a call; the numpy stages of
 * repro/core/evaluator.py are the oracle of all three loops.
 */

#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* Doubles per 64-byte line: scratch rows start on a line. */
#define LANE 8
/* Sources per weight pass: 2 KB of weights stay in L1 for the sums. */
#define CHUNK 256

/* One target box's gathered sources: coordinates and nrhs density rows
 * of stride ld, the weights of one chunk, and one total per right-hand
 * side. */
typedef struct {
    int64_t n, ld, nrhs;
    double *x, *y, *z, *q, *w, *acc;
} Gathered;

static int64_t round_up(int64_t n) { return (n + LANE - 1) / LANE * LANE; }

static int gathered_alloc(Gathered *g, int64_t max_n, int64_t nrhs)
{
    const int64_t ld = round_up(max_n > 0 ? max_n : 1);
    const size_t count = (size_t)((3 + nrhs) * ld + CHUNK + round_up(nrhs));
    double *base = aligned_alloc(64, count * sizeof(double));
    if (base == NULL)
        return -1;
    g->n = 0;
    g->ld = ld;
    g->nrhs = nrhs;
    g->x = base;
    g->y = base + ld;
    g->z = base + 2 * ld;
    g->q = base + 3 * ld;
    g->w = g->q + nrhs * ld;
    g->acc = g->w + CHUNK;
    return 0;
}

/* out[r * rstride] += scale * sum_j q[r][j] / |t - s_j| for every
 * right-hand side r, t the box-local target (tx, ty, tz). */
static void accumulate(const Gathered *g, double scale, double tx, double ty,
                       double tz, double *out, int64_t rstride)
{
    const double *restrict x = g->x, *restrict y = g->y, *restrict z = g->z;
    double *restrict w = g->w, *restrict acc = g->acc;
    for (int64_t r = 0; r < g->nrhs; ++r)
        acc[r] = 0.0;
    for (int64_t j0 = 0; j0 < g->n; j0 += CHUNK) {
        const int64_t m = g->n - j0 < CHUNK ? g->n - j0 : CHUNK;
#pragma omp simd
        for (int64_t j = 0; j < m; ++j) {
            const double dx = tx - x[j0 + j], dy = ty - y[j0 + j],
                         dz = tz - z[j0 + j];
            const double r2 = dx * dx + dy * dy + dz * dz;
            w[j] = r2 > 0.0 ? 1.0 / sqrt(r2) : 0.0;
        }
        for (int64_t r = 0; r < g->nrhs; ++r) {
            const double *restrict q = g->q + r * g->ld + j0;
            double sum = 0.0;
#pragma omp simd reduction(+ : sum)
            for (int64_t j = 0; j < m; ++j)
                sum += w[j] * q[j];
            acc[r] += sum;
        }
    }
    for (int64_t r = 0; r < g->nrhs; ++r)
        out[r * rstride] += scale * acc[r];
}

/* Gather point sources src_pos[lo:hi] relative to the box centre c, with
 * their densities phi[point][rhs]. */
static void gather_points(Gathered *g, const int64_t *src_pos, int64_t lo,
                          int64_t hi, const double *c, const double *sources,
                          const double *phi)
{
    g->n = hi - lo;
    for (int64_t j = 0; j < g->n; ++j) {
        const int64_t p = src_pos[lo + j];
        g->x[j] = sources[3 * p] - c[0];
        g->y[j] = sources[3 * p + 1] - c[1];
        g->z[j] = sources[3 * p + 2] - c[2];
        for (int64_t r = 0; r < g->nrhs; ++r)
            g->q[r * g->ld + j] = phi[p * g->nrhs + r];
    }
}

/* Targets t0..t1 (sorted order) of the box centred at c, into pot. */
static void to_targets(const Gathered *g, double scale,
                       const double *targets, int64_t t0, int64_t t1,
                       const double *c, double *pot, int64_t nt)
{
    for (int64_t t = t0; t < t1; ++t)
        accumulate(g, scale, targets[3 * t] - c[0],
                   targets[3 * t + 1] - c[1], targets[3 * t + 2] - c[2],
                   pot + t, nt);
}

static int64_t max_run(const int64_t *seg, int64_t nblocks)
{
    int64_t most = 0;
    for (int64_t i = 0; i < nblocks; ++i)
        if (seg[i + 1] - seg[i] > most)
            most = seg[i + 1] - seg[i];
    return most;
}

/* U list: partner sources straight to potentials.
 * phi is (nsources, nrhs), pot (nrhs, nt); centres (nboxes, 3). */
int near_u(double scale, int64_t nblocks, const int64_t *boxes,
           const int64_t *trg_start, const int64_t *trg_stop,
           const int64_t *seg, const int64_t *src_pos,
           const double *centers, const double *targets,
           const double *sources, const double *phi, double *pot,
           int64_t nt, int64_t nrhs)
{
    Gathered g;
    if (gathered_alloc(&g, max_run(seg, nblocks), nrhs))
        return -1;
    for (int64_t i = 0; i < nblocks; ++i) {
        const double *c = centers + 3 * boxes[i];
        gather_points(&g, src_pos, seg[i], seg[i + 1], c, sources, phi);
        to_targets(&g, scale, targets, trg_start[i], trg_stop[i], c, pot, nt);
    }
    free(g.x);
    return 0;
}

/* W list: the partner boxes' upward equivalent densities to potentials.
 * Partner b's surface is centres[b] + radius[b] * grid; ue is
 * (nboxes, nrhs, nsurf), pot (nrhs, nt). */
int near_w(double scale, int64_t nblocks, const int64_t *boxes,
           const int64_t *trg_start, const int64_t *trg_stop,
           const int64_t *seg, const int64_t *partners,
           const double *centers, const double *radius, const double *grid,
           int64_t nsurf, const double *targets, const double *ue,
           double *pot, int64_t nt, int64_t nrhs)
{
    Gathered g;
    if (gathered_alloc(&g, max_run(seg, nblocks) * nsurf, nrhs))
        return -1;
    for (int64_t i = 0; i < nblocks; ++i) {
        const double *c = centers + 3 * boxes[i];
        g.n = 0;
        for (int64_t e = seg[i]; e < seg[i + 1]; ++e) {
            const int64_t b = partners[e];
            const double dx = centers[3 * b] - c[0];
            const double dy = centers[3 * b + 1] - c[1];
            const double dz = centers[3 * b + 2] - c[2];
            const double rad = radius[b];
            for (int64_t s = 0; s < nsurf; ++s, ++g.n) {
                g.x[g.n] = dx + rad * grid[3 * s];
                g.y[g.n] = dy + rad * grid[3 * s + 1];
                g.z[g.n] = dz + rad * grid[3 * s + 2];
                for (int64_t r = 0; r < nrhs; ++r)
                    g.q[r * g.ld + g.n] = ue[(b * nrhs + r) * nsurf + s];
            }
        }
        to_targets(&g, scale, targets, trg_start[i], trg_stop[i], c, pot, nt);
    }
    free(g.x);
    return 0;
}

/* X list: partner sources to the downward check potentials of their box.
 * check is the level's box-local check surface (nsurf, 3); dc is
 * (nrhs, nboxes, nsurf). */
int near_x(double scale, int64_t nblocks, const int64_t *boxes,
           const int64_t *seg, const int64_t *src_pos,
           const double *centers, const double *sources, const double *phi,
           const double *check, int64_t nsurf, double *dc, int64_t nboxes,
           int64_t nrhs)
{
    Gathered g;
    if (gathered_alloc(&g, max_run(seg, nblocks), nrhs))
        return -1;
    for (int64_t i = 0; i < nblocks; ++i) {
        const double *c = centers + 3 * boxes[i];
        double *row = dc + boxes[i] * nsurf;
        gather_points(&g, src_pos, seg[i], seg[i + 1], c, sources, phi);
        for (int64_t s = 0; s < nsurf; ++s)
            accumulate(&g, scale, check[3 * s], check[3 * s + 1],
                       check[3 * s + 2], row + s, nboxes * nsurf);
    }
    free(g.x);
    return 0;
}
