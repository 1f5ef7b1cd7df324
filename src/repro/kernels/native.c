/* Fused pair loops of two kernel profiles: the U, W and X lists, and S2M
 * and L2T run as an X and a W loop; and the two kernel-independent
 * movement loops of the class-major V list (at the end of the file).
 *
 *   inv_r   a / r                                 (1 component)
 *   kelvin  a delta_ij / r + b d_i d_j / r^3      (3 components; Stokes
 *           with a = b, Navier with a != b; d = target - source)
 *
 * Each loop walks the blocks the execution plan already holds (one target
 * box and the concatenated sources of its partners, repro.core.plan) and,
 * per target box, gathers the partners' box-local coordinates and density
 * components into structure-of-arrays scratch.  Per target it then walks
 * the gathered sources CHUNK at a time: one contiguous SIMD pass for the
 * weights (zero at a coincident pair), then one reduction per right-hand
 * side over them — sum w q for inv_r, whose total is scaled once by a;
 * sum (a q / r + b d (d.q) / r^3) per component for kelvin.  The X loop's
 * targets are a check surface shared by every box, so it runs the other
 * way round: per gathered source, one SIMD pass over the check points.
 *
 *   near_u  partner sources       -> pot[rhs][target][component]
 *   near_w  partner equivalent    -> pot[rhs][target][component]
 *           surfaces, made here from the box centres, one radius per box
 *           and the unit surface grid; the densities are read through a
 *           box and a right-hand-side stride (ue[box][rhs][surface] for W,
 *           de[rhs][box][surface] for L2T, each box its own partner)
 *   near_x  partner sources       -> dc[rhs][box][check point][component]
 *           (S2M: each leaf its own partner, into its level's check rows)
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
 * repro/core/evaluator.py are the oracle of every pair loop, and the
 * numpy fold of native.py that of the movement loops.
 */

#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* Doubles per 64-byte line: scratch rows start on a line. */
#define LANE 8
/* Sources per weight pass: the weights stay in L1 for the sums. */
#define CHUNK 256

enum { INV_R = 0, KELVIN = 1 };

/* A profile: its kind, constants, and components per point. */
typedef struct {
    int64_t kind, dof;
    double a, b;
} Profile;

/* One target box's gathered sources: coordinates and dof * nrhs density
 * rows of stride ld (row r * dof + k: component k of right-hand side r),
 * the weights of one chunk, and one total per component and right-hand
 * side. */
typedef struct {
    int64_t n, ld, nrhs;
    double *x, *y, *z, *q, *w, *acc;
} Gathered;

static Profile profile(int64_t kind, double a, double b)
{
    Profile p = {kind, kind == KELVIN ? 3 : 1, a, b};
    return p;
}

static int64_t round_up(int64_t n) { return (n + LANE - 1) / LANE * LANE; }

static int gathered_alloc(Gathered *g, const Profile *p, int64_t max_n,
                          int64_t nrhs)
{
    const int64_t ld = round_up(max_n > 0 ? max_n : 1);
    const int64_t rows = p->dof * nrhs;
    /* kelvin keeps dx, dy, dz, a / r and b / r^3 of a chunk */
    const int64_t planes = p->kind == KELVIN ? 5 : 1;
    const size_t count =
        (size_t)((3 + rows) * ld + planes * CHUNK + round_up(rows));
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
    g->w = g->q + rows * ld;
    g->acc = g->w + planes * CHUNK;
    return 0;
}

/* out[r * rstride] += a * sum_j q[r][j] / |t - s_j|. */
static void accumulate_inv_r(const Gathered *g, double a, double tx,
                             double ty, double tz, double *out,
                             int64_t rstride)
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
        out[r * rstride] += a * acc[r];
}

/* out[r * rstride + i] += sum_j (a q_i / r + b d_i (d.q) / r^3) over the
 * gathered sources j, d = t - s_j, q the three components of rhs r. */
static void accumulate_kelvin(const Gathered *g, double a, double b,
                              double tx, double ty, double tz, double *out,
                              int64_t rstride)
{
    const double *restrict x = g->x, *restrict y = g->y, *restrict z = g->z;
    double *restrict dxs = g->w, *restrict dys = g->w + CHUNK,
                     *restrict dzs = g->w + 2 * CHUNK,
                     *restrict w1 = g->w + 3 * CHUNK,
                     *restrict w3 = g->w + 4 * CHUNK, *restrict acc = g->acc;
    for (int64_t r = 0; r < 3 * g->nrhs; ++r)
        acc[r] = 0.0;
    for (int64_t j0 = 0; j0 < g->n; j0 += CHUNK) {
        const int64_t m = g->n - j0 < CHUNK ? g->n - j0 : CHUNK;
#pragma omp simd
        for (int64_t j = 0; j < m; ++j) {
            const double dx = tx - x[j0 + j], dy = ty - y[j0 + j],
                         dz = tz - z[j0 + j];
            const double r2 = dx * dx + dy * dy + dz * dz;
            const double inv = r2 > 0.0 ? 1.0 / sqrt(r2) : 0.0;
            dxs[j] = dx;
            dys[j] = dy;
            dzs[j] = dz;
            w1[j] = a * inv;
            w3[j] = b * (inv * inv * inv);
        }
        for (int64_t r = 0; r < g->nrhs; ++r) {
            const double *restrict qx = g->q + 3 * r * g->ld + j0;
            const double *restrict qy = qx + g->ld, *restrict qz = qy + g->ld;
            double sx = 0.0, sy = 0.0, sz = 0.0;
#pragma omp simd reduction(+ : sx, sy, sz)
            for (int64_t j = 0; j < m; ++j) {
                const double s =
                    w3[j] * (dxs[j] * qx[j] + dys[j] * qy[j] + dzs[j] * qz[j]);
                sx += w1[j] * qx[j] + s * dxs[j];
                sy += w1[j] * qy[j] + s * dys[j];
                sz += w1[j] * qz[j] + s * dzs[j];
            }
            acc[3 * r] += sx;
            acc[3 * r + 1] += sy;
            acc[3 * r + 2] += sz;
        }
    }
    for (int64_t r = 0; r < g->nrhs; ++r)
        for (int64_t i = 0; i < 3; ++i)
            out[r * rstride + i] += acc[3 * r + i];
}

/* The profile's potential at the box-local target t, added into out. */
static void accumulate(const Gathered *g, const Profile *p, double tx,
                       double ty, double tz, double *out, int64_t rstride)
{
    if (p->kind == KELVIN)
        accumulate_kelvin(g, p->a, p->b, tx, ty, tz, out, rstride);
    else
        accumulate_inv_r(g, p->a, tx, ty, tz, out, rstride);
}

/* Gather point sources src_pos[lo:hi] relative to the box centre c, with
 * their densities phi[point][component][rhs]. */
static void gather_points(Gathered *g, const Profile *p,
                          const int64_t *src_pos, int64_t lo, int64_t hi,
                          const double *c, const double *sources,
                          const double *phi)
{
    const int64_t rows = p->dof * g->nrhs;
    g->n = hi - lo;
    for (int64_t j = 0; j < g->n; ++j) {
        const int64_t s = src_pos[lo + j];
        g->x[j] = sources[3 * s] - c[0];
        g->y[j] = sources[3 * s + 1] - c[1];
        g->z[j] = sources[3 * s + 2] - c[2];
        for (int64_t k = 0; k < p->dof; ++k)
            for (int64_t r = 0; r < g->nrhs; ++r)
                g->q[(r * p->dof + k) * g->ld + j] =
                    phi[s * rows + k * g->nrhs + r];
    }
}

/* Targets t0..t1 (sorted order) of the box centred at c, into
 * pot[rhs][target][component]. */
static void to_targets(const Gathered *g, const Profile *p,
                       const double *targets, int64_t t0, int64_t t1,
                       const double *c, double *pot, int64_t nt)
{
    for (int64_t t = t0; t < t1; ++t)
        accumulate(g, p, targets[3 * t] - c[0], targets[3 * t + 1] - c[1],
                   targets[3 * t + 2] - c[2], pot + t * p->dof, nt * p->dof);
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
 * phi is (nsources, dof, nrhs), pot (nrhs, nt, dof); centres (nboxes, 3). */
int near_u(int64_t kind, double a, double b, int64_t nblocks,
           const int64_t *boxes, const int64_t *trg_start,
           const int64_t *trg_stop, const int64_t *seg,
           const int64_t *src_pos, const double *centers,
           const double *targets, const double *sources, const double *phi,
           double *pot, int64_t nt, int64_t nrhs)
{
    const Profile p = profile(kind, a, b);
    Gathered g;
    if (gathered_alloc(&g, &p, max_run(seg, nblocks), nrhs))
        return -1;
    for (int64_t i = 0; i < nblocks; ++i) {
        const double *c = centers + 3 * boxes[i];
        gather_points(&g, &p, src_pos, seg[i], seg[i + 1], c, sources, phi);
        to_targets(&g, &p, targets, trg_start[i], trg_stop[i], c, pot, nt);
    }
    free(g.x);
    return 0;
}

/* W list and L2T: the partner boxes' equivalent densities to potentials.
 * Partner b's surface is centres[b] + radius[b] * grid; component k of
 * surface point s of box b, right-hand side r, is
 * dens[b * box_stride + r * rhs_stride + s * dof + k]; pot (nrhs, nt, dof). */
int near_w(int64_t kind, double a, double b, int64_t nblocks,
           const int64_t *boxes, const int64_t *trg_start,
           const int64_t *trg_stop, const int64_t *seg,
           const int64_t *partners, const double *centers,
           const double *radius, const double *grid, int64_t nsurf,
           const double *targets, const double *dens, int64_t box_stride,
           int64_t rhs_stride, double *pot, int64_t nt, int64_t nrhs)
{
    const Profile p = profile(kind, a, b);
    Gathered g;
    if (gathered_alloc(&g, &p, max_run(seg, nblocks) * nsurf, nrhs))
        return -1;
    for (int64_t i = 0; i < nblocks; ++i) {
        const double *c = centers + 3 * boxes[i];
        g.n = 0;
        for (int64_t e = seg[i]; e < seg[i + 1]; ++e) {
            const int64_t box = partners[e];
            const double dx = centers[3 * box] - c[0];
            const double dy = centers[3 * box + 1] - c[1];
            const double dz = centers[3 * box + 2] - c[2];
            const double rad = radius[box];
            const double *d = dens + box * box_stride;
            for (int64_t s = 0; s < nsurf; ++s, ++g.n) {
                g.x[g.n] = dx + rad * grid[3 * s];
                g.y[g.n] = dy + rad * grid[3 * s + 1];
                g.z[g.n] = dz + rad * grid[3 * s + 2];
                for (int64_t k = 0; k < p.dof; ++k)
                    for (int64_t r = 0; r < nrhs; ++r)
                        g.q[(r * p.dof + k) * g.ld + g.n] =
                            d[r * rhs_stride + s * p.dof + k];
            }
        }
        to_targets(&g, &p, targets, trg_start[i], trg_stop[i], c, pot, nt);
    }
    free(g.x);
    return 0;
}

/* The gathered sources to every point of a box's check surface (cx, cy,
 * cz; ns points), one source at a time: one SIMD pass over the check
 * points for the weights (kelvin: also the differences; planes of
 * stride ld in w), then one update of every check point's sums per
 * right-hand side — acc row r * dof + k, stride ld.  Each sum runs over
 * the sources in gathered order. */
static void to_checks(const Gathered *g, const Profile *p, const double *cx,
                      const double *cy, const double *cz, int64_t ns,
                      int64_t ld, double *w, double *acc)
{
    for (int64_t j = 0; j < g->n; ++j) {
        const double sx = g->x[j], sy = g->y[j], sz = g->z[j];
        if (p->kind == KELVIN) {
            double *restrict dxs = w, *restrict dys = w + ld,
                             *restrict dzs = w + 2 * ld,
                             *restrict w1 = w + 3 * ld,
                             *restrict w3 = w + 4 * ld;
#pragma omp simd
            for (int64_t s = 0; s < ns; ++s) {
                const double dx = cx[s] - sx, dy = cy[s] - sy,
                             dz = cz[s] - sz;
                const double r2 = dx * dx + dy * dy + dz * dz;
                const double inv = r2 > 0.0 ? 1.0 / sqrt(r2) : 0.0;
                dxs[s] = dx;
                dys[s] = dy;
                dzs[s] = dz;
                w1[s] = p->a * inv;
                w3[s] = p->b * (inv * inv * inv);
            }
            for (int64_t r = 0; r < g->nrhs; ++r) {
                const double *q = g->q + 3 * r * g->ld + j;
                const double qx = q[0], qy = q[g->ld], qz = q[2 * g->ld];
                double *restrict ax = acc + 3 * r * ld,
                                 *restrict ay = ax + ld, *restrict az = ay + ld;
#pragma omp simd
                for (int64_t s = 0; s < ns; ++s) {
                    const double t =
                        w3[s] * (dxs[s] * qx + dys[s] * qy + dzs[s] * qz);
                    ax[s] += w1[s] * qx + t * dxs[s];
                    ay[s] += w1[s] * qy + t * dys[s];
                    az[s] += w1[s] * qz + t * dzs[s];
                }
            }
        } else {
            double *restrict wr = w;
#pragma omp simd
            for (int64_t s = 0; s < ns; ++s) {
                const double dx = cx[s] - sx, dy = cy[s] - sy,
                             dz = cz[s] - sz;
                const double r2 = dx * dx + dy * dy + dz * dz;
                wr[s] = r2 > 0.0 ? 1.0 / sqrt(r2) : 0.0;
            }
            for (int64_t r = 0; r < g->nrhs; ++r) {
                const double q = g->q[r * g->ld + j];
                double *restrict ar = acc + r * ld;
#pragma omp simd
                for (int64_t s = 0; s < ns; ++s)
                    ar[s] += wr[s] * q;
            }
        }
    }
}

/* X list and S2M: partner sources to the check potentials of their box.
 * check is the level's box-local check surface (nsurf, 3), the same for
 * every box, so the loop runs per source over the check points
 * (to_checks); dc is (nrhs, nboxes, nsurf, dof). */
int near_x(int64_t kind, double a, double b, int64_t nblocks,
           const int64_t *boxes, const int64_t *seg, const int64_t *src_pos,
           const double *centers, const double *sources, const double *phi,
           const double *check, int64_t nsurf, double *dc, int64_t nboxes,
           int64_t nrhs)
{
    const Profile p = profile(kind, a, b);
    Gathered g;
    if (gathered_alloc(&g, &p, max_run(seg, nblocks), nrhs))
        return -1;
    const int64_t ld = round_up(nsurf), rows = p.dof * nrhs;
    double *cx = aligned_alloc(64, (size_t)((8 + rows) * ld) * sizeof(double));
    if (cx == NULL) {
        free(g.x);
        return -1;
    }
    double *cy = cx + ld, *cz = cy + ld, *w = cz + ld, *acc = w + 5 * ld;
    for (int64_t s = 0; s < nsurf; ++s) {
        cx[s] = check[3 * s];
        cy[s] = check[3 * s + 1];
        cz[s] = check[3 * s + 2];
    }
    /* inv_r sums are scaled once by a, as in accumulate_inv_r */
    const double scale = p.kind == KELVIN ? 1.0 : p.a;
    const int64_t width = nsurf * p.dof;
    for (int64_t i = 0; i < nblocks; ++i) {
        const double *c = centers + 3 * boxes[i];
        double *row = dc + boxes[i] * width;
        gather_points(&g, &p, src_pos, seg[i], seg[i + 1], c, sources, phi);
        for (int64_t e = 0; e < rows * ld; ++e)
            acc[e] = 0.0;
        to_checks(&g, &p, cx, cy, cz, nsurf, ld, w, acc);
        for (int64_t r = 0; r < nrhs; ++r)
            for (int64_t k = 0; k < p.dof; ++k)
                for (int64_t s = 0; s < nsurf; ++s)
                    row[r * nboxes * width + s * p.dof + k] +=
                        scale * acc[(r * p.dof + k) * ld + s];
    }
    free(cx);
    free(g.x);
    return 0;
}

/* The class-major V list reads one M2L operator per symmetry class of the
 * cube, and M2M / L2L read octant 0's operator for every octant; each
 * folds a member's signed surface permutation into its data:
 * M_o = T M_c T^T, so the sources of a member are gathered as src . T and
 * its products scattered back as out . T^T.  A signed
 * permutation is (idx, sgn) over one surface vector of w entries: entry k
 * reads entry idx[k] times sgn[k] (+1 or -1, so every product is exact).
 * With single != 0 the slab (gather) or the products (scatter) are float,
 * the mixed-precision factors' dtype; the source and check rows stay
 * double.
 *
 *   gather_perm       slab[i][k] = sgn[k] * src[rows[i] * ld + idx[k]]
 *   scatter_add_perm  dst[rows[i] * ld + j] += sgn[j] * out[i][idx[j]]
 *
 * Each output entry is one exact product and, for the scatter, one
 * rounded add: the numpy fold's results bit for bit. */
int gather_perm(int64_t n, const int64_t *rows, const double *src,
                int64_t ld, int64_t w, const int64_t *idx, const double *sgn,
                void *slab, int64_t single)
{
    for (int64_t i = 0; i < n; ++i) {
        const double *restrict row = src + rows[i] * ld;
        if (single) {
            float *restrict out = (float *)slab + i * w;
            for (int64_t k = 0; k < w; ++k)
                out[k] = (float)(sgn[k] * row[idx[k]]);
        } else {
            double *restrict out = (double *)slab + i * w;
            for (int64_t k = 0; k < w; ++k)
                out[k] = sgn[k] * row[idx[k]];
        }
    }
    return 0;
}

int scatter_add_perm(int64_t n, const int64_t *rows, const void *out,
                     int64_t single, int64_t w, const int64_t *idx,
                     const double *sgn, double *dst, int64_t ld)
{
    for (int64_t i = 0; i < n; ++i) {
        double *restrict row = dst + rows[i] * ld;
        if (single) {
            const float *restrict o = (const float *)out + i * w;
            for (int64_t j = 0; j < w; ++j)
                row[j] += sgn[j] * (double)o[idx[j]];
        } else {
            const double *restrict o = (const double *)out + i * w;
            for (int64_t j = 0; j < w; ++j)
                row[j] += sgn[j] * o[idx[j]];
        }
    }
    return 0;
}
