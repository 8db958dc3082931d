/* Fused Gray-Scott interior update (paper Listing 2, Eqs. 2-3).
 *
 * One pass over the interior of a ghosted, Fortran-ordered field pair:
 * both 7-point Laplacians, the counter-based splitmix64 noise of
 * repro.gpu.rand, the reaction terms and the store. Every floating-point
 * operation is the one repro.core.stencil.step_numpy performs, in the
 * same order, in double precision, with one rounding at the store, so the
 * two agree bitwise. Build without FMA contraction and without fast-math
 * (-ffp-contract=off), or that guarantee is void.
 *
 * The noise key of cell (i, j, k) is splitmix rounds over seed, step and
 * the global coordinates i, j, k in that order. The first two rounds are
 * per call and the i round is per x-column index, so they are hoisted;
 * two rounds remain per cell.
 *
 * Returns 0, or -1 when the hoisted-hash buffer cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MIX1 0xBF58476D1CE4E5B9ULL
#define MIX2 0x94D049BB133111EBULL

static inline uint64_t splitmix64(uint64_t x)
{
    uint64_t z = x + GOLDEN;
    z = (z ^ (z >> 30)) * MIX1;
    z = (z ^ (z >> 27)) * MIX2;
    return z ^ (z >> 31);
}

static inline double laplacian(double c, double xm, double xp, double ym,
                               double yp, double zm, double zp)
{
    double l = xm + xp + ym + yp + zm + zp - 6.0 * c;
    return l * (1.0 / 6.0);
}

#define DEFINE_GS_STEP(NAME, T)                                               \
int NAME(const T *restrict u, const T *restrict v,                            \
         T *restrict u_new, T *restrict v_new,                                \
         int64_t n0, int64_t n1, int64_t n2,                                  \
         double Du, double Dv, double F, double K, double noise, double dt,   \
         uint64_t seed, uint64_t step,                                        \
         uint64_t g0, uint64_t g1, uint64_t g2)                               \
{                                                                             \
    const int64_t sj = n0, sk = n0 * n1;                                      \
    const double fk = F + K;                                                  \
    uint64_t *hi = malloc((size_t)(n0 > 2 ? n0 - 2 : 1) * sizeof(uint64_t)); \
    if (hi == NULL)                                                           \
        return -1;                                                            \
    const uint64_t hs = splitmix64(splitmix64(0 ^ seed) ^ step);              \
    for (int64_t i = 1; i < n0 - 1; ++i)                                      \
        hi[i - 1] = splitmix64(hs ^ ((uint64_t)(i - 1) + g0));                \
    for (int64_t k = 1; k < n2 - 1; ++k) {                                    \
        const uint64_t gk = (uint64_t)(k - 1) + g2;                           \
        for (int64_t j = 1; j < n1 - 1; ++j) {                                \
            const uint64_t gj = (uint64_t)(j - 1) + g1;                       \
            const int64_t base = j * sj + k * sk;                             \
            for (int64_t i = 1; i < n0 - 1; ++i) {                            \
                const int64_t c = base + i;                                   \
                const double uc = (double)u[c], vc = (double)v[c];            \
                const uint64_t h =                                            \
                    splitmix64(splitmix64(hi[i - 1] ^ gj) ^ gk);              \
                const double r =                                              \
                    (double)(h >> 11) * 0x1p-53 * 2.0 - 1.0;                  \
                const double lu = laplacian(                                  \
                    uc, u[c - 1], u[c + 1], u[c - sj], u[c + sj],             \
                    u[c - sk], u[c + sk]);                                    \
                const double lv = laplacian(                                  \
                    vc, v[c - 1], v[c + 1], v[c - sj], v[c + sj],             \
                    v[c - sk], v[c + sk]);                                    \
                const double reaction = uc * (vc * vc);                       \
                const double du =                                             \
                    Du * lu - reaction + F * (1.0 - uc) + noise * r;          \
                const double dv = Dv * lv + reaction - fk * vc;               \
                u_new[c] = (T)(uc + du * dt);                                 \
                v_new[c] = (T)(vc + dv * dt);                                 \
            }                                                                 \
        }                                                                     \
    }                                                                         \
    free(hi);                                                                 \
    return 0;                                                                 \
}

DEFINE_GS_STEP(gs_step_f64, double)
DEFINE_GS_STEP(gs_step_f32, float)
