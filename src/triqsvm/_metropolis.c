/* Metropolis sweeps of the simulated annealer, one chunk of sweeps at a
 * time; the numpy loop in triqsvm/anneal.py is the reference and its
 * arrays are used in place.  Read r runs sweeps first .. first + count - 1
 * of its own anneal; each sweep visits bits 0 .. n-1 in order and flips
 * bit i when its energy change is below -log(u) / beta.
 *
 * On x86-64 CPUs with AVX2 the reads run in lockstep, one read per SIMD
 * lane (8 lanes under AVX-512F, 4 under AVX2), in the numpy loop's order:
 * every step computes flip = sign * (delta < threshold) and applies it to
 * all lanes, so a rejected flip adds the same signed zeros numpy adds.
 * metropolis_lanes() reports the widest width this CPU runs.  The
 * per-read loop serves the reads left over after the last full group of
 * lanes, and CPUs without AVX2, where lockstep was measured slower.  It
 * skips the updates of a rejected flip: numpy adds a signed zero there, a
 * no-op because the running energies and fields start free of negative
 * zeros.
 *
 * IEEE add, multiply, divide and compare round the same in every vector
 * width, and -ffp-contract=off stops multiply-add fusion, so every path
 * gives the numpy loop's bits.  The lockstep state is kept lane-transposed
 * in scratch the caller provides, (4 n + 1) * lanes doubles per thread;
 * the kernel allocates nothing.
 *
 * energies() gives the exact energies of whole states, bit for bit as
 * anneal.energy's cumsum, and uniforms() the reads' uniform draws, bit for
 * bit as numpy's PCG64 Generator.random; it needs a compiler with 128-bit
 * integers. */

#include <stdint.h>
#include <string.h>

#ifndef __SIZEOF_INT128__
#error "the PCG64 draws need a compiler with __uint128_t"
#endif

/* Reads r0 .. reads - 1, one at a time. */
static void per_read(long r0, long reads, long n, long count, long first, long sweeps,
                     const double *diag, const double *coupling, const double *log_u,
                     const double *betas, double *state, double *field, double *running,
                     double *best_energy, double *best_state, double *trace)
{
    for (long r = r0; r < reads; r++) {
        double *x = state + r * n, *f = field + r * n;
        const double *lu = log_u + r * count * n;
        double e = running[r], best = best_energy[r];
        for (long s = 0; s < count; s++) {
            double beta = betas[first + s];
            for (long i = 0; i < n; i++) {
                double sign = 1.0 - 2.0 * x[i];
                double delta = sign * (diag[i] + f[i]);
                if (delta < lu[s * n + i] / beta) {
                    const double *c = coupling + i * n;
                    x[i] += sign;
                    e += delta;
                    for (long j = 0; j < n; j++)
                        f[j] += sign * c[j];
                }
            }
            if (e < best) {
                best = e;
                memcpy(best_state + r * n, x, (size_t)n * sizeof(double));
            }
            trace[r * sweeps + first + s] = best;
        }
        running[r] = e;
        best_energy[r] = best;
    }
}

#if defined(__x86_64__)
/* NAME runs reads 0 .. reads - reads % L in groups of L, lane l of a group
 * holding read g + l, and returns the first read it left.  Scratch holds,
 * one vector per bit, the states x, fields f, best states bx and the
 * current sweep's thresholds t, from the first vector-aligned address.
 * The field update is the hot loop; unrolling it by 4 made the kernel
 * about 1.5x faster at n = 50. */
#define LOCKSTEP(NAME, L, ISA)                                                              \
typedef double NAME##_vec __attribute__((vector_size(8 * (L))));                            \
typedef long long NAME##_bits __attribute__((vector_size(8 * (L))));                        \
__attribute__((target(ISA))) static long NAME(                                              \
    long reads, long n, long count, long first, long sweeps, const double *diag,            \
    const double *coupling, const double *log_u, const double *betas, double *state,        \
    double *field, double *running, double *best_energy, double *best_state,                \
    double *trace, double *scratch)                                                         \
{                                                                                           \
    NAME##_vec *x = (NAME##_vec *)(((uintptr_t)scratch + sizeof(NAME##_vec) - 1)            \
                                   & -(uintptr_t)sizeof(NAME##_vec));                       \
    NAME##_vec *f = x + n, *bx = f + n, *t = bx + n;                                        \
    const NAME##_bits one = (NAME##_bits)((NAME##_vec){0} + 1.0);                           \
    const NAME##_bits magnitude = (NAME##_bits){0} + INT64_MAX;                             \
    long g;                                                                                 \
    for (g = 0; g + (L) <= reads; g += (L)) {                                               \
        NAME##_vec e, best;                                                                 \
        for (long l = 0; l < (L); l++) {                                                    \
            for (long i = 0; i < n; i++) {                                                  \
                x[i][l] = state[(g + l) * n + i];                                           \
                f[i][l] = field[(g + l) * n + i];                                           \
                bx[i][l] = best_state[(g + l) * n + i];                                     \
            }                                                                               \
            e[l] = running[g + l];                                                          \
            best[l] = best_energy[g + l];                                                   \
        }                                                                                   \
        for (long s = 0; s < count; s++) {                                                  \
            double beta = betas[first + s];                                                 \
            for (long l = 0; l < (L); l++)                                                  \
                for (long i = 0; i < n; i++)                                                \
                    t[i][l] = log_u[((g + l) * count + s) * n + i] / beta;                  \
            for (long i = 0; i < n; i++) {                                                  \
                const double *c = coupling + i * n;                                         \
                NAME##_vec sign = 1.0 - 2.0 * x[i];                                         \
                NAME##_vec delta = sign * (diag[i] + f[i]);                                 \
                NAME##_vec flip = sign * (NAME##_vec)((NAME##_bits)(delta < t[i]) & one);   \
                x[i] += flip;                                                               \
                e += delta * (NAME##_vec)((NAME##_bits)flip & magnitude);                   \
                _Pragma("GCC unroll 4")                                                     \
                for (long j = 0; j < n; j++)                                                \
                    f[j] += flip * c[j];                                                    \
            }                                                                               \
            NAME##_bits better = (NAME##_bits)(e < best);                                   \
            best = (NAME##_vec)(((NAME##_bits)e & better) | ((NAME##_bits)best & ~better)); \
            for (long i = 0; i < n; i++)                                                    \
                bx[i] = (NAME##_vec)(((NAME##_bits)x[i] & better)                           \
                                     | ((NAME##_bits)bx[i] & ~better));                     \
            for (long l = 0; l < (L); l++)                                                  \
                trace[(g + l) * sweeps + first + s] = best[l];                              \
        }                                                                                   \
        for (long l = 0; l < (L); l++) {                                                    \
            for (long i = 0; i < n; i++) {                                                  \
                state[(g + l) * n + i] = x[i][l];                                           \
                field[(g + l) * n + i] = f[i][l];                                           \
                best_state[(g + l) * n + i] = bx[i][l];                                     \
            }                                                                               \
            running[g + l] = e[l];                                                          \
            best_energy[g + l] = best[l];                                                   \
        }                                                                                   \
    }                                                                                       \
    return g;                                                                               \
}

LOCKSTEP(lockstep8, 8, "avx512f")
LOCKSTEP(lockstep4, 4, "avx2")
#endif

/* The widest lane count metropolis() runs on this CPU: 8, 4, or 1 for
 * the per-read loop alone. */
long metropolis_lanes(void)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return __builtin_cpu_supports("avx512f") ? 8 : 4;
#endif
    return 1;
}

/* lanes is 1, 4 or 8 and at most metropolis_lanes(); scratch holds
 * (4 n + 1) * lanes doubles. */
void metropolis(long lanes, long reads, long n, long count, long first, long sweeps,
                const double *diag, const double *coupling, const double *log_u,
                const double *betas, double *state, double *field, double *running,
                double *best_energy, double *best_state, double *trace, double *scratch)
{
    long r = 0;
#if defined(__x86_64__)
    if (lanes == 8)
        r = lockstep8(reads, n, count, first, sweeps, diag, coupling, log_u, betas, state,
                      field, running, best_energy, best_state, trace, scratch);
    else if (lanes == 4)
        r = lockstep4(reads, n, count, first, sweeps, diag, coupling, log_u, betas, state,
                      field, running, best_energy, best_state, trace, scratch);
#else
    (void)lanes;
    (void)scratch;
#endif
    per_read(r, reads, n, count, first, sweeps, diag, coupling, log_u, betas, state, field,
             running, best_energy, best_state, trace);
}

/* out[r] = sum_ij q[i n + j] * (x[i] * x[j]) for x = states + r n,
 * accumulated left to right in row-major order from the first term, as
 * np.cumsum does; starting from 0.0 instead would turn a -0.0 total into
 * +0.0. */
void energies(long rows, long n, const double *q, const double *states, double *out)
{
    for (long r = 0; r < rows; r++) {
        const double *x = states + r * n;
        double e = n ? q[0] * (x[0] * x[0]) : 0.0;
        for (long i = 0; i < n; i++)
            for (long j = i ? 0 : 1; j < n; j++)
                e += q[i * n + j] * (x[i] * x[j]);
        out[r] = e;
    }
}

/* Up to 8 PCG64 streams, numpy's: state = state * M + inc mod 2^128, the
 * XSL-RR output of the new state, and next_double = (x >> 11) * 2^-53.
 * Stream s's state is pcg[4 s] (low 64 bits) and pcg[4 s + 1] (high), its
 * increment pcg[4 s + 2] and pcg[4 s + 3]; out[s count + k] is its k-th
 * draw, and its state is advanced past them.  The streams step in turn,
 * so their independent 128-bit multiplies overlap. */
void uniforms(long streams, long count, uint64_t *pcg, double *out)
{
    const __uint128_t multiplier = ((__uint128_t)0x2360ed051fc65da4ULL << 64)
                                   | 0x4385df649fccf645ULL;
    __uint128_t state[8], inc[8];
    for (long s = 0; s < streams; s++) {
        state[s] = ((__uint128_t)pcg[4 * s + 1] << 64) | pcg[4 * s];
        inc[s] = ((__uint128_t)pcg[4 * s + 3] << 64) | pcg[4 * s + 2];
    }
    for (long k = 0; k < count; k++)
        for (long s = 0; s < streams; s++) {
            __uint128_t next = state[s] * multiplier + inc[s];
            uint64_t folded = (uint64_t)(next >> 64) ^ (uint64_t)next;
            unsigned rot = (unsigned)(next >> 122);
            uint64_t x = (folded >> rot) | (folded << ((64 - rot) & 63));
            out[s * count + k] = (double)(x >> 11) * (1.0 / 9007199254740992.0);
            state[s] = next;
        }
    for (long s = 0; s < streams; s++) {
        pcg[4 * s] = (uint64_t)state[s];
        pcg[4 * s + 1] = (uint64_t)(state[s] >> 64);
    }
}
