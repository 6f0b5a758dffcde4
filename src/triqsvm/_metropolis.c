/* Metropolis sweeps of the simulated annealer, one chunk of sweeps at a
 * time; the numpy loop in triqsvm/anneal.py is the reference and its
 * arrays are used in place.  Read r runs sweeps first .. first + count - 1
 * of its own anneal; each sweep visits bits 0 .. n-1 in order and flips
 * bit i when its energy change is below log(u) / -beta.  The draws are
 * lane-major: the log(u) of sweep s, bit i and read r is
 * log_u[(s n + i) reads + r], so the reads' thresholds for one step lie
 * side by side.  log(u) / -beta has the bits of -log(u) / beta: IEEE
 * division rounds the magnitude alike and takes the sign of the signs.
 *
 * On x86-64 CPUs with AVX2 the reads run in lockstep, one read per SIMD
 * lane (8 lanes under AVX-512F, 4 under AVX2 with FMA), in the numpy
 * loop's order: every step computes flip = sign * (delta < threshold) and
 * applies it to all lanes, so a rejected flip adds the same signed zeros
 * numpy adds.  metropolis_lanes() reports the widest width this CPU runs.
 * The per-read loop serves the reads left over after the last full group
 * of lanes, and CPUs without AVX2 or FMA; lockstep without wide vectors
 * was measured slower.  It skips the updates of a rejected flip: numpy
 * adds a signed zero there, a no-op because the running energies and
 * fields start free of negative zeros.
 *
 * IEEE add, multiply, divide and compare round the same in every vector
 * width.  The lockstep field update's FMAs are explicit intrinsics whose
 * products are exact (flip is 0 or +-1), so each rounds as numpy's
 * multiply then add; -ffp-contract=off stops the compiler from fusing any
 * other multiply and add.  So every path gives the numpy loop's bits.
 * The lockstep state is kept lane-transposed
 * in scratch the caller provides, (3 n + 1) * lanes doubles per thread;
 * the kernel allocates nothing.
 *
 * energies() gives the exact energies of whole states, bit for bit as
 * anneal.energy's cumsum; uniforms() the reads' uniform draws, bit for
 * bit as numpy's PCG64 Generator.random, 8 streams to one AVX-512 vector
 * where uniforms_lanes() says so; and starts() each read's start bits and
 * stream as default_rng(seed + r).integers(0, 2, n) leaves them.  They
 * need a compiler with 128-bit integers. */

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
        const double *lu = log_u + r;
        double e = running[r], best = best_energy[r];
        for (long s = 0; s < count; s++) {
            double beta = -betas[first + s];
            for (long i = 0; i < n; i++) {
                double sign = 1.0 - 2.0 * x[i];
                double delta = sign * (diag[i] + f[i]);
                if (delta < lu[(s * n + i) * reads] / beta) {
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
#include <immintrin.h>

/* NAME runs reads 0 .. reads - reads % L in groups of L, lane l of a group
 * holding read g + l, and returns the first read it left.  Scratch holds,
 * one vector per bit, the states x, fields f and best states bx, from the
 * first vector-aligned address; each step's thresholds are one unaligned
 * load from the lane-major draws.
 *
 * The field update is the hot loop, and a pass over the fields loads and
 * stores each one, so the bits go in blocks of BLOCK: each bit of a block
 * is decided on its field plus the block's earlier flips, summed as the
 * pass will sum them, and then one pass adds the block's flips to every
 * field, in bit order.  Each field thus sees the numpy loop's additions in
 * its order.  A flip is 0 or +-1, so flip * c is exact and FMA(flip, c, f)
 * rounds as f + flip * c, signed zeros included; SET1 broadcasts c with its
 * sign, which (vec){0} + c would lose on -0.0.  The last n % BLOCK bits
 * are updated one at a time.  At n = 50 blocks of 4 made the 8-lane
 * kernel about 1.3x as fast as one bit a pass; blocks of 2 were no faster
 * there, and blocks of 8 slower (BENCH_39.json). */
#define BLOCK 4
#define LOCKSTEP(NAME, L, ISA, FMA, SET1)                                                   \
typedef double NAME##_vec __attribute__((vector_size(8 * (L))));                            \
typedef long long NAME##_bits __attribute__((vector_size(8 * (L))));                        \
/* Decides bit i in every lane on its field fi, flips it in xi, adds the                    \
 * energy change to e and returns the flip. */                                              \
__attribute__((target(ISA), always_inline)) static inline NAME##_vec NAME##_step(           \
    NAME##_vec *xi, NAME##_vec fi, NAME##_vec *e, double diag, const double *lu, double beta) \
{                                                                                           \
    const NAME##_bits one = (NAME##_bits)((NAME##_vec){0} + 1.0);                           \
    const NAME##_bits magnitude = (NAME##_bits){0} + INT64_MAX;                             \
    NAME##_vec threshold;                                                                   \
    memcpy(&threshold, lu, sizeof threshold);                                               \
    threshold /= beta;                                                                      \
    NAME##_vec sign = 1.0 - 2.0 * *xi;                                                      \
    NAME##_vec delta = sign * (diag + fi);                                                  \
    NAME##_vec flip = sign * (NAME##_vec)((NAME##_bits)(delta < threshold) & one);          \
    *xi += flip;                                                                            \
    *e += delta * (NAME##_vec)((NAME##_bits)flip & magnitude);                              \
    return flip;                                                                            \
}                                                                                           \
__attribute__((target(ISA))) static long NAME(                                              \
    long reads, long n, long count, long first, long sweeps, const double *diag,            \
    const double *coupling, const double *log_u, const double *betas, double *state,        \
    double *field, double *running, double *best_energy, double *best_state,                \
    double *trace, double *scratch)                                                         \
{                                                                                           \
    NAME##_vec *x = (NAME##_vec *)(((uintptr_t)scratch + sizeof(NAME##_vec) - 1)            \
                                   & -(uintptr_t)sizeof(NAME##_vec));                       \
    NAME##_vec *f = x + n, *bx = f + n;                                                     \
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
            double beta = -betas[first + s];                                                \
            const double *lu = log_u + s * n * reads + g;                                   \
            long i;                                                                         \
            for (i = 0; i + BLOCK <= n; i += BLOCK) {                                       \
                const double *c = coupling + i * n;                                         \
                NAME##_vec flip[BLOCK];                                                     \
                for (long k = 0; k < BLOCK; k++) {                                          \
                    NAME##_vec fk = f[i + k];                                               \
                    for (long m = 0; m < k; m++)                                            \
                        fk = FMA(flip[m], SET1(c[m * n + i + k]), fk);                      \
                    flip[k] = NAME##_step(x + i + k, fk, &e, diag[i + k],                   \
                                          lu + (i + k) * reads, beta);                      \
                }                                                                           \
                _Pragma("GCC unroll 2")                                                     \
                for (long j = 0; j < n; j++) {                                              \
                    NAME##_vec fj = f[j];                                                   \
                    for (long m = 0; m < BLOCK; m++)                                        \
                        fj = FMA(flip[m], SET1(c[m * n + j]), fj);                          \
                    f[j] = fj;                                                              \
                }                                                                           \
            }                                                                               \
            for (; i < n; i++) {                                                            \
                const double *c = coupling + i * n;                                         \
                NAME##_vec flip = NAME##_step(x + i, f[i], &e, diag[i], lu + i * reads,     \
                                              beta);                                        \
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

LOCKSTEP(lockstep8, 8, "avx512f", _mm512_fmadd_pd, _mm512_set1_pd)
LOCKSTEP(lockstep4, 4, "avx2,fma", _mm256_fmadd_pd, _mm256_set1_pd)
#endif

/* The widest lane count metropolis() runs on this CPU: 8, 4, or 1 for
 * the per-read loop alone. */
long metropolis_lanes(void)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2")) {
        if (__builtin_cpu_supports("avx512f"))
            return 8;
        if (__builtin_cpu_supports("fma"))
            return 4;
    }
#endif
    return 1;
}

/* lanes is 1, 4 or 8 and at most metropolis_lanes(); scratch holds
 * (3 n + 1) * lanes doubles. */
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

/* numpy's PCG64: the step state = state * M + inc mod 2^128, the XSL-RR
 * output of the new state, and next_double = (x >> 11) * 2^-53.  A stream
 * is four words: state low and high 64 bits, then increment low and high. */
#define PCG_MULTIPLIER (((__uint128_t)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)
#define PCG_DOUBLE (1.0 / 9007199254740992.0)

static uint64_t pcg_output(__uint128_t state)
{
    uint64_t folded = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rot = (unsigned)(state >> 122);
    return (folded >> rot) | (folded << ((64 - rot) & 63));
}

static __uint128_t pcg_word_pair(const uint64_t *words)
{
    return ((__uint128_t)words[1] << 64) | words[0];
}

static void pcg_store(__uint128_t state, __uint128_t inc, uint64_t *words)
{
    words[0] = (uint64_t)state;
    words[1] = (uint64_t)(state >> 64);
    words[2] = (uint64_t)inc;
    words[3] = (uint64_t)(inc >> 64);
}

/* The streams in turn, so their independent 128-bit multiplies overlap. */
static void uniforms_scalar(long streams, long count, uint64_t *pcg, double *out)
{
    __uint128_t state[8], inc[8];
    for (long s = 0; s < streams; s++) {
        state[s] = pcg_word_pair(pcg + 4 * s);
        inc[s] = pcg_word_pair(pcg + 4 * s + 2);
    }
    for (long k = 0; k < count; k++)
        for (long s = 0; s < streams; s++) {
            /* Output from the local: from state[s] it took 2.3x as long. */
            __uint128_t next = state[s] * PCG_MULTIPLIER + inc[s];
            out[k * streams + s] = (double)(pcg_output(next) >> 11) * PCG_DOUBLE;
            state[s] = next;
        }
    for (long s = 0; s < streams; s++)
        pcg_store(state[s], inc[s], pcg + 4 * s);
}

#if defined(__x86_64__)
#define PCG8 __attribute__((target("avx512f,avx512dq")))

/* One 128-bit state per 64-bit lane, as its low and high words. */
typedef struct {
    __m512i lo, hi;
} pcg8_state;

/* s * m + inc mod 2^128 in every lane, from 32-bit products; m[0] .. m[3]
 * are the multiplier's 32-bit words, least significant first.  The low
 * words' full product is l0 m0 + (l1 m0 + l0 m1) 2^32 + l1 m1 2^64, and
 * the cross products hi * m_low + lo * m_high count mod 2^64. */
PCG8 static pcg8_state pcg8_step(pcg8_state s, const __m512i m[4], pcg8_state inc)
{
    const __m512i low = _mm512_set1_epi64(0xffffffff), one = _mm512_set1_epi64(1);
    __m512i l1 = _mm512_srli_epi64(s.lo, 32), h1 = _mm512_srli_epi64(s.hi, 32);
    __m512i t = _mm512_mul_epu32(s.lo, m[0]);
    __m512i u = _mm512_add_epi64(_mm512_mul_epu32(l1, m[0]), _mm512_srli_epi64(t, 32));
    __m512i w = _mm512_add_epi64(_mm512_mul_epu32(s.lo, m[1]), _mm512_and_si512(u, low));
    __m512i lo = _mm512_or_si512(_mm512_slli_epi64(w, 32), _mm512_and_si512(t, low));
    __m512i hi = _mm512_add_epi64(_mm512_mul_epu32(l1, m[1]),
                                  _mm512_add_epi64(_mm512_srli_epi64(u, 32),
                                                   _mm512_srli_epi64(w, 32)));
    __m512i cross = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_mul_epu32(s.hi, m[1]), _mm512_mul_epu32(h1, m[0])),
        _mm512_add_epi64(_mm512_mul_epu32(s.lo, m[3]), _mm512_mul_epu32(l1, m[2])));
    hi = _mm512_add_epi64(hi, _mm512_add_epi64(_mm512_mul_epu32(s.hi, m[0]),
                                               _mm512_mul_epu32(s.lo, m[2])));
    hi = _mm512_add_epi64(_mm512_add_epi64(hi, _mm512_slli_epi64(cross, 32)), inc.hi);
    lo = _mm512_add_epi64(lo, inc.lo);
    return (pcg8_state){lo, _mm512_mask_add_epi64(hi, _mm512_cmplt_epu64_mask(lo, inc.lo),
                                                  hi, one)};
}

PCG8 static __m512d pcg8_double(pcg8_state s)
{
    __m512i x = _mm512_rorv_epi64(_mm512_xor_si512(s.hi, s.lo), _mm512_srli_epi64(s.hi, 58));
    return _mm512_mul_pd(_mm512_cvtepi64_pd(_mm512_srli_epi64(x, 11)),
                         _mm512_set1_pd(PCG_DOUBLE));
}

/* Stream s in lane s, the lanes past the streams masked off.  Two chains
 * per lane halve the multiply latency: since s(k + 2) = s(k) M^2 +
 * inc (M + 1), chain a steps the even states s(0), s(2), ... and chain b
 * the odd ones s(1), s(3), ..., and draw k is the output of s(k + 1). */
PCG8 static void uniforms8(long streams, long count, uint64_t *pcg, double *out)
{
    const __uint128_t m2 = PCG_MULTIPLIER * PCG_MULTIPLIER;
    const __m512i m[4] = {_mm512_set1_epi64((uint32_t)m2), _mm512_set1_epi64((uint32_t)(m2 >> 32)),
                          _mm512_set1_epi64((uint32_t)(m2 >> 64)),
                          _mm512_set1_epi64((uint32_t)(m2 >> 96))};
    uint64_t words[6][8] = {{0}};
    for (long s = 0; s < streams; s++) {
        __uint128_t state = pcg_word_pair(pcg + 4 * s), inc = pcg_word_pair(pcg + 4 * s + 2);
        __uint128_t next = state * PCG_MULTIPLIER + inc, inc2 = inc * (PCG_MULTIPLIER + 1);
        words[0][s] = (uint64_t)state;
        words[1][s] = (uint64_t)(state >> 64);
        words[2][s] = (uint64_t)next;
        words[3][s] = (uint64_t)(next >> 64);
        words[4][s] = (uint64_t)inc2;
        words[5][s] = (uint64_t)(inc2 >> 64);
    }
    pcg8_state a = {_mm512_loadu_si512(words[0]), _mm512_loadu_si512(words[1])};
    pcg8_state b = {_mm512_loadu_si512(words[2]), _mm512_loadu_si512(words[3])};
    const pcg8_state inc2 = {_mm512_loadu_si512(words[4]), _mm512_loadu_si512(words[5])};
    const __mmask8 lanes = (__mmask8)((1u << streams) - 1);
    long k;
    for (k = 0; k + 2 <= count; k += 2) {
        _mm512_mask_storeu_pd(out + k * streams, lanes, pcg8_double(b));
        a = pcg8_step(a, m, inc2);
        _mm512_mask_storeu_pd(out + (k + 1) * streams, lanes, pcg8_double(a));
        b = pcg8_step(b, m, inc2);
    }
    if (k < count) {
        _mm512_mask_storeu_pd(out + k * streams, lanes, pcg8_double(b));
        a = b;
    }
    _mm512_storeu_si512(words[0], a.lo);
    _mm512_storeu_si512(words[1], a.hi);
    for (long s = 0; s < streams; s++) {
        pcg[4 * s] = words[0][s];
        pcg[4 * s + 1] = words[1][s];
    }
}
#endif

/* The widest lane count uniforms() runs on this CPU: 8 with AVX-512F and
 * DQ, else 1. */
long uniforms_lanes(void)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
        return 8;
#endif
    return 1;
}

/* 1 to 8 PCG64 streams, lane-major: out[k streams + s] is stream s's k-th
 * next draw, and each stream's state is advanced past its draws.  lanes
 * is 1 or 8 and at most uniforms_lanes(). */
void uniforms(long lanes, long streams, long count, uint64_t *pcg, double *out)
{
#if defined(__x86_64__)
    if (lanes == 8) {
        uniforms8(streams, count, pcg, out);
        return;
    }
#else
    (void)lanes;
#endif
    uniforms_scalar(streams, count, pcg, out);
}

/* numpy's SeedSequence word hash and pool mix (pool of 4 words). */
static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= 0x931e8875u;
    value *= *hash;
    return value ^ (value >> 16);
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ (result >> 16);
}

/* PCG64(SeedSequence(e)) for the entropy words e[0 .. words - 1], least
 * significant first: the pool, generate_state(4, uint64) and set_seed. */
static void pcg_seed(long words, const uint32_t *entropy, __uint128_t *state, __uint128_t *inc)
{
    uint32_t pool[4], hash = 0x43b0d7e5u;
    for (long i = 0; i < 4; i++)
        pool[i] = hashmix(i < words ? entropy[i] : 0, &hash);
    for (long src = 0; src < 4; src++)
        for (long dst = 0; dst < 4; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
    for (long src = 4; src < words; src++)
        for (long dst = 0; dst < 4; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy[src], &hash));
    uint64_t seed[4] = {0};
    hash = 0x8b51f9ddu;
    for (long i = 0; i < 8; i++) {
        uint32_t value = pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        value *= hash;
        seed[i / 2] |= (uint64_t)(value ^ (value >> 16)) << (32 * (i % 2));
    }
    *inc = ((((__uint128_t)seed[2] << 64) | seed[3]) << 1) | 1;
    *state = (*inc + (((__uint128_t)seed[0] << 64) | seed[1])) * PCG_MULTIPLIER + *inc;
}

/* Read r's start bits and stream as default_rng(seed + r) leaves them
 * after integers(0, 2, n): bit i is the top bit of the low (i even) or
 * high (i odd) half of output i / 2, numpy's Lemire draw on its buffered
 * 32-bit halves for a range of 2.  seed holds words 32-bit words, least
 * significant first, wide enough for seed + reads - 1; it is advanced in
 * place to that last read's seed.  bits is reads x n, pcg reads x 4. */
void starts(long reads, long n, long words, uint32_t *seed, double *bits, uint64_t *pcg)
{
    for (long r = 0; r < reads; r++) {
        for (long w = 0; r > 0 && w < words && ++seed[w] == 0; w++)
            continue;
        long used = words;
        while (used > 1 && seed[used - 1] == 0)
            used--;
        __uint128_t state, inc;
        pcg_seed(used, seed, &state, &inc);
        uint64_t x = 0;
        for (long i = 0; i < n; i++) {
            if (i % 2 == 0) {
                state = state * PCG_MULTIPLIER + inc;
                x = pcg_output(state);
            }
            bits[r * n + i] = (double)(i % 2 ? x >> 63 : (x >> 31) & 1);
        }
        pcg_store(state, inc, pcg + 4 * r);
    }
}
