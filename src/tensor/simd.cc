#include "tensor/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPECEE_SIMD_X86 1
#include <immintrin.h>
#else
#define SPECEE_SIMD_X86 0
#endif

namespace specee::tensor::simd {

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

namespace {

float
dotF32Scalar(const float *a, const float *b, size_t n)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

void
gemvF32Scalar(const float *w, size_t rows, size_t n, const float *x,
              float *y)
{
    for (size_t r = 0; r < rows; ++r)
        y[r] = dotF32Scalar(w + r * n, x, n);
}

float
dotQ8Scalar(const int8_t *q, const float *x, size_t n)
{
    float acc = 0.0f;
    for (size_t i = 0; i < n; ++i)
        acc += static_cast<float>(q[i]) * x[i];
    return acc;
}

void
q4GroupDotScalar(const uint8_t *packed, const float *x, size_t n,
                 float &dot_q, float &sum_x)
{
    float dq = 0.0f, sx = 0.0f;
    for (size_t i = 0; i < n; ++i) {
        const uint8_t qi = (i % 2 == 0) ? (packed[i / 2] & 0x0f)
                                        : (packed[i / 2] >> 4);
        dq += static_cast<float>(qi) * x[i];
        sx += x[i];
    }
    dot_q += dq;
    sum_x += sx;
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (per-function target attribute, so the file
// builds without -mavx2 and the scalar path stays usable on any CPU)
// ---------------------------------------------------------------------------

#if SPECEE_SIMD_X86

__attribute__((target("avx2,fma"))) float
hsum256(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
}

/**
 * Scalar tail acc + sum_{j in [i, n)} a[j] * b[j], in order. Shared by
 * dotF32Avx2 and gemvF32Avx2 (and inlined into both), so the compiler
 * sees the same loop in each and rounds the tails identically.
 */
__attribute__((target("avx2,fma"), always_inline)) inline float
dotTailF32(const float *a, const float *b, size_t i, size_t n, float acc)
{
    for (; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

__attribute__((target("avx2,fma"))) float
dotF32Avx2(const float *a, const float *b, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
    }
    return dotTailF32(a, b, i, n, hsum256(_mm256_add_ps(acc0, acc1)));
}

/**
 * Four rows per pass: x is loaded once per step and feeds eight
 * accumulators (two chains per row). Each row's chains, 8-wide step,
 * horizontal sum and scalar tail follow dotF32Avx2 operation for
 * operation, so the results are bit-identical to it.
 */
__attribute__((target("avx2,fma"))) void
gemvF32Avx2(const float *w, size_t rows, size_t n, const float *x,
            float *y)
{
    size_t r = 0;
    for (; r + 4 <= rows; r += 4) {
        const float *w0 = w + r * n;
        const float *w1 = w0 + n;
        const float *w2 = w1 + n;
        const float *w3 = w2 + n;
        __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
        __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
        __m256 a20 = _mm256_setzero_ps(), a21 = _mm256_setzero_ps();
        __m256 a30 = _mm256_setzero_ps(), a31 = _mm256_setzero_ps();
        size_t i = 0;
        for (; i + 16 <= n; i += 16) {
            const __m256 x0 = _mm256_loadu_ps(x + i);
            const __m256 x1 = _mm256_loadu_ps(x + i + 8);
            a00 = _mm256_fmadd_ps(_mm256_loadu_ps(w0 + i), x0, a00);
            a01 = _mm256_fmadd_ps(_mm256_loadu_ps(w0 + i + 8), x1, a01);
            a10 = _mm256_fmadd_ps(_mm256_loadu_ps(w1 + i), x0, a10);
            a11 = _mm256_fmadd_ps(_mm256_loadu_ps(w1 + i + 8), x1, a11);
            a20 = _mm256_fmadd_ps(_mm256_loadu_ps(w2 + i), x0, a20);
            a21 = _mm256_fmadd_ps(_mm256_loadu_ps(w2 + i + 8), x1, a21);
            a30 = _mm256_fmadd_ps(_mm256_loadu_ps(w3 + i), x0, a30);
            a31 = _mm256_fmadd_ps(_mm256_loadu_ps(w3 + i + 8), x1, a31);
        }
        for (; i + 8 <= n; i += 8) {
            const __m256 x0 = _mm256_loadu_ps(x + i);
            a00 = _mm256_fmadd_ps(_mm256_loadu_ps(w0 + i), x0, a00);
            a10 = _mm256_fmadd_ps(_mm256_loadu_ps(w1 + i), x0, a10);
            a20 = _mm256_fmadd_ps(_mm256_loadu_ps(w2 + i), x0, a20);
            a30 = _mm256_fmadd_ps(_mm256_loadu_ps(w3 + i), x0, a30);
        }
        const float *rows4[4] = {w0, w1, w2, w3};
        const __m256 sums[4] = {
            _mm256_add_ps(a00, a01), _mm256_add_ps(a10, a11),
            _mm256_add_ps(a20, a21), _mm256_add_ps(a30, a31)};
        for (size_t k = 0; k < 4; ++k)
            y[r + k] = dotTailF32(rows4[k], x, i, n, hsum256(sums[k]));
    }
    for (; r < rows; ++r)
        y[r] = dotF32Avx2(w + r * n, x, n);
}

__attribute__((target("avx2,fma"))) float
dotQ8Avx2(const int8_t *q, const float *x, size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Widen 8 int8 weights to fp32 and FMA against x.
        const __m128i q8 =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(q + i));
        const __m256i q32 = _mm256_cvtepi8_epi32(q8);
        acc = _mm256_fmadd_ps(_mm256_cvtepi32_ps(q32),
                              _mm256_loadu_ps(x + i), acc);
    }
    float r = hsum256(acc);
    for (; i < n; ++i)
        r += static_cast<float>(q[i]) * x[i];
    return r;
}

__attribute__((target("avx2,fma"))) void
q4GroupDotAvx2(const uint8_t *packed, const float *x, size_t n,
               float &dot_q, float &sum_x)
{
    if (n < 32) { // ragged tail group: scalar
        q4GroupDotScalar(packed, x, n, dot_q, sum_x);
        return;
    }
    // 16 packed bytes -> 32 nibbles, values [0,15]. Low nibble is the
    // even (first) element of each byte pair.
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(packed));
    const __m128i mask = _mm_set1_epi8(0x0f);
    const __m128i lo = _mm_and_si128(raw, mask);
    const __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    // Interleave back to storage order: lo[0] hi[0] lo[1] hi[1] ...
    const __m128i even = _mm_unpacklo_epi8(lo, hi); // elements 0..15
    const __m128i odd = _mm_unpackhi_epi8(lo, hi);  // elements 16..31
    __m256 dq = _mm256_setzero_ps();
    __m256 sx = _mm256_setzero_ps();
    const __m128i qparts[4] = {
        even, _mm_srli_si128(even, 8), odd, _mm_srli_si128(odd, 8)};
    for (int p = 0; p < 4; ++p) {
        const __m256i q32 = _mm256_cvtepu8_epi32(qparts[p]);
        const __m256 xv = _mm256_loadu_ps(x + 8 * p);
        dq = _mm256_fmadd_ps(_mm256_cvtepi32_ps(q32), xv, dq);
        sx = _mm256_add_ps(sx, xv);
    }
    dot_q += hsum256(dq);
    sum_x += hsum256(sx);
}

#endif // SPECEE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/** Resolved level; -1 until first use. Relaxed atomics: resolution is
 *  idempotent, so a benign first-use race resolves to the same value. */
std::atomic<int> g_level{-1};

Level
resolveLevel()
{
    const char *env = std::getenv("SPECEE_SIMD");
    if (env != nullptr && std::strcmp(env, "scalar") == 0)
        return Level::Scalar;
    if (env != nullptr && std::strcmp(env, "avx2") == 0) {
        if (detectLevel() != Level::Avx2) {
            specee_warn("SPECEE_SIMD=avx2 but CPU lacks AVX2; "
                        "using scalar kernels");
            return Level::Scalar;
        }
        return Level::Avx2;
    }
    if (env != nullptr && std::strcmp(env, "auto") != 0)
        specee_warn("unknown SPECEE_SIMD value '%s' (want scalar/avx2/"
                    "auto); auto-detecting", env);
    return detectLevel();
}

} // namespace

const char *
levelName(Level lvl)
{
    return lvl == Level::Avx2 ? "avx2" : "scalar";
}

Level
detectLevel()
{
#if SPECEE_SIMD_X86
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return Level::Avx2;
#endif
    return Level::Scalar;
}

Level
activeLevel()
{
    int lvl = g_level.load(std::memory_order_relaxed);
    if (lvl < 0) {
        lvl = static_cast<int>(resolveLevel());
        g_level.store(lvl, std::memory_order_relaxed);
    }
    return static_cast<Level>(lvl);
}

void
setLevel(Level lvl)
{
    if (lvl == Level::Avx2 && detectLevel() != Level::Avx2) {
        specee_warn("AVX2 kernels unavailable on this CPU; "
                    "using scalar");
        lvl = Level::Scalar;
    }
    g_level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

float
dotF32(const float *a, const float *b, size_t n)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2)
        return dotF32Avx2(a, b, n);
#endif
    return dotF32Scalar(a, b, n);
}

void
gemvF32(const float *w, size_t rows, size_t n, const float *x, float *y)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        gemvF32Avx2(w, rows, n, x, y);
        return;
    }
#endif
    gemvF32Scalar(w, rows, n, x, y);
}

float
dotQ8(const int8_t *q, const float *x, size_t n)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2)
        return dotQ8Avx2(q, x, n);
#endif
    return dotQ8Scalar(q, x, n);
}

void
q4GroupDot(const uint8_t *packed, const float *x, size_t n,
           float &dot_q, float &sum_x)
{
#if SPECEE_SIMD_X86
    if (activeLevel() == Level::Avx2) {
        q4GroupDotAvx2(packed, x, n, dot_q, sum_x);
        return;
    }
#endif
    q4GroupDotScalar(packed, x, n, dot_q, sum_x);
}

} // namespace specee::tensor::simd
