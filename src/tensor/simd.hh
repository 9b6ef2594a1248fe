/**
 * @file
 * Runtime-dispatched SIMD inner loops for the hot tensor kernels.
 *
 * The functional simulator spends nearly all of its time in three
 * inner products: the fp32 row dot behind gemv/gemvRows/dot, the int8
 * row dot behind Q8Matrix, and the packed-nibble group dot behind
 * Q4Matrix. Each has an AVX2+FMA implementation selected once at
 * startup by CPUID (scalar everywhere else), so one binary runs
 * fast on AVX2 hosts and correctly on any x86-64 or non-x86 target.
 *
 * Dispatch control:
 *  - detection happens on first use (no static-init order hazards);
 *  - the SPECEE_SIMD environment variable ("scalar", "avx2", "auto")
 *    overrides detection, which is how CI runs the kernel-parity
 *    tests on both paths from one binary;
 *  - tests may call setLevel() directly (falls back to Scalar when
 *    the requested ISA is unavailable).
 *
 * Note the modeled paper-figure latencies come from hw::CostModel and
 * are byte-counted, so SIMD changes wall-clock of the simulator, not
 * any modeled result. Vector lanes reassociate float additions, so
 * kernel outputs may differ from scalar by normal rounding noise;
 * parity is asserted to tolerance in tests/test_weight_store.cc.
 */

#ifndef SPECEE_TENSOR_SIMD_HH
#define SPECEE_TENSOR_SIMD_HH

#include <cstddef>
#include <cstdint>

namespace specee::tensor::simd {

/** Instruction-set level of the dispatched kernels. */
enum class Level : int {
    Scalar = 0, ///< portable reference loops
    Avx2,       ///< AVX2 + FMA (x86-64)
};

/** Short name ("scalar" / "avx2") for logs and tables. */
const char *levelName(Level lvl);

/** Highest level this CPU supports. */
Level detectLevel();

/**
 * Level the kernels currently dispatch to. First call resolves the
 * SPECEE_SIMD environment override, then CPUID detection.
 */
Level activeLevel();

/**
 * Force a dispatch level (tests / benchmarks). Requests for an
 * unsupported level fall back to Scalar. Not thread-safe against
 * concurrent kernel calls; call before spawning workers.
 */
void setLevel(Level lvl);

/** sum_i a[i] * b[i] (fp32 gemv / attention-score inner loop). */
float dotF32(const float *a, const float *b, size_t n);

/**
 * Row-major fp32 gemv: y[r] = dotF32(w + r * n, x, n) for r < rows,
 * dispatched once per matrix. The AVX2 path runs four rows per pass
 * over shared x loads; each row keeps dotF32's exact summation order,
 * so every y[r] is bit-identical to the per-row dot.
 */
void gemvF32(const float *w, size_t rows, size_t n, const float *x,
             float *y);

/** sum_i q[i] * x[i] with int8 weights (Q8 row dot, pre-scale). */
float dotQ8(const int8_t *q, const float *x, size_t n);

/**
 * One Q4 group: given 16 packed bytes holding 32 4-bit values
 * (low nibble first), accumulate dot_q += sum q[i]*x[i] and
 * sum_x += sum x[i] over the first `n` values (n <= 32; the last
 * group of a ragged row passes n < 32).
 */
void q4GroupDot(const uint8_t *packed, const float *x, size_t n,
                float &dot_q, float &sum_x);

} // namespace specee::tensor::simd

#endif // SPECEE_TENSOR_SIMD_HH
