/**
 * @file
 * WeightStore backend tests: q8/q4 parity with fp32 (gemv, gemvRows,
 * rowDot, ragged q4 groups), fp32 backend bit-identity with the raw
 * Matrix kernels, byte footprints, and SIMD-vs-scalar dispatch
 * equivalence for every inner-product kernel.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/config.hh"
#include "model/weights.hh"
#include "tensor/kernels.hh"
#include "tensor/simd.hh"
#include "tensor/weight_store.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::tensor;

namespace {

Matrix
randomMatrix(size_t r, size_t c, uint64_t seed, float scale = 1.0f)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(0.0, scale));
    return m;
}

Vec
randomVec(size_t n, uint64_t seed)
{
    Vec v(n);
    Rng rng(seed);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

/** Restores the dispatch level a test forced (the suite may run
 *  under a SPECEE_SIMD override, so restore what was active). */
struct SimdLevelGuard
{
    simd::Level prev = simd::activeLevel();
    ~SimdLevelGuard() { simd::setLevel(prev); }
};

constexpr WeightBackend kAll[] = {WeightBackend::Fp32, WeightBackend::Q8,
                                  WeightBackend::Q4};

} // namespace

TEST(WeightBackend, NamesRoundTrip)
{
    for (WeightBackend b : kAll)
        EXPECT_EQ(parseWeightBackend(weightBackendName(b)), b);
    EXPECT_EQ(parseWeightBackend("int8"), WeightBackend::Q8);
    EXPECT_EQ(parseWeightBackend("awq"), WeightBackend::Q4);
}

TEST(WeightBackend, CompressionOrdering)
{
    EXPECT_DOUBLE_EQ(weightCompression(WeightBackend::Fp32), 1.0);
    EXPECT_DOUBLE_EQ(weightCompression(WeightBackend::Q8), 0.5);
    EXPECT_NEAR(weightCompression(WeightBackend::Q4), 4.5 / 16.0, 1e-12);
}

TEST(WeightStore, Fp32GemvBitIdenticalToMatrixKernels)
{
    // The fp32 store must be a zero-cost veneer over the raw kernels:
    // every result bit-identical, so threading WeightStore through
    // the model stack cannot change fp32 engine output.
    auto m = randomMatrix(33, 70, 1);
    auto store = makeWeightStore(m, WeightBackend::Fp32);
    auto x = randomVec(70, 2);

    Vec y_ref(33), y_store(33);
    gemv(m, x, y_ref);
    store->gemv(x, y_store);
    for (size_t i = 0; i < y_ref.size(); ++i)
        EXPECT_EQ(y_ref[i], y_store[i]) << i;

    std::vector<int> rows = {0, 5, 32, 17};
    Vec s_ref(rows.size()), s_store(rows.size());
    gemvRows(m, rows, x, s_ref);
    store->gemvRows(rows, x, s_store);
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(s_ref[i], s_store[i]) << i;

    EXPECT_EQ(store->rowDot(7, x), dot(m.row(7), x));

    Vec row(70);
    store->copyRow(12, row);
    for (size_t c = 0; c < 70; ++c)
        EXPECT_EQ(row[c], m.at(12, c));
}

TEST(WeightStore, QuantizedGemvTracksFp32)
{
    // Includes a ragged q4 shape (cols not a multiple of the group).
    const std::pair<int, int> shapes[] = {{8, 64}, {16, 40}, {5, 33}};
    for (auto [r, c] : shapes) {
        auto m = randomMatrix(static_cast<size_t>(r),
                              static_cast<size_t>(c), 3, 0.05f);
        auto x = randomVec(static_cast<size_t>(c), 4);
        Vec y_fp(static_cast<size_t>(r));
        gemv(m, x, y_fp);
        for (WeightBackend b : {WeightBackend::Q8, WeightBackend::Q4}) {
            auto store = makeWeightStore(m, b);
            Vec y(static_cast<size_t>(r));
            store->gemv(x, y);
            // Per-output tolerance scales with the quantization step
            // (half an lsb of the 0.05-sd weights) accumulated over
            // the reduction length, with 2x headroom.
            const float tol = (b == WeightBackend::Q8 ? 0.004f : 0.04f) *
                              static_cast<float>(c) * 0.05f;
            for (size_t i = 0; i < y.size(); ++i)
                EXPECT_NEAR(y[i], y_fp[i], tol)
                    << weightBackendName(b) << " " << r << "x" << c
                    << " row " << i;
        }
    }
}

TEST(WeightStore, GemvRowsAndRowDotMatchGemvPerBackend)
{
    auto m = randomMatrix(24, 48, 5);
    auto x = randomVec(48, 6);
    const std::vector<int> rows = {23, 0, 11, 7};
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        Vec full(24);
        store->gemv(x, full);
        Vec sliced(rows.size());
        store->gemvRows(rows, x, sliced);
        for (size_t i = 0; i < rows.size(); ++i) {
            EXPECT_FLOAT_EQ(sliced[i],
                            full[static_cast<size_t>(rows[i])])
                << weightBackendName(b);
            EXPECT_FLOAT_EQ(
                store->rowDot(static_cast<size_t>(rows[i]), x),
                full[static_cast<size_t>(rows[i])])
                << weightBackendName(b);
        }
    }
}

TEST(WeightStore, CopyRowAndAtAgreeAcrossBackends)
{
    auto m = randomMatrix(9, 40, 7);
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        Vec row(40);
        store->copyRow(3, row);
        for (size_t c = 0; c < 40; ++c)
            EXPECT_FLOAT_EQ(row[c], store->at(3, c))
                << weightBackendName(b);
    }
}

TEST(WeightStore, AddScaledColumnMatchesDense)
{
    auto m = randomMatrix(12, 36, 8, 0.05f);
    for (WeightBackend b : kAll) {
        auto store = makeWeightStore(m, b);
        Vec out(12, 0.0f);
        store->addScaledColumn(5, 2.0f, out);
        for (size_t r = 0; r < 12; ++r)
            EXPECT_NEAR(out[r], 2.0f * store->at(r, 5), 1e-5f)
                << weightBackendName(b);
    }
}

TEST(WeightStore, ByteSizeShrinksWithBackend)
{
    auto m = randomMatrix(64, 256, 9);
    auto fp32 = makeWeightStore(m, WeightBackend::Fp32);
    auto q8 = makeWeightStore(m, WeightBackend::Q8);
    auto q4 = makeWeightStore(m, WeightBackend::Q4);
    EXPECT_LT(q4->byteSize(), q8->byteSize());
    EXPECT_LT(q8->byteSize(), fp32->byteSize());
    EXPECT_EQ(fp32->byteSize(), m.byteSize());
}

// --- SIMD dispatch parity --------------------------------------------------

TEST(Simd, ActiveLevelIsSupported)
{
    EXPECT_LE(static_cast<int>(simd::activeLevel()),
              static_cast<int>(simd::detectLevel()));
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

TEST(Simd, DotF32MatchesScalarWithinRounding)
{
    SimdLevelGuard guard;
    const size_t sizes[] = {1, 7, 8, 15, 16, 31, 64, 1000};
    for (size_t n : sizes) {
        auto a = randomVec(n, 10 + n);
        auto b = randomVec(n, 20 + n);
        simd::setLevel(simd::Level::Scalar);
        const float ref = simd::dotF32(a.data(), b.data(), n);
        simd::setLevel(simd::detectLevel());
        const float fast = simd::dotF32(a.data(), b.data(), n);
        // Reassociated summation: allow rounding-level divergence.
        const float tol =
            1e-5f * static_cast<float>(n) + 1e-5f * std::fabs(ref);
        EXPECT_NEAR(fast, ref, tol) << "n=" << n;
    }
}

TEST(Simd, DotQ8MatchesScalarWithinRounding)
{
    SimdLevelGuard guard;
    Rng rng(31);
    const size_t sizes[] = {1, 8, 13, 32, 100};
    for (size_t n : sizes) {
        std::vector<int8_t> q(n);
        for (auto &v : q)
            v = static_cast<int8_t>(rng.uniformInt(-127, 127));
        auto x = randomVec(n, 40 + n);
        simd::setLevel(simd::Level::Scalar);
        const float ref = simd::dotQ8(q.data(), x.data(), n);
        simd::setLevel(simd::detectLevel());
        const float fast = simd::dotQ8(q.data(), x.data(), n);
        EXPECT_NEAR(fast, ref, 1e-3f * static_cast<float>(n) + 1e-4f)
            << "n=" << n;
    }
}

TEST(Simd, QuantizedGemvEqualAcrossDispatchPaths)
{
    SimdLevelGuard guard;
    // Whole-kernel parity including the packed-nibble group dot, on a
    // ragged shape so the AVX2 path exercises its scalar tail.
    auto m = randomMatrix(16, 70, 11, 0.1f);
    auto x = randomVec(70, 12);
    for (WeightBackend b : {WeightBackend::Q8, WeightBackend::Q4}) {
        auto store = makeWeightStore(m, b);
        Vec y_scalar(16), y_fast(16);
        simd::setLevel(simd::Level::Scalar);
        store->gemv(x, y_scalar);
        simd::setLevel(simd::detectLevel());
        store->gemv(x, y_fast);
        for (size_t i = 0; i < 16; ++i)
            EXPECT_NEAR(y_fast[i], y_scalar[i],
                        1e-3f + 1e-3f * std::fabs(y_scalar[i]))
                << weightBackendName(b) << " row " << i;
    }
}

TEST(Weights, SevenBFp32EqualsSequentialNormalDraws)
{
    // The generator fills matrices in parallel from checkpoints of the
    // seed stream; every byte must equal one sequential walk of it.
    const auto cfg = model::ModelConfig::llama2_7b();
    const model::Weights w(cfg, WeightBackend::Fp32, WeightBackend::Fp32);
    Rng rng(cfg.weight_seed);
    const auto expectDraws = [&](const model::WeightMat &m, float sd,
                                 const char *name, bool unit_rows = false) {
        Vec row(m.cols()), want(m.cols());
        for (size_t r = 0; r < m.rows(); ++r) {
            for (float &x : want)
                x = static_cast<float>(rng.normal(0.0, sd));
            if (unit_rows)
                scaleInplace(want, 1.0f / norm2(want));
            m.copyRow(r, row);
            ASSERT_EQ(row, want) << name << " row " << r;
        }
    };
    const float h = static_cast<float>(cfg.sim.hidden);
    const float f = static_cast<float>(cfg.sim.ffn);
    expectDraws(w.embedding(), 1.0f, "embedding", true);
    for (int l = 0; l < cfg.n_layers; ++l) {
        const model::LayerWeights &lw = w.layer(l);
        expectDraws(lw.wq, 1.0f / std::sqrt(h), "wq");
        expectDraws(lw.wk, 1.0f / std::sqrt(h), "wk");
        expectDraws(lw.wv, 1.0f / std::sqrt(h), "wv");
        expectDraws(lw.wo, 1.0f / std::sqrt(h), "wo");
        expectDraws(lw.w_gate, 1.0f / std::sqrt(h), "w_gate");
        expectDraws(lw.w_up, 1.0f / std::sqrt(h), "w_up");
        expectDraws(lw.w_down, 1.0f / std::sqrt(f), "w_down");
    }
}
