/**
 * @file
 * Tensor kernel tests: GEMV variants, softmax, top-k, RMSNorm, RoPE.
 * Includes parameterized shape sweeps (property-style).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "tensor/kernels.hh"
#include "tensor/simd.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::tensor;

namespace {

Matrix
randomMatrix(size_t r, size_t c, uint64_t seed)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal());
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

} // namespace

TEST(Matrix, ShapeAndAccess)
{
    Matrix m(3, 4, 1.5f);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.size(), 12u);
    m.at(2, 3) = 7.0f;
    EXPECT_FLOAT_EQ(m.row(2)[3], 7.0f);
    EXPECT_EQ(m.byteSize(), 48u);
    m.fill(0.0f);
    EXPECT_FLOAT_EQ(m.at(2, 3), 0.0f);
}

TEST(Kernels, GemvMatchesManual)
{
    Matrix w(2, 3);
    w.at(0, 0) = 1;
    w.at(0, 1) = 2;
    w.at(0, 2) = 3;
    w.at(1, 0) = -1;
    w.at(1, 1) = 0.5f;
    w.at(1, 2) = 4;
    Vec x = {1, 2, 3};
    Vec y(2);
    gemv(w, x, y);
    EXPECT_FLOAT_EQ(y[0], 14.0f);
    EXPECT_FLOAT_EQ(y[1], 12.0f);
}

TEST(Kernels, GemvIsBitIdenticalToPerRowDotAtEveryDispatchLevel)
{
    // The row-blocked gemv shares x loads across rows but reorders no
    // addition, so each output equals (==, not a tolerance) the
    // dispatched per-row dot. Ragged shapes cover rows % 4 != 0 and
    // every tail path (16-wide, 8-wide, scalar).
    const std::pair<size_t, size_t> shapes[] = {
        {192, 192}, {516, 192}, {192, 516}, {4096, 192}, {5, 7},
        {6, 12},    {7, 20},    {9, 516},   {1, 20},     {3, 7},
        {6, 1},     {5, 3},     {7, 5},     {10, 30},    {11, 515}};
    const simd::Level saved = simd::activeLevel();
    Rng rng(17);
    for (simd::Level lvl : {simd::Level::Scalar, simd::Level::Avx2}) {
        simd::setLevel(lvl); // unsupported AVX2 falls back to scalar
        for (const auto &[rows, n] : shapes) {
            Matrix w(rows, n);
            for (size_t i = 0; i < w.size(); ++i)
                w.data()[i] = static_cast<float>(rng.normal());
            Vec x(n);
            for (auto &v : x)
                v = static_cast<float>(rng.normal());
            Vec y(rows), yk(rows);
            simd::gemvF32(w.data(), rows, n, x.data(), y.data());
            gemv(w, x, yk);
            for (size_t r = 0; r < rows; ++r) {
                const float ref =
                    simd::dotF32(w.row(r).data(), x.data(), n);
                EXPECT_EQ(y[r], ref)
                    << simd::levelName(simd::activeLevel()) << " " << rows
                    << "x" << n << " row " << r;
                EXPECT_EQ(yk[r], ref);
            }
        }
    }
    simd::setLevel(saved);
}

TEST(Kernels, GemvTIsTransposeOfGemv)
{
    auto w = randomMatrix(5, 7, 1);
    auto x = randomVec(5, 2);
    Vec y(7);
    gemvT(w, x, y);
    // Reference: y[c] = sum_r w[r][c] x[r]
    for (size_t c = 0; c < 7; ++c) {
        float acc = 0;
        for (size_t r = 0; r < 5; ++r)
            acc += w.at(r, c) * x[r];
        EXPECT_NEAR(y[c], acc, 1e-5f);
    }
}

TEST(Kernels, GemvRowsEqualsGatherOfGemv)
{
    auto w = randomMatrix(16, 8, 3);
    auto x = randomVec(8, 4);
    Vec full(16);
    gemv(w, x, full);
    std::vector<int> rows = {3, 0, 15, 7};
    Vec sliced(rows.size());
    gemvRows(w, rows, x, sliced);
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_FLOAT_EQ(sliced[i], full[static_cast<size_t>(rows[i])]);
}

TEST(Kernels, GemmMatchesNaive)
{
    auto a = randomMatrix(4, 6, 5);
    auto b = randomMatrix(6, 3, 6);
    Matrix out;
    gemm(a, b, out);
    for (size_t i = 0; i < 4; ++i) {
        for (size_t j = 0; j < 3; ++j) {
            float acc = 0;
            for (size_t k = 0; k < 6; ++k)
                acc += a.at(i, k) * b.at(k, j);
            EXPECT_NEAR(out.at(i, j), acc, 1e-4f);
        }
    }
}

TEST(Kernels, SoftmaxIsDistribution)
{
    Vec x = {1.0f, 2.0f, 3.0f, -1.0f};
    softmax(x);
    float sum = 0;
    for (float v : x) {
        EXPECT_GT(v, 0.0f);
        sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_GT(x[2], x[1]);
    EXPECT_GT(x[1], x[0]);
}

TEST(Kernels, SoftmaxHandlesLargeLogits)
{
    Vec x = {1000.0f, 999.0f};
    softmax(x);
    EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-6f);
    EXPECT_GT(x[0], x[1]);
    EXPECT_FALSE(std::isnan(x[0]));
}

TEST(Kernels, SoftmaxPrefixOnly)
{
    Vec x = {1.0f, 1.0f, 99.0f};
    softmax(x, 2);
    EXPECT_NEAR(x[0], 0.5f, 1e-6f);
    EXPECT_NEAR(x[1], 0.5f, 1e-6f);
    EXPECT_FLOAT_EQ(x[2], 99.0f);
}

TEST(Kernels, ArgmaxAndTopk)
{
    Vec x = {0.1f, 5.0f, -2.0f, 4.9f, 5.0f};
    EXPECT_EQ(argmax(x), 1u); // first of the ties
    auto top = topk(x, 3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_FLOAT_EQ(top[0].second, 5.0f);
    EXPECT_FLOAT_EQ(top[1].second, 5.0f);
    EXPECT_FLOAT_EQ(top[2].second, 4.9f);
}

TEST(Kernels, TopkClampsK)
{
    Vec x = {1.0f, 2.0f};
    auto top = topk(x, 10);
    EXPECT_EQ(top.size(), 2u);
}

TEST(Kernels, TopkBreaksTiesByIndex)
{
    // Regression: std::partial_sort orders equal keys in an
    // unspecified order, so draft-token selection differed across
    // stdlib implementations. Ties must resolve to ascending index.
    Vec x = {2.0f, 5.0f, 5.0f, 1.0f, 5.0f, 2.0f};
    auto top = topk(x, 5);
    ASSERT_EQ(top.size(), 5u);
    EXPECT_EQ(top[0].first, 1);
    EXPECT_EQ(top[1].first, 2);
    EXPECT_EQ(top[2].first, 4);
    EXPECT_EQ(top[3].first, 0); // the 2.0 tie: index 0 before 5
    EXPECT_EQ(top[4].first, 5);

    // The cut at k must honor the same order: with k = 2 inside the
    // 5.0-tie group, the lowest-index duplicates win.
    auto top2 = topk(x, 2);
    EXPECT_EQ(top2[0].first, 1);
    EXPECT_EQ(top2[1].first, 2);

    // All-equal input comes back as the identity permutation.
    Vec same(8, 3.25f);
    auto all = topk(same, 8);
    for (size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].first, static_cast<int>(i));
}

TEST(Kernels, SoftmaxAllNegInfIsUniform)
{
    // Regression: a fully-masked row (every logit -inf) underflowed
    // the sum to 0 and produced NaN; the limit is uniform.
    const float ninf = -std::numeric_limits<float>::infinity();
    Vec x = {ninf, ninf, ninf, ninf};
    softmax(x);
    for (float v : x) {
        EXPECT_FALSE(std::isnan(v));
        EXPECT_NEAR(v, 0.25f, 1e-6f);
    }
    // Prefix variant: untouched tail, uniform head.
    Vec y = {ninf, ninf, 7.0f};
    softmax(y, 2);
    EXPECT_NEAR(y[0], 0.5f, 1e-6f);
    EXPECT_NEAR(y[1], 0.5f, 1e-6f);
    EXPECT_FLOAT_EQ(y[2], 7.0f);
    // A finite max among -inf entries still works normally.
    Vec z = {ninf, 1.0f};
    softmax(z);
    EXPECT_FLOAT_EQ(z[0], 0.0f);
    EXPECT_FLOAT_EQ(z[1], 1.0f);
}

TEST(KernelsDeathTest, GemmRejectsAliasedOutput)
{
    // Regression: out.resize() clobbers an aliased operand's storage
    // mid-read; the kernel now refuses aliasing outright.
    auto a = randomMatrix(4, 4, 21);
    auto b = randomMatrix(4, 4, 22);
    EXPECT_DEATH(gemm(a, b, a), "must not alias");
    EXPECT_DEATH(gemm(a, b, b), "must not alias");
}

TEST(Kernels, RmsnormUnitScale)
{
    Vec x = {3.0f, 4.0f};
    Vec w = {1.0f, 1.0f};
    Vec out(2);
    rmsnorm(x, w, out);
    // rms = sqrt((9+16)/2) = sqrt(12.5)
    const float rms = std::sqrt(12.5f + 1e-5f);
    EXPECT_NEAR(out[0], 3.0f / rms, 1e-4f);
    EXPECT_NEAR(out[1], 4.0f / rms, 1e-4f);
}

TEST(Kernels, SiluAndRelu)
{
    Vec x = {-1.0f, 0.0f, 1.0f};
    Vec s = x;
    silu(s);
    EXPECT_NEAR(s[0], -1.0f * sigmoid(-1.0f), 1e-6f);
    EXPECT_FLOAT_EQ(s[1], 0.0f);
    Vec r = x;
    relu(r);
    EXPECT_FLOAT_EQ(r[0], 0.0f);
    EXPECT_FLOAT_EQ(r[2], 1.0f);
}

TEST(Kernels, SigmoidSymmetry)
{
    EXPECT_NEAR(sigmoid(0.0f), 0.5f, 1e-6f);
    EXPECT_NEAR(sigmoid(3.0f) + sigmoid(-3.0f), 1.0f, 1e-6f);
    EXPECT_NEAR(sigmoid(100.0f), 1.0f, 1e-6f);
    EXPECT_NEAR(sigmoid(-100.0f), 0.0f, 1e-6f);
}

TEST(Kernels, RopePreservesNorm)
{
    Vec x = randomVec(64, 7);
    const float n_before = norm2(x);
    rope(x, 4, 16, 12);
    EXPECT_NEAR(norm2(x), n_before, 1e-4f);
}

TEST(Kernels, RopePositionZeroIsIdentity)
{
    Vec x = randomVec(32, 8);
    Vec y = x;
    rope(y, 2, 16, 0);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Kernels, RopeRelativePhase)
{
    // The dot product of two rope'd vectors depends only on the
    // position difference (the property attention relies on).
    Vec q = randomVec(16, 9);
    Vec k = randomVec(16, 10);
    auto dot_at = [&](size_t pq, size_t pk) {
        Vec a = q, b = k;
        rope(a, 1, 16, pq);
        rope(b, 1, 16, pk);
        return dot(a, b);
    };
    EXPECT_NEAR(dot_at(5, 3), dot_at(12, 10), 1e-3f);
    EXPECT_NEAR(dot_at(7, 7), dot_at(0, 0), 1e-3f);
}

// --- parameterized shape sweep ------------------------------------------

class GemvShapes : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(GemvShapes, SlicedAgreesWithFullAcrossShapes)
{
    const auto [rows, cols] = GetParam();
    auto w = randomMatrix(static_cast<size_t>(rows),
                          static_cast<size_t>(cols), 11);
    auto x = randomVec(static_cast<size_t>(cols), 12);
    Vec full(static_cast<size_t>(rows));
    gemv(w, x, full);
    std::vector<int> idx;
    for (int i = 0; i < rows; i += std::max(1, rows / 5))
        idx.push_back(i);
    Vec sliced(idx.size());
    gemvRows(w, idx, x, sliced);
    for (size_t i = 0; i < idx.size(); ++i)
        EXPECT_NEAR(sliced[i], full[static_cast<size_t>(idx[i])], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemvShapes,
    ::testing::Values(std::pair{1, 1}, std::pair{4, 64},
                      std::pair{63, 17}, std::pair{128, 96},
                      std::pair{512, 33}, std::pair{1000, 128}));
