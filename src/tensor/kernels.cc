#include "tensor/kernels.hh"

#include <algorithm>
#include <cmath>

#include "tensor/simd.hh"
#include "util/logging.hh"

namespace specee::tensor {

void
gemv(const Matrix &w, CSpan x, Span y)
{
    specee_assert(x.size() == w.cols() && y.size() == w.rows(),
                  "gemv shape mismatch: W %zux%zu, x %zu, y %zu",
                  w.rows(), w.cols(), x.size(), y.size());
    simd::gemvF32(w.data(), w.rows(), w.cols(), x.data(), y.data());
}

void
gemvT(const Matrix &w, CSpan x, Span y)
{
    specee_assert(x.size() == w.rows() && y.size() == w.cols(),
                  "gemvT shape mismatch");
    std::fill(y.begin(), y.end(), 0.0f);
    const size_t n = w.cols();
    for (size_t r = 0; r < w.rows(); ++r) {
        const float *row = w.data() + r * n;
        const float xr = x[r];
        if (xr == 0.0f)
            continue;
        for (size_t c = 0; c < n; ++c)
            y[c] += row[c] * xr;
    }
}

void
gemvRows(const Matrix &w, const std::vector<int> &rows, CSpan x, Span y)
{
    specee_assert(x.size() == w.cols() && y.size() == rows.size(),
                  "gemvRows shape mismatch");
    const size_t n = w.cols();
    for (size_t i = 0; i < rows.size(); ++i) {
        specee_assert(rows[i] >= 0 &&
                      static_cast<size_t>(rows[i]) < w.rows(),
                      "gemvRows row %d out of range", rows[i]);
        y[i] = simd::dotF32(w.data() + static_cast<size_t>(rows[i]) * n,
                            x.data(), n);
    }
}

void
gemm(const Matrix &a, const Matrix &b, Matrix &out)
{
    specee_assert(a.cols() == b.rows(), "gemm shape mismatch");
    // out.resize() would clobber an operand's storage mid-read if the
    // caller aliased it; there is no temp-buffer path, so reject.
    specee_assert(&out != &a && &out != &b,
                  "gemm output must not alias an operand");
    out.resize(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t k = 0; k < a.cols(); ++k) {
            const float aik = a.at(i, k);
            if (aik == 0.0f)
                continue;
            const float *brow = b.data() + k * b.cols();
            float *orow = out.data() + i * out.cols();
            for (size_t j = 0; j < b.cols(); ++j)
                orow[j] += aik * brow[j];
        }
    }
}

float
dot(CSpan a, CSpan b)
{
    specee_assert(a.size() == b.size(), "dot size mismatch");
    return simd::dotF32(a.data(), b.data(), a.size());
}

void
softmax(Span x)
{
    softmax(x, x.size());
}

void
softmax(Span x, size_t n)
{
    specee_assert(n > 0 && n <= x.size(), "softmax size");
    float mx = x[0];
    for (size_t i = 1; i < n; ++i)
        mx = std::max(mx, x[i]);
    // Degenerate input (every logit -inf, e.g. a fully-masked row):
    // x[i] - mx would be NaN and the sum 0, so return uniform — the
    // maximum-entropy distribution the limit converges to.
    if (std::isinf(mx) && mx < 0.0f) {
        std::fill(x.begin(), x.begin() + static_cast<long>(n),
                  1.0f / static_cast<float>(n));
        return;
    }
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i) {
        x[i] = std::exp(x[i] - mx);
        sum += x[i];
    }
    const float inv = 1.0f / sum;
    for (size_t i = 0; i < n; ++i)
        x[i] *= inv;
}

size_t
argmax(CSpan x)
{
    specee_assert(!x.empty(), "argmax of empty span");
    size_t best = 0;
    for (size_t i = 1; i < x.size(); ++i) {
        if (x[i] > x[best])
            best = i;
    }
    return best;
}

std::vector<std::pair<int, float>>
topk(CSpan x, size_t k)
{
    k = std::min(k, x.size());
    std::vector<std::pair<int, float>> idx(x.size());
    for (size_t i = 0; i < x.size(); ++i)
        idx[i] = {static_cast<int>(i), x[i]};
    // Ties broken by index: std::partial_sort orders equal values
    // unspecified, which made draft-token selection differ across
    // stdlib implementations.
    std::partial_sort(idx.begin(), idx.begin() + static_cast<long>(k),
                      idx.end(), [](const auto &a, const auto &b) {
                          if (a.second != b.second)
                              return a.second > b.second;
                          return a.first < b.first;
                      });
    idx.resize(k);
    return idx;
}

void
rmsnorm(CSpan x, CSpan weight, Span out, float eps)
{
    specee_assert(x.size() == weight.size() && x.size() == out.size(),
                  "rmsnorm size mismatch");
    float ss = 0.0f;
    for (float v : x)
        ss += v * v;
    const float inv = 1.0f / std::sqrt(ss / x.size() + eps);
    for (size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] * inv * weight[i];
}

void
silu(Span x)
{
    for (auto &v : x)
        v = v * sigmoid(v);
}

void
relu(Span x)
{
    for (auto &v : x)
        v = std::max(0.0f, v);
}

float
sigmoid(float x)
{
    if (x >= 0.0f) {
        float z = std::exp(-x);
        return 1.0f / (1.0f + z);
    }
    float z = std::exp(x);
    return z / (1.0f + z);
}

void
addInplace(Span a, CSpan b)
{
    specee_assert(a.size() == b.size(), "addInplace size mismatch");
    for (size_t i = 0; i < a.size(); ++i)
        a[i] += b[i];
}

void
scaleInplace(Span x, float s)
{
    for (auto &v : x)
        v *= s;
}

float
norm2(CSpan x)
{
    float ss = 0.0f;
    for (float v : x)
        ss += v * v;
    return std::sqrt(ss);
}

void
rope(Span x, size_t n_heads, size_t head_dim, size_t pos, float theta)
{
    specee_assert(x.size() == n_heads * head_dim && head_dim % 2 == 0,
                  "rope shape mismatch");
    const size_t half = head_dim / 2;
    for (size_t h = 0; h < n_heads; ++h) {
        float *v = x.data() + h * head_dim;
        for (size_t i = 0; i < half; ++i) {
            const float freq =
                std::pow(theta, -static_cast<float>(2 * i) /
                                    static_cast<float>(head_dim));
            const float angle = static_cast<float>(pos) * freq;
            const float c = std::cos(angle);
            const float s = std::sin(angle);
            const float x0 = v[i];
            const float x1 = v[i + half];
            v[i] = x0 * c - x1 * s;
            v[i + half] = x0 * s + x1 * c;
        }
    }
}

} // namespace specee::tensor
