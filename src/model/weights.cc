#include "model/weights.hh"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

namespace specee::model {

WeightMat::WeightMat(tensor::Matrix dense, tensor::WeightBackend backend)
    : store_(tensor::makeWeightStore(std::move(dense), backend))
{
}

const tensor::WeightStore &
WeightMat::store() const
{
    specee_assert(store_ != nullptr, "access to an unbuilt WeightMat");
    return *store_;
}

void
WeightMat::gemv(tensor::CSpan x, tensor::Span y) const
{
    store().gemv(x, y);
}

void
WeightMat::gemvBatch(tensor::CSpan xs, tensor::Span ys) const
{
    store().gemvBatch(xs, ys);
}

void
WeightMat::gemvRows(const std::vector<int> &rows, tensor::CSpan x,
                    tensor::Span y) const
{
    store().gemvRows(rows, x, y);
}

void
WeightMat::copyRow(size_t r, tensor::Span out) const
{
    store().copyRow(r, out);
}

tensor::Vec
WeightMat::denseRow(size_t r) const
{
    tensor::Vec out(cols());
    store().copyRow(r, out);
    return out;
}

float
WeightMat::rowDot(size_t r, tensor::CSpan x) const
{
    return store().rowDot(r, x);
}

void
WeightMat::addScaledColumn(size_t c, float scale, tensor::Span out) const
{
    store().addScaledColumn(c, scale, out);
}

size_t
WeightMat::rows() const
{
    return store_ != nullptr ? store_->rows() : 0;
}

size_t
WeightMat::cols() const
{
    return store_ != nullptr ? store_->cols() : 0;
}

size_t
WeightMat::byteSize() const
{
    return store_ != nullptr ? store_->byteSize() : 0;
}

tensor::WeightBackend
WeightMat::backend() const
{
    return store_ != nullptr ? store_->backend()
                             : tensor::WeightBackend::Fp32;
}

namespace {

/** A dense matrix to fill with normal(0, sd) draws. */
struct NormalFill
{
    tensor::Matrix *m;
    float sd;
};

/** Draws per parallel work item of fillNormal(). */
constexpr size_t kNormalChunk = 16384;

/**
 * Fill the matrices, in order, with exactly the normal(0, sd) draws a
 * sequential loop over `rng` would give them, and leave `rng` where
 * that loop would. The stream is checkpointed every kNormalChunk
 * draws (skipping ahead in between), then every chunk replays
 * normal() from its checkpoint in parallel.
 */
void
fillNormal(const std::vector<NormalFill> &fills, Rng &rng)
{
    struct Chunk
    {
        float *out;
        size_t n;
        float sd;
        Rng rng;
    };
    std::vector<Chunk> chunks;
    for (const NormalFill &f : fills) {
        for (size_t i = 0; i < f.m->size(); i += kNormalChunk) {
            const size_t n = std::min(kNormalChunk, f.m->size() - i);
            chunks.push_back({f.m->data() + i, n, f.sd, rng});
            rng.skipNormals(n);
        }
    }
    parallelFor(chunks.size(), [&](size_t c) {
        const Chunk &ch = chunks[c];
        Rng r = ch.rng; // a local copy: neighbours share cache lines
        for (size_t i = 0; i < ch.n; ++i)
            ch.out[i] = static_cast<float>(r.normal(0.0, ch.sd));
    });
}

} // namespace

Weights::Weights(const ModelConfig &cfg,
                 tensor::WeightBackend proj_backend,
                 tensor::WeightBackend head_backend)
    : projBackend_(proj_backend), headBackend_(head_backend)
{
    Rng rng(cfg.weight_seed);
    const size_t h = static_cast<size_t>(cfg.sim.hidden);
    const size_t f = static_cast<size_t>(cfg.sim.ffn);
    const size_t v = static_cast<size_t>(cfg.sim.vocab);

    // Embedding rows normalized to unit L2 norm: the tied LM head then
    // produces logits whose scale is controlled purely by the hidden
    // norm, which the convergence steering relies on.
    tensor::Matrix emb(v, h);
    fillNormal({{&emb, 1.0f}}, rng);
    for (size_t r = 0; r < v; ++r) {
        tensor::Span row = emb.row(r);
        float n = tensor::norm2(row);
        if (n > 0.0f)
            tensor::scaleInplace(row, 1.0f / n);
    }
    embedding_ = WeightMat(std::move(emb), head_backend);

    // Projection scale keeps layer outputs O(1) per dim before the
    // per-layer renormalization in TargetModel. One layer is drawn at
    // a time, so a compressed backend holds one dense layer at most.
    const float ps = 1.0f / std::sqrt(static_cast<float>(h));
    const float ds = 1.0f / std::sqrt(static_cast<float>(f));
    layers_.reserve(static_cast<size_t>(cfg.n_layers));
    for (int l = 0; l < cfg.n_layers; ++l) {
        tensor::Matrix wq(h, h), wk(h, h), wv(h, h), wo(h, h);
        tensor::Matrix w_gate(f, h), w_up(f, h), w_down(h, f);
        fillNormal({{&wq, ps},
                    {&wk, ps},
                    {&wv, ps},
                    {&wo, ps},
                    {&w_gate, ps},
                    {&w_up, ps},
                    {&w_down, ds}},
                   rng);
        LayerWeights lw;
        lw.wq = WeightMat(std::move(wq), proj_backend);
        lw.wk = WeightMat(std::move(wk), proj_backend);
        lw.wv = WeightMat(std::move(wv), proj_backend);
        lw.wo = WeightMat(std::move(wo), proj_backend);
        lw.w_gate = WeightMat(std::move(w_gate), proj_backend);
        lw.w_up = WeightMat(std::move(w_up), proj_backend);
        lw.w_down = WeightMat(std::move(w_down), proj_backend);
        lw.rms_attn.assign(h, 1.0f);
        lw.rms_ffn.assign(h, 1.0f);
        layers_.push_back(std::move(lw));
    }
    rmsFinal_.assign(h, 1.0f);
}

} // namespace specee::model
