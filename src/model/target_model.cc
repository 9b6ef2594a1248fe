#include "model/target_model.hh"

#include <cmath>

#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::model {

namespace {

/** Normalize v to unit L2 norm (no-op on zero vectors). */
void
unitize(tensor::Span v)
{
    const float n = tensor::norm2(v);
    if (n > 0.0f)
        tensor::scaleInplace(v, 1.0f / n);
}

} // namespace

std::pair<tensor::WeightBackend, tensor::WeightBackend>
weightBackends(const TargetModelOptions &opts)
{
    if (opts.quantized) {
        specee_assert(opts.weight_backend == tensor::WeightBackend::Fp32,
                      "legacy `quantized` and `weight_backend` are "
                      "mutually exclusive");
        return {tensor::WeightBackend::Q4, tensor::WeightBackend::Fp32};
    }
    return {opts.weight_backend, opts.weight_backend};
}

TargetModel::TargetModel(const ModelConfig &cfg,
                         const TargetModelOptions &opts)
    : TargetModel(cfg, opts, [&] {
          const auto [proj, head] = weightBackends(opts);
          return std::make_shared<const Weights>(cfg, proj, head);
      }())
{
}

TargetModel::TargetModel(const ModelConfig &cfg,
                         const TargetModelOptions &opts,
                         std::shared_ptr<const Weights> weights)
    : cfg_(cfg),
      opts_(opts),
      weights_(std::move(weights)),
      lmHead_(weights_->embedding(), weights_->rmsFinal()),
      layerBlock_(cfg),
      erow_(static_cast<size_t>(cfg.sim.hidden))
{
    const auto [proj, head] = weightBackends(opts);
    specee_assert(weights_->projBackend() == proj &&
                      weights_->headBackend() == head,
                  "shared weights are %s/%s but the model options "
                  "select %s/%s",
                  tensor::weightBackendName(weights_->projBackend()),
                  tensor::weightBackendName(weights_->headBackend()),
                  tensor::weightBackendName(proj),
                  tensor::weightBackendName(head));
    specee_assert(weights_->nLayers() == cfg.n_layers &&
                      weights_->embedding().rows() ==
                          static_cast<size_t>(cfg.sim.vocab) &&
                      weights_->embedding().cols() ==
                          static_cast<size_t>(cfg.sim.hidden),
                  "shared weights were built for another model shape");
    own_ = makeSequence();
    seq_ = &own_;
}

std::unique_ptr<KvStore>
TargetModel::makeDefaultKv() const
{
    if (opts_.paged_kv) {
        const int blocks =
            cfg_.n_layers * (cfg_.context_len / kKvBlockSize + 2);
        return std::make_unique<SequenceKv>(std::make_shared<PagedKvCache>(
            cfg_.n_layers, blocks, cfg_.sim.hidden));
    }
    return std::make_unique<KvCache>(cfg_.n_layers, cfg_.context_len,
                                     cfg_.sim.hidden);
}

SequenceState
TargetModel::makeSequence(std::unique_ptr<KvStore> kv) const
{
    SequenceState s;
    s.kv = kv ? std::move(kv) : makeDefaultKv();
    s.noiseRng = Rng(opts_.noise_seed);
    s.hidden.resize(static_cast<size_t>(cfg_.sim.hidden));
    s.dirTarget.resize(static_cast<size_t>(cfg_.sim.hidden));
    s.dirDistractor.resize(static_cast<size_t>(cfg_.sim.hidden));
    return s;
}

void
TargetModel::bindSequence(SequenceState *seq)
{
    seq_ = seq != nullptr ? seq : &own_;
    specee_assert(seq_->kv != nullptr &&
                      seq_->hidden.size() ==
                          static_cast<size_t>(cfg_.sim.hidden),
                  "bound sequence state does not match the model");
}

void
TargetModel::reset(uint64_t noise_stream)
{
    SequenceState &s = *seq_;
    s.kv->clear();
    s.pos = 0;
    s.layer = 0;
    s.inToken = false;
    // Reseed the steering-noise stream so a sequence's decode depends
    // only on (noise_seed, noise_stream), never on what the model ran
    // before — per-request execution must be re-entrant for serving.
    s.noiseRng = Rng(opts_.noise_seed ^ noise_stream);
}

void
TargetModel::prefill(const std::vector<int> &tokens)
{
    SequenceState &s = *seq_;
    specee_assert(!s.inToken, "prefill during a decode step");
    for (int tok : tokens) {
        specee_assert(tok >= 0 && tok < cfg_.sim.vocab,
                      "prompt token %d out of range", tok);
        weights_->embedding().copyRow(static_cast<size_t>(tok), s.hidden);
        for (int l = 0; l < cfg_.n_layers; ++l)
            layerBlock_.fillKv(weights_->layer(l), l, s.hidden, s.pos,
                               *s.kv);
        ++s.pos;
    }
}

void
TargetModel::beginToken(int input_token, const TokenScript &script)
{
    SequenceState &s = *seq_;
    specee_assert(!s.inToken, "beginToken during a decode step");
    specee_assert(input_token >= 0 && input_token < cfg_.sim.vocab,
                  "input token out of range");
    specee_assert(script.target >= 0 && script.target < cfg_.sim.vocab &&
                  script.distractor >= 0 &&
                  script.distractor < cfg_.sim.vocab,
                  "script token out of range");
    s.script = script;
    s.layer = 0;
    s.inToken = true;

    // Residual stream starts at the input embedding.
    weights_->embedding().copyRow(static_cast<size_t>(input_token),
                                 s.hidden);

    // Per-token noisy target direction: dir = unit(E[target] + nu*z).
    weights_->embedding().copyRow(static_cast<size_t>(script.target),
                                 erow_);
    const float nu = opts_.steer.target_noise;
    const float per_dim =
        nu / std::sqrt(static_cast<float>(cfg_.sim.hidden));
    for (size_t i = 0; i < s.dirTarget.size(); ++i) {
        s.dirTarget[i] =
            erow_[i] +
            static_cast<float>(s.noiseRng.normal(0.0, per_dim));
    }
    unitize(s.dirTarget);

    weights_->embedding().copyRow(static_cast<size_t>(script.distractor),
                                 s.dirDistractor);

    const float j = opts_.steer.distractor_jitter;
    s.distractorScale =
        static_cast<float>(s.noiseRng.uniform(1.0 - j, 1.0 + j));
}

void
TargetModel::steer(int layer_just_run)
{
    SequenceState &s = *seq_;
    const SteerParams &sp = opts_.steer;
    const int l = layer_just_run;

    float alpha = tensor::sigmoid(
        (static_cast<float>(l - s.script.conv_layer) + 0.5f) / sp.tau);
    if (l == cfg_.n_layers - 1)
        alpha = std::max(alpha, sp.final_alpha);

    // The distractor fades in over the first few layers and out as
    // the target takes over.
    const float ramp =
        std::min(1.0f, static_cast<float>(l + 1) / 4.0f);
    const float beta = sp.distractor_strength * s.distractorScale *
                       (1.0f - alpha) * ramp;

    unitize(s.hidden); // texture component on the unit sphere
    const float tex = std::max(0.0f, 1.0f - alpha - beta);
    for (size_t i = 0; i < s.hidden.size(); ++i) {
        s.hidden[i] = tex * s.hidden[i] + alpha * s.dirTarget[i] +
                      beta * s.dirDistractor[i];
    }
    unitize(s.hidden);
}

tensor::CSpan
TargetModel::runLayer()
{
    SequenceState &s = *seq_;
    specee_assert(s.inToken, "runLayer outside a decode step");
    specee_assert(s.layer < cfg_.n_layers, "runLayer past last layer");
    layerBlock_.forward(weights_->layer(s.layer), s.layer, s.hidden,
                        s.pos, *s.kv, opts_.sparse_ffn,
                        opts_.ffn_active_frac);
    steer(s.layer);
    ++s.layer;
    return s.hidden;
}

int
TargetModel::runRemainingLayers()
{
    SequenceState &s = *seq_;
    specee_assert(s.inToken, "runRemainingLayers outside a decode step");
    while (s.layer < cfg_.n_layers)
        runLayer();
    s.inToken = false;
    ++s.pos;
    return lmHead_.argmaxToken(s.hidden);
}

int
TargetModel::finishEarly()
{
    SequenceState &s = *seq_;
    specee_assert(s.inToken, "finishEarly outside a decode step");
    const int filled = cfg_.n_layers - s.layer;
    for (int l = s.layer; l < cfg_.n_layers; ++l)
        layerBlock_.fillKv(weights_->layer(l), l, s.hidden, s.pos, *s.kv);
    s.layer = cfg_.n_layers;
    s.inToken = false;
    ++s.pos;
    return filled;
}

int
TargetModel::globalArgmax() const
{
    return lmHead_.argmaxToken(seq_->hidden);
}

void
TargetModel::logitsSliced(const std::vector<int> &tokens,
                          tensor::Span out) const
{
    lmHead_.sliced(seq_->hidden, tokens, out);
}

tensor::Vec
TargetModel::fullLogits() const
{
    tensor::Vec logits(static_cast<size_t>(cfg_.sim.vocab));
    lmHead_.full(seq_->hidden, logits);
    return logits;
}

} // namespace specee::model
