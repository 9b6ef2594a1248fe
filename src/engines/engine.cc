#include "engines/engine.hh"

#include <algorithm>
#include <cmath>

#include "core/hyper_token.hh"
#include "core/token_tree.hh"
#include "core/verifier.hh"
#include "engines/decode_session.hh"
#include "hw/memory_tracker.hh"
#include "oracle/profiles.hh"
#include "tensor/kernels.hh"
#include "util/logging.hh"

namespace specee::engines {

namespace {
constexpr double kFp16 = 2.0;
constexpr double kQ4Factor = 4.5 / 16.0; ///< Q4 bytes per fp16 byte
/** Queries per tile of the modeled prefill-attention kernel. */
constexpr int kAttnQueryTile = 128;
/** Sliced GEMV, softmax, delta: launches per feature extraction. */
constexpr int kSlicedHeadKernels = 6;
/** Two linear layers + activations + threshold: MLP launches. */
constexpr int kPredictorKernels = 8;
} // namespace

model::TargetModelOptions
Engine::modelOptions(const EngineConfig &ecfg,
                     const model::ModelConfig &mcfg)
{
    model::TargetModelOptions opts;
    opts.quantized = ecfg.quantized;
    opts.weight_backend = ecfg.weight_backend;
    opts.paged_kv = ecfg.paged_kv;
    opts.sparse_ffn = ecfg.sparse_ffn;
    opts.ffn_active_frac = ecfg.ffn_active_frac;
    opts.noise_seed = mcfg.weight_seed ^ 0xa0153;
    return opts;
}

Engine::Engine(const EngineConfig &ecfg, const model::ModelConfig &mcfg,
               const hw::HardwareSpec &spec,
               const oracle::SyntheticCorpus &corpus,
               std::shared_ptr<const model::Weights> weights)
    : ecfg_(ecfg), mcfg_(mcfg), hwspec_(spec),
      stages_(mcfg.n_layers, ecfg.pp), corpus_(corpus)
{
    specee_assert(!ecfg.quantized ||
                  ecfg.weight_backend == tensor::WeightBackend::Fp32,
                  "legacy `quantized` and `weight_backend` are "
                  "mutually exclusive");
    specee_assert(ecfg.tp >= 1, "tp must be >= 1, got %d", ecfg.tp);
    specee_assert(mcfg.n_layers <= kMaxLayers,
                  "%d decoder layers exceed the %d a LayerMask covers",
                  mcfg.n_layers, kMaxLayers);
    if (ecfg.tp > 1 || ecfg.pp > 1) {
        // Stage-level sharding composes tp x pp single-device specs;
        // the legacy monolithic multi-GPU presets (a100x4's
        // n_devices / sync_us_per_layer) model the whole node in one
        // spec and would double-count collectives.
        specee_assert(spec.n_devices == 1,
                      "tp/pp sharding cannot combine with the "
                      "monolithic multi-device preset %s",
                      spec.name.c_str());
        specee_assert(spec.interconnect_gbs > 0.0,
                      "tp/pp sharding on platform %s, which has no "
                      "peer link (interconnect_gbs = 0)",
                      spec.name.c_str());
        specee_assert(!ecfg.allow_offload,
                      "tp/pp sharding cannot combine with host "
                      "weight offload");
    }
    const model::TargetModelOptions opts = modelOptions(ecfg, mcfg);
    tm_ = weights ? std::make_unique<model::TargetModel>(
                        mcfg, opts, std::move(weights))
                  : std::make_unique<model::TargetModel>(mcfg, opts);

    // Legacy AWQ mode compresses only the projection charges (dense
    // head, fp16-priced draft), scaled engine-side; the whole-model
    // backend knob instead compresses every weight charge inside the
    // cost model.
    legacyQuantFactor_ = ecfg.quantized ? kQ4Factor : 1.0;
    backendCompression_ =
        ecfg.quantized ? 1.0
                       : tensor::weightCompression(ecfg.weight_backend);

    // Device/host weight split (PC scenario): weights that do not fit
    // in usable VRAM are served from host memory.
    devWeightFrac_ = 1.0;
    if (ecfg.allow_offload && spec.host_bw_gbs > 0.0) {
        const double quant = legacyQuantFactor_ * backendCompression_;
        const double weight_gb =
            mcfg.truthWeightBytes() * quant / 1e9;
        // Reserve room for KV cache and activations. The draft model
        // shares this workspace (it replaces activation scratch while
        // drafting), so it does not displace additional layers.
        const double reserve_gb = 1.0;
        const double usable = std::max(0.5, spec.vram_gb * 0.92 -
                                                reserve_gb);
        // PowerInfer keeps the hot (frequently active) weights on the
        // GPU, so its effective device fraction is high even when the
        // full model does not fit.
        if (ecfg.sparse_ffn) {
            devWeightFrac_ = std::min(1.0, usable / (weight_gb * 0.55));
        } else {
            devWeightFrac_ = std::min(1.0, usable / weight_gb);
        }
    }
    // Tensor parallelism splits every stage's weight/KV stream and
    // GEMM across tp concurrently-running devices: time divides by
    // tp while per-class power multiplies by tp (tp boards drawing
    // together), so modeled energy is conserved. The per-layer
    // all-reduce traffic this buys is charged at the call sites over
    // the interconnect. tp = 1 leaves the spec bit-identical.
    hw::HardwareSpec priced = spec;
    if (ecfg.tp > 1) {
        const double t = static_cast<double>(ecfg.tp);
        priced.mem_bw_gbs *= t;
        priced.compute_tflops *= t;
        priced.swap_bw_gbs *= t; // per-device PCIe, KV sharded too
        priced.tdp_w *= t;
        for (double &p : priced.power_w)
            p *= t;
    }
    cost_ = std::make_unique<hw::CostModel>(priced, ecfg.bw_efficiency,
                                            devWeightFrac_,
                                            backendCompression_);
}

void
Engine::setPredictors(const core::ExitPredictor *preds)
{
    preds_ = preds;
}

void
Engine::setAdaInferBank(const AdaInferBank *bank)
{
    ada_ = bank;
}

void
Engine::setRaeeIndex(const core::RaeeIndex *index)
{
    raee_ = index;
}

void
Engine::setOfflineHotLayers(std::vector<int> layers)
{
    offlineHotMask_.assign(static_cast<size_t>(nExitLayers()), false);
    for (int l : layers) {
        specee_assert(l >= 0 && l < nExitLayers(),
                      "offline hot layer %d out of range", l);
        offlineHotMask_[static_cast<size_t>(l)] = true;
    }
    haveOfflineSet_ = true;
}

bool
Engine::predictorActive(int layer,
                        const core::OnlineScheduler *online) const
{
    if (!ecfg_.fixed_predictor_layers.empty()) {
        return std::find(ecfg_.fixed_predictor_layers.begin(),
                         ecfg_.fixed_predictor_layers.end(), layer) !=
               ecfg_.fixed_predictor_layers.end();
    }
    const bool use_off = ecfg_.offline_sched && haveOfflineSet_;
    const bool use_on = ecfg_.online_sched && online != nullptr;
    if (!use_off && !use_on)
        return true; // T1 only: every layer hosts a predictor
    bool active = false;
    if (use_off)
        active = offlineHotMask_[static_cast<size_t>(layer)];
    if (!active && use_on) {
        // Cold start: with no exit history (and no offline set to
        // bootstrap from) every layer stays active until the first
        // exits populate the context window.
        active = online->filled() == 0 && !use_off
                     ? true
                     : online->isActive(layer);
    }
    return active;
}

// ---------------------------------------------------------------------------
// Cost emission (true dimensions)
// ---------------------------------------------------------------------------

double
Engine::layerWeightBytes(bool ffn_sparse) const
{
    // fp16-equivalent traffic; the legacy AWQ factor is applied at the
    // charge sites and the backend compression inside hw::CostModel.
    const double h = mcfg_.truth.hidden;
    const double f = mcfg_.truth.ffn;
    const double attn = 4.0 * h * h * kFp16;
    double ffn = 3.0 * h * f * kFp16;
    if (ffn_sparse)
        ffn *= ecfg_.ffn_active_frac;
    return attn + ffn;
}

void
Engine::chargeLayers(hw::OpLog &log, int n_layers, int batch,
                     int logical_pos) const
{
    if (n_layers <= 0)
        return;
    const double h = mcfg_.truth.hidden;
    const double wbytes =
        layerWeightBytes(ecfg_.sparse_ffn) * legacyQuantFactor_ * n_layers;
    const double params = layerWeightBytes(false) / kFp16;
    const double flops = 2.0 * params * n_layers * batch;
    // Each layer is ~10 fused kernels on a modern runtime.
    cost_->account(log, hw::OpClass::DecoderLayer, flops, wbytes,
                   /*act_bytes=*/2.0 * h * kFp16 * batch * n_layers,
                   /*kernels=*/10 * n_layers);

    // KV traffic: read all cached positions per layer, write one.
    // Each position costs 2h flops in QK^T and 2h more in PV.
    const double kv_read =
        2.0 * h * kFp16 * static_cast<double>(logical_pos) * n_layers *
        batch;
    cost_->account(log, hw::OpClass::KvRead,
                   4.0 * h * logical_pos * n_layers * batch, 0.0, kv_read,
                   n_layers);

    if (hwspec_.sync_us_per_layer > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Sync,
                            hwspec_.sync_us_per_layer * 1e-6 * n_layers);
    }
    chargeTpAllReduce(log, n_layers, batch);
    chargePpHandoff(log, n_layers, batch);
}

void
Engine::chargeTpAllReduce(hw::OpLog &log, int n_layers,
                          double tokens) const
{
    if (ecfg_.tp <= 1 || n_layers <= 0)
        return;
    const double t = static_cast<double>(ecfg_.tp);
    const double h = mcfg_.truth.hidden;
    // Ring all-reduce moves 2(t-1)/t of the payload per collective;
    // two collectives per layer (post-attention, post-FFN).
    const double ring = 2.0 * (t - 1.0) / t * h * kFp16 * tokens;
    cost_->accountInterconnect(log, hw::OpClass::TpAllReduce,
                               2.0 * ring * n_layers, 2 * n_layers);
}

void
Engine::chargePpHandoff(hw::OpLog &log, int layers_used,
                        double tokens) const
{
    const int crossings = stages_.handoffs(layers_used);
    if (crossings <= 0)
        return;
    const double h = mcfg_.truth.hidden;
    cost_->accountInterconnect(log, hw::OpClass::PpHandoff,
                               h * kFp16 * tokens * crossings,
                               crossings);
}

void
Engine::chargeKvFill(hw::OpLog &log, int n_layers, int batch) const
{
    if (n_layers <= 0)
        return;
    const double h = mcfg_.truth.hidden;
    const double wbytes =
        2.0 * h * h * kFp16 * legacyQuantFactor_ * n_layers;
    cost_->account(log, hw::OpClass::KvFill,
                   2.0 * 2.0 * h * h * n_layers * batch, wbytes,
                   2.0 * h * kFp16 * batch * n_layers, 2 * n_layers);
    // Under tensor parallelism the skipped layers still cross one
    // synchronization boundary each for the sharded k/v state.
    if (hwspec_.sync_us_per_layer > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Sync,
                            0.5 * hwspec_.sync_us_per_layer * 1e-6 *
                                n_layers);
    }
}

void
Engine::chargeLmHeadFull(hw::OpLog &log, int batch) const
{
    // fp16 head in the legacy AWQ mode; compressed by the cost model
    // when a whole-model weight backend is configured.
    const double bytes = mcfg_.truthLmHeadBytes();
    const double flops =
        2.0 * mcfg_.truth.hidden * mcfg_.truth.vocab * batch;
    cost_->account(log, hw::OpClass::LmHeadFull, flops, bytes, 0.0, 1);
}

void
Engine::chargeLmHeadSliced(hw::OpLog &log, int groups, int k,
                           int layer_events) const
{
    // Sliced rows are per-request (non-amortizable) traffic, so they
    // are charged as activation bytes — compressed here rather than
    // by the cost model's weight term.
    const double bytes = static_cast<double>(mcfg_.truth.hidden) * k *
                         kFp16 * groups * headCompression();
    const double flops = 2.0 * mcfg_.truth.hidden * k * groups;
    // Feature extraction is a short kernel pipeline (sliced GEMV,
    // softmax, delta) issued once per activated layer regardless of
    // the number of hyper-token groups (Fig. 13's grouped GEMM).
    cost_->account(log, hw::OpClass::LmHeadSliced, flops, 0.0, bytes,
                   kSlicedHeadKernels * layer_events);
}

void
Engine::chargePredictor(hw::OpLog &log, int batch, int layer_events) const
{
    const double params =
        preds_ != nullptr ? static_cast<double>(
                                preds_->paramsPerPredictor())
                          : 12.0 * 512 + 512;
    // Two linear layers + activations + threshold: 8 launches per
    // activated layer. Together with feature extraction this prices a
    // predictor invocation at ~90us on A100, matching §7.4.4's
    // 0.9 ms/token over ~10 active predictors. Predictor MLPs stay
    // fp32 and device-resident regardless of the weight backend, so
    // their parameter reads are charged as activation traffic (no
    // backend compression, no offload split).
    cost_->account(log, hw::OpClass::Predictor, 2.0 * params * batch,
                   0.0, params * 4.0 + 64.0 * batch,
                   kPredictorKernels * layer_events);
    // Hybrid runtimes stall their GPU graph per host-side check.
    if (hwspec_.predictor_stall_us > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Predictor,
                            hwspec_.predictor_stall_us * 1e-6 *
                                layer_events);
    }
}

LaunchCost
Engine::predictorLaunch() const
{
    const hw::HardwareSpec &s = cost_->spec();
    const double head_s = kSlicedHeadKernels * s.launch_overhead_us * 1e-6;
    const double mlp_s = kPredictorKernels * s.launch_overhead_us * 1e-6 +
                         s.predictor_stall_us * 1e-6;
    const auto power = [&](hw::OpClass c) {
        return s.power_w[static_cast<size_t>(c)];
    };
    const double j = head_s * power(hw::OpClass::LmHeadSliced) +
                     mlp_s * power(hw::OpClass::Predictor);
    return {head_s + mlp_s, j};
}

LaunchCost
Engine::kvReadLaunch() const
{
    const hw::HardwareSpec &s = cost_->spec();
    const double t = s.launch_overhead_us * 1e-6;
    return {t, t * s.power_w[static_cast<size_t>(hw::OpClass::KvRead)]};
}

void
Engine::chargeDraft(hw::OpLog &log, int forwards) const
{
    // §5.1: one draft forward costs about one decoder layer; the DLM
    // reuses the resident embedding/LM head, so we charge 1.2x a
    // layer's weight traffic per forward. The DLM ships fp16 in the
    // legacy AWQ mode but follows the whole-model weight backend
    // (cost-model compression) when one is configured.
    const double bytes =
        layerWeightBytes(false) * model::DraftModel::layerEquivalents();
    const double flops = bytes; // memory-bound either way
    for (int i = 0; i < forwards; ++i) {
        cost_->account(log, hw::OpClass::Draft, flops, bytes, 0.0, 12);
    }
}

void
Engine::chargeEmbed(hw::OpLog &log, int n) const
{
    // Embedding rows are weight-table reads (batch-amortizable in the
    // serving layer and compressed under a quantized backend).
    const double bytes =
        static_cast<double>(mcfg_.truth.hidden) * kFp16 * n;
    cost_->account(log, hw::OpClass::Embed, 0.0, bytes, 0.0, 1);
}

void
Engine::chargePrefillChunk(hw::OpLog &log, int n_tokens,
                           int past_len) const
{
    if (n_tokens <= 0)
        return;
    const int L = mcfg_.n_layers;
    const double h = mcfg_.truth.hidden;
    const double nt = static_cast<double>(n_tokens);

    // One full-depth weight stream per chunk, regardless of chunk
    // length — the roofline's memory leg, shared with decode peers.
    const double wbytes =
        layerWeightBytes(ecfg_.sparse_ffn) * legacyQuantFactor_ * L;
    cost_->account(log, hw::OpClass::PrefillWeights, 0.0, wbytes, 0.0,
                   10 * L);

    // Chunk-scaled compute leg: projection/FFN GEMMs over n_tokens
    // per layer, plus causal attention where token i of the chunk
    // attends to past_len + i + 1 cached positions (2h flops each in
    // QK^T and in PV).
    const double params = layerWeightBytes(false) / kFp16;
    const double attended =
        nt * static_cast<double>(past_len) + 0.5 * nt * (nt + 1.0);
    const double flops =
        (2.0 * params * nt + 4.0 * h * attended) * L;
    // The attention kernel is tiled: query tile j streams K/V rows
    // [0, past_len + min((j+1) * kAttnQueryTile, n_tokens)) once.
    double kv_rows = 0.0;
    for (int end = 0; end < n_tokens;) {
        end = std::min(end + kAttnQueryTile, n_tokens);
        kv_rows += static_cast<double>(past_len) + end;
    }
    const double act_bytes =
        (2.0 * h * kFp16 * nt         // residual stream in/out
         + 2.0 * h * kFp16 * kv_rows  // k/v reads of attention
         + 2.0 * h * kFp16 * nt) *    // k/v writes of the chunk
        L;
    cost_->account(log, hw::OpClass::PrefillCompute, flops, 0.0,
                   act_bytes, 2 * L);

    if (hwspec_.sync_us_per_layer > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Sync,
                            hwspec_.sync_us_per_layer * 1e-6 * L);
    }
    chargeTpAllReduce(log, L, nt);
    chargePpHandoff(log, L, nt);
}

double
Engine::kvSwapSeconds(long positions) const
{
    if (positions <= 0)
        return 0.0;
    // One DMA per layer moves that layer's block range; the bytes
    // are the true-dims KV of every cached position.
    return cost_->swapSeconds(mcfg_.truthKvBytesPerToken() *
                                  static_cast<double>(positions),
                              mcfg_.n_layers);
}

double
Engine::chargeKvSwap(hw::OpLog &log, hw::OpClass cls,
                     long positions) const
{
    if (positions <= 0)
        return 0.0;
    return cost_->accountSwap(log, cls,
                              mcfg_.truthKvBytesPerToken() *
                                  static_cast<double>(positions),
                              mcfg_.n_layers);
}

double
Engine::kvHandoffSeconds(long positions) const
{
    if (positions <= 0)
        return 0.0;
    // Like the swap DMAs, one copy-engine stream per layer moves that
    // layer's block chain — but over the peer link, decode-device
    // bound, at the true-dims KV bytes of every cached position.
    return cost_->interconnectSeconds(mcfg_.truthKvBytesPerToken() *
                                          static_cast<double>(positions),
                                      mcfg_.n_layers);
}

double
Engine::chargeKvHandoff(hw::OpLog &log, long positions) const
{
    if (positions <= 0)
        return 0.0;
    return cost_->accountInterconnect(
        log, hw::OpClass::KvHandoff,
        mcfg_.truthKvBytesPerToken() * static_cast<double>(positions),
        mcfg_.n_layers);
}

double
Engine::headCompression() const
{
    // The legacy AWQ mode keeps the tied embedding / LM head fp16
    // (backendCompression_ is 1.0 there); a whole-model backend
    // compresses it like everything else.
    return backendCompression_;
}

void
Engine::chargeOverhead(hw::OpLog &log) const
{
    if (ecfg_.fixed_overhead_s > 0.0) {
        cost_->accountFixed(log, hw::OpClass::Overhead,
                            ecfg_.fixed_overhead_s);
    }
}

// ---------------------------------------------------------------------------
// Token decoding
// ---------------------------------------------------------------------------

Engine::TokenOutcome
Engine::decodeToken(int input_token, const model::TokenScript &script,
                    const model::DraftModel &dlm,
                    core::FeatureExtractor &fx,
                    core::OnlineScheduler *online, hw::OpLog *log,
                    int logical_pos, Rng &rng, RunStats &stats)
{
    TokenOutcome out;
    const int n_exit = nExitLayers();
    const bool specee = ecfg_.early_exit && preds_ != nullptr;
    const bool adainf = ecfg_.adainfer && ada_ != nullptr &&
                        !ada_->empty();
    const bool use_raee =
        ecfg_.raee && raee_ != nullptr && !raee_->empty();

    std::vector<int> spec_tokens;
    if (specee) {
        spec_tokens = dlm.speculate(input_token, script.target,
                                    mcfg_.num_spec_tokens, rng);
        fx.beginToken(spec_tokens);
        if (log != nullptr)
            chargeDraft(*log, 1);
    }

    tm_->beginToken(input_token, script);
    if (log != nullptr)
        chargeEmbed(*log, 1);

    int active_this_token = 0;
    tensor::Vec full_logits;
    if (adainf)
        full_logits.resize(static_cast<size_t>(mcfg_.sim.vocab));

    // RAEE decides the exit layer up front from the layer-0 probe.
    int raee_exit = -1;
    // AdaInfer patience counter (consecutive positive SVM decisions).
    int ada_streak = 0;

    while (!tm_->doneAllLayers()) {
        const int l = tm_->currentLayer();
        tm_->runLayer();

        if (l >= n_exit)
            continue; // last layer hosts no predictor

        if (use_raee) {
            if (l == 0) {
                // Retrieval: ANN probe over the database, priced at
                // the true entry count and hidden width (Table 1's
                // High-memory / Heavy-prediction row).
                ++stats.predictor_invocations;
                raee_exit =
                    raee_->predictExitLayer(tm_->hidden(), ecfg_.raee_k);
                if (log != nullptr) {
                    const double scan_bytes = ecfg_.raee_db_entries *
                                              ecfg_.raee_scan_frac *
                                              mcfg_.truth.hidden * 2.0;
                    cost_->account(*log, hw::OpClass::Predictor,
                                   scan_bytes, scan_bytes, 0.0, 24);
                }
            }
            if (l == raee_exit) {
                out.token = tm_->globalArgmax(); // no verification
                if (log != nullptr)
                    chargeLmHeadFull(*log, 1);
                out.exited = true;
                out.exit_layer = l;
                break;
            }
        } else if (specee) {
            if (!predictorActive(l, online))
                continue;
            ++active_this_token;
            ++stats.predictor_invocations;
            tensor::CSpan feats = fx.extract(*tm_);
            if (log != nullptr) {
                chargeLmHeadSliced(*log, 1, mcfg_.num_spec_tokens, 1);
                chargePredictor(*log, 1, 1);
                out.predictor_layers.set(static_cast<size_t>(l));
            }
            if (!preds_->shouldExit(l, feats, ecfg_.exit_threshold))
                continue;
            // Verification (§4.3.3): local result T' vs global result
            // T from the full head at this layer.
            ++stats.verify_calls;
            if (log != nullptr)
                chargeLmHeadFull(*log, 1);
            const size_t local_idx = tensor::argmax(fx.localProbs());
            auto v = core::Verifier::verify(*tm_, spec_tokens[local_idx]);
            if (!v.verified) {
                ++stats.verify_rejects;
                continue;
            }
            out.token = v.token;
            out.exited = true;
            out.exit_layer = l;
            break;
        } else if (adainf) {
            // AdaInfer: full LM head + SVM after every layer.
            ++stats.predictor_invocations;
            ++active_this_token;
            if (log != nullptr) {
                chargeLmHeadFull(*log, 1);
                chargePredictor(*log, 1, 1);
            }
            tm_->lmHead().full(tm_->hidden(), full_logits);
            const int global =
                static_cast<int>(tensor::argmax(full_logits));
            auto af = core::adaInferFeatures(full_logits);
            if (ada_->shouldExit(l, tensor::CSpan(af.data(), af.size())))
                ++ada_streak;
            else
                ada_streak = 0;
            // Patience scales with model depth (4 at 32 layers).
            const int patience = std::min(
                ada_->patience, std::max(1, mcfg_.n_layers / 8));
            if (ada_streak >= patience) {
                out.token = global; // no verification
                out.exited = true;
                out.exit_layer = l;
                break;
            }
        }
    }

    if (out.exited) {
        out.layers_used = out.exit_layer + 1;
        const int filled = tm_->finishEarly();
        if (log != nullptr)
            chargeKvFill(*log, filled, 1);
        ++stats.exits;
        if (static_cast<size_t>(out.exit_layer) <
            stats.exit_histogram.size()) {
            ++stats.exit_histogram[static_cast<size_t>(out.exit_layer)];
        }
        if (online != nullptr)
            online->recordExit(out.exit_layer);
    } else {
        out.token = tm_->runRemainingLayers();
        out.layers_used = mcfg_.n_layers;
        if (log != nullptr)
            chargeLmHeadFull(*log, 1);
    }

    if (log != nullptr) {
        chargeLayers(*log, out.layers_used, 1, logical_pos);
        chargeOverhead(*log);
    }
    stats.avg_active_predictors += active_this_token;
    out.predictors_used = active_this_token;
    return out;
}

// ---------------------------------------------------------------------------
// Run paths
// ---------------------------------------------------------------------------

void
Engine::checkRunnable() const
{
    if (ecfg_.early_exit)
        specee_assert(preds_ != nullptr,
                      "early exit requires trained predictors");
    if (ecfg_.adainfer)
        specee_assert(ada_ != nullptr && !ada_->empty(),
                      "AdaInfer engine requires a trained SVM bank");
    if (ecfg_.raee)
        specee_assert(raee_ != nullptr && !raee_->empty(),
                      "RAEE engine requires a retrieval index");
}

void
Engine::finalizeRun(RunResult &out, const workload::Workload &w,
                    long total_committed) const
{
    if (out.stats.passes > 0) {
        out.stats.avg_commit_per_pass =
            static_cast<double>(total_committed) /
            static_cast<double>(out.stats.passes);
    }

    RunStats &st = out.stats;
    if (st.tokens > 0) {
        st.avg_forward_layers /= static_cast<double>(st.tokens);
        st.avg_active_predictors /= static_cast<double>(st.tokens);
    }
    const auto grand = st.oplog.grand();
    st.modeled_time_s = grand.time_s;
    st.tokens_per_s =
        st.modeled_time_s > 0.0
            ? static_cast<double>(st.tokens) / st.modeled_time_s
            : 0.0;
    st.avg_power_w = st.oplog.avgPowerW();
    st.energy_per_token_j =
        st.tokens > 0 ? grand.energy_j / static_cast<double>(st.tokens)
                      : 0.0;

    const hw::MemoryTracker mem = makeMemoryTracker();
    const int max_tokens =
        w.true_prompt_len +
        (w.instances.empty()
             ? 0
             : static_cast<int>(w.instances.front().steps.size()));
    st.peak_mem_gb = hw::MemoryTracker::toGiB(mem.totalBytes(max_tokens));
}

hw::MemoryTracker
Engine::makeMemoryTracker() const
{
    const bool with_dlm = ecfg_.early_exit || ecfg_.spec_decode;
    const int n_preds =
        ecfg_.early_exit && preds_ != nullptr ? preds_->nExitLayers() : 0;
    const size_t pred_params =
        preds_ != nullptr ? preds_->paramsPerPredictor() : 0;
    // Legacy AWQ: Q4 target weights, fp16 DLM (matches chargeDraft);
    // whole-model backend: the DLM ships in the same backend.
    return ecfg_.quantized
               ? hw::MemoryTracker(mcfg_, /*quantized=*/true, with_dlm,
                                   n_preds, pred_params)
               : hw::MemoryTracker(mcfg_, ecfg_.weight_backend, with_dlm,
                                   n_preds, pred_params);
}

RunResult
Engine::run(const workload::Workload &w, uint64_t seed)
{
    specee_assert(!w.instances.empty(), "empty workload");
    checkRunnable();

    const auto &profile = oracle::profileByName(w.dataset);
    const double hit = ecfg_.draft_hit_override >= 0.0
                           ? ecfg_.draft_hit_override
                           : profile.draft_hit_rate;
    model::DraftModel dlm(mcfg_, corpus_, hit);

    RunResult out;
    out.stats.engine = ecfg_.name;
    out.stats.dataset = w.dataset;
    out.stats.model = mcfg_.name;
    out.stats.platform = hwspec_.name;
    out.stats.exit_histogram.assign(static_cast<size_t>(nExitLayers()),
                                    0);

    Rng rng(seed ^ mcfg_.weight_seed);
    long total_committed = 0;
    for (size_t i = 0; i < w.instances.size(); ++i) {
        DecodeSession session(*this, w, i, dlm, out, rng);
        session.prefill();
        while (session.step()) {
        }
        total_committed += session.committed();
        session.finishEmission();
    }
    finalizeRun(out, w, total_committed);
    return out;
}

std::unique_ptr<DecodeSession>
Engine::makeSession(const workload::Workload &w, uint64_t seed,
                    std::unique_ptr<model::KvStore> kv)
{
    return std::make_unique<DecodeSession>(*this, w, seed,
                                           std::move(kv));
}

RunResult
Engine::runOne(const workload::Workload &w, size_t instance,
               uint64_t seed)
{
    return run(w.slice(instance), seed);
}

} // namespace specee::engines
