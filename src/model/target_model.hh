/**
 * @file
 * TargetModel — the simulated target LLM (TLM) with layer-level
 * stepping and convergence steering.
 *
 * The model runs real transformer math (attention over a KV store,
 * SwiGLU FFN, tied LM head) at the simulation dimensions, and blends
 * each layer's output with oracle-directed embedding directions so
 * that the *probability shift* of §4.2 appears at a scripted
 * convergence layer:
 *
 *   - before conv_layer, the hidden state points mostly at the layer
 *     "texture" plus a moderate distractor direction, so the global
 *     argmax is the distractor and speculative-token probabilities
 *     stay flat;
 *   - at conv_layer, a sharp sigmoid ramp rotates the hidden state
 *     onto the (noisy) target-token embedding, so the target's local
 *     probability and logit jump — exactly the feature signal the
 *     SpecEE predictor is trained on;
 *   - at the final layer the target component is forced dominant, so
 *     a full forward pass always emits the scripted target (dense
 *     accuracy is therefore controlled by the workload scripts).
 *
 * This steering is the documented substitution for trained Llama-2
 * weights (DESIGN.md §1); everything else in the pipeline operates
 * on the model exactly as it would on a real checkpoint.
 *
 * Weights are sequence-independent; everything a decode mutates (KV,
 * position, per-token steering directions, the noise rng) lives in a
 * SequenceState. The model owns one default state — single-sequence
 * callers never see the indirection — and can temporarily bind an
 * external state, which is how the serving layer interleaves many
 * DecodeSessions on one model without duplicating weights. The
 * weights themselves are immutable and held shared, so every model
 * of one engines::Pipeline reads a single copy.
 */

#ifndef SPECEE_MODEL_TARGET_MODEL_HH
#define SPECEE_MODEL_TARGET_MODEL_HH

#include <memory>
#include <utility>
#include <vector>

#include "model/config.hh"
#include "model/decoder_layer.hh"
#include "model/kv_cache.hh"
#include "model/kv_store.hh"
#include "model/lm_head.hh"
#include "model/paged_kv.hh"
#include "model/weights.hh"
#include "util/rng.hh"

namespace specee::model {

/** Oracle script for one generated token. */
struct TokenScript
{
    int target = 0;      ///< token the full forward pass emits
    int distractor = 0;  ///< pre-convergence global argmax
    int conv_layer = 0;  ///< layer of the probability shift
};

/** Steering strength parameters (defaults calibrated in tests). */
struct SteerParams
{
    float tau = 0.25f;               ///< ramp sharpness
    float distractor_strength = 0.45f;
    /**
     * Per-token multiplier range for the distractor strength
     * (uniform in [1-j, 1+j]). Strong-distractor tokens show high
     * *global* top-1 confidence before convergence — the ambiguity
     * that fools verification-free predictors (AdaInfer) while the
     * *local* speculative probabilities stay flat.
     */
    float distractor_jitter = 0.55f;
    float target_noise = 0.35f;      ///< feature noise level
    float final_alpha = 0.93f;       ///< target dominance at last layer
};

/** Options controlling the functional compute paths. */
struct TargetModelOptions
{
    /**
     * Legacy AWQ / llama.cpp mode: Q4 projections, dense tied head.
     * Mutually exclusive with a non-fp32 `weight_backend`.
     */
    bool quantized = false;
    /**
     * Whole-model weight backend (projections AND tied embedding /
     * LM head) — the EngineConfig::weight_backend knob.
     */
    tensor::WeightBackend weight_backend = tensor::WeightBackend::Fp32;
    bool paged_kv = false;    ///< use the paged KV cache (vllm engine)
    bool sparse_ffn = false;  ///< PowerInfer-style sparse FFN
    float ffn_active_frac = 0.3f;
    SteerParams steer;
    uint64_t noise_seed = 0xfeed;
};

/**
 * (projection, head) weight backends `opts` selects: the whole-model
 * backend for both, or the legacy AWQ pair (Q4 projections, dense
 * tied head).
 */
std::pair<tensor::WeightBackend, tensor::WeightBackend>
weightBackends(const TargetModelOptions &opts);

/**
 * Everything one decoded sequence mutates: its KV store, decode
 * position, current-token steering state and the per-sequence noise
 * rng. A DecodeSession owns one of these; the model operates on
 * whichever state is currently bound.
 */
struct SequenceState
{
    std::unique_ptr<KvStore> kv;
    Rng noiseRng{0};
    TokenScript script{};
    tensor::Vec hidden;
    tensor::Vec dirTarget;
    tensor::Vec dirDistractor;
    int pos = 0;             ///< position of the token being decoded
    int layer = 0;           ///< next layer to run for the current token
    bool inToken = false;
    float distractorScale = 1.0f; ///< per-token strength multiplier
};

/**
 * Layer-steppable target model. Weights are shared; per-sequence
 * decode state is swappable via bindSequence().
 */
class TargetModel
{
  public:
    /** Model over privately built weights. */
    TargetModel(const ModelConfig &cfg, const TargetModelOptions &opts);

    /**
     * Model over shared `weights`, which must have been built for
     * `cfg` with the backends `opts` selects (fatal otherwise).
     */
    TargetModel(const ModelConfig &cfg, const TargetModelOptions &opts,
                std::shared_ptr<const Weights> weights);

    const ModelConfig &config() const { return cfg_; }
    const TargetModelOptions &options() const { return opts_; }
    const Weights &weights() const { return *weights_; }
    /** The weights as held, for building sibling models over them. */
    const std::shared_ptr<const Weights> &sharedWeights() const
    {
        return weights_;
    }
    const LmHead &lmHead() const { return lmHead_; }
    int nLayers() const { return cfg_.n_layers; }

    /**
     * Fresh per-sequence state. When `kv` is null, a private store of
     * the model's configured kind is created (contiguous, or a
     * single-sequence view over a private paged pool); the serving
     * layer instead passes a view onto its shared fleet pool.
     */
    SequenceState makeSequence(std::unique_ptr<KvStore> kv = nullptr) const;

    /**
     * Operate on `seq` until further notice; nullptr rebinds the
     * model's own default state. The bound state must outlive the
     * binding. Binding is cheap (one pointer) — sessions bind around
     * every step.
     */
    void bindSequence(SequenceState *seq);

    /** Currently bound state (the default one unless rebound). */
    const SequenceState &sequence() const { return *seq_; }

    /**
     * Clear KV, position and steering-noise state of the bound
     * sequence. `noise_stream` selects an independent noise
     * substream (e.g. per instance), so the decode of a sequence is
     * a pure function of (options, noise_stream, scripts) — the
     * re-entrancy the serving layer relies on.
     */
    void reset(uint64_t noise_stream = 0);

    /** Next absolute position to be written. */
    int position() const { return seq_->pos; }

    /**
     * Fast prompt ingestion: fills every layer's KV from the token
     * embeddings without full layer compute. Prompt hidden fidelity
     * only matters through attention texture, and decode-time costs
     * are charged by the cost model at the true prompt length.
     */
    void prefill(const std::vector<int> &tokens);

    /** Begin a decode step for `input_token` under `script`. */
    void beginToken(int input_token, const TokenScript &script);

    /** Layer that runLayer() would execute next (0-based). */
    int currentLayer() const { return seq_->layer; }

    /** True once all layers have run for the current token. */
    bool doneAllLayers() const { return seq_->layer >= cfg_.n_layers; }

    /**
     * Run the next layer (attention + FFN + steering); returns the
     * steered hidden state after that layer.
     */
    tensor::CSpan runLayer();

    /** Current steered hidden state. */
    tensor::CSpan hidden() const { return seq_->hidden; }

    /** Run all remaining layers; returns the final argmax token. */
    int runRemainingLayers();

    /**
     * Finish the current token after an early exit: fills KV for all
     * layers that were skipped from the current hidden state so later
     * tokens can attend to this position.
     *
     * @return number of layers whose KV was filled
     */
    int finishEarly();

    /** Full-vocabulary argmax on the current hidden state. */
    int globalArgmax() const;

    /** Sliced logits of `tokens` on the current hidden state. */
    void logitsSliced(const std::vector<int> &tokens,
                      tensor::Span out) const;

    /** Full logits on the current hidden state. */
    tensor::Vec fullLogits() const;

    /** KV store of the bound sequence (for tests). */
    const KvStore &kv() const { return *seq_->kv; }

  private:
    /** Apply convergence steering to the raw layer output. */
    void steer(int layer_just_run);

    /** Private KV store of the configured kind for one sequence. */
    std::unique_ptr<KvStore> makeDefaultKv() const;

    ModelConfig cfg_;
    TargetModelOptions opts_;
    std::shared_ptr<const Weights> weights_;
    LmHead lmHead_;
    DecoderLayer layerBlock_;
    SequenceState own_;        ///< default state (single-sequence use)
    SequenceState *seq_ = nullptr; ///< bound state (defaults to &own_)
    tensor::Vec erow_; ///< embedding-row scratch (backend dequantize)
};

} // namespace specee::model

#endif // SPECEE_MODEL_TARGET_MODEL_HH
