/**
 * @file
 * The inference engine: one loop, composable features.
 *
 * Every baseline framework (HuggingFace, vllm, AWQ, llama.cpp,
 * PowerInfer, EAGLE, AdaInfer) and every SpecEE variant is an
 * EngineConfig over this class. The engine runs the functional
 * simulator (real math at sim dims) and in parallel prices every
 * logical operator at the true Llama-2 dimensions on the configured
 * platform, so each run yields tokens + quality AND modeled
 * latency / energy / memory.
 */

#ifndef SPECEE_ENGINES_ENGINE_HH
#define SPECEE_ENGINES_ENGINE_HH

#include <bitset>
#include <memory>
#include <string>
#include <vector>

#include "core/features.hh"
#include "core/online_scheduler.hh"
#include "core/predictor.hh"
#include "core/raee.hh"
#include "engines/adainfer.hh"
#include "engines/engine_config.hh"
#include "hw/cost_model.hh"
#include "hw/hardware_model.hh"
#include "hw/memory_tracker.hh"
#include "model/draft_model.hh"
#include "model/stage_graph.hh"
#include "model/target_model.hh"
#include "oracle/corpus.hh"
#include "workload/datasets.hh"
#include "workload/evaluator.hh"

namespace specee::engines {

class DecodeSession;

/** Decoder depth a LayerMask covers (llama2-70b has 80 layers). */
constexpr int kMaxLayers = 128;

/** One bit per decoder layer. */
using LayerMask = std::bitset<kMaxLayers>;

/** Modeled seconds and energy of a group of kernel launches. */
struct LaunchCost
{
    double s = 0.0;
    double j = 0.0;
};

/** Aggregate statistics of one engine run. */
struct RunStats
{
    std::string engine;
    std::string dataset;
    std::string model;
    std::string platform;

    long tokens = 0;
    double modeled_time_s = 0.0;
    double tokens_per_s = 0.0;

    double avg_forward_layers = 0.0;
    double avg_active_predictors = 0.0;
    long predictor_invocations = 0;
    long exits = 0;
    long verify_calls = 0;
    long verify_rejects = 0;
    std::vector<long> exit_histogram; ///< per exit layer; exits only

    hw::OpLog oplog;
    double avg_power_w = 0.0;
    double energy_per_token_j = 0.0;
    double peak_mem_gb = 0.0;

    // Speculative decoding
    long passes = 0;
    double avg_commit_per_pass = 0.0;
    long map_complexity_independent = 0;
    long map_complexity_merged = 0;
};

/** Emissions + statistics of one run. */
struct RunResult
{
    std::vector<workload::Emission> emissions;
    RunStats stats;
};

/** Composable LLM inference engine. */
class Engine
{
  public:
    /**
     * @param weights  weights for the target model, built for `mcfg`
     *                 with the backends modelOptions(ecfg, mcfg)
     *                 selects (Pipeline::makeEngine shares one copy
     *                 across its engines); null builds private ones
     */
    Engine(const EngineConfig &ecfg, const model::ModelConfig &mcfg,
           const hw::HardwareSpec &spec,
           const oracle::SyntheticCorpus &corpus,
           std::shared_ptr<const model::Weights> weights = nullptr);

    /** Target-model options an engine of `ecfg` runs on `mcfg` with. */
    static model::TargetModelOptions
    modelOptions(const EngineConfig &ecfg, const model::ModelConfig &mcfg);

    /** Attach the trained SpecEE predictor bank (required for EE). */
    void setPredictors(const core::ExitPredictor *preds);

    /** Attach the trained AdaInfer SVM bank. */
    void setAdaInferBank(const AdaInferBank *bank);

    /** Attach the RAEE retrieval index. */
    void setRaeeIndex(const core::RaeeIndex *index);

    /** Offline hot-layer set from profiling (T2 offline scheduling). */
    void setOfflineHotLayers(std::vector<int> layers);

    /** Execute a workload; deterministic under `seed`. */
    RunResult run(const workload::Workload &w, uint64_t seed = 1);

    /**
     * Per-request entry point for the serving layer: run exactly one
     * instance of `w` under its own rng stream. Re-entrant — every
     * call starts from a fresh model/KV state, so a scheduler can
     * interleave requests freely on one engine and the result depends
     * only on (instance, seed), never on what ran before.
     */
    RunResult runOne(const workload::Workload &w, size_t instance,
                     uint64_t seed = 1);

    /**
     * Stepwise per-request entry point for the live serving layer: a
     * self-contained DecodeSession over a single-instance workload,
     * advanced one iteration at a time by an external scheduler.
     * `kv` optionally routes the session's KV through a shared fleet
     * pool (a model::SequenceKv view); the finalized session result
     * is bit-identical to runOne(w, 0, seed).
     *
     * Sessions of one engine share its model weights; callers must
     * step them from one thread at a time (sessions of different
     * engines are independent).
     */
    std::unique_ptr<DecodeSession>
    makeSession(const workload::Workload &w, uint64_t seed,
                std::unique_ptr<model::KvStore> kv = nullptr);

    const EngineConfig &config() const { return ecfg_; }
    const model::ModelConfig &modelConfig() const { return mcfg_; }
    const hw::HardwareSpec &platform() const { return hwspec_; }

    /** Weights the target model reads (shared when built by a Pipeline). */
    const model::Weights &weights() const { return tm_->weights(); }

    /** Fraction of weight bytes resident on the device (PC offload). */
    double deviceWeightFrac() const { return devWeightFrac_; }

    /**
     * Memory model of this engine's deployment (weight backend,
     * draft model, deployed predictors) — the single source of the
     * legacy-AWQ vs whole-model-backend selection rule, shared by
     * per-request peak_mem_gb and the serving layer's fleet view.
     */
    hw::MemoryTracker makeMemoryTracker() const;

    /**
     * Layer-range stage partition of this engine's deployment
     * (EngineConfig::pp contiguous stages; a single stage when
     * unsharded). Shared by the cost charges (handoff crossings),
     * the per-stage StepCost split and the serving scheduler's
     * stage-occupancy tracking.
     */
    const model::StageGraph &stageGraph() const { return stages_; }

    /** Tensor-parallel ways each stage's weights split across. */
    int tpDegree() const { return ecfg_.tp; }

    /** Exitable layers (n_layers - 1). */
    int nExitLayers() const { return mcfg_.n_layers - 1; }

    /**
     * Launch share of one predictor event: the sliced-head and MLP
     * kernel launches (plus the platform's predictor stall) that
     * chargeLmHeadSliced and chargePredictor add per activated layer.
     * A batch that evaluates predictors at the same layer issues this
     * pipeline once.
     */
    LaunchCost predictorLaunch() const;

    /**
     * Launch share of one layer's attention: the per-layer KvRead
     * launch chargeLayers adds. A batch issues one attention kernel
     * per layer, down to its deepest session.
     */
    LaunchCost kvReadLaunch() const;

  private:
    friend class DecodeSession;

    struct TokenOutcome
    {
        int token = -1;      ///< emitted token
        int layers_used = 0; ///< decoder layers executed
        bool exited = false; ///< early exit taken
        int exit_layer = -1; ///< layer of the exit (if any)
        int predictors_used = 0; ///< activated predictors this token
        /** Layers whose predictor event was charged (charged decodes). */
        LayerMask predictor_layers;
    };

    /** True when a predictor is active at `layer` for this token. */
    bool predictorActive(int layer,
                         const core::OnlineScheduler *online) const;

    /**
     * Functionally decode one token (input -> emission) with the
     * configured exit policy. Does not charge costs when
     * `log == nullptr` (used inside speculative passes, which charge
     * at pass granularity).
     */
    TokenOutcome decodeToken(int input_token,
                             const model::TokenScript &script,
                             const model::DraftModel &dlm,
                             core::FeatureExtractor &fx,
                             core::OnlineScheduler *online,
                             hw::OpLog *log, int logical_pos, Rng &rng,
                             RunStats &stats);

    /** Assert the configured policies have their trained artifacts. */
    void checkRunnable() const;

    /**
     * Reduce accumulated per-token stats to run-level aggregates
     * (averages, modeled time/energy, peak memory). Shared by run()
     * and owning DecodeSessions so both finalize identically.
     */
    void finalizeRun(RunResult &out, const workload::Workload &w,
                     long total_committed) const;

    // --- cost emission at true dimensions -------------------------------
    /** fp16-equivalent weight traffic of one decoder layer. */
    double layerWeightBytes(bool ffn_sparse) const;
    /** Head/embedding compression factor (legacy AWQ keeps fp16). */
    double headCompression() const;
    /**
     * Decoder stream of `n_layers` layers over `batch` rows, plus
     * their attention: one KvRead launch per layer. A serving batch
     * shares those launches (kvReadLaunch) down to its deepest
     * autoregressive session.
     */
    void chargeLayers(hw::OpLog &log, int n_layers, int batch,
                      int logical_pos) const;
    void chargeKvFill(hw::OpLog &log, int n_layers, int batch) const;
    void chargeLmHeadFull(hw::OpLog &log, int batch) const;
    /**
     * Sliced-head feature extraction: one grouped launch pipeline per
     * activated layer (`layer_events`), whatever the group count. A
     * serving batch merges the pipelines of sessions that activate
     * the same layer (predictorLaunch).
     */
    void chargeLmHeadSliced(hw::OpLog &log, int groups, int k,
                            int layer_events) const;
    /**
     * Predictor MLP over `batch` rows: one launch pipeline (and one
     * platform stall) per activated layer, merged across a serving
     * batch like the sliced head.
     */
    void chargePredictor(hw::OpLog &log, int batch,
                         int layer_events) const;
    void chargeDraft(hw::OpLog &log, int forwards) const;
    void chargeEmbed(hw::OpLog &log, int n) const;
    void chargeOverhead(hw::OpLog &log) const;

    /**
     * Tensor-parallel collective traffic of `n_layers` decoder
     * layers over `tokens` activation rows: two ring all-reduces per
     * layer (post-attention, post-FFN) at 2(t-1)/t of the activation
     * bytes each, priced over the interconnect. No-op at tp = 1.
     */
    void chargeTpAllReduce(hw::OpLog &log, int n_layers,
                           double tokens) const;

    /**
     * Pipeline activation handoffs of a step that traversed
     * `layers_used` layers: one residual-stream transfer per stage
     * boundary crossed, over `tokens` activation rows. An early exit
     * crosses only the boundaries up to its exit stage. No-op at
     * pp = 1.
     */
    void chargePpHandoff(hw::OpLog &log, int layers_used,
                         double tokens) const;

    /**
     * Modeled host-link time to move the KV of `positions` cached
     * positions (true dims) one way. Pure pricing — the scheduler's
     * swap-vs-recompute policy calls this without charging.
     */
    double kvSwapSeconds(long positions) const;

    /**
     * Price one KV swap transfer (KvSwapOut or KvSwapIn) of
     * `positions` cached positions at true dims into `log`. Swap
     * bytes are private per-request host-link traffic — they never
     * amortize across the batch. @return modeled seconds
     */
    double chargeKvSwap(hw::OpLog &log, hw::OpClass cls,
                        long positions) const;

    /**
     * Modeled peer-link time to stream the KV of `positions` cached
     * positions (true dims) from a prefill device to a decode device
     * — one copy-engine stream per layer's block chain. Pure pricing
     * for the scheduler's handoff planning.
     */
    double kvHandoffSeconds(long positions) const;

    /**
     * Price one prefill->decode KV handoff (OpClass::KvHandoff) of
     * `positions` cached positions at true dims into `log`. Handoff
     * bytes are private per-request peer-link traffic — they never
     * amortize across the batch. @return modeled seconds
     */
    double chargeKvHandoff(hw::OpLog &log, long positions) const;

    /**
     * Price one prefill chunk of `n_tokens` prompt tokens (true
     * dims) appended after `past_len` already-ingested positions.
     * The layer weight stream is charged once for the whole chunk
     * (PrefillWeights, batch-amortized: a mixed iteration reads the
     * weights once for prefill chunks and decode steps alike); the
     * chunk-scaled side — GEMM flops over n_tokens, causal attention
     * over the growing past, per-token activations and KV writes —
     * is charged as private PrefillCompute traffic. Attention runs
     * in tiles of 128 queries, FlashAttention-style: each tile
     * streams the K/V rows its queries attend to once, so the KV
     * read bytes grow with (past_len + tile end) per tile, not with
     * every (query, key) pair.
     */
    void chargePrefillChunk(hw::OpLog &log, int n_tokens,
                            int past_len) const;

    EngineConfig ecfg_;
    model::ModelConfig mcfg_;
    hw::HardwareSpec hwspec_;
    model::StageGraph stages_;
    const oracle::SyntheticCorpus &corpus_;
    std::unique_ptr<model::TargetModel> tm_;
    const core::ExitPredictor *preds_ = nullptr;
    const AdaInferBank *ada_ = nullptr;
    const core::RaeeIndex *raee_ = nullptr;
    std::vector<bool> offlineHotMask_;
    bool haveOfflineSet_ = false;
    double devWeightFrac_ = 1.0;
    /** Engine-side Q4 factor of the legacy AWQ mode (else 1.0). */
    double legacyQuantFactor_ = 1.0;
    /** Whole-model backend compression (1.0 in legacy AWQ mode). */
    double backendCompression_ = 1.0;
    std::unique_ptr<hw::CostModel> cost_;
};

} // namespace specee::engines

#endif // SPECEE_ENGINES_ENGINE_HH
