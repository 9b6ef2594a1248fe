#include "engines/decode_session.hh"

#include <algorithm>

#include "core/hyper_token.hh"
#include "core/token_tree.hh"
#include "oracle/profiles.hh"
#include "util/logging.hh"

namespace specee::engines {

namespace {

/** Rebinds the model to the session's sequence for one operation. */
class BindGuard
{
  public:
    BindGuard(model::TargetModel &tm, model::SequenceState *seq) : tm_(tm)
    {
        tm_.bindSequence(seq);
    }
    ~BindGuard() { tm_.bindSequence(nullptr); }
    BindGuard(const BindGuard &) = delete;
    BindGuard &operator=(const BindGuard &) = delete;

  private:
    model::TargetModel &tm_;
};

} // namespace

DecodeSession::DecodeSession(Engine &eng, const workload::Workload &w,
                             size_t instance_idx,
                             const model::DraftModel &dlm, RunResult &out,
                             Rng &rng)
    : eng_(eng),
      w_(&w),
      instance_(instance_idx),
      dlm_(&dlm),
      out_(&out),
      rng_(&rng),
      seq_(eng.tm_->makeSequence()),
      fx_(eng.mcfg_.num_spec_tokens),
      online_(eng.nExitLayers(), eng.ecfg_.online_window,
              eng.ecfg_.online_radius)
{
    specee_assert(instance_ < w_->instances.size(),
                  "session instance out of range");
    kvView_ = dynamic_cast<model::SequenceKv *>(seq_.kv.get());
}

DecodeSession::DecodeSession(Engine &eng, workload::Workload w,
                             uint64_t seed,
                             std::unique_ptr<model::KvStore> kv)
    : eng_(eng),
      ownedW_(std::move(w)),
      w_(&*ownedW_),
      instance_(0),
      seq_(eng.tm_->makeSequence(std::move(kv))),
      fx_(eng.mcfg_.num_spec_tokens),
      online_(eng.nExitLayers(), eng.ecfg_.online_window,
              eng.ecfg_.online_radius)
{
    // This preamble mirrors Engine::run exactly so an owning
    // session's finalized result is bit-identical to runOne.
    specee_assert(w_->instances.size() == 1,
                  "owning sessions decode single-instance workloads");
    eng_.checkRunnable();

    const auto &profile = oracle::profileByName(w_->dataset);
    const double hit = eng_.ecfg_.draft_hit_override >= 0.0
                           ? eng_.ecfg_.draft_hit_override
                           : profile.draft_hit_rate;
    ownedDlm_.emplace(eng_.mcfg_, eng_.corpus_, hit);
    dlm_ = &*ownedDlm_;

    ownedOut_.emplace();
    out_ = &*ownedOut_;
    out_->stats.engine = eng_.ecfg_.name;
    out_->stats.dataset = w_->dataset;
    out_->stats.model = eng_.mcfg_.name;
    out_->stats.platform = eng_.hwspec_.name;
    out_->stats.exit_histogram.assign(
        static_cast<size_t>(eng_.nExitLayers()), 0);

    ownedRng_.emplace(seed ^ eng_.mcfg_.weight_seed);
    rng_ = &*ownedRng_;

    kvView_ = dynamic_cast<model::SequenceKv *>(seq_.kv.get());
}

void
DecodeSession::prefill()
{
    specee_assert(!prefilled_, "prefill() after prefill done");
    const auto &inst = w_->instances[instance_];
    BindGuard bind(*eng_.tm_, &seq_);
    if (!prefillStarted_) {
        // fork() keeps the decode rng stream untouched (draft draws
        // stay comparable across engine configs); the instance index
        // makes the noise substreams distinct even for engines whose
        // decode never advances the parent rng.
        eng_.tm_->reset(rng_->fork(0x7e5e + instance_).next());
        prefillStarted_ = true;
    }
    // After adoptCachedPrefix() only the uncached tail is appended;
    // cold sessions start at simFilled_ = 0 — the legacy path.
    const int prefix_len = static_cast<int>(inst.prompt.size()) - 1;
    if (prefix_len > simFilled_) {
        std::vector<int> slice(inst.prompt.begin() + simFilled_,
                               inst.prompt.end() - 1);
        eng_.tm_->prefill(slice);
        simFilled_ = prefix_len;
    }
    input_ = inst.prompt.back();
    prefillTrue_ = prefillTotal();
    prefilled_ = true;
}

void
DecodeSession::adoptCachedPrefix(
    const std::vector<std::vector<int>> &table, int true_matched,
    int sim_matched)
{
    specee_assert(!prefillStarted_ && !prefilled_,
                  "adoptCachedPrefix() after prefill began");
    specee_assert(canSwap(),
                  "adoptCachedPrefix() needs a paged fleet-pool KV");
    const auto &inst = w_->instances[instance_];
    const int prefix_len = static_cast<int>(inst.prompt.size()) - 1;
    specee_assert(true_matched > 0 && true_matched <= prefillTotal(),
                  "adopted true span %d outside prompt of %d",
                  true_matched, prefillTotal());
    specee_assert(sim_matched > 0 && sim_matched <= prefix_len,
                  "adopted sim span %d outside prefix of %d",
                  sim_matched, prefix_len);
    BindGuard bind(*eng_.tm_, &seq_);
    // Same sequence initialization (and rng fork) as a cold
    // prefill, so the resumed decode is bit-identical to a cold run.
    eng_.tm_->reset(rng_->fork(0x7e5e + instance_).next());
    prefillStarted_ = true;
    kvView_->adoptPrefix(table, sim_matched);
    seq_.pos = sim_matched;
    simFilled_ = sim_matched;
    prefillTrue_ = true_matched;
    if (prefillTrue_ >= prefillTotal()) {
        // Full-prompt hit: nothing left to ingest, TTFT is
        // decode-only.
        input_ = inst.prompt.back();
        prefilled_ = true;
    }
}

int
DecodeSession::prefillRemaining() const
{
    return prefilled_ ? 0 : std::max(prefillTotal(), 1) - prefillTrue_;
}

int
DecodeSession::prefillChunk(int n_tokens)
{
    specee_assert(n_tokens > 0, "prefillChunk() needs n_tokens > 0");
    specee_assert(!prefilled_, "prefillChunk() after prefill done");
    specee_assert(!swapped_, "prefillChunk() on a swapped-out session");
    specee_assert(!awaitingTransfer(),
                  "prefillChunk() on a session with an in-flight KV "
                  "transfer");
    const auto &inst = w_->instances[instance_];
    const auto before = snapshotOplog();
    BindGuard bind(*eng_.tm_, &seq_);
    if (!prefillStarted_) {
        // Same sequence initialization as prefill() — the chunked
        // and atomic paths are bit-identical once the prompt lands.
        eng_.tm_->reset(rng_->fork(0x7e5e + instance_).next());
        prefillStarted_ = true;
    }
    const int total = std::max(prefillTotal(), 1);
    const int take = std::min(n_tokens, total - prefillTrue_);
    eng_.chargePrefillChunk(out_->stats.oplog, take, prefillTrue_);
    prefillTrue_ += take;

    // Functional KV fills in proportion to the modeled progress;
    // TargetModel::prefill is a pure per-token append, so slice-wise
    // calls reproduce the atomic prefill() state exactly.
    const int prefix_len = static_cast<int>(inst.prompt.size()) - 1;
    const int sim_target =
        prefillTrue_ >= total
            ? prefix_len
            : static_cast<int>(static_cast<long>(prefix_len) *
                               prefillTrue_ / total);
    if (sim_target > simFilled_) {
        std::vector<int> slice(
            inst.prompt.begin() + simFilled_,
            inst.prompt.begin() + sim_target);
        eng_.tm_->prefill(slice);
        simFilled_ = sim_target;
    }
    if (prefillTrue_ >= total) {
        input_ = inst.prompt.back();
        prefilled_ = true;
    }
    // A prefill chunk streams every layer's weights: it occupies the
    // whole pipeline and skips no KV.
    lastDeepest_ = eng_.mcfg_.n_layers;
    lastFillLo_ = eng_.mcfg_.n_layers;
    lastPredLayers_.reset();
    lastAttnLayers_ = 0;
    captureCost(before, 0);
    return take;
}

bool
DecodeSession::finished() const
{
    return stepIdx_ >= w_->instances[instance_].steps.size();
}

std::array<std::pair<double, double>, hw::kNumOpClasses>
DecodeSession::snapshotOplog() const
{
    std::array<std::pair<double, double>, hw::kNumOpClasses> snap;
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto &tot =
            out_->stats.oplog.totals(static_cast<hw::OpClass>(c));
        snap[static_cast<size_t>(c)] = {tot.time_s, tot.energy_j};
    }
    return snap;
}

void
DecodeSession::captureCost(
    const std::array<std::pair<double, double>, hw::kNumOpClasses>
        &before,
    int tokens)
{
    const model::StageGraph &g = eng_.stages_;
    const int n_stages = g.nStages();
    const int L = g.nLayers();

    last_ = StepCost{};
    last_.tokens = tokens;
    last_.deepest_layer = lastDeepest_;
    last_.stages_used = g.stagesForDepth(lastDeepest_);
    last_.predictor_layers = lastPredLayers_;
    last_.attn_layers = lastAttnLayers_;
    if (n_stages > 1) {
        last_.stage_shared_s.assign(static_cast<size_t>(n_stages), 0.0);
        last_.stage_shared_j.assign(static_cast<size_t>(n_stages), 0.0);
    }
    // Apportion a layer-range charge across the stages it overlaps.
    const auto spread = [&](double dt, double de, int lo, int hi) {
        const int span = hi - lo;
        if (span <= 0)
            return;
        for (int s = 0; s < n_stages; ++s) {
            const double f =
                static_cast<double>(g.overlapLayers(s, lo, hi)) /
                static_cast<double>(span);
            last_.stage_shared_s[static_cast<size_t>(s)] += dt * f;
            last_.stage_shared_j[static_cast<size_t>(s)] += de * f;
        }
    };
    const auto onStage = [&](double dt, double de, int s) {
        last_.stage_shared_s[static_cast<size_t>(s)] += dt;
        last_.stage_shared_j[static_cast<size_t>(s)] += de;
    };
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto cls = static_cast<hw::OpClass>(c);
        const auto &tot = out_->stats.oplog.totals(cls);
        const double dt =
            tot.time_s - before[static_cast<size_t>(c)].first;
        const double de =
            tot.energy_j - before[static_cast<size_t>(c)].second;
        if (dt != 0.0)
            last_.class_s.emplace_back(c, dt);
        if (!hw::isBatchAmortized(cls)) {
            last_.private_s += dt;
            last_.private_j += de;
            continue;
        }
        last_.shared_s += dt;
        last_.shared_j += de;
        if (n_stages <= 1 || (dt == 0.0 && de == 0.0))
            continue;
        switch (cls) {
        case hw::OpClass::DecoderLayer:
        case hw::OpClass::Sync:
            // Per-layer work of the traversed range.
            spread(dt, de, 0, lastDeepest_);
            break;
        case hw::OpClass::KvFill:
            // k/v projections of the skipped tail — the downstream
            // stages still stream these thin weights after an exit,
            // which is why occupancy (stages_used) tracks only the
            // full-weight decoder stream.
            spread(dt, de, lastFillLo_, L);
            break;
        case hw::OpClass::PrefillWeights:
            spread(dt, de, 0, L);
            break;
        case hw::OpClass::LmHeadFull:
            // The head applies where the pass stopped (EE-LLM
            // replicates it at exit points).
            onStage(dt, de,
                    g.stageOfLayer(std::max(lastDeepest_, 1) - 1));
            break;
        default:
            // Embed, Draft, Overhead: front-of-pipeline work.
            onStage(dt, de, 0);
            break;
        }
    }
}

double
DecodeSession::swapOut()
{
    specee_assert(canSwap(), "swapOut() needs a paged fleet-pool KV");
    specee_assert(!swapped_, "double swap-out");
    kvView_->swapOut();
    swapped_ = true;
    return eng_.chargeKvSwap(out_->stats.oplog, hw::OpClass::KvSwapOut,
                             modeledPositions());
}

double
DecodeSession::swapIn()
{
    specee_assert(swapped_, "swapIn() of a device-resident session");
    kvView_->swapIn();
    swapped_ = false;
    return eng_.chargeKvSwap(out_->stats.oplog, hw::OpClass::KvSwapIn,
                             modeledPositions());
}

int
DecodeSession::hostBlocks() const
{
    return kvView_ != nullptr ? kvView_->hostBlocks() : 0;
}

int
DecodeSession::kvSeqId() const
{
    specee_assert(kvView_ != nullptr,
                  "kvSeqId() needs a paged fleet-pool KV");
    return kvView_->seqId();
}

void
DecodeSession::beginTransfer()
{
    specee_assert(canSwap(),
                  "beginTransfer() needs a paged fleet-pool KV");
    kvView_->beginTransfer();
}

void
DecodeSession::endTransfer()
{
    specee_assert(canSwap(), "endTransfer() needs a paged fleet-pool KV");
    kvView_->endTransfer();
}

double
DecodeSession::handoffSeconds() const
{
    return eng_.kvHandoffSeconds(modeledPositions());
}

double
DecodeSession::chargeHandoff()
{
    specee_assert(prefilled_,
                  "KV handoff of a session that has not finished "
                  "prefill");
    return eng_.chargeKvHandoff(out_->stats.oplog, modeledPositions());
}

double
DecodeSession::swapRoundTripSeconds() const
{
    return 2.0 * eng_.kvSwapSeconds(modeledPositions());
}

double
DecodeSession::modeledCostSoFar() const
{
    // Exclude past swap transfers: a recompute replay re-prices the
    // decode/prefill work, not the host-link traffic of earlier
    // preemptions.
    const auto &log = out_->stats.oplog;
    return log.grand().time_s -
           log.totals(hw::OpClass::KvSwapOut).time_s -
           log.totals(hw::OpClass::KvSwapIn).time_s;
}

bool
DecodeSession::step()
{
    specee_assert(prefilled_, "step() before prefill()");
    specee_assert(!swapped_, "step() on a swapped-out session");
    specee_assert(!awaitingTransfer(),
                  "step() on a session with an in-flight KV transfer");
    if (finished())
        return false;

    const auto before = snapshotOplog();
    const auto tokens_before = em_.tokens.size();

    bool more;
    {
        BindGuard bind(*eng_.tm_, &seq_);
        more = eng_.ecfg_.spec_decode ? stepSpeculative()
                                      : stepAutoregressive();
    }

    captureCost(before,
                static_cast<int>(em_.tokens.size() - tokens_before));
    return more;
}

bool
DecodeSession::stepAutoregressive()
{
    const auto &inst = w_->instances[instance_];
    const int logical_pos =
        w_->true_prompt_len + static_cast<int>(stepIdx_);
    auto o = eng_.decodeToken(input_, inst.steps[stepIdx_], *dlm_, fx_,
                              eng_.ecfg_.online_sched ? &online_
                                                      : nullptr,
                              &out_->stats.oplog, logical_pos, *rng_,
                              out_->stats);
    em_.tokens.push_back(o.token);
    em_.exit_layers.push_back(o.layers_used);
    out_->stats.avg_forward_layers += o.layers_used;
    ++out_->stats.tokens;
    input_ = o.token;
    ++stepIdx_;
    // An exited token streams weights down to its exit layer only
    // and back-fills KV for the skipped tail.
    lastDeepest_ = o.layers_used;
    lastFillLo_ = o.layers_used;
    lastPredLayers_ = o.predictor_layers;
    lastAttnLayers_ = o.layers_used;
    return !finished();
}

bool
DecodeSession::stepSpeculative()
{
    const auto &inst = w_->instances[instance_];
    const bool ee = eng_.ecfg_.early_exit && eng_.preds_ != nullptr;
    core::OnlineScheduler *onl =
        eng_.ecfg_.online_sched && ee ? &online_ : nullptr;
    const size_t n_steps = inst.steps.size();
    RunResult &out = *out_;

    // First token decodes normally (as in EAGLE).
    if (stepIdx_ == 0) {
        auto o = eng_.decodeToken(inst.prompt.back(), inst.steps[0],
                                  *dlm_, fx_, onl, &out.stats.oplog,
                                  w_->true_prompt_len, *rng_, out.stats);
        em_.tokens.push_back(o.token);
        em_.exit_layers.push_back(o.layers_used);
        out.stats.avg_forward_layers += o.layers_used;
        ++out.stats.tokens;
        ++stepIdx_;
        lastDeepest_ = o.layers_used;
        lastFillLo_ = o.layers_used;
        lastPredLayers_ = o.predictor_layers;
        lastAttnLayers_ = o.layers_used;
        return !finished();
    }

    size_t step = stepIdx_;

    // Draft a token tree from the last committed token.
    const int root_tok = em_.tokens.back();
    std::vector<model::TokenScript> chain;
    for (size_t d = 0;
         d < eng_.ecfg_.tree.widths.size() && step + d < n_steps; ++d)
        chain.push_back(inst.steps[step + d]);
    std::vector<int> widths(
        eng_.ecfg_.tree.widths.begin(),
        eng_.ecfg_.tree.widths.begin() + static_cast<long>(chain.size()));
    auto tree =
        core::TokenTree::draft(*dlm_, root_tok, chain, widths, *rng_);
    eng_.chargeDraft(out.stats.oplog, static_cast<int>(widths.size()));

    out.stats.map_complexity_independent +=
        core::MergedMapping::independentMappingComplexity(tree);
    out.stats.map_complexity_merged +=
        core::MergedMapping::mergedMappingComplexity(tree);
    const long n_paths = core::MergedMapping::mergedMappingComplexity(tree);

    // Walk the tree: process the root's continuation, then follow
    // accepted children.
    int pass_layers = 0;
    int node_id = 0; // tree root
    int input = root_tok;
    int committed_this_pass = 0;
    size_t d = 0;
    int max_sched_layers = 0;
    int fill_nodes = 0;
    int min_exit_layers = eng_.mcfg_.n_layers;
    while (step < n_steps && d <= static_cast<size_t>(tree.depth())) {
        const int logical_pos =
            w_->true_prompt_len + static_cast<int>(step);
        auto o = eng_.decodeToken(input, inst.steps[step], *dlm_, fx_,
                                  onl, nullptr, logical_pos, *rng_,
                                  out.stats);
        if (o.exited) {
            ++fill_nodes;
            min_exit_layers = std::min(min_exit_layers, o.layers_used);
        }
        pass_layers = std::max(pass_layers, o.layers_used);
        max_sched_layers = std::max(max_sched_layers, o.predictors_used);
        em_.tokens.push_back(o.token);
        em_.exit_layers.push_back(o.layers_used);
        out.stats.avg_forward_layers += o.layers_used;
        ++out.stats.tokens;
        ++step;
        ++committed_this_pass;

        // Does a drafted child continue the chain?
        int next_node = -1;
        for (int kid : tree.children(node_id)) {
            if (tree.node(kid).token == o.token) {
                next_node = kid;
                break;
            }
        }
        if (next_node < 0)
            break;
        node_id = next_node;
        input = o.token;
        ++d;
    }

    // Pass-level cost: one batched TLM pass over the whole tree, cut
    // at the Cannikin exit depth; grouped predictor work scales with
    // the number of paths.
    const int batch = 1 + tree.draftCount();
    eng_.chargeLayers(out.stats.oplog, pass_layers, batch,
                      w_->true_prompt_len + static_cast<int>(step));
    // Batched KV fill: the k/v projection weights of each skipped
    // layer are read once for all exited nodes.
    if (fill_nodes > 0) {
        eng_.chargeKvFill(out.stats.oplog,
                          eng_.mcfg_.n_layers - min_exit_layers,
                          fill_nodes);
    }
    // One batched full-head application per pass: the token
    // verification of vanilla EAGLE, or — under T3 — the exit
    // verification at the Cannikin exit layer (the head is read once
    // either way).
    eng_.chargeLmHeadFull(out.stats.oplog, batch);
    if (ee && max_sched_layers > 0) {
        // T3: per activated layer the engine issues ONE grouped
        // sliced GEMV and ONE batched predictor MLP covering every
        // hyper-token lane (Fig. 13), instead of one launch pipeline
        // per tree node.
        eng_.chargeLmHeadSliced(out.stats.oplog,
                                max_sched_layers *
                                    static_cast<int>(n_paths),
                                eng_.mcfg_.num_spec_tokens,
                                max_sched_layers);
        eng_.chargePredictor(out.stats.oplog,
                             max_sched_layers * static_cast<int>(n_paths),
                             max_sched_layers);
    }
    eng_.chargeOverhead(out.stats.oplog);
    if (eng_.ecfg_.spec_pass_overhead_s > 0.0) {
        eng_.cost_->accountFixed(out.stats.oplog, hw::OpClass::Overhead,
                                 eng_.ecfg_.spec_pass_overhead_s);
    }
    ++out.stats.passes;
    committed_ += committed_this_pass;
    stepIdx_ = step;
    // The pass's weight stream runs to the Cannikin cut; KV back-fill
    // covers the layers below the shallowest exit (empty when no node
    // exited — min_exit_layers stays at full depth).
    lastDeepest_ = pass_layers;
    lastFillLo_ = min_exit_layers;
    lastPredLayers_.reset();
    lastAttnLayers_ = 0;
    return !finished();
}

int
DecodeSession::kvBlocks() const
{
    if (kvView_ != nullptr)
        return kvView_->blocks();
    // Contiguous store: block-equivalent occupancy so fleet KV
    // budgets apply uniformly across engine presets.
    const int len = seq_.kv->length(0);
    return eng_.mcfg_.n_layers *
           ((len + model::kKvBlockSize - 1) / model::kKvBlockSize);
}

long
DecodeSession::modeledPositions() const
{
    // Mid-prefill, only the ingested prefix occupies modeled KV.
    const long prompt = prefilled_
                            ? static_cast<long>(w_->true_prompt_len)
                            : static_cast<long>(prefillTrue_);
    return prompt + static_cast<long>(em_.tokens.size());
}

void
DecodeSession::finishEmission()
{
    specee_assert(!emissionDone_, "emission already finished");
    out_->emissions.push_back(std::move(em_));
    emissionDone_ = true;
}

RunResult
DecodeSession::finalize()
{
    specee_assert(ownedOut_.has_value(),
                  "finalize() is only for owning sessions");
    if (!emissionDone_)
        finishEmission();
    eng_.finalizeRun(*out_, *w_, committed_);
    return std::move(*ownedOut_);
}

} // namespace specee::engines
