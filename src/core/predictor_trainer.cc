#include "core/predictor_trainer.hh"

#include <algorithm>
#include <iterator>
#include <span>

#include "core/features.hh"
#include "model/kv_arena.hh"
#include "tensor/kernels.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace specee::core {

size_t
ProfileData::totalSamples() const
{
    size_t n = 0;
    for (const auto &d : specee)
        n += d.size();
    return n;
}

namespace {

/**
 * Tokens per full-head GEMM when profiling. The head streams once per
 * batch; a batch's logits (kHeadBatch x vocab) are live per instance
 * on every core, so a larger batch buys little speed for its memory.
 */
constexpr size_t kHeadBatch = 8;

/** Empty per-layer datasets for a model of `cfg`. */
ProfileData
emptyProfile(const model::ModelConfig &cfg)
{
    const size_t n_exit = static_cast<size_t>(cfg.n_layers - 1);
    ProfileData data;
    data.specee.assign(n_exit, nn::Dataset(3 * cfg.num_spec_tokens));
    data.adainfer.assign(n_exit, nn::Dataset(3));
    data.oracle_exit_hist.assign(n_exit, 0);
    return data;
}

/**
 * Profile one instance on `tm` (reset to `noise_stream`), with the
 * draft model's proposals for its steps already drawn in `specs`.
 *
 * Teacher-forced and layer-major: every token's steering state is
 * drawn first, in token order, then layer 0 runs for all tokens in
 * token order, then layer 1, and so on over the instance's one KV
 * store. Each layer's weights thus stay cached across the tokens,
 * and the tokens' full-head logits after a layer come from blocked
 * GEMMs over kHeadBatch tokens, each reading the head once. Token t
 * attends to exactly the rows a token-major run shows it, and samples
 * are appended in the same order, so the data is bit-identical to
 * one. The last layer feeds no sample and never runs.
 */
ProfileData
collectInstance(const workload::Instance &inst, model::TargetModel &tm,
                uint64_t noise_stream,
                const std::vector<std::vector<int>> &specs)
{
    const model::ModelConfig &cfg = tm.config();
    const int n_exit = cfg.n_layers - 1;
    const size_t n_tok = inst.steps.size();
    const size_t vocab = static_cast<size_t>(cfg.sim.vocab);
    ProfileData data = emptyProfile(cfg);

    // Teacher forcing: each step reads the previous step's target.
    std::vector<int> inputs(n_tok);
    for (size_t t = 0; t < n_tok; ++t)
        inputs[t] = t == 0 ? inst.prompt.back() : inst.steps[t - 1].target;

    tm.reset(noise_stream);
    tm.prefill(inst.prompt);
    std::vector<model::SequenceState> toks =
        tm.beginTokens(inputs, inst.steps);
    std::vector<FeatureExtractor> fx(
        n_tok, FeatureExtractor(cfg.num_spec_tokens));
    std::vector<tensor::CSpan> hiddens, feats(n_tok);
    for (size_t t = 0; t < n_tok; ++t) {
        fx[t].beginToken(specs[t]);
        hiddens.emplace_back(toks[t].hidden);
    }
    // One mapping of its own (KvArena): a heap block this size would
    // stay cached in each worker's malloc arena after the instance.
    const size_t head_rows = std::min(kHeadBatch, n_tok);
    model::KvArena logit_rows(head_rows, vocab);
    const tensor::Span logits(logit_rows.row(0).data(), head_rows * vocab);
    std::vector<int> first_true(n_tok, -1);

    for (int l = 0; l < n_exit; ++l) {
        for (size_t t = 0; t < n_tok; ++t) {
            tm.bindSequence(&toks[t]);
            tm.runLayer();
            if (l == 0) // RAEE probe: the hidden state after layer 0.
                data.raee_probes.push_back(toks[t].hidden);
            feats[t] = fx[t].extract(tm);
        }
        for (size_t t0 = 0; t0 < n_tok; t0 += kHeadBatch) {
            const size_t nb = std::min(kHeadBatch, n_tok - t0);
            tm.lmHead().fullBatch(std::span(hiddens).subspan(t0, nb),
                                  logits.first(nb * vocab));
            for (size_t t = t0; t < t0 + nb; ++t) {
                const tensor::Span full_logits =
                    logits.subspan((t - t0) * vocab, vocab);
                const int global =
                    static_cast<int>(tensor::argmax(full_logits));
                // Label per §7.4.4: exiting here emits the same token
                // as the full forward pass (which emits the script
                // target by construction).
                const float label =
                    global == inst.steps[t].target ? 1.0f : 0.0f;
                data.specee[static_cast<size_t>(l)].add(feats[t], label);

                auto af = adaInferFeatures(full_logits);
                data.adainfer[static_cast<size_t>(l)].add(
                    tensor::CSpan(af.data(), af.size()), label);

                if (label > 0.5f && first_true[t] < 0)
                    first_true[t] = l;
            }
        }
    }
    tm.bindSequence(nullptr);

    for (int first : first_true) {
        if (first >= 0)
            ++data.oracle_exit_hist[static_cast<size_t>(first)];
        data.raee_exits.push_back(first >= 0 ? first : cfg.n_layers - 1);
    }
    return data;
}

} // namespace

ProfileData
PredictorTrainer::collect(const workload::Workload &w,
                          const model::TargetModel &tm,
                          const model::DraftModel &dlm, uint64_t seed)
{
    const model::ModelConfig &cfg = tm.config();
    const size_t n = w.instances.size();

    // Pass 1, in instance order: every draw from the shared stream.
    // Each instance gets an independent noise substream (fork()
    // leaves the speculation stream untouched), so collected features
    // cover the noise diversity served requests see; the draft
    // model's proposals depend only on the scripts, never the model.
    Rng rng(seed);
    std::vector<uint64_t> noise(n);
    std::vector<std::vector<std::vector<int>>> specs(n);
    for (size_t ii = 0; ii < n; ++ii) {
        const auto &inst = w.instances[ii];
        noise[ii] = rng.fork(0x7e5e + ii).next();
        int prev = inst.prompt.back();
        for (const auto &script : inst.steps) {
            specs[ii].push_back(dlm.speculate(prev, script.target,
                                              cfg.num_spec_tokens, rng));
            prev = script.target;
        }
    }

    // Pass 2: each instance on its own model over tm's weights.
    std::vector<ProfileData> parts(n);
    parallelFor(n, [&](size_t ii) {
        model::TargetModel m(cfg, tm.options(), tm.sharedWeights());
        parts[ii] = collectInstance(w.instances[ii], m, noise[ii],
                                    specs[ii]);
    });

    // Pass 3: append the parts in instance order.
    ProfileData data = emptyProfile(cfg);
    for (ProfileData &p : parts) {
        for (size_t l = 0; l < data.specee.size(); ++l) {
            data.specee[l].append(p.specee[l]);
            data.adainfer[l].append(p.adainfer[l]);
            data.oracle_exit_hist[l] += p.oracle_exit_hist[l];
        }
        std::move(p.raee_probes.begin(), p.raee_probes.end(),
                  std::back_inserter(data.raee_probes));
        data.raee_exits.insert(data.raee_exits.end(),
                               p.raee_exits.begin(), p.raee_exits.end());
    }
    return data;
}

namespace {

/** Shuffle, subsample and split one layer's dataset. */
std::pair<nn::Dataset, nn::Dataset>
prepare(const nn::Dataset &all, const TrainerOptions &opts, Rng &rng)
{
    nn::Dataset shuffled = all;
    shuffled.shuffle(rng);
    auto [train_full, test] = shuffled.split(opts.train_frac);
    const size_t use = std::max<size_t>(
        8, static_cast<size_t>(static_cast<double>(train_full.size()) *
                               opts.data_ratio));
    return {train_full.head(use), std::move(test)};
}

/**
 * Split every layer's dataset in layer order on the shared shuffle
 * stream, then fit the layers in parallel: fit(l, train, test) must
 * touch only layer l and returns its {train, test} accuracy. Sums run
 * in layer order after the join.
 */
template <typename Fit>
TrainReport
trainLayers(const std::vector<nn::Dataset> &layers,
            const TrainerOptions &opts, Rng rng, const Fit &fit)
{
    const size_t n = layers.size();
    std::vector<std::pair<nn::Dataset, nn::Dataset>> sets;
    sets.reserve(n);
    for (const nn::Dataset &d : layers)
        sets.push_back(prepare(d, opts, rng));

    std::vector<std::pair<double, double>> acc(n);
    parallelFor(n, [&](size_t l) {
        acc[l] = fit(l, sets[l].first, sets[l].second);
    });

    TrainReport rep;
    double test_sum = 0.0, train_sum = 0.0;
    for (size_t l = 0; l < n; ++l) {
        rep.samples_used += sets[l].first.size();
        train_sum += acc[l].first;
        test_sum += acc[l].second;
        rep.per_layer_test_accuracy.push_back(acc[l].second);
    }
    rep.mean_test_accuracy = test_sum / static_cast<double>(n);
    rep.mean_train_accuracy = train_sum / static_cast<double>(n);
    return rep;
}

} // namespace

TrainReport
PredictorTrainer::train(ExitPredictor &bank, const ProfileData &data,
                        const TrainerOptions &opts)
{
    specee_assert(static_cast<size_t>(bank.nExitLayers()) ==
                  data.specee.size(),
                  "bank/data layer mismatch");
    return trainLayers(
        data.specee, opts, Rng(opts.train.seed ^ 0x7121),
        [&](size_t l, const nn::Dataset &train_set,
            const nn::Dataset &test_set) {
            nn::Mlp &mlp = bank.mlp(static_cast<int>(l));
            const double train_acc =
                mlp.fit(train_set, opts.train).train_accuracy;
            return std::pair{train_acc, mlp.accuracy(test_set)};
        });
}

TrainReport
PredictorTrainer::trainAdaInfer(std::vector<nn::LinearSvm> &bank,
                                const ProfileData &data,
                                const TrainerOptions &opts)
{
    bank.assign(data.adainfer.size(), nn::LinearSvm(3));
    return trainLayers(
        data.adainfer, opts, Rng(opts.train.seed ^ 0xada1),
        [&](size_t l, const nn::Dataset &train_set,
            const nn::Dataset &test_set) {
            nn::LinearSvm &svm = bank[l];
            svm.fit(train_set, 25, 1e-2, 1e-4, opts.train.seed + l);
            return std::pair{svm.accuracy(train_set),
                             svm.accuracy(test_set)};
        });
}

} // namespace specee::core
