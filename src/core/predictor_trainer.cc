#include "core/predictor_trainer.hh"

#include <algorithm>
#include <iterator>

#include "core/features.hh"
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
 */
ProfileData
collectInstance(const workload::Instance &inst, model::TargetModel &tm,
                uint64_t noise_stream,
                const std::vector<std::vector<int>> &specs)
{
    const model::ModelConfig &cfg = tm.config();
    const int n_exit = cfg.n_layers - 1;
    ProfileData data = emptyProfile(cfg);
    FeatureExtractor fx(cfg.num_spec_tokens);
    tensor::Vec full_logits(static_cast<size_t>(cfg.sim.vocab));

    tm.reset(noise_stream);
    tm.prefill(inst.prompt);
    int prev = inst.prompt.back();
    for (size_t s = 0; s < inst.steps.size(); ++s) {
        const auto &script = inst.steps[s];
        fx.beginToken(specs[s]);
        tm.beginToken(prev, script);

        int first_true = -1;
        for (int l = 0; l < n_exit; ++l) {
            tm.runLayer();
            if (l == 0) {
                // RAEE probe: the hidden state after layer 0.
                tensor::CSpan h = tm.hidden();
                data.raee_probes.emplace_back(h.begin(), h.end());
            }
            tensor::CSpan feats = fx.extract(tm);

            tm.lmHead().full(tm.hidden(), full_logits);
            const int global =
                static_cast<int>(tensor::argmax(full_logits));
            // Label per §7.4.4: exiting here emits the same token as
            // the full forward pass (which emits the script target by
            // construction).
            const float label = global == script.target ? 1.0f : 0.0f;
            data.specee[static_cast<size_t>(l)].add(feats, label);

            auto af = adaInferFeatures(full_logits);
            data.adainfer[static_cast<size_t>(l)].add(
                tensor::CSpan(af.data(), af.size()), label);

            if (label > 0.5f && first_true < 0)
                first_true = l;
        }
        if (first_true >= 0)
            ++data.oracle_exit_hist[static_cast<size_t>(first_true)];
        data.raee_exits.push_back(first_true >= 0 ? first_true
                                                  : cfg.n_layers - 1);
        tm.runRemainingLayers();
        prev = script.target;
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
