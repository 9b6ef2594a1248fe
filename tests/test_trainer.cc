/**
 * @file
 * Predictor training pipeline tests (§7.4.4): label collection,
 * per-layer dataset shapes, MLP/SVM training quality, and the
 * training-data-ratio behaviour behind Fig. 18.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/predictor_trainer.hh"
#include "model/draft_model.hh"
#include "oracle/profiles.hh"
#include "tensor/simd.hh"
#include "test_util.hh"

using namespace specee;

namespace {

struct Collected
{
    core::ProfileData data;
    model::ModelConfig cfg;
};

const Collected &
collected()
{
    static const Collected c = [] {
        Collected out{.data = {}, .cfg = model::ModelConfig::tiny()};
        oracle::SyntheticCorpus corpus(out.cfg.sim.vocab, 0xc0de ^ 42);
        workload::WorkloadGen gen(corpus);
        workload::GenOptions gopts;
        gopts.n_instances = 6;
        gopts.gen_len = 36;
        gopts.seed = 0x7e57;
        auto w = gen.generate(oracle::profileByName("MT-Bench"), out.cfg,
                              gopts);
        model::TargetModel tm(out.cfg, {});
        model::DraftModel dlm(out.cfg, corpus, 0.9);
        out.data = core::PredictorTrainer::collect(w, tm, dlm, 0x5eed);
        return out;
    }();
    return c;
}

} // namespace

TEST(Trainer, CollectShapes)
{
    const auto &c = collected();
    const int n_exit = c.cfg.n_layers - 1;
    ASSERT_EQ(static_cast<int>(c.data.specee.size()), n_exit);
    ASSERT_EQ(static_cast<int>(c.data.adainfer.size()), n_exit);
    const size_t per_layer = c.data.specee.front().size();
    EXPECT_EQ(per_layer, 6u * 36u);
    for (const auto &d : c.data.specee) {
        EXPECT_EQ(d.size(), per_layer);
        EXPECT_EQ(d.dim(), 12u);
    }
    for (const auto &d : c.data.adainfer)
        EXPECT_EQ(d.dim(), 3u);
}

TEST(Trainer, LabelsBecomeMorePositiveWithDepth)
{
    const auto &c = collected();
    // Early layers are mostly pre-convergence (label 0); late layers
    // mostly post-convergence (label 1).
    const double first = c.data.specee.front().positiveRate();
    const double last = c.data.specee.back().positiveRate();
    EXPECT_LT(first, 0.35);
    EXPECT_GT(last, 0.6);
    EXPECT_GT(last - first, 0.3);
}

TEST(Trainer, OracleExitHistogramMatchesSampleCount)
{
    const auto &c = collected();
    long total = 0;
    for (long h : c.data.oracle_exit_hist)
        total += h;
    // Hard tokens never reach label-true before the last layer, so
    // the histogram holds slightly fewer entries than tokens.
    EXPECT_GT(total, 0);
    EXPECT_LE(total, static_cast<long>(c.data.specee.front().size()));
}

TEST(Trainer, MlpBankLearnsExitDecision)
{
    const auto &c = collected();
    core::ExitPredictor bank(c.cfg.n_layers - 1, 12, 64, 2, 1);
    core::TrainerOptions topts;
    topts.train.epochs = 25;
    auto rep = core::PredictorTrainer::train(bank, c.data, topts);
    // Fig. 8 reports ~93% predictor accuracy; the tiny model should
    // comfortably exceed chance and approach that band.
    EXPECT_GT(rep.mean_test_accuracy, 0.85);
    EXPECT_GT(rep.mean_train_accuracy, 0.85);
    EXPECT_EQ(rep.per_layer_test_accuracy.size(),
              static_cast<size_t>(c.cfg.n_layers - 1));
}

TEST(Trainer, SvmBankLearnsButIsWorseCalibrated)
{
    const auto &c = collected();
    std::vector<nn::LinearSvm> bank;
    core::TrainerOptions topts;
    auto rep = core::PredictorTrainer::trainAdaInfer(bank, c.data, topts);
    ASSERT_EQ(static_cast<int>(bank.size()), c.cfg.n_layers - 1);
    EXPECT_GT(rep.mean_test_accuracy, 0.6);
    EXPECT_GT(rep.mean_train_accuracy, 0.5);
}

TEST(Trainer, DataRatioDegradesGracefully)
{
    const auto &c = collected();
    core::TrainerOptions full, tiny_ratio;
    full.train.epochs = 20;
    tiny_ratio.train.epochs = 20;
    tiny_ratio.data_ratio = 0.05;

    core::ExitPredictor bank_full(c.cfg.n_layers - 1, 12, 64, 2, 1);
    core::ExitPredictor bank_tiny(c.cfg.n_layers - 1, 12, 64, 2, 1);
    auto rep_full = core::PredictorTrainer::train(bank_full, c.data, full);
    auto rep_tiny =
        core::PredictorTrainer::train(bank_tiny, c.data, tiny_ratio);
    EXPECT_LT(rep_tiny.samples_used, rep_full.samples_used);
    // Fig. 18: a few percent of the data already performs well.
    EXPECT_GT(rep_tiny.mean_test_accuracy, 0.6);
}

TEST(Trainer, PipelineBundlesEverything)
{
    const auto &pipe = testutil::tinyPipeline();
    EXPECT_GT(pipe.trainReport().mean_test_accuracy, 0.8);
    EXPECT_FALSE(pipe.offlineHotLayers().empty());
    EXPECT_FALSE(pipe.adaInferBank().empty());
    EXPECT_EQ(pipe.predictors().nExitLayers(),
              pipe.modelConfig().n_layers - 1);
}

namespace {

/** FNV-1a over raw bytes, chained through `h`. */
uint64_t
fnv(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 0x100000001b3ull;
    return h;
}

template <typename T>
uint64_t
fnvVec(uint64_t h, const std::vector<T> &v)
{
    const size_t n = v.size();
    h = fnv(h, &n, sizeof(n));
    return fnv(h, v.data(), n * sizeof(T));
}

uint64_t
fnvDataset(uint64_t h, const nn::Dataset &d)
{
    const size_t shape[2] = {d.dim(), d.size()};
    h = fnv(h, shape, sizeof(shape));
    for (size_t i = 0; i < d.size(); ++i) {
        const tensor::CSpan f = d.features(i);
        h = fnv(h, f.data(), f.size() * sizeof(float));
        const float y = d.label(i);
        h = fnv(h, &y, sizeof(y));
    }
    return h;
}

uint64_t
fnvReport(uint64_t h, const core::TrainReport &r)
{
    h = fnv(h, &r.mean_test_accuracy, sizeof(double));
    h = fnv(h, &r.samples_used, sizeof(size_t));
    return fnvVec(h, r.per_layer_test_accuracy);
}

/**
 * Digest of everything a Pipeline build produces: the profiling data,
 * the saved MLP bank, both training reports (the AdaInfer train
 * accuracy excepted) and the offline hot layers.
 */
uint64_t
pipelineDigest(const engines::Pipeline &pipe)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const core::ProfileData &p = pipe.profileData();
    for (const auto &d : p.specee)
        h = fnvDataset(h, d);
    for (const auto &d : p.adainfer)
        h = fnvDataset(h, d);
    h = fnvVec(h, p.oracle_exit_hist);
    for (const auto &probe : p.raee_probes)
        h = fnvVec(h, probe);
    h = fnvVec(h, p.raee_exits);

    const std::string path =
        ::testing::TempDir() + "specee_digest_bank.bin";
    pipe.predictors().save(path);
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bank((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    EXPECT_FALSE(bank.empty());
    h = fnvVec(h, bank);

    h = fnvReport(h, pipe.trainReport());
    h = fnv(h, &pipe.trainReport().mean_train_accuracy, sizeof(double));
    h = fnvReport(h, pipe.adaTrainReport());
    return fnvVec(h, pipe.offlineHotLayers());
}

} // namespace

TEST(Trainer, PipelineBuildsMatchRecordedDigests)
{
#if defined(__clang__)
    GTEST_SKIP() << "digests were recorded with GCC, which in ISO mode "
                    "never contracts a * b + c into an FMA; clang does "
                    "in the AVX2 kernel tails";
#endif
    // Recorded from one-core builds that made every draw in sequence:
    // any change to a profiled sample, predictor weight, accuracy or
    // hot layer shows here. Each dispatch level rounds gemv
    // differently, so each has its own digests.
    const bool avx2 =
        tensor::simd::activeLevel() == tensor::simd::Level::Avx2;
    EXPECT_EQ(pipelineDigest(testutil::tinyPipeline()),
              avx2 ? 0xacec56c00a76962full : 0x1d82312fd2634f4eull);

    // The serving benchmark's pipeline (specbench's pipelineOptions()).
    engines::PipelineOptions bench;
    bench.model = "llama2-7b";
    bench.train_instances = 4;
    bench.train_gen_len = 24;
    bench.train_cfg.epochs = 10;
    bench.seed = 42;
    EXPECT_EQ(pipelineDigest(engines::Pipeline(bench)),
              avx2 ? 0x9a50bcea19e42d22ull : 0x40b1712e9180e368ull);
}
