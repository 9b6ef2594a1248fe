/**
 * @file
 * Pipeline — the top-level convenience API.
 *
 * Wires together everything a user (or a benchmark) needs to run
 * SpecEE on a model: the synthetic corpus, the offline predictor
 * training of §7.4.4, the offline scheduling profile of §5.3, the
 * AdaInfer baseline bank, and engine construction. This is the entry
 * point the examples use:
 *
 *   engines::Pipeline pipe({.model = "llama2-7b"});
 *   auto engine = pipe.makeEngine(
 *       engines::EngineConfig::huggingFace().withSpecEE(),
 *       hw::HardwareSpec::a100());
 *   auto result = engine->run(pipe.makeWorkload("MT-Bench", {}));
 *
 * The Pipeline owns one immutable copy of the model weights per
 * (projection, head) backend pair, built on first use; every engine
 * it makes with that pair (and its own profiling model, fp32/fp32)
 * reads the same copy, so a fleet of N engines pays for the weights
 * once. The copies live exactly as long as the Pipeline.
 *
 * Construction runs its three costly stages — weight generation,
 * profiling-data collection and the per-layer predictor fits — on
 * every core (util/parallel.hh). Each stage first makes all of its
 * draws from shared random streams, sequentially and in the order a
 * one-core build would, then fans the arithmetic out and merges
 * results in index order; every artifact is therefore bit-identical
 * to a sequential build and independent of the worker count.
 */

#ifndef SPECEE_ENGINES_PIPELINE_HH
#define SPECEE_ENGINES_PIPELINE_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.hh"
#include "core/predictor_trainer.hh"
#include "core/raee.hh"
#include "engines/engine.hh"
#include "oracle/corpus.hh"
#include "workload/datasets.hh"

namespace specee::engines {

/** Pipeline construction options. */
struct PipelineOptions
{
    std::string model = "llama2-7b";

    /** Profiling/training dataset (the paper uses MT-Bench). */
    std::string train_dataset = "MT-Bench";
    int train_instances = 8;
    int train_gen_len = 40;

    /** Predictor architecture (Fig. 8 optimum). */
    int mlp_hidden = 512;
    int mlp_depth = 2;
    nn::TrainConfig train_cfg{.epochs = 20, .batch = 32, .lr = 2e-3,
                              .beta1 = 0.9, .beta2 = 0.999, .eps = 1e-8,
                              .seed = 7};

    /** Fraction of the collected data used (Fig. 18 sweeps this). */
    double data_ratio = 1.0;

    /** Exit mass the offline hot set must cover (T2). */
    double offline_mass = 0.55;

    uint64_t seed = 42;
};

/** Trained, ready-to-run SpecEE deployment for one model. */
class Pipeline
{
  public:
    explicit Pipeline(const PipelineOptions &opts = {});
    ~Pipeline();

    const model::ModelConfig &modelConfig() const { return mcfg_; }
    const oracle::SyntheticCorpus &corpus() const { return *corpus_; }
    const core::ExitPredictor &predictors() const { return *preds_; }
    const AdaInferBank &adaInferBank() const { return ada_; }
    const core::RaeeIndex &raeeIndex() const { return *raee_; }
    const std::vector<int> &offlineHotLayers() const { return hot_; }
    const core::ProfileData &profileData() const { return profile_; }
    const core::TrainReport &trainReport() const { return report_; }
    const core::TrainReport &adaTrainReport() const { return adaReport_; }
    const PipelineOptions &options() const { return opts_; }

    /**
     * Build a workload for one of the nine dataset profiles.
     * @param quantized_cal use the AWQ accuracy calibration column
     */
    workload::Workload makeWorkload(const std::string &dataset,
                                    const workload::GenOptions &gen,
                                    bool quantized_cal = false) const;

    /**
     * Construct an engine with the trained artifacts attached, over
     * the Pipeline's shared weights for its backend pair.
     */
    std::unique_ptr<Engine> makeEngine(const EngineConfig &ecfg,
                                       const hw::HardwareSpec &spec) const;

    /**
     * The shared weights for a (projection, head) backend pair,
     * built on first request. Thread-safe.
     */
    std::shared_ptr<const model::Weights>
    sharedWeights(tensor::WeightBackend proj,
                  tensor::WeightBackend head) const;

  private:
    PipelineOptions opts_;
    model::ModelConfig mcfg_;
    std::unique_ptr<oracle::SyntheticCorpus> corpus_;
    std::unique_ptr<core::ExitPredictor> preds_;
    std::unique_ptr<core::RaeeIndex> raee_;
    AdaInferBank ada_;
    core::ProfileData profile_;
    core::TrainReport report_;
    core::TrainReport adaReport_;
    std::vector<int> hot_;

    using BackendPair =
        std::pair<tensor::WeightBackend, tensor::WeightBackend>;
    mutable std::mutex weightsMu_; ///< guards weights_
    mutable std::map<BackendPair, std::shared_ptr<const model::Weights>>
        weights_;
};

} // namespace specee::engines

#endif // SPECEE_ENGINES_PIPELINE_HH
