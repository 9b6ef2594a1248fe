/**
 * @file
 * Predictor offline training pipeline (§7.4.4).
 *
 * Runs the target model with the draft model attached over a
 * profiling workload (the paper uses MT-Bench prompts), recording
 * per-layer samples: the 12-dim speculation features plus the label
 * "the token an exit at this layer would emit equals the token the
 * full forward pass emits". The AdaInfer baseline's 3-dim full-vocab
 * features are collected from the same runs.
 *
 * Training is plain Adam on BCE per layer; accuracy is reported on a
 * held-out split, which is what Fig. 8 / Fig. 18 plot.
 *
 * Profiling instances and per-layer fits are independent, so both
 * run across cores: every draw from a shared random stream is made
 * first, in the sequential order, and results are merged in index
 * order, so the output is bit-identical to a sequential run.
 */

#ifndef SPECEE_CORE_PREDICTOR_TRAINER_HH
#define SPECEE_CORE_PREDICTOR_TRAINER_HH

#include <vector>

#include "core/predictor.hh"
#include "model/draft_model.hh"
#include "model/target_model.hh"
#include "nn/dataset.hh"
#include "nn/mlp.hh"
#include "nn/svm.hh"
#include "workload/datasets.hh"

namespace specee::core {

/** Per-layer feature/label datasets from one profiling run. */
struct ProfileData
{
    /** 12-dim speculation features per exit layer. */
    std::vector<nn::Dataset> specee;
    /** 3-dim AdaInfer features per exit layer. */
    std::vector<nn::Dataset> adainfer;
    /** Oracle exit layer histogram (first label-true layer). */
    std::vector<long> oracle_exit_hist;
    /** RAEE database entries: layer-0 hidden probe per token. */
    std::vector<tensor::Vec> raee_probes;
    /** RAEE labels: oracle exit layer per probe. */
    std::vector<int> raee_exits;

    size_t totalSamples() const;
};

/** Training options. */
struct TrainerOptions
{
    double train_frac = 0.8;  ///< held-out split for reported accuracy
    double data_ratio = 1.0;  ///< fraction of training data used (Fig.18)
    nn::TrainConfig train;    ///< per-layer MLP optimizer settings
};

/** Training outcome across the predictor bank. */
struct TrainReport
{
    double mean_test_accuracy = 0.0;
    double mean_train_accuracy = 0.0;
    size_t samples_used = 0;
    std::vector<double> per_layer_test_accuracy;
};

/** Collects profiling data and trains predictor banks. */
class PredictorTrainer
{
  public:
    /**
     * Profile the model `tm` describes over `w` with `dlm` proposing
     * speculative tokens; fills per-layer datasets for both predictor
     * families. `tm` only supplies the config, options and weights:
     * the instances run in parallel, each on its own model over those
     * weights, and `tm` itself is left untouched. The result does not
     * depend on the number of workers.
     */
    static ProfileData collect(const workload::Workload &w,
                               const model::TargetModel &tm,
                               const model::DraftModel &dlm,
                               uint64_t seed);

    /**
     * Train the SpecEE MLP bank; returns held-out accuracies. Layers
     * are split sequentially and fit in parallel; the result does not
     * depend on the number of workers.
     */
    static TrainReport train(ExitPredictor &bank, const ProfileData &data,
                             const TrainerOptions &opts);

    /** Train an AdaInfer SVM bank on the same data, the same way. */
    static TrainReport trainAdaInfer(std::vector<nn::LinearSvm> &bank,
                                     const ProfileData &data,
                                     const TrainerOptions &opts);
};

} // namespace specee::core

#endif // SPECEE_CORE_PREDICTOR_TRAINER_HH
