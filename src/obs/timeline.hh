/**
 * @file
 * Windowed metrics timeline over the modeled serving clock.
 *
 * FleetStats reduces a whole drained run to one aggregate; the
 * timeline answers "what was the fleet doing DURING the run" by
 * bucketing the simulated clock into fixed-width windows and
 * reducing per window: rolling goodput (and goodput under SLO —
 * tokens from requests whose attainment verdict held), TTFT/ITL
 * percentiles of the samples that landed in the window, device /
 * host / cached KV occupancy peaks, decode-batch and pipeline-stage
 * occupancy, DMA-channel busy time, and the early-exit depth
 * histogram (the per-step distribution SpecEE's Fig. 10 plots, which
 * pricing alone throws away).
 *
 * Recording appends raw samples keyed by the modeled clock;
 * finalize() reduces them once (percentiles sort once per window via
 * metrics::Stats). The window width is the only knob; 0 (default)
 * disables the subsystem entirely and is bit-inert on the scheduler.
 */

#ifndef SPECEE_OBS_TIMELINE_HH
#define SPECEE_OBS_TIMELINE_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace specee::obs {

/** Timeline knobs. window_s <= 0 (default) disables. */
struct TimelineOptions
{
    /** Bucket width in modeled seconds. */
    double window_s = 0.0;

    bool enabled() const { return window_s > 0.0; }
};

/** One reduced window [t0, t1) of the modeled clock. */
struct TimelineWindow
{
    double t0 = 0.0;
    double t1 = 0.0;

    long iterations = 0;
    long tokens = 0;     ///< tokens delivered in the window
    long slo_tokens = 0; ///< ... from requests that attained their SLO
    double goodput_tps = 0.0;       ///< tokens / window width
    double goodput_under_slo = 0.0; ///< slo_tokens / window width

    /** Latency samples that completed inside the window. */
    long ttft_count = 0;
    double p50_ttft_s = 0.0;
    double p99_ttft_s = 0.0;
    long itl_count = 0;
    double p50_itl_s = 0.0;
    double p99_itl_s = 0.0;

    /** Occupancy peaks over the window's iteration boundaries. */
    long peak_kv_blocks = 0;
    long peak_host_kv_blocks = 0;
    long peak_cached_blocks = 0;

    double mean_batch_occupancy = 0.0;
    double stage_occupancy = 0.0; ///< busy stage-iterations fraction
    double transfer_busy_s = 0.0; ///< DMA busy seconds in the window

    /** Decode-step early-exit depths (index = deepest layer). */
    std::vector<long> exit_hist;
};

/** Accumulates per-window samples; reduce once with finalize(). */
class Timeline
{
  public:
    /** Disabled timeline (every record is a no-op). */
    Timeline() = default;

    Timeline(const TimelineOptions &opts, double t0, int n_layers,
             int n_stages);

    bool enabled() const { return opts_.enabled(); }

    /** One iteration boundary: batch size, stage + KV occupancy. */
    void recordIteration(double t, int batch, int busy_stages,
                         long kv_blocks, long host_blocks,
                         long cached_blocks);
    /** One decode step's early-exit depth. */
    void recordExit(double t, int deepest_layer);
    void recordTtft(double t, double ttft_s);
    void recordItl(double t, double gap_s);
    /** `n` tokens delivered for `request` at time t. */
    void recordTokens(double t, uint64_t request, long n);
    /** A DMA busy span [a, b); clipped across window boundaries. */
    void recordTransfer(double a, double b);

    /**
     * Reduce every window up to `end_t`. `attained(request_id)`
     * decides whose tokens count toward goodput_under_slo — verdicts
     * only exist once requests retire, so SLO attribution is
     * necessarily retroactive. Deterministic for a fixed sample
     * stream.
     */
    std::vector<TimelineWindow>
    finalize(double end_t,
             const std::function<bool(uint64_t)> &attained) const;

    /**
     * Reduce ONE window (index `idx`) as of `end_t` — the per-window
     * kernel finalize() loops over. Rates divide by the window's
     * COVERED span, min(window end, end_t) − window start, so a
     * window the run truncates reports its true rate instead of a
     * deflated one. `attained` as in finalize().
     */
    TimelineWindow
    reduce(size_t idx, double end_t,
           const std::function<bool(uint64_t)> &attained) const;

  private:
    struct Bucket
    {
        long iterations = 0;
        long occupancy_sum = 0;
        long stage_busy = 0;
        long peak_kv = 0;
        long peak_host = 0;
        long peak_cached = 0;
        double transfer_busy_s = 0.0;
        std::vector<double> ttft;
        std::vector<double> itl;
        std::vector<long> exit_hist;
        /** Run-length token deliveries: (request, count). */
        std::vector<std::pair<uint64_t, long>> tokens;
    };

    Bucket &bucket(double t);

    TimelineOptions opts_;
    double t0_ = 0.0;
    int n_layers_ = 0;
    int n_stages_ = 1;
    std::vector<Bucket> buckets_;
};

} // namespace specee::obs

#endif // SPECEE_OBS_TIMELINE_HH
