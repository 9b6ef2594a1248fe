/**
 * @file
 * Live iteration-level continuous-batching scheduler.
 *
 * The scheduler drives DecodeSessions directly, vllm-style: every
 * iteration it (1) drops queued or active requests past their
 * deadline, (2) admits waiting requests into free decode slots —
 * interactive tier first, FIFO within each tier, (3) preempts active
 * sessions (evict KV, re-enqueue at the head of the wait queue) when
 * the fleet KV budget is exhausted, preferring batch-tier victims
 * youngest-first, (4) plans a token-budgeted mixed iteration: every
 * decode-ready session steps, while sessions still ingesting their
 * prompt run one prefill chunk each under the PrefillPlanner's
 * budget — sessions pinned to different worker engines step in
 * parallel — and (5) prices the iteration from the sessions'
 * per-step cost records: weight-bound (shared) traffic is read once
 * per iteration, so its time is the max over the batch (a prefill
 * chunk's weight stream amortizes with its decode peers), while
 * per-request private traffic — including the chunk-length-scaled
 * prefill compute — accumulates. Tokens stream to the caller at each
 * iteration boundary, making TTFT and inter-token latency
 * first-class fleet metrics; a callback returning false cancels its
 * request at that boundary (streaming backpressure).
 *
 * Everything is deterministic for a fixed request stream: sessions
 * decode under per-request seeds (bit-identical to Engine::runOne no
 * matter how they interleave), admission/preemption decisions depend
 * only on the deterministic fleet clock and allocator state, and
 * per-iteration reductions run in admission order — so results are
 * identical across worker counts, and max_batch = 1 with an
 * unbounded KV pool reproduces sequential serving exactly.
 *
 * Preemption has two mechanisms (SchedulerOptions::preempt_mode).
 * Recompute (as in vllm's default): the victim's KV blocks return to
 * the pool and the request later re-decodes from scratch under the
 * same seed, reproducing the same tokens; already-streamed tokens
 * are not re-delivered, and the work thrown away stays priced into
 * the fleet timeline. Swap: the victim's KV blocks DMA to host
 * memory over the host link (priced as private KvSwapOut/KvSwapIn
 * traffic at true dims) and restore when pressure clears — the
 * session resumes bit-identically, keeping all decode and prefill
 * progress. Auto compares the modeled swap round trip against the
 * modeled cost of replaying the victim's work so far and picks per
 * victim. Admission can additionally be gated by a prefill-aware
 * watermark so long prompts only enter when their full KV fits.
 *
 * TopologyOptions generalizes the fleet beyond one logical device:
 * multiple lockstep decode devices (data-parallel pricing),
 * disaggregated prefill/decode roles — prompts chunk-ingest on
 * dedicated prefill devices with decoupled timelines and stream
 * their finished KV to a decode device over the priced peer link —
 * and overlapped KV transfers, where swaps and handoffs ride
 * per-device DMA channels concurrent with compute and stall only
 * the session whose blocks are in flight. All three knobs default
 * off and are bit-identical to the single-device serialized
 * scheduler when off.
 */

#ifndef SPECEE_SERVE_BATCH_SCHEDULER_HH
#define SPECEE_SERVE_BATCH_SCHEDULER_HH

#include <functional>
#include <vector>

#include "engines/decode_session.hh"
#include "engines/pipeline.hh"
#include "hw/cost_model.hh"
#include "obs/slo.hh"
#include "obs/timeline.hh"
#include "obs/trace.hh"
#include "serve/prefill_planner.hh"
#include "serve/prefix_cache.hh"
#include "serve/request.hh"

namespace specee::serve {

/**
 * How the scheduler evicts a session under KV pressure.
 *
 * Recompute (vllm's default, and the only mechanism before this
 * knob existed) throws the victim's KV away and re-decodes from
 * scratch later; Swap DMAs the KV blocks to host memory over the
 * host link and restores them when pressure clears, preserving all
 * decode and prefill progress; Auto picks per victim by comparing
 * the modeled swap round trip against the modeled cost of re-doing
 * the victim's work so far — short sessions recompute (cheap to
 * replay), long sequences swap (cheap to move relative to replay).
 */
enum class PreemptMode : int {
    Recompute = 0,
    Swap = 1,
    Auto = 2,
};

/**
 * Logical fleet topology: how many modeled devices the fleet's
 * pricing spreads over, and how they specialize. The physical worker
 * engines passed to BatchScheduler::run execute the functional work
 * and may differ in count freely; the topology is what the cost
 * model prices, so results stay bit-identical for any worker count
 * at a fixed topology. The defaults (one unified device, serialized
 * transfers) reproduce the pre-topology scheduler bit-identically.
 */
struct TopologyOptions
{
    /**
     * Logical compute devices. Active sessions are assigned round-
     * robin at admission; each device prices its own share of the
     * batch (per-device shared weight-stream max plus private sum)
     * and the fleet advances in lockstep at the slowest device's
     * iteration time, data-parallel-serving style. 1 (default)
     * reproduces the single-device scheduler bit-identically.
     */
    int devices = 1;

    /**
     * Devices specialized to prompt ingestion (disaggregated
     * prefill/decode serving, DistServe/Mooncake-style). 0 (default)
     * = unified: every device runs mixed decode + prefill-chunk
     * iterations. > 0 carves the LAST `prefill_devices` devices out
     * of the lockstep decode batch: each free prefill device starts
     * one chunked prompt ingestion per boundary on its own
     * decoupled timeline (decode boundaries no longer wait for
     * chunk-inflated iterations), and a finished prompt streams its
     * KV to a decode device over the peer link (OpClass::KvHandoff)
     * before taking a decode slot. Requires chunked prefill
     * (prefill.chunk_tokens > 0), a platform peer link
     * (interconnect_gbs > 0) and prefill_devices < devices.
     */
    int prefill_devices = 0;

    /**
     * Price KV transfers — swap out/in and prefill->decode handoffs
     * — on per-device DMA channels (hw::TransferEngine) that advance
     * concurrently with compute, instead of serializing each
     * transfer on the fleet clock. A transfer stalls only the
     * session whose blocks ride the link: the session is held in its
     * slot but skips iterations at zero cost until the modeled DMA
     * lands. Emissions are bit-identical to the serialized path —
     * only timing moves. Off (default) keeps every transfer on the
     * fleet clock bit-identically.
     */
    bool overlap_transfers = false;
};

/** Scheduler knobs. */
struct SchedulerOptions
{
    /** Decode-batch slots; 1 reproduces sequential serving. */
    int max_batch = 8;

    /**
     * Fleet KV budget in physical paged-KV blocks (kKvBlockSize
     * positions of one layer each) across all active sessions;
     * 0 = unbounded. When the next iteration's worst-case growth
     * would exceed the budget, the scheduler preempts the youngest
     * active session(s). The oldest active session is never
     * preempted, so progress is guaranteed even when a single
     * request's working set exceeds the budget.
     */
    int kv_budget_blocks = 0;

    /**
     * Chunked-prefill policy: chunk size and iteration token budget.
     * chunk_tokens = 0 (default) disables the subsystem — prompts
     * prefill atomically and free at admission, bit-identical to the
     * pre-chunking scheduler.
     */
    PrefillOptions prefill;

    /**
     * Preemption mechanism under KV pressure. Recompute (default)
     * reproduces the pre-swap scheduler bit-identically; Swap moves
     * victims' KV to host memory and restores it; Auto chooses per
     * victim from the modeled costs.
     */
    PreemptMode preempt_mode = PreemptMode::Recompute;

    /**
     * Radix prefix cache over prompt token sequences (SGLang-style).
     * When enabled, retired prompts' KV blocks stay cached as a
     * third, lowest residency tier: requests with a shared
     * PromptSpec match their longest cached prefix at admission,
     * adopt the shared blocks and start prefill mid-prompt (the
     * cached span charges no prefill weight stream or compute).
     * Cached blocks count against kv_budget_blocks and evict LRU
     * before any session is preempted. Disabled (default) is
     * bit-identical to the cache-less scheduler.
     */
    PrefixCacheOptions prefix_cache;

    /**
     * Prefill-aware admission watermark (Sarathi/vllm-style), as a
     * fraction of kv_budget_blocks: a request is admitted only while
     * the fleet's COMMITTED working set — every active session's
     * full prompt + decode KV (what its blocks will grow to, not the
     * first-chunk share chunked admission reserves against today's
     * occupancy) plus the candidate's, plus the scheduler's
     * per-iteration growth reserve — fits under kv_watermark *
     * kv_budget_blocks. Bounds chunked-admission thrash (admit,
     * chunk, grow, evict, recompute) for long prompts under tight
     * budgets. 0 disables (first-chunk admission, bit-identical to
     * the PR 4 scheduler); ignored while kv_budget_blocks = 0.
     * Admission into an empty fleet bypasses the watermark so
     * progress is always possible.
     */
    double kv_watermark = 0.0;

    /**
     * Stage-split iteration pricing on pipeline-sharded engines
     * (pp > 1): the shared weight-bound time of each pipeline stage
     * is maxed over the batch per stage and the stage maxima sum —
     * sessions whose layer ranges overlap share a stage's weight
     * stream, sessions on disjoint stages serialize through the
     * pipeline. This is never cheaper than the legacy whole-model max
     * (which lets a shallow-exiting session ride free under a deep
     * peer even when their weight reads don't overlap) and equals it
     * for homogeneous batches. Off, or on an unsharded engine
     * (pp = 1, where every session's range is the whole model), the
     * legacy max is used bit-identically.
     */
    bool stage_pricing = true;

    /**
     * Early-exit-aware pipeline backfill (pp > 1, chunked prefill
     * with a bounded iteration budget): stages the previous
     * iteration's early exits left idle are converted into extra
     * prefill-budget tokens (max_tokens_per_iteration * free_stages /
     * n_stages), so queued prefill chunks ride the pipeline bubble —
     * micro-batch pipelining across iterations. Using the PREVIOUS
     * iteration's occupancy keeps planning causal and bit-identical
     * across worker counts. No-op at pp = 1 or while the budget is
     * unbounded.
     */
    bool stage_backfill = true;

    /**
     * Fleet topology: logical device count, prefill/decode role
     * split and transfer/compute overlap. Defaults reproduce the
     * single-device serialized-transfer scheduler bit-identically.
     */
    TopologyOptions topology;

    /**
     * Admission-level backpressure: max concurrently decoding
     * sessions per Request::consumer. A candidate whose consumer is
     * saturated is passed over (fresh admission and swap-in alike)
     * until one of its sessions retires; other consumers' requests
     * admit past it. 0 (default) disables — admission is bit-
     * identical to the uncapped scheduler.
     */
    int max_inflight_per_consumer = 0;

    /**
     * Per-tier service-level objectives (TTFT / worst ITL / e2e
     * deadline). Every retired request is judged against its tier's
     * spec (verdict in RequestOutcome::slo) and the fleet reduction
     * reports goodput_under_slo — tokens delivered by attaining
     * requests per second. Judging is pure post-hoc arithmetic on
     * the modeled timeline: specs never change scheduling, emissions
     * or modeled costs. Default (no objectives) leaves verdicts
     * unevaluated and goodput_under_slo counting every completed
     * request.
     */
    obs::TierSlo slo;

    /**
     * Windowed metrics timeline over the modeled clock (rolling
     * goodput, TTFT/ITL percentiles, KV / stage / channel occupancy,
     * exit-depth histograms) reduced into FleetStats::timeline.
     * window_s = 0 (default) disables; recording is bit-inert on
     * emissions and modeled costs either way.
     */
    obs::TimelineOptions timeline;

    /**
     * Fleet event trace (see obs/trace.hh): typed iteration / step /
     * decision / DMA events merged into FleetStats::trace, ready for
     * Chrome trace-event export. Off (default) records nothing; on
     * or off, emissions and modeled costs are bit-identical — the
     * trace only observes the modeled clock, never advances it — and
     * the merged trace is itself bit-deterministic across worker
     * counts.
     */
    obs::TraceOptions trace;
};

/** One streamed token, delivered at an iteration boundary. */
struct TokenEvent
{
    uint64_t request_id = 0;
    int token = 0;       ///< emitted token id
    int index = 0;       ///< 0-based position in the request's output
    double emit_s = 0.0; ///< fleet clock at emission
};

/**
 * Per-token streaming callback (invoked on the scheduler thread).
 * Return true to keep streaming; returning false cancels the request
 * at the current iteration boundary (no further tokens are decoded
 * or delivered, KV frees, and the request counts as cancelled in
 * FleetStats — distinct from a deadline drop).
 */
using TokenCallback = std::function<bool(const TokenEvent &)>;

/** Fleet-level serving metrics over one drained request stream. */
struct FleetStats
{
    long requests = 0;
    /**
     * Tokens DELIVERED to clients (each output position counted
     * once). Work re-decoded after a preemption is priced into
     * makespan and energy but not counted again here, so
     * tokens_per_s is goodput.
     */
    long tokens = 0;
    long iterations = 0;

    double makespan_s = 0.0; ///< first arrival -> last finish
    double tokens_per_s = 0.0;

    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p99_latency_s = 0.0;
    double mean_queue_s = 0.0;

    /** Streaming latency: time to first token and inter-token gap. */
    double mean_ttft_s = 0.0;
    double p50_ttft_s = 0.0;
    double p99_ttft_s = 0.0;
    double mean_itl_s = 0.0;
    double p50_itl_s = 0.0; ///< over all delivered inter-token gaps
    double p99_itl_s = 0.0;

    /**
     * Chunked-prefill accounting: chunks / true prompt tokens
     * executed (including work re-done after preemption) and the
     * mean admission-to-prompt-ready time of completed requests —
     * the prefill-queue side of a request's latency, vs the decode
     * side covered by ITL. All zero while chunking is disabled.
     */
    long prefill_chunks = 0;
    long prefill_tokens = 0;
    double mean_prefill_s = 0.0;

    double energy_j = 0.0;
    double energy_per_token_j = 0.0;
    double avg_power_w = 0.0;

    /**
     * Modeled launch seconds the batch merge removed, summed over
     * iterations and decode devices: per-layer predictor pipelines
     * and attention launches that several sessions on one device
     * charged but the device issued once (engines::StepCost). 0 at
     * max_batch = 1. Summed per device, so it can exceed the clock
     * time saved when a non-critical device merges.
     */
    double launch_merged_s = 0.0;

    /** Mean decode-batch occupancy over iterations. */
    double mean_batch_occupancy = 0.0;

    /**
     * Decode-fleet session admissions: a waiting request entering
     * execution (fresh or re-admitted after a recompute preemption;
     * disaggregated prefill-device admissions count here too).
     * Swap-in restores are counted by swaps_in, not here. This is
     * the counter the trace's `admit` decision events reconcile
     * against.
     */
    long admissions = 0;

    /** KV-pressure / backpressure accounting. */
    long preemptions = 0;     ///< sessions evicted for KV pressure
    long dropped = 0;         ///< requests dropped past deadline
    long cancelled = 0;       ///< requests cancelled by the consumer
    long rejected = 0;        ///< requests refused at the queue
    long peak_kv_blocks = 0;  ///< peak fleet paged-KV occupancy
    double peak_fleet_mem_gb = 0.0; ///< weights once + fleet KV/act

    /**
     * Swap-to-host accounting. swaps_out counts preemptions served
     * by the swap mechanism (each also counts in `preemptions`);
     * swaps_in counts restores — they differ only by sessions that
     * were dropped or cancelled while in the host pool. Peaks track
     * the host-side footprint of swapped sessions.
     */
    long swaps_out = 0;
    long swaps_in = 0;
    long peak_host_kv_blocks = 0;   ///< peak host-pool occupancy
    double peak_host_mem_gb = 0.0;  ///< true-dims bytes of that KV

    /**
     * Prefix-cache accounting (all zero while the cache is off).
     * prefix_hits counts admissions that adopted a cached prefix;
     * cached_tokens sums the true-dims prompt tokens those
     * admissions skipped prefilling (re-admissions after a
     * recompute preemption count again — like prefill_tokens, this
     * is work executed, or here avoided, not goodput).
     */
    long prefix_hits = 0;
    long cached_tokens = 0;
    long cache_evictions = 0;    ///< LRU leaves evicted
    long peak_cached_blocks = 0; ///< peak blocks held by the cache

    /**
     * Admission deferrals charged to the prefill-aware watermark:
     * boundaries where the next candidate had room under the raw
     * first-chunk budget but its full prompt did not fit under
     * kv_watermark * kv_budget_blocks. 0 while the watermark is off.
     */
    long watermark_rejections = 0;

    /**
     * Iteration boundaries where at least one arrived candidate was
     * passed over because its consumer was at
     * max_inflight_per_consumer. 0 while the cap is off.
     */
    long backpressure_deferrals = 0;

    /**
     * Pipeline-stage accounting (stage graph of the fleet's engines;
     * n_stages = 1 on unsharded fleets). stage_busy sums, over
     * iterations, the stages some session's weight stream traversed;
     * pipeline_utilization = stage_busy / (iterations * n_stages) —
     * the fraction of stage-iterations doing work, 1.0 when every
     * stage is busy every iteration. peak_stage_occupancy is the max
     * stages concurrently occupied in one iteration (<= n_stages by
     * construction). backfill_grants / backfill_tokens count prefill
     * grants and tokens awarded ONLY because stage_backfill widened
     * the budget into last iteration's idle stages.
     */
    int n_stages = 1;
    long stage_busy = 0;
    int peak_stage_occupancy = 0;
    double pipeline_utilization = 0.0;
    long backfill_grants = 0;
    long backfill_tokens = 0;

    /**
     * Topology / transfer-engine accounting. handoffs counts
     * prefill->decode KV streams (disaggregated fleets only);
     * handoff_gb is their true-dims traffic. transfers_overlapped
     * counts DMA submissions that rode a TransferEngine channel
     * instead of the fleet clock (0 while overlap_transfers is
     * off). transfer_bytes_sent / _received census every swap and
     * handoff at both endpoints — initiation and landing (or
     * settle-at-drop) — so Σ sent == Σ received is a conservation
     * invariant of any drained run. prefill_busy_s sums the busy
     * seconds of the decoupled prefill-device timelines;
     * transfer_busy_s the busy seconds across all DMA channels.
     * peak_inflight_kv_blocks / _mem_gb track blocks pinned by
     * in-flight transfers at the per-iteration peak.
     */
    int n_devices = 1;
    int n_prefill_devices = 0;
    long handoffs = 0;
    double handoff_gb = 0.0;
    long transfers_overlapped = 0;
    double transfer_bytes_sent = 0.0;
    double transfer_bytes_received = 0.0;
    long peak_inflight_kv_blocks = 0;
    double peak_inflight_mem_gb = 0.0;
    double prefill_busy_s = 0.0;
    double transfer_busy_s = 0.0;

    /**
     * SLO attainment (SchedulerOptions::slo). slo_evaluated counts
     * retired requests some objective applied to (completed or
     * dropped; cancelled streams are the consumer's choice and stay
     * unevaluated); slo_attained counts those that kept every
     * promise. goodput_under_slo is tokens delivered by non-dropped,
     * non-cancelled requests whose verdict attained (vacuously so
     * when no spec is set), per makespan second — the headline
     * metric an SLO-driven control plane optimizes, degenerating to
     * completed-request goodput while SLO accounting is off.
     */
    long slo_evaluated = 0;
    long slo_attained = 0;
    double goodput_under_slo = 0.0;

    /**
     * Windowed metrics timeline (SchedulerOptions::timeline); empty
     * while the window width is 0.
     */
    std::vector<obs::TimelineWindow> timeline;

    /**
     * Merged fleet trace (SchedulerOptions::trace); empty while
     * tracing is off. Deterministically ordered — bit-identical
     * across worker counts — and exportable via
     * obs::chromeTraceJson / obs::writeChromeTrace.
     */
    std::vector<obs::TraceEvent> trace;

    /**
     * Merged per-request operator census of COMPLETED requests
     * (flop/byte counts and sequential-equivalent time); fleet time
     * comes from the live timeline above, not from this log, and
     * work discarded by preemption or deadline drops is priced into
     * the timeline but not re-counted here.
     */
    hw::OpLog oplog;
};

/**
 * True for operator classes whose traffic is read once per decode
 * iteration and amortizes across the batch (weight-bound: decoder
 * layers, KV fill, full LM head, draft model, embedding table) as
 * opposed to per-request private traffic (KV reads, predictors,
 * sliced heads).
 */
bool isSharedClass(hw::OpClass cls);

/** Live iteration-level continuous-batching scheduler. */
class BatchScheduler
{
  public:
    explicit BatchScheduler(const SchedulerOptions &opts);

    /**
     * Serve `requests` (must be sorted by (arrival, id)) to
     * completion over `engines`, one live DecodeSession per admitted
     * request. Outcomes are returned in request order. Sessions are
     * pinned round-robin to engines; engines step their sessions in
     * parallel threads, but every scheduling and pricing decision is
     * made on the caller's thread in admission order, so the result
     * is bit-identical for any engine count >= 1.
     */
    FleetStats run(const engines::Pipeline &pipe,
                   std::vector<engines::Engine *> engines,
                   std::vector<Request> requests,
                   std::vector<RequestOutcome> &outcomes,
                   const TokenCallback &on_token = {}) const;

    const SchedulerOptions &options() const { return opts_; }

  private:
    SchedulerOptions opts_;
};

} // namespace specee::serve

#endif // SPECEE_SERVE_BATCH_SCHEDULER_HH
