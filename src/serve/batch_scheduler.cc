#include "serve/batch_scheduler.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "hw/memory_tracker.hh"
#include "metrics/stats.hh"
#include "model/paged_kv.hh"
#include "util/logging.hh"

namespace specee::serve {

bool
isSharedClass(hw::OpClass cls)
{
    return hw::isBatchAmortized(cls);
}

BatchScheduler::BatchScheduler(const SchedulerOptions &opts) : opts_(opts)
{
    specee_assert(opts.max_batch >= 1, "max_batch must be >= 1, got %d",
                  opts.max_batch);
    specee_assert(opts.kv_budget_blocks >= 0,
                  "kv_budget_blocks must be >= 0, got %d",
                  opts.kv_budget_blocks);
    specee_assert(opts.kv_watermark >= 0.0 && opts.kv_watermark <= 1.0,
                  "kv_watermark must be in [0, 1], got %f",
                  opts.kv_watermark);
    specee_assert(opts.prefix_cache.capacity_blocks >= 0,
                  "prefix_cache.capacity_blocks must be >= 0, got %d",
                  opts.prefix_cache.capacity_blocks);
    specee_assert(opts.max_inflight_per_consumer >= 0,
                  "max_inflight_per_consumer must be >= 0, got %d",
                  opts.max_inflight_per_consumer);
    specee_assert(opts.timeline.window_s >= 0.0,
                  "timeline.window_s must be >= 0, got %f",
                  opts.timeline.window_s);
    specee_assert(opts.topology.devices >= 1,
                  "topology.devices must be >= 1, got %d",
                  opts.topology.devices);
    specee_assert(opts.topology.prefill_devices >= 0 &&
                      opts.topology.prefill_devices <
                          opts.topology.devices,
                  "topology.prefill_devices must be in [0, devices), "
                  "got %d of %d",
                  opts.topology.prefill_devices, opts.topology.devices);
    specee_assert(opts.topology.prefill_devices == 0 ||
                      opts.prefill.chunk_tokens > 0,
                  "disaggregated prefill devices need chunked prefill "
                  "(prefill.chunk_tokens > 0)");
    PrefillPlanner(opts.prefill); // validates the prefill knobs
}

namespace {

/** One request moving through the waiting queue / decode slots. */
struct Entry
{
    Request req;
    workload::Workload w; ///< built once, survives preemption
    size_t outcome = 0;   ///< index into `outcomes`

    std::unique_ptr<engines::DecodeSession> sess;
    size_t engine = 0; ///< physical worker executing the session
    size_t device = 0; ///< logical topology device pricing it

    /** Disaggregated-prefill progress (prefill-device entries). */
    bool pf_done = false;   ///< prompt fully ingested on the device
    double pf_done_s = 0.0; ///< fleet clock when ingestion completes

    /** In-flight DMA state (overlap) / pending handoff price. */
    double xfer_ready_s = 0.0; ///< in-flight transfer lands (clock)
    double xfer_bytes = 0.0;   ///< true-dims bytes riding the link
    double handoff_s = 0.0;    ///< serialized handoff price (overlap off)

    double first_admit_s = -1.0;
    double first_token_s = -1.0;
    double last_token_s = 0.0;
    double itl_sum_s = 0.0;
    double itl_max_s = 0.0; ///< worst delivered gap (SLO judging)
    long itl_gaps = 0;
    size_t streamed = 0; ///< tokens already delivered downstream
    int preemptions = 0;

    double prefill_ready_s = -1.0; ///< prompt fully ingested (clock)
    int chunks = 0;  ///< prefill chunks of the current run
    int granted = 0; ///< prompt tokens granted this iteration
    int swaps = 0;   ///< times swapped to the host pool
    bool cancel = false; ///< consumer returned false from on_token

    /** Derived true-dims prompt (shared specs under the cache). */
    std::vector<int> true_toks;
    int cached = 0; ///< cached tokens adopted by the current run
    int sim_adopted = 0; ///< sim KV rows shared with the cache
    bool cache_inserted = false; ///< this run's prompt is in the tree

    engines::StepCost cost; ///< most recent iteration's step cost
};

/**
 * Launch time and energy device `d` saves by issuing each per-layer
 * kernel once for its whole batch: one predictor pipeline per layer
 * at which any of its sessions evaluated a predictor, one attention
 * launch per layer down to its deepest session. Each session's
 * private cost charged those launches for itself; the saving is the
 * sum of those charges minus the merged launches. Exactly zero when
 * at most one session on `d` charged any.
 */
engines::LaunchCost
mergedLaunchSaving(const std::vector<Entry> &active, size_t d,
                   const engines::LaunchCost &pred,
                   const engines::LaunchCost &attn)
{
    engines::LayerMask any_pred;
    int attn_depth = 0;
    long pred_events = 0, attn_launches = 0;
    for (const auto &a : active) {
        if (a.device != d)
            continue;
        any_pred |= a.cost.predictor_layers;
        pred_events += static_cast<long>(a.cost.predictor_layers.count());
        attn_depth = std::max(attn_depth, a.cost.attn_layers);
        attn_launches += a.cost.attn_layers;
    }
    // What remains is launched more than once per layer.
    pred_events -= static_cast<long>(any_pred.count());
    attn_launches -= attn_depth;
    const double dup_pred = static_cast<double>(pred_events);
    const double dup_attn = static_cast<double>(attn_launches);
    return {dup_pred * pred.s + dup_attn * attn.s,
            dup_pred * pred.j + dup_attn * attn.j};
}

} // namespace

FleetStats
BatchScheduler::run(const engines::Pipeline &pipe,
                    std::vector<engines::Engine *> engines,
                    std::vector<Request> requests,
                    std::vector<RequestOutcome> &outcomes,
                    const TokenCallback &on_token) const
{
    outcomes.clear();
    FleetStats fleet;
    fleet.rejected = 0;
    if (requests.empty())
        return fleet;
    specee_assert(!engines.empty(), "scheduler needs >= 1 engine");
    specee_assert(std::is_sorted(requests.begin(), requests.end(),
                                 [](const Request &a, const Request &b) {
                                     if (a.arrival_s != b.arrival_s)
                                         return a.arrival_s < b.arrival_s;
                                     return a.id < b.id;
                                 }),
                  "requests must be sorted by (arrival, id)");

    const engines::EngineConfig &ecfg = engines.front()->config();
    const model::ModelConfig &mcfg = engines.front()->modelConfig();
    const engines::LaunchCost pred_launch =
        engines.front()->predictorLaunch();
    const engines::LaunchCost attn_launch = engines.front()->kvReadLaunch();
    const size_t slots = static_cast<size_t>(opts_.max_batch);

    // The fleet's pipeline shape. Workers must shard identically —
    // stage-split pricing and backfill read one stage graph, and a
    // heterogeneous fleet would make results depend on which worker
    // a session landed on (breaking worker-count determinism).
    const model::StageGraph &sg = engines.front()->stageGraph();
    const int n_stages = sg.nStages();
    for (const auto *e : engines) {
        specee_assert(e->stageGraph().nStages() == n_stages &&
                          e->tpDegree() == engines.front()->tpDegree(),
                      "all worker engines must share one tp x pp "
                      "sharding");
    }
    const bool staged = n_stages > 1;
    fleet.n_stages = n_stages;

    // Swap preemption needs a host link. Pure swap mode without one
    // is a configuration error (fail fast, not mid-eviction); auto
    // degrades to recompute-only on such platforms.
    const bool has_swap_link =
        engines.front()->platform().swap_bw_gbs > 0.0;
    specee_assert(opts_.preempt_mode != PreemptMode::Swap ||
                      has_swap_link,
                  "preempt_mode = swap on platform %s, which has no "
                  "host link (swap_bw_gbs = 0)",
                  engines.front()->platform().name.c_str());

    // Fleet topology: logical devices the pricing spreads over —
    // independent of the physical worker count, so determinism
    // across workers is preserved. Decode devices are
    // [0, n_decode_dev); prefill devices (disaggregation) are the
    // tail [n_decode_dev, n_devices). A disaggregated fleet needs a
    // peer link to stream finished prompts' KV over (fail fast, not
    // at the first handoff).
    const TopologyOptions &topo = opts_.topology;
    const int n_devices = topo.devices;
    const int n_prefill_dev = topo.prefill_devices;
    const int n_decode_dev = n_devices - n_prefill_dev;
    const bool disagg = n_prefill_dev > 0;
    const bool overlap = topo.overlap_transfers;
    specee_assert(!disagg ||
                      engines.front()->platform().interconnect_gbs > 0.0,
                  "disaggregated prefill/decode on platform %s, which "
                  "has no peer link (interconnect_gbs = 0)",
                  engines.front()->platform().name.c_str());
    fleet.n_devices = n_devices;
    fleet.n_prefill_devices = n_prefill_dev;
    // Per-device DMA channel timelines (host link, peer link). Only
    // consulted while overlap_transfers is on.
    hw::TransferEngine xfer(n_devices);
    // Busy-until of each prefill device's decoupled compute timeline.
    std::vector<double> pf_free_at(static_cast<size_t>(
                                       std::max(n_prefill_dev, 1)),
                                   0.0);

    // One shared physical KV pool per worker engine, sized so a full
    // decode batch of maximum-context sequences can never physically
    // exhaust it even if every session lands on one engine — the
    // *budget* (policy) is enforced fleet-wide by the scheduler
    // against real allocator occupancy, the pool (mechanism) just
    // backs the block tables.
    const int per_seq_blocks =
        mcfg.n_layers * (mcfg.context_len / model::kKvBlockSize + 2);
    // Prefix-cache headroom: the cache may hold up to its capacity
    // in blocks that no live session references, plus one prompt's
    // worth of transient overshoot before the post-insert trim, plus
    // copy-on-write forks. Sized into the pool so the third
    // residency tier can never physically starve admissions.
    const bool cache_on = opts_.prefix_cache.enabled;
    const int cache_capacity =
        cache_on ? (opts_.prefix_cache.capacity_blocks > 0
                        ? opts_.prefix_cache.capacity_blocks
                        : per_seq_blocks)
                 : 0;
    // Disaggregation holds sessions outside the decode slots too:
    // up to one ingesting prompt per prefill device plus a bounded
    // handoff queue (prefill admission stops once prefill-side
    // entries reach slots + prefill devices), so the pool backs the
    // worst case physically and the fleet budget stays pure policy.
    const int pool_slots =
        static_cast<int>(slots) +
        (disagg ? static_cast<int>(slots) + n_prefill_dev : 0);
    const int pool_blocks =
        pool_slots * per_seq_blocks +
        (cache_on ? cache_capacity + per_seq_blocks : 0);
    std::vector<std::shared_ptr<model::PagedKvCache>> pools;
    pools.reserve(engines.size());
    for (size_t e = 0; e < engines.size(); ++e) {
        pools.push_back(std::make_shared<model::PagedKvCache>(
            mcfg.n_layers, pool_blocks, mcfg.sim.hidden));
    }
    std::optional<PrefixCache> cache;
    if (cache_on)
        cache.emplace(mcfg.n_layers, pools);
    uint64_t cache_stamp = 0; ///< fleet-global LRU clock

    const PrefillPlanner planner(opts_.prefill);
    const bool chunked = planner.enabled();

    // Worst-case block growth of one session in one iteration: every
    // committed token may open a fresh block in every layer; a
    // prefill chunk can append up to the whole sim prefix.
    const int tokens_per_step =
        ecfg.spec_decode ? ecfg.tree.depth() + 1 : 1;
    int iter_growth = mcfg.n_layers * tokens_per_step;
    // (The chunked growth reserve is finalized below, once the
    // workloads exist: shared prompts can carry sim prefixes longer
    // than kSimPromptLen.)

    // Fleet memory at TRUE dims: weights/draft/predictors once,
    // per-session KV and activations summed. Same deployment model
    // as the per-request peak_mem_gb (Engine::finalizeRun).
    const hw::MemoryTracker mem = engines.front()->makeMemoryTracker();

    const size_t n = requests.size();
    outcomes.resize(n);

    std::deque<Entry> waiting;
    for (size_t i = 0; i < n; ++i) {
        Entry e;
        // buildPromptWorkload reconciles the prompt-identity knobs:
        // an unshared spec reproduces the legacy makeWorkload call
        // bit-identically; a shared spec derives its true tokens and
        // the stride-derived sim prompt the cache can share.
        e.w = buildPromptWorkload(pipe, requests[i],
                                  ecfg.q4Calibrated());
        if (cache_on && requests[i].prompt.shared())
            e.true_toks = resolvePromptTokens(requests[i].prompt);
        e.req = std::move(requests[i]);
        e.outcome = i;
        outcomes[i].request = e.req;
        waiting.push_back(std::move(e));
    }

    if (chunked) {
        // A prefill chunk can append up to the whole sim prefix in
        // one iteration. Legacy prompts all run kSimPromptLen sim
        // rows (so this reduces to the pre-PromptSpec constant);
        // shared prompts derive one row per kPromptSimStride true
        // tokens and can be longer.
        int max_rows = workload::kSimPromptLen;
        for (const auto &e : waiting) {
            max_rows = std::max(
                max_rows,
                static_cast<int>(e.w.instances.front().prompt.size()) -
                    1);
        }
        iter_growth = std::max(
            iter_growth,
            mcfg.n_layers *
                ((max_rows + model::kKvBlockSize - 1) /
                     model::kKvBlockSize +
                 1));
    }
    // A write into a shared cached block forks a copy-on-write
    // duplicate: one extra block per layer of worst-case growth.
    if (cache_on)
        iter_growth += mcfg.n_layers;

    const double t0 = waiting.front().req.arrival_s;
    double clock = t0;
    double occupancy = 0.0;
    double itl_sum = 0.0;
    long itl_gaps = 0;
    std::vector<double> itl_samples; ///< every delivered gap
    uint64_t admit_seq = 0;
    // Stages the previous iteration's early exits left idle — the
    // backfill planner's bubble estimate. Reading LAST iteration's
    // occupancy keeps the plan causal (it depends only on work
    // already priced), so results stay bit-identical across worker
    // counts; the one-iteration lag is the micro-batch pipeline.
    int free_stages_prev = 0;
    std::vector<Entry> active;
    active.reserve(slots);
    // Sessions preempted by swap-to-host: frozen with their KV in the
    // pool's host side. Resumes compete with fresh admissions
    // tier-first once pressure clears (see the admission loop).
    std::deque<Entry> swappedQ;
    // Disaggregation: sessions ingesting their prompt on a prefill
    // device, and finished prompts whose KV is streaming (or queued
    // to stream) to a decode device.
    std::vector<Entry> prefilling;
    std::deque<Entry> handoffQ;
    // Round-robin decode-device assignment, like admit_seq for
    // engines; inert at one device.
    uint64_t dev_seq = 0;

    // --- observability: event trace + metrics timeline -------------
    // Both record against the MODELED clock and never advance it or
    // touch any scheduling state, so emissions and modeled costs are
    // bit-identical whether they are on or off. Worker threads write
    // step spans into their own recorder shard (lock-free by
    // exclusivity); everything decided on this thread goes to the
    // control shard with a monotonic seq stamp, and the merge is
    // deterministic across worker counts.
    const bool tracing = opts_.trace.enabled;
    obs::TraceRecorder rec(engines.size(), tracing);
    uint64_t trace_seq = 0;
    obs::Timeline timeline(opts_.timeline, t0, mcfg.n_layers, n_stages);
    long slo_tokens = 0; ///< tokens delivered by attaining requests

    const auto decision = [&](obs::TraceDecision d, uint64_t req_id,
                              int d_tokens = 0) {
        if (!tracing)
            return;
        obs::TraceEvent ev;
        ev.kind = obs::TraceKind::Decision;
        ev.t0 = ev.t1 = clock;
        ev.decision = d;
        ev.request = req_id;
        ev.tokens = d_tokens;
        ev.seq = trace_seq++;
        rec.control().emit(std::move(ev));
    };
    // One DMA busy span [a, b) on `device`'s channel — fed to both
    // the trace and the timeline's channel-utilization accumulator.
    const auto transferSpan = [&](double a, double b, size_t device,
                                  hw::DmaChannel ch, uint64_t req_id) {
        timeline.recordTransfer(a, b);
        if (!tracing)
            return;
        obs::TraceEvent ev;
        ev.kind = obs::TraceKind::Transfer;
        ev.t0 = a;
        ev.t1 = b;
        ev.device = static_cast<int>(device);
        ev.channel = static_cast<int>(ch);
        ev.request = req_id;
        ev.seq = trace_seq++;
        rec.control().emit(std::move(ev));
    };
    // Judge the retiring request against its tier's objectives.
    const auto judgeSlo = [&](const Entry &e, RequestOutcome &o,
                              bool completed) {
        const obs::SloSpec &spec =
            opts_.slo.tier(static_cast<int>(e.req.priority));
        o.slo = obs::judge(spec, completed, o.ttft_s, o.max_itl_s,
                           o.latency_s);
    };

    const auto expired = [&](const Request &r) {
        return r.deadline_s > 0.0 && clock > r.deadline_s;
    };
    const auto finishTimeline = [&](Entry &e, RequestOutcome &o) {
        o.finish_s = clock;
        o.latency_s = clock - e.req.arrival_s;
        o.admit_s = e.first_admit_s >= 0.0 ? e.first_admit_s : clock;
        o.queue_s = std::max(0.0, o.admit_s - e.req.arrival_s);
        o.prefill_s = chunked && e.prefill_ready_s >= 0.0
                          ? std::max(0.0, e.prefill_ready_s - o.admit_s)
                          : 0.0;
        o.prefill_chunks = e.chunks;
        o.preemptions = e.preemptions;
        o.swaps = e.swaps;
        o.cached_tokens = e.cached;
        o.max_itl_s = e.itl_max_s;
    };
    const auto drop = [&](Entry &e) {
        if (e.sess && e.sess->awaitingTransfer()) {
            // The modeled DMA still completes on its channel; settle
            // it so the byte-conservation census stays exact before
            // the blocks free with the entry.
            e.sess->endTransfer();
            fleet.transfer_bytes_received += e.xfer_bytes;
        }
        RequestOutcome &o = outcomes[e.outcome];
        o.dropped = true;
        finishTimeline(e, o);
        // An unfinished request fails every configured objective.
        judgeSlo(e, o, false);
        decision(obs::TraceDecision::Drop, e.req.id);
        ++fleet.dropped;
        // Gaps already delivered count toward fleet ITL (they are in
        // itl_samples too, keeping mean and percentiles consistent).
        itl_sum += e.itl_sum_s;
        itl_gaps += e.itl_gaps;
    };
    const auto fleetBlocks = [&] {
        // With the cache on, budget occupancy is the real allocator
        // state: distinct physical blocks, counting a block shared
        // by several sessions (or by a session and the cache) once.
        // Sharing only happens within a pinned engine, so the sum is
        // identical across worker counts. Cache-off keeps the legacy
        // per-session sum bit-identically.
        if (cache_on) {
            long b = 0;
            for (const auto &p : pools)
                b += p->blocksInUse();
            return b;
        }
        long b = 0;
        for (const auto &a : active)
            b += a.sess->kvBlocks();
        for (const auto &p : prefilling)
            b += p.sess->kvBlocks();
        for (const auto &h : handoffQ)
            b += h.sess->kvBlocks();
        return b;
    };
    // Earliest STRICTLY FUTURE modeled event: an arrival, a prefill
    // device finishing its chunk (or a finished prompt's completion
    // time), or an in-flight DMA landing. Already-due events were
    // handled at this boundary, so only t > clock counts; infinity
    // means nothing is pending.
    const auto nextEvent = [&] {
        double next = std::numeric_limits<double>::infinity();
        const auto consider = [&](double t) {
            if (t > clock)
                next = std::min(next, t);
        };
        if (!waiting.empty())
            consider(waiting.front().req.arrival_s);
        for (const auto &p : prefilling) {
            const size_t d = p.device - static_cast<size_t>(n_decode_dev);
            consider(p.pf_done ? p.pf_done_s : pf_free_at[d]);
        }
        const auto landing = [&](const Entry &e) {
            if (e.sess && e.sess->awaitingTransfer())
                consider(e.xfer_ready_s);
        };
        for (const auto &h : handoffQ)
            landing(h);
        for (const auto &s : swappedQ)
            landing(s);
        for (const auto &a : active)
            landing(a);
        return next;
    };
    // Cache the finished prompt's KV at the prefill-done boundary —
    // the one moment every layer holds exactly the prompt's sim rows.
    // Idempotent per run; a recompute preemption clears the flag so
    // the re-run re-inserts (its fresh blocks replace freed ones).
    const auto cacheInsert = [&](Entry &e) {
        if (!cache_on || e.true_toks.empty() || e.cache_inserted)
            return;
        e.cache_inserted = true;
        cache->insert(e.true_toks, e.engine, e.sess->kvSeqId(),
                      cache_stamp++);
    };
    // Device KV of the candidate's FULL working set (sim dims): the
    // whole prompt — not the first chunk's share chunked admission
    // reserves — plus every scripted decode position. This is what
    // the prefill-aware watermark insists fits under the high-water
    // mark before a long prompt is admitted at all. `sim_cached` sim
    // rows already resident in the prefix cache discount the charge:
    // adoption shares those blocks instead of allocating them, so
    // counting them again would double-charge every cache hit and
    // starve admission under tight watermarks. Only WHOLE cached
    // blocks discount — the boundary block copy-on-write forks on
    // the first divergent write, so its copy still charges.
    const auto fullRequestBlocks = [&](const Entry &e, int sim_cached) {
        const auto &inst = e.w.instances.front();
        const int positions = static_cast<int>(inst.prompt.size()) +
                              static_cast<int>(inst.steps.size());
        int blocks = (positions + model::kKvBlockSize - 1) /
                     model::kKvBlockSize;
        blocks -= std::min(blocks, sim_cached / model::kKvBlockSize);
        return mcfg.n_layers * blocks;
    };
    // The candidate's would-be adoption, probed WITHOUT stamping the
    // LRU or assembling a block table (pure read): what admission
    // will actually share if the gate passes.
    const auto peekCached = [&](const Entry &e) {
        if (!cache_on || e.true_toks.empty())
            return 0;
        const size_t eng = static_cast<size_t>(
            e.req.prompt.rootTemplate() % engines.size());
        return cache->peekSimMatched(e.true_toks, eng);
    };
    // KV an admission must be able to hold up front: the whole
    // (sim-dims) prompt when prefill is atomic, only the first
    // chunk's share of the prefix when chunked — gradual ingestion
    // is what lets short requests slip in under KV pressure.
    const auto admitBlocks = [&](const Entry &e) {
        const int prompt =
            static_cast<int>(e.w.instances.front().prompt.size());
        int sim = prompt;
        if (chunked) {
            const int total = std::max(e.w.true_prompt_len, 1);
            const int chunk = std::min(opts_.prefill.chunk_tokens, total);
            // A single-chunk prompt reserves exactly what the atomic
            // path would; smaller chunks reserve the first chunk's
            // proportional share of the sim prefix.
            if (chunk < total) {
                sim = std::max(
                    1, static_cast<int>(static_cast<long>(prompt - 1) *
                                        chunk / total));
            }
        }
        return mcfg.n_layers *
               ((sim + model::kKvBlockSize - 1) /
                model::kKvBlockSize);
    };

    while (!waiting.empty() || !active.empty() || !swappedQ.empty() ||
           !prefilling.empty() || !handoffQ.empty()) {
        // --- iteration boundary: settle landed DMAs first ----------
        // A transfer whose channel time has passed unpins its
        // session's blocks; admission and stepping below then see
        // the settled state.
        if (overlap) {
            const auto settleIfLanded = [&](Entry &e) {
                if (e.sess && e.sess->awaitingTransfer() &&
                    clock >= e.xfer_ready_s) {
                    e.sess->endTransfer();
                    fleet.transfer_bytes_received += e.xfer_bytes;
                }
            };
            for (auto &a : active)
                settleIfLanded(a);
            for (auto &s : swappedQ)
                settleIfLanded(s);
            for (auto &h : handoffQ)
                settleIfLanded(h);
        }

        // --- iteration boundary: deadlines, admission, preemption --
        for (size_t i = 0; i < active.size();) {
            if (expired(active[i].req)) {
                drop(active[i]);
                active.erase(active.begin() +
                             static_cast<long>(i)); // KV frees here
            } else {
                ++i;
            }
        }
        for (size_t i = 0; i < waiting.size();) {
            if (expired(waiting[i].req)) {
                drop(waiting[i]);
                waiting.erase(waiting.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }
        for (size_t i = 0; i < swappedQ.size();) {
            if (expired(swappedQ[i].req)) {
                drop(swappedQ[i]); // host-pool KV frees with the entry
                swappedQ.erase(swappedQ.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }
        for (size_t i = 0; i < prefilling.size();) {
            if (expired(prefilling[i].req)) {
                // The prefill device stays busy until its in-flight
                // chunk's modeled end — dead work, like a dropped
                // decode's last iteration.
                drop(prefilling[i]);
                prefilling.erase(prefilling.begin() +
                                 static_cast<long>(i));
            } else {
                ++i;
            }
        }
        for (size_t i = 0; i < handoffQ.size();) {
            if (expired(handoffQ[i].req)) {
                drop(handoffQ[i]); // settles any in-flight handoff
                handoffQ.erase(handoffQ.begin() + static_cast<long>(i));
            } else {
                ++i;
            }
        }

        // Admission: swap-ins and fresh admissions compete for free
        // slots tier-first (interactive before batch, everywhere),
        // FIFO within each tier; at equal tier a swapped session
        // wins — it is older admitted work holding host memory and
        // prior progress. A batch-tier session frozen in the host
        // pool therefore never delays an interactive prompt, exactly
        // like a recompute victim waiting in the queue. An empty
        // fleet always takes a candidate (progress guarantee: the
        // budget gates below only apply alongside active peers).
        // Per-consumer backpressure: pass over candidates whose
        // consumer already decodes max_inflight_per_consumer
        // sessions. Saturation needs >= 1 active session, so an
        // empty fleet is never deferred and progress holds.
        const auto saturated = [&](const Request &r) {
            if (opts_.max_inflight_per_consumer <= 0)
                return false;
            int c = 0;
            for (const auto &a : active)
                if (a.req.consumer == r.consumer)
                    ++c;
            return c >= opts_.max_inflight_per_consumer;
        };
        // Disaggregation: finished prompts whose prefill-device
        // timeline has passed hand their KV off toward the decode
        // fleet — before admission, so a handoff that just became
        // ready can take a decode slot at this very boundary and its
        // freed prefill device can take the next prompt.
        if (disagg) {
            for (size_t i = 0; i < prefilling.size();) {
                Entry &p = prefilling[i];
                if (!p.pf_done || clock < p.pf_done_s) {
                    ++i;
                    continue;
                }
                Entry e = std::move(p);
                prefilling.erase(prefilling.begin() +
                                 static_cast<long>(i));
                if (e.prefill_ready_s < 0.0)
                    e.prefill_ready_s = e.pf_done_s;
                cacheInsert(e);
                const double h = e.sess->chargeHandoff();
                e.xfer_bytes = mem.kvBytes(e.sess->modeledPositions());
                ++fleet.handoffs;
                decision(obs::TraceDecision::Handoff, e.req.id);
                fleet.handoff_gb +=
                    hw::MemoryTracker::toGiB(e.xfer_bytes);
                fleet.transfer_bytes_sent += e.xfer_bytes;
                if (overlap) {
                    // Stream over the prefill device's peer channel,
                    // concurrent with its next prompt's chunks and
                    // with the decode batch.
                    const double busy_from =
                        std::max(clock,
                                 xfer.freeAt(static_cast<int>(e.device),
                                             hw::DmaChannel::Peer));
                    e.xfer_ready_s =
                        xfer.submit(static_cast<int>(e.device),
                                    hw::DmaChannel::Peer, clock, h);
                    transferSpan(busy_from, e.xfer_ready_s, e.device,
                                 hw::DmaChannel::Peer, e.req.id);
                    e.sess->beginTransfer();
                    ++fleet.transfers_overlapped;
                } else {
                    e.handoff_s = h;
                }
                handoffQ.push_back(std::move(e));
            }
        }

        bool deferred = false;
        // Restore a swapped candidate into a decode slot. Overlap
        // off: the host-link DMA serializes on the fleet clock, as
        // ever. Overlap on: the functional restore happens now (KV
        // content is a pure function of the tokens, so eager data
        // movement cannot change emissions), the DMA is submitted on
        // the session's device host channel, and the session holds
        // its slot at zero cost until the landing.
        const auto swapInAdmit = [&](Entry &&e) {
            const double h = e.sess->swapIn();
            ++fleet.swaps_in;
            decision(obs::TraceDecision::Resume, e.req.id);
            e.xfer_bytes = mem.kvBytes(e.sess->modeledPositions());
            fleet.transfer_bytes_sent += e.xfer_bytes;
            if (overlap) {
                const double busy_from =
                    std::max(clock,
                             xfer.freeAt(static_cast<int>(e.device),
                                         hw::DmaChannel::Host));
                e.xfer_ready_s =
                    xfer.submit(static_cast<int>(e.device),
                                hw::DmaChannel::Host, clock, h);
                transferSpan(busy_from, e.xfer_ready_s, e.device,
                             hw::DmaChannel::Host, e.req.id);
                e.sess->beginTransfer();
                ++fleet.transfers_overlapped;
            } else {
                transferSpan(clock, clock + h, e.device,
                             hw::DmaChannel::Host, e.req.id);
                clock += h;
                fleet.transfer_bytes_received += e.xfer_bytes;
            }
            active.push_back(std::move(e));
        };
        while (!disagg && active.size() < slots) {
            size_t sw = swappedQ.size();
            size_t sw_any = swappedQ.size();
            for (size_t i = 0; i < swappedQ.size(); ++i) {
                if (swappedQ[i].sess->awaitingTransfer())
                    continue; // out-transfer still on the link
                if (saturated(swappedQ[i].req)) {
                    deferred = true;
                    continue;
                }
                if (swappedQ[i].req.priority == Priority::Interactive) {
                    sw = i;
                    break;
                }
                if (sw_any == swappedQ.size())
                    sw_any = i;
            }
            if (sw == swappedQ.size())
                sw = sw_any;
            size_t cand = waiting.size();
            for (size_t i = 0; i < waiting.size(); ++i) {
                // Future arrivals are a contiguous sorted tail
                // (victims re-enter at the front, already arrived).
                if (waiting[i].req.arrival_s > clock)
                    break;
                if (saturated(waiting[i].req)) {
                    deferred = true;
                    continue;
                }
                if (waiting[i].req.priority == Priority::Interactive) {
                    cand = i;
                    break;
                }
                if (cand == waiting.size())
                    cand = i;
            }
            const bool have_sw = sw < swappedQ.size();
            const bool have_wa = cand < waiting.size();
            if (!have_sw && !have_wa)
                break;
            const bool pick_sw =
                have_sw &&
                (!have_wa ||
                 static_cast<int>(swappedQ[sw].req.priority) <=
                     static_cast<int>(waiting[cand].req.priority));
            if (pick_sw) {
                Entry &head = swappedQ[sw];
                if (opts_.kv_budget_blocks > 0 && !active.empty() &&
                    fleetBlocks() + head.sess->hostBlocks() +
                            iter_growth *
                                static_cast<long>(active.size() + 1) >
                        opts_.kv_budget_blocks)
                    break;
                Entry e = std::move(head);
                swappedQ.erase(swappedQ.begin() + static_cast<long>(sw));
                swapInAdmit(std::move(e));
                continue;
            }
            Entry &head = waiting[cand];
            if (opts_.kv_budget_blocks > 0 && !active.empty() &&
                fleetBlocks() + admitBlocks(head) +
                        iter_growth *
                            static_cast<long>(active.size() + 1) >
                    opts_.kv_budget_blocks)
                break;
            // Prefill-aware watermark: beyond the first-chunk
            // reservation above, the fleet's COMMITTED working set —
            // every active session's full prompt + decode KV (what
            // its blocks will grow to, not what it holds mid-chunk)
            // plus the candidate's, plus the scheduler's growth
            // reserve — must fit under the high-water mark.
            // Otherwise a long prompt admitted against today's
            // near-empty occupancy would chunk, grow, evict and
            // recompute in a loop under a tight budget.
            if (opts_.kv_watermark > 0.0 && opts_.kv_budget_blocks > 0 &&
                !active.empty()) {
                long committed =
                    fullRequestBlocks(head, peekCached(head));
                for (const auto &a : active)
                    committed += fullRequestBlocks(a, a.sim_adopted);
                if (static_cast<double>(
                        committed +
                        iter_growth *
                            static_cast<long>(active.size() + 1)) >
                    opts_.kv_watermark * opts_.kv_budget_blocks) {
                    ++fleet.watermark_rejections;
                    decision(obs::TraceDecision::WatermarkReject,
                             head.req.id);
                    break;
                }
            }
            Entry e = std::move(head);
            waiting.erase(waiting.begin() + static_cast<long>(cand));
            // Template-affinity pinning: requests sharing a root
            // template land on one engine, so their physical blocks
            // live in one pool and can actually be shared. Unshared
            // requests keep the legacy round-robin. Cache decisions
            // stay deterministic across worker counts because a
            // template's tree is the same tree wherever it lives.
            if (cache_on && !e.true_toks.empty()) {
                e.engine = static_cast<size_t>(
                    e.req.prompt.rootTemplate() % engines.size());
            } else {
                e.engine = admit_seq++ % engines.size();
            }
            // Logical pricing device, independent of the physical
            // worker pin above; inert at one device.
            e.device = static_cast<size_t>(
                dev_seq++ % static_cast<uint64_t>(n_decode_dev));
            e.sess = engines[e.engine]->makeSession(
                e.w, e.req.seed,
                std::make_unique<model::SequenceKv>(pools[e.engine]));
            e.cached = 0;
            e.sim_adopted = 0;
            if (cache_on && !e.true_toks.empty()) {
                const PrefixCache::Match m = cache->match(
                    e.true_toks, e.engine, cache_stamp++);
                if (m.sim_matched > 0) {
                    e.sess->adoptCachedPrefix(m.table, m.true_matched,
                                              m.sim_matched);
                    e.cached = m.true_matched;
                    e.sim_adopted = m.sim_matched;
                    ++fleet.prefix_hits;
                    fleet.cached_tokens += m.true_matched;
                    decision(obs::TraceDecision::CacheHit, e.req.id,
                             m.true_matched);
                }
            }
            if (!chunked) {
                // Atomic legacy prefill: free and instantaneous. A
                // full-prompt cache hit already completed it.
                if (!e.sess->prefillDone())
                    e.sess->prefill();
                e.prefill_ready_s = clock;
                cacheInsert(e);
            }
            if (e.first_admit_s < 0.0)
                e.first_admit_s = clock;
            ++fleet.admissions;
            decision(obs::TraceDecision::Admit, e.req.id);
            active.push_back(std::move(e));
        }

        // Disaggregated decode admission: free decode slots are fed
        // by swap-ins and by finished prompts arriving over the peer
        // link — never by raw prompts, which ingest on the prefill
        // devices below. Tier-first everywhere; at equal tier a
        // swapped session wins (older admitted work, like the
        // unified rule).
        while (disagg && active.size() < slots) {
            size_t sw = swappedQ.size();
            size_t sw_any = swappedQ.size();
            for (size_t i = 0; i < swappedQ.size(); ++i) {
                if (swappedQ[i].sess->awaitingTransfer())
                    continue; // out-transfer still on the link
                if (saturated(swappedQ[i].req)) {
                    deferred = true;
                    continue;
                }
                if (swappedQ[i].req.priority == Priority::Interactive) {
                    sw = i;
                    break;
                }
                if (sw_any == swappedQ.size())
                    sw_any = i;
            }
            if (sw == swappedQ.size())
                sw = sw_any;
            size_t ho = handoffQ.size();
            size_t ho_any = handoffQ.size();
            for (size_t i = 0; i < handoffQ.size(); ++i) {
                if (handoffQ[i].sess->awaitingTransfer())
                    continue; // KV still streaming to the decode side
                if (saturated(handoffQ[i].req)) {
                    deferred = true;
                    continue;
                }
                if (handoffQ[i].req.priority == Priority::Interactive) {
                    ho = i;
                    break;
                }
                if (ho_any == handoffQ.size())
                    ho_any = i;
            }
            if (ho == handoffQ.size())
                ho = ho_any;
            const bool have_sw = sw < swappedQ.size();
            const bool have_ho = ho < handoffQ.size();
            if (!have_sw && !have_ho)
                break;
            const bool pick_sw =
                have_sw &&
                (!have_ho ||
                 static_cast<int>(swappedQ[sw].req.priority) <=
                     static_cast<int>(handoffQ[ho].req.priority));
            if (pick_sw) {
                Entry &head = swappedQ[sw];
                if (opts_.kv_budget_blocks > 0 && !active.empty() &&
                    fleetBlocks() + head.sess->hostBlocks() +
                            iter_growth *
                                static_cast<long>(active.size() + 1) >
                        opts_.kv_budget_blocks)
                    break;
                Entry e = std::move(head);
                swappedQ.erase(swappedQ.begin() + static_cast<long>(sw));
                swapInAdmit(std::move(e));
                continue;
            }
            // A handoff admission's blocks are already in
            // fleetBlocks() (they allocated at ingestion); only the
            // per-iteration growth reserve gates the slot.
            if (opts_.kv_budget_blocks > 0 && !active.empty() &&
                fleetBlocks() + iter_growth *
                                    static_cast<long>(active.size() + 1) >
                    opts_.kv_budget_blocks)
                break;
            Entry e = std::move(handoffQ[ho]);
            handoffQ.erase(handoffQ.begin() + static_cast<long>(ho));
            e.device = static_cast<size_t>(
                dev_seq++ % static_cast<uint64_t>(n_decode_dev));
            if (!overlap) {
                // Serialized handoff: the peer-link stream pays on
                // the fleet clock at the decode boundary, like the
                // serialized swap DMAs.
                transferSpan(clock, clock + e.handoff_s, e.device,
                             hw::DmaChannel::Peer, e.req.id);
                clock += e.handoff_s;
                fleet.transfer_bytes_received += e.xfer_bytes;
            }
            active.push_back(std::move(e));
        }

        // Disaggregated prefill admission: arrived requests start
        // chunked ingestion on a free prefill device. Bounded so the
        // prefill side (ingesting prompts + queued handoffs) never
        // outgrows the pool headroom sized above.
        while (disagg &&
               static_cast<int>(prefilling.size()) < n_prefill_dev &&
               prefilling.size() + handoffQ.size() <
                   slots + static_cast<size_t>(n_prefill_dev)) {
            size_t cand = waiting.size();
            for (size_t i = 0; i < waiting.size(); ++i) {
                if (waiting[i].req.arrival_s > clock)
                    break;
                if (saturated(waiting[i].req)) {
                    deferred = true;
                    continue;
                }
                if (waiting[i].req.priority == Priority::Interactive) {
                    cand = i;
                    break;
                }
                if (cand == waiting.size())
                    cand = i;
            }
            if (cand == waiting.size())
                break;
            Entry &head = waiting[cand];
            // Progress guarantee: with no session anywhere in the
            // fleet, admit unconditionally.
            const bool fleet_empty = active.empty() &&
                                     prefilling.empty() &&
                                     handoffQ.empty();
            const long n_sessions =
                static_cast<long>(active.size() + prefilling.size());
            if (opts_.kv_budget_blocks > 0 && !fleet_empty &&
                fleetBlocks() + admitBlocks(head) +
                        iter_growth * (n_sessions + 1) >
                    opts_.kv_budget_blocks)
                break;
            if (opts_.kv_watermark > 0.0 && opts_.kv_budget_blocks > 0 &&
                !fleet_empty) {
                long committed =
                    fullRequestBlocks(head, peekCached(head));
                for (const auto &a : active)
                    committed += fullRequestBlocks(a, a.sim_adopted);
                for (const auto &p : prefilling)
                    committed += fullRequestBlocks(p, p.sim_adopted);
                for (const auto &h : handoffQ)
                    committed += fullRequestBlocks(h, h.sim_adopted);
                if (static_cast<double>(
                        committed + iter_growth * (n_sessions + 1)) >
                    opts_.kv_watermark * opts_.kv_budget_blocks) {
                    ++fleet.watermark_rejections;
                    decision(obs::TraceDecision::WatermarkReject,
                             head.req.id);
                    break;
                }
            }
            Entry e = std::move(head);
            waiting.erase(waiting.begin() + static_cast<long>(cand));
            // First free prefill device (at most n_prefill_dev
            // entries ingest at once, so one always exists).
            int local = -1;
            for (int d = 0; d < n_prefill_dev && local < 0; ++d) {
                bool used = false;
                for (const auto &p : prefilling) {
                    if (p.device ==
                        static_cast<size_t>(n_decode_dev + d))
                        used = true;
                }
                if (!used)
                    local = d;
            }
            specee_assert(local >= 0, "no free prefill device");
            e.device = static_cast<size_t>(n_decode_dev + local);
            if (cache_on && !e.true_toks.empty()) {
                e.engine = static_cast<size_t>(
                    e.req.prompt.rootTemplate() % engines.size());
            } else {
                e.engine = admit_seq++ % engines.size();
            }
            e.sess = engines[e.engine]->makeSession(
                e.w, e.req.seed,
                std::make_unique<model::SequenceKv>(pools[e.engine]));
            e.cached = 0;
            e.sim_adopted = 0;
            if (cache_on && !e.true_toks.empty()) {
                const PrefixCache::Match m =
                    cache->match(e.true_toks, e.engine, cache_stamp++);
                if (m.sim_matched > 0) {
                    e.sess->adoptCachedPrefix(m.table, m.true_matched,
                                              m.sim_matched);
                    e.cached = m.true_matched;
                    e.sim_adopted = m.sim_matched;
                    ++fleet.prefix_hits;
                    fleet.cached_tokens += m.true_matched;
                    decision(obs::TraceDecision::CacheHit, e.req.id,
                             m.true_matched);
                }
            }
            if (e.first_admit_s < 0.0)
                e.first_admit_s = clock;
            ++fleet.admissions;
            decision(obs::TraceDecision::Admit, e.req.id);
            e.pf_done = false;
            // A full-prompt cache hit skips the device entirely: the
            // prompt is ready now and only the handoff remains.
            if (e.sess->prefillDone()) {
                e.pf_done = true;
                e.pf_done_s = clock;
            }
            prefilling.push_back(std::move(e));
        }
        if (deferred) {
            ++fleet.backpressure_deferrals;
            // One instant per boundary, like the counter (several
            // candidates may have been passed over).
            decision(obs::TraceDecision::Defer, 0);
        }

        // --- disaggregated prefill devices run their own timelines -
        if (disagg) {
            // One chunk per free prefill device, on its decoupled
            // timeline: issued at this boundary, complete at clock +
            // chunk time. A device freed between boundaries waits for
            // the next one — conservative and causal, so results are
            // bit-identical across worker counts.
            for (auto &p : prefilling) {
                const size_t d =
                    p.device - static_cast<size_t>(n_decode_dev);
                if (p.pf_done || pf_free_at[d] > clock)
                    continue;
                const int remaining = p.sess->prefillRemaining();
                if (remaining > 0) {
                    const int chunk =
                        std::min(opts_.prefill.chunk_tokens, remaining);
                    const int consumed = p.sess->prefillChunk(chunk);
                    const auto &c = p.sess->lastStep();
                    const double dt_pf = c.shared_s + c.private_s;
                    fleet.energy_j += c.shared_j + c.private_j;
                    fleet.prefill_busy_s += dt_pf;
                    pf_free_at[d] = clock + dt_pf;
                    ++p.chunks;
                    ++fleet.prefill_chunks;
                    fleet.prefill_tokens += consumed;
                    if (tracing) {
                        // Chunk span on the prefill device's own
                        // decoupled timeline.
                        obs::TraceEvent ev;
                        ev.kind = obs::TraceKind::PrefillChunk;
                        ev.t0 = clock;
                        ev.t1 = pf_free_at[d];
                        ev.device = static_cast<int>(p.device);
                        ev.request = p.req.id;
                        ev.tokens = consumed;
                        ev.deepest_layer = c.deepest_layer;
                        ev.stages_used = c.stages_used;
                        ev.op_s = c.class_s;
                        ev.seq = trace_seq++;
                        rec.control().emit(std::move(ev));
                    }
                }
                if (p.sess->prefillDone()) {
                    p.pf_done = true;
                    p.pf_done_s = remaining > 0 ? pf_free_at[d] : clock;
                }
            }
        }

        if (active.empty()) {
            // Idle decode fleet: jump to the earliest future event —
            // the next arrival, a prefill device finishing, or an
            // in-flight DMA landing. (Anything already due was
            // admitted or settled above, so the event is genuinely
            // in the future; infinity means the fleet is drained.)
            const double next = nextEvent();
            if (!std::isfinite(next)) {
                specee_assert(waiting.empty() && prefilling.empty() &&
                                  handoffQ.empty() && swappedQ.empty(),
                              "idle fleet stalled with pending work");
                break;
            }
            clock = next;
            continue;
        }

        // KV pressure: evict sessions until the worst case of the
        // next iteration fits the fleet budget. Victims are chosen
        // batch-tier first (youngest batch session), then youngest
        // overall; the oldest session is never evicted (guaranteed
        // progress). Each victim is served by the configured
        // preemption mechanism: recompute throws its run away (a
        // partially prefilled victim re-ingests its chunks from
        // scratch like a mid-decode victim re-decodes), swap freezes
        // it in the host pool with all progress intact, and auto
        // compares the modeled swap round trip against the modeled
        // cost of replaying the victim's work so far.
        while (opts_.kv_budget_blocks > 0 &&
               fleetBlocks() +
                       iter_growth * static_cast<long>(active.size() +
                                                       prefilling.size()) >
                   opts_.kv_budget_blocks) {
            // Cached blocks are the lowest residency tier: drain the
            // cache LRU-first before preempting any live session. An
            // eviction may free no physical blocks (a session still
            // shares them) — the loop keeps draining until pressure
            // clears or the cache is empty.
            if (cache_on && cache->evictLru())
                continue;
            if (active.size() <= 1)
                break;
            // Victim choice: batch tier first, then the session
            // FURTHEST from its deadline — largest slack, treating
            // no deadline as infinite slack — youngest-first on
            // exact ties (the scan runs youngest to oldest and only
            // a strictly better candidate replaces). Evicting the
            // max-slack session keeps near-deadline work running:
            // the old tier-only rule would evict a victim with
            // seconds of slack and re-admit it past its deadline.
            // Without deadlines every slack is infinite and this
            // reduces bit-identically to the legacy youngest-batch-
            // else-youngest rule.
            size_t vi = active.size();
            int vi_tier = -1;
            double vi_slack = 0.0;
            for (size_t i = active.size(); i-- > 1;) {
                if (active[i].sess->awaitingTransfer())
                    continue; // blocks pinned by an in-flight DMA
                const int tier =
                    static_cast<int>(active[i].req.priority);
                const double slack =
                    active[i].req.deadline_s > 0.0
                        ? active[i].req.deadline_s - clock
                        : std::numeric_limits<double>::infinity();
                if (vi == active.size() || tier > vi_tier ||
                    (tier == vi_tier && slack > vi_slack)) {
                    vi = i;
                    vi_tier = tier;
                    vi_slack = slack;
                }
            }
            if (vi == active.size())
                break; // everything evictable is mid-transfer
            Entry victim = std::move(active[vi]);
            active.erase(active.begin() + static_cast<long>(vi));
            ++victim.preemptions;
            ++fleet.preemptions;
            const bool swap =
                opts_.preempt_mode == PreemptMode::Swap ||
                (opts_.preempt_mode == PreemptMode::Auto &&
                 has_swap_link &&
                 victim.sess->swapRoundTripSeconds() <
                     victim.sess->modeledCostSoFar());
            decision(swap ? obs::TraceDecision::PreemptSwap
                          : obs::TraceDecision::PreemptRecompute,
                     victim.req.id);
            if (swap) {
                // Swap preemption: KV moves to the host pool (device
                // blocks free), the session freezes with its rng
                // stream, emission and prefill progress intact. The
                // transfer pays on the fleet clock (overlap off) or
                // rides the victim's device host channel while the
                // fleet keeps iterating (overlap on); either way the
                // session cannot swap back in before it lands.
                const double h = victim.sess->swapOut();
                ++victim.swaps;
                ++fleet.swaps_out;
                victim.xfer_bytes =
                    mem.kvBytes(victim.sess->modeledPositions());
                fleet.transfer_bytes_sent += victim.xfer_bytes;
                if (overlap) {
                    const double busy_from = std::max(
                        clock,
                        xfer.freeAt(static_cast<int>(victim.device),
                                    hw::DmaChannel::Host));
                    victim.xfer_ready_s = xfer.submit(
                        static_cast<int>(victim.device),
                        hw::DmaChannel::Host, clock, h);
                    transferSpan(busy_from, victim.xfer_ready_s,
                                 victim.device, hw::DmaChannel::Host,
                                 victim.req.id);
                    victim.sess->beginTransfer();
                    ++fleet.transfers_overlapped;
                } else {
                    transferSpan(clock, clock + h, victim.device,
                                 hw::DmaChannel::Host, victim.req.id);
                    clock += h;
                    fleet.transfer_bytes_received += victim.xfer_bytes;
                }
                swappedQ.push_back(std::move(victim));
            } else {
                victim.sess.reset(); // frees the KV blocks
                victim.prefill_ready_s = -1.0;
                victim.chunks = 0;
                // The tree's references on this prompt's blocks (if
                // it was inserted) survive the session — cached
                // content stays valid — but the re-run re-matches
                // and, if needed, re-inserts fresh tail blocks.
                victim.cached = 0;
                victim.sim_adopted = 0;
                victim.cache_inserted = false;
                // Recompute preemption: back to the head of the wait
                // queue (tier-aware admission keeps a batch victim
                // from blocking interactive peers) and re-run from
                // scratch.
                waiting.push_front(std::move(victim));
            }
        }

        // --- plan the mixed iteration (scheduler thread) -----------
        // Every decode-ready session steps; mid-prefill sessions run
        // one planned chunk each under the iteration token budget.
        std::vector<int> grant(active.size(), 0);
        if (chunked) {
            std::vector<int> pending(active.size(), 0);
            std::vector<int> rank(active.size(), 0);
            int decodes = 0;
            for (size_t i = 0; i < active.size(); ++i) {
                rank[i] = static_cast<int>(active[i].req.priority);
                if (active[i].sess->awaitingTransfer()) {
                    // Pinned mid-DMA: neither decodes nor chunks
                    // this iteration, so no budget is granted to it.
                } else if (active[i].sess->prefillDone()) {
                    ++decodes;
                } else {
                    pending[i] = active[i].sess->prefillRemaining();
                }
            }
            // Pipeline backfill: convert last iteration's idle
            // stages into extra budget tokens so queued prefill
            // chunks slot into the bubble the early exits opened.
            // Rounded up: any free stage admits at least one token,
            // so tight budgets still backfill.
            long extra = 0;
            if (staged && opts_.stage_backfill &&
                opts_.prefill.max_tokens_per_iteration > 0 &&
                free_stages_prev > 0) {
                extra = (static_cast<long>(
                             opts_.prefill.max_tokens_per_iteration) *
                             free_stages_prev +
                         n_stages - 1) /
                        n_stages;
            }
            if (extra > 0) {
                const std::vector<int> base =
                    planner.plan(pending, rank, decodes);
                grant = planner.plan(pending, rank, decodes, extra);
                for (size_t i = 0; i < grant.size(); ++i) {
                    if (grant[i] > base[i]) {
                        ++fleet.backfill_grants;
                        fleet.backfill_tokens += grant[i] - base[i];
                        decision(obs::TraceDecision::BackfillGrant,
                                 active[i].req.id, grant[i] - base[i]);
                    }
                }
            } else {
                grant = planner.plan(pending, rank, decodes);
            }
        }

        // --- step every active session, in parallel by engine ------
        const double step_t0 = clock;
        // Shard high-water marks: everything a worker emits past its
        // mark belongs to THIS iteration and gets its end clamped to
        // the iteration's actual clock advance below.
        std::vector<size_t> shard_mark;
        if (tracing) {
            shard_mark.resize(engines.size());
            for (size_t e = 0; e < engines.size(); ++e)
                shard_mark[e] = rec.worker(e).size();
        }
        size_t engines_used = 0;
        {
            std::vector<bool> has(engines.size(), false);
            for (const auto &a : active) {
                if (!has[a.engine]) {
                    has[a.engine] = true;
                    ++engines_used;
                }
            }
            auto stepEngine = [&](size_t eng) {
                // This thread's private shard. Events carry the
                // session's admission-order slot `i` as lane AND seq
                // (never the physical engine index, which depends on
                // the worker count), so merged() replays identically
                // for any engine fan-out.
                obs::TraceShard &shard = rec.worker(eng);
                const auto emitStep = [&](size_t i, const Entry &a) {
                    if (!tracing ||
                        (a.granted <= 0 && a.cost.tokens <= 0))
                        return; // idle: no span
                    obs::TraceEvent ev;
                    ev.kind = a.granted > 0
                                  ? obs::TraceKind::PrefillChunk
                                  : obs::TraceKind::Step;
                    ev.t0 = step_t0;
                    // Parenthesized to match the iteration pricing's
                    // association; any remaining ulp overhang versus
                    // the priced dt (stage pricing re-associates the
                    // sums) is clamped to the new clock after the
                    // join, so per-lane spans are exactly disjoint.
                    ev.t1 = step_t0 +
                            (a.cost.shared_s + a.cost.private_s);
                    ev.device = static_cast<int>(a.device);
                    ev.lane = static_cast<int>(i);
                    ev.request = a.req.id;
                    ev.tokens =
                        a.granted > 0 ? a.granted : a.cost.tokens;
                    ev.deepest_layer = a.cost.deepest_layer;
                    ev.stages_used = a.cost.stages_used;
                    ev.op_s = a.cost.class_s;
                    ev.seq = i;
                    shard.emit(std::move(ev));
                };
                for (size_t i = 0; i < active.size(); ++i) {
                    Entry &a = active[i];
                    if (a.engine != eng)
                        continue;
                    if (a.sess->awaitingTransfer()) {
                        // Blocks still riding the DMA: the session
                        // idles at zero cost until the link settles.
                        a.granted = 0;
                        a.cost = engines::StepCost{};
                        continue;
                    }
                    if (chunked && !a.sess->prefillDone()) {
                        if (grant[i] > 0) {
                            a.granted = a.sess->prefillChunk(grant[i]);
                            a.cost = a.sess->lastStep();
                            emitStep(i, a);
                        } else {
                            // Budget exhausted by decode peers: the
                            // session idles this iteration.
                            a.granted = 0;
                            a.cost = engines::StepCost{};
                        }
                        continue;
                    }
                    a.granted = 0;
                    a.sess->step();
                    a.cost = a.sess->lastStep();
                    emitStep(i, a);
                }
            };
            if (engines_used <= 1) {
                for (size_t e = 0; e < engines.size(); ++e)
                    if (has[e])
                        stepEngine(e);
            } else {
                std::vector<std::thread> threads;
                threads.reserve(engines_used);
                for (size_t e = 0; e < engines.size(); ++e)
                    if (has[e])
                        threads.emplace_back(stepEngine, e);
                for (auto &t : threads)
                    t.join();
            }
        }

        // --- price the iteration (admission order, deterministic) --
        // Legacy: the shared weight stream is read once for the whole
        // batch, so its time is the max over sessions. Stage-split
        // (pp > 1): each STAGE's weight stream is read once, so the
        // per-stage maxima sum — sessions with disjoint layer ranges
        // (a shallow exit beside a deep decode) serialize through the
        // pipeline instead of riding free under the global max. Never
        // cheaper than the legacy max; equal for homogeneous batches.
        int busy_stages = 0;
        for (const auto &a : active) {
            specee_assert(a.cost.stages_used >= 0 &&
                              a.cost.stages_used <= n_stages,
                          "session stage span %d outside [0, %d]",
                          a.cost.stages_used, n_stages);
            specee_assert(a.cost.stage_shared_s.empty() ||
                              static_cast<int>(
                                  a.cost.stage_shared_s.size()) ==
                                  n_stages,
                          "stage cost vector does not match the "
                          "fleet's stage graph");
            busy_stages = std::max(busy_stages, a.cost.stages_used);
        }
        // Each decode device prices its own share of the batch
        // (per-device shared weight-stream max — or per-stage maxima
        // when stage pricing is on — plus its private sum, less the
        // per-layer launches its sessions share) and the fleet
        // advances in lockstep at the slowest device. One device
        // reproduces the legacy single-device arithmetic
        // bit-identically, and a lone session saves nothing.
        double dt = 0.0;
        for (int d = 0; d < n_decode_dev; ++d) {
            const engines::LaunchCost merged = mergedLaunchSaving(
                active, static_cast<size_t>(d), pred_launch, attn_launch);
            double shared_t = 0.0, private_t = 0.0;
            double shared_e = 0.0, private_e = 0.0;
            for (const auto &a : active) {
                if (static_cast<int>(a.device) != d)
                    continue;
                private_t += a.cost.private_s;
                private_e += a.cost.private_j;
            }
            private_t -= merged.s;
            private_e -= merged.j;
            if (staged && opts_.stage_pricing) {
                std::vector<double> st(static_cast<size_t>(n_stages),
                                       0.0);
                std::vector<double> se(static_cast<size_t>(n_stages),
                                       0.0);
                for (const auto &a : active) {
                    // An idle (chunk-starved or mid-DMA) session
                    // carries an empty vector and no cost.
                    if (static_cast<int>(a.device) != d ||
                        a.cost.stage_shared_s.empty())
                        continue;
                    for (int s = 0; s < n_stages; ++s) {
                        st[s] = std::max(
                            st[s], a.cost.stage_shared_s
                                       [static_cast<size_t>(s)]);
                        se[s] = std::max(
                            se[s], a.cost.stage_shared_j
                                       [static_cast<size_t>(s)]);
                    }
                }
                for (int s = 0; s < n_stages; ++s) {
                    shared_t += st[s];
                    shared_e += se[s];
                }
            } else {
                for (const auto &a : active) {
                    if (static_cast<int>(a.device) != d)
                        continue;
                    shared_t = std::max(shared_t, a.cost.shared_s);
                    shared_e = std::max(shared_e, a.cost.shared_j);
                }
            }
            dt = std::max(dt, shared_t + private_t);
            fleet.energy_j += shared_e + private_e;
            fleet.launch_merged_s += merged.s;
        }
        clock += dt;
        if (tracing) {
            // Workers computed each span end as step_t0 + (shared +
            // private); dt reduces the same costs per device (or per
            // stage), so a span can overhang the new clock by an ulp
            // of fp re-association. Clamp: a span never outlives its
            // iteration, and per-lane spans stay exactly disjoint.
            for (size_t e = 0; e < engines.size(); ++e)
                rec.worker(e).clampEnds(shard_mark[e], clock);
        }
        if (overlap && dt == 0.0) {
            // Every active session is pinned mid-DMA and nothing
            // stepped: jump to the next modeled event (a transfer
            // landing, a prefill device finishing, an arrival) so
            // the fleet never livelocks at a frozen clock.
            const double next = nextEvent();
            specee_assert(std::isfinite(next) && next > clock,
                          "stalled fleet with no future event at %f",
                          clock);
            clock = next;
        }
        occupancy += static_cast<double>(active.size());
        ++fleet.iterations;
        if (tracing) {
            obs::TraceEvent ev;
            ev.kind = obs::TraceKind::Iteration;
            ev.t0 = step_t0;
            ev.t1 = clock;
            int mid_prefill = 0;
            int iter_tokens = 0;
            for (const auto &a : active) {
                if (!a.sess->prefillDone())
                    ++mid_prefill;
                iter_tokens += a.cost.tokens;
            }
            ev.batch = static_cast<int>(active.size());
            ev.prefilling =
                mid_prefill + static_cast<int>(prefilling.size());
            ev.tokens = iter_tokens;
            ev.seq = trace_seq++;
            rec.control().emit(std::move(ev));
        }

        // Stage occupancy: every session's weight stream covers the
        // contiguous stage prefix [0, stages_used), so the union is
        // the max span. What's left is next iteration's backfill
        // bubble.
        fleet.stage_busy += busy_stages;
        fleet.peak_stage_occupancy =
            std::max(fleet.peak_stage_occupancy, busy_stages);
        free_stages_prev = n_stages - busy_stages;

        // --- prefill bookkeeping (chunks land at this boundary) ----
        for (auto &a : active) {
            if (a.granted > 0) {
                ++a.chunks;
                ++fleet.prefill_chunks;
                fleet.prefill_tokens += a.granted;
            } else if (a.cost.tokens > 0) {
                timeline.recordExit(clock, a.cost.deepest_layer);
            }
            if (a.sess->prefillDone() && a.prefill_ready_s < 0.0) {
                a.prefill_ready_s = clock;
                cacheInsert(a);
            }
        }
        // Enforce the cache capacity after this boundary's inserts
        // (transient overshoot is covered by the pool's headroom),
        // and track the cache's footprint at its per-iteration peak.
        if (cache_on) {
            while (cache->heldBlocks() > cache_capacity &&
                   cache->evictLru()) {
            }
            fleet.peak_cached_blocks = std::max(
                fleet.peak_cached_blocks, cache->heldBlocks());
        }

        // --- stream new tokens, track TTFT / inter-token gaps ------
        // fleet.tokens counts DELIVERED tokens only: a preempted
        // session re-decodes its prefix, but those tokens were
        // already streamed, so the recompute shows up as time and
        // energy (goodput degradation), not as extra throughput.
        for (auto &a : active) {
            const auto &em = a.sess->emission();
            for (size_t i = a.streamed; i < em.tokens.size(); ++i) {
                ++fleet.tokens;
                timeline.recordTokens(clock, a.req.id, 1);
                if (a.first_token_s < 0.0) {
                    a.first_token_s = clock;
                    const double ttft = clock - a.req.arrival_s;
                    timeline.recordTtft(clock, ttft);
                } else {
                    const double gap = clock - a.last_token_s;
                    a.itl_sum_s += gap;
                    ++a.itl_gaps;
                    itl_samples.push_back(gap);
                    a.itl_max_s = std::max(a.itl_max_s, gap);
                    timeline.recordItl(clock, gap);
                }
                a.last_token_s = clock;
                if (on_token &&
                    !on_token(TokenEvent{a.req.id, em.tokens[i],
                                         static_cast<int>(i), clock})) {
                    // Streaming backpressure: the consumer cancelled;
                    // the request retires at this boundary and no
                    // further tokens are decoded or delivered.
                    a.cancel = true;
                }
                a.streamed = i + 1;
                if (a.cancel)
                    break;
            }
        }

        // --- fleet KV / memory census (peak over iterations) -------
        long positions = 0;
        for (const auto &a : active)
            positions += a.sess->modeledPositions();
        // Disaggregation: ingesting prompts and queued handoffs hold
        // device KV too (unified fleets keep these empty, so the
        // census is unchanged there).
        for (const auto &p : prefilling)
            positions += p.sess->modeledPositions();
        for (const auto &h : handoffQ)
            positions += h.sess->modeledPositions();
        // With the cache on, peak occupancy is physical (shared and
        // cached blocks counted once) — the same quantity the budget
        // gates read.
        long blocks = fleetBlocks();
        fleet.peak_kv_blocks = std::max(fleet.peak_kv_blocks, blocks);
        fleet.peak_fleet_mem_gb = std::max(
            fleet.peak_fleet_mem_gb,
            hw::MemoryTracker::toGiB(mem.fleetTotalBytes(
                positions, static_cast<int>(active.size() +
                                            prefilling.size()))));
        if (overlap) {
            // In-flight census: blocks (and their true-dims bytes)
            // pinned on a DMA channel right now — neither endpoint's
            // settled working set.
            long infl_blocks = 0;
            for (const auto &p : pools)
                infl_blocks += p->transferBlocksInFlight();
            long infl_pos = 0;
            const auto inflight = [&](const Entry &e) {
                if (e.sess && e.sess->awaitingTransfer())
                    infl_pos += e.sess->modeledPositions();
            };
            for (const auto &a : active)
                inflight(a);
            for (const auto &s : swappedQ)
                inflight(s);
            for (const auto &h : handoffQ)
                inflight(h);
            fleet.peak_inflight_kv_blocks =
                std::max(fleet.peak_inflight_kv_blocks, infl_blocks);
            fleet.peak_inflight_mem_gb =
                std::max(fleet.peak_inflight_mem_gb,
                         hw::MemoryTracker::toGiB(
                             mem.inflightKvBytes(infl_pos)));
        }
        long host_blocks = 0;
        if (!swappedQ.empty()) {
            long host_positions = 0;
            for (const auto &s : swappedQ) {
                host_blocks += s.sess->hostBlocks();
                host_positions += s.sess->modeledPositions();
            }
            fleet.peak_host_kv_blocks =
                std::max(fleet.peak_host_kv_blocks, host_blocks);
            fleet.peak_host_mem_gb = std::max(
                fleet.peak_host_mem_gb,
                hw::MemoryTracker::toGiB(
                    mem.hostKvBytes(host_positions)));
        }
        timeline.recordIteration(
            clock, static_cast<int>(active.size()), busy_stages,
            blocks, host_blocks,
            cache_on ? cache->heldBlocks() : 0);

        // --- retire finished and cancelled sessions ----------------
        size_t keep = 0;
        for (size_t i = 0; i < active.size(); ++i) {
            Entry &a = active[i];
            if (a.cancel) {
                // Consumer cancellation: delivered tokens stand (and
                // their gaps count toward fleet ITL), but the
                // request retires without a finalized result — like
                // a deadline drop, counted separately.
                RequestOutcome &o = outcomes[a.outcome];
                o.cancelled = true;
                finishTimeline(a, o);
                o.ttft_s = a.first_token_s >= 0.0
                               ? a.first_token_s - a.req.arrival_s
                               : 0.0;
                ++fleet.cancelled;
                decision(obs::TraceDecision::Cancel, a.req.id);
                itl_sum += a.itl_sum_s;
                itl_gaps += a.itl_gaps;
                continue; // KV frees with the entry
            }
            if (!a.sess->finished()) {
                if (keep != i)
                    active[keep] = std::move(a);
                ++keep;
                continue;
            }
            RequestOutcome &o = outcomes[a.outcome];
            o.result = a.sess->finalize();
            finishTimeline(a, o);
            o.ttft_s = a.first_token_s - a.req.arrival_s;
            o.mean_itl_s = a.itl_gaps > 0
                               ? a.itl_sum_s /
                                     static_cast<double>(a.itl_gaps)
                               : 0.0;
            judgeSlo(a, o, true);
            if (o.slo.attained())
                slo_tokens += static_cast<long>(a.streamed);
            if (tracing) {
                // Lifetime flow arrow: first admission -> completion.
                obs::TraceEvent ev;
                ev.kind = obs::TraceKind::RequestFlow;
                ev.t0 = o.admit_s;
                ev.t1 = clock;
                ev.device = static_cast<int>(a.device);
                ev.request = a.req.id;
                ev.seq = trace_seq++;
                rec.control().emit(std::move(ev));
            }
            itl_sum += a.itl_sum_s;
            itl_gaps += a.itl_gaps;
        }
        active.resize(keep);
    }

    // --- transfer-engine conservation ------------------------------
    // Every transfer initiated either landed or settled at drop, so
    // the byte census balances exactly (per-transfer bytes are
    // integer-valued doubles well below 2^53, so both sums are exact
    // regardless of accumulation order).
    specee_assert(fleet.transfer_bytes_sent ==
                      fleet.transfer_bytes_received,
                  "transfer-byte conservation violated: %f sent, %f "
                  "received",
                  fleet.transfer_bytes_sent,
                  fleet.transfer_bytes_received);
    fleet.transfer_busy_s = xfer.busySeconds();

    // --- drain the cache: reference-count conservation -------------
    // Every session has retired, so after the cache releases its
    // references every pool must be empty — a leftover block means a
    // retain/release imbalance somewhere in the sharing machinery.
    if (cache_on) {
        fleet.cache_evictions = cache->evictions();
        cache->clear();
        for (const auto &p : pools) {
            specee_assert(p->blocksInUse() == 0,
                          "prefix cache drained but %d paged KV "
                          "blocks are still referenced",
                          p->blocksInUse());
        }
    }

    // --- reduce fleet metrics over the finished timeline -----------
    fleet.requests = static_cast<long>(n);
    fleet.makespan_s = clock - t0;
    fleet.tokens_per_s =
        fleet.makespan_s > 0.0
            ? static_cast<double>(fleet.tokens) / fleet.makespan_s
            : 0.0;

    std::vector<double> latencies, queues, ttfts, prefills;
    latencies.reserve(n);
    queues.reserve(n);
    ttfts.reserve(n);
    prefills.reserve(n);
    for (const auto &o : outcomes) {
        if (o.dropped || o.cancelled)
            continue;
        latencies.push_back(o.latency_s);
        queues.push_back(o.queue_s);
        ttfts.push_back(o.ttft_s);
        prefills.push_back(o.prefill_s);
        fleet.oplog.merge(o.result.stats.oplog);
    }
    // Means accumulate in insertion order (bit-compat with the
    // pre-Stats reduction); each Stats sorts its samples once and
    // serves both percentile queries.
    const metrics::Stats lat_stats(latencies);
    const metrics::Stats ttft_stats(ttfts);
    const metrics::Stats itl_stats(itl_samples);
    fleet.mean_latency_s = metrics::mean(latencies);
    fleet.p50_latency_s = lat_stats.percentile(50.0);
    fleet.p99_latency_s = lat_stats.percentile(99.0);
    fleet.mean_queue_s = metrics::mean(queues);
    fleet.mean_ttft_s = metrics::mean(ttfts);
    fleet.p50_ttft_s = ttft_stats.percentile(50.0);
    fleet.p99_ttft_s = ttft_stats.percentile(99.0);
    fleet.mean_prefill_s = metrics::mean(prefills);
    fleet.mean_itl_s =
        itl_gaps > 0 ? itl_sum / static_cast<double>(itl_gaps) : 0.0;
    fleet.p50_itl_s = itl_stats.percentile(50.0);
    fleet.p99_itl_s = itl_stats.percentile(99.0);
    fleet.energy_per_token_j =
        fleet.tokens > 0
            ? fleet.energy_j / static_cast<double>(fleet.tokens)
            : 0.0;
    fleet.avg_power_w = fleet.makespan_s > 0.0
                            ? fleet.energy_j / fleet.makespan_s
                            : 0.0;
    fleet.mean_batch_occupancy =
        fleet.iterations > 0
            ? occupancy / static_cast<double>(fleet.iterations)
            : 0.0;
    fleet.pipeline_utilization =
        fleet.iterations > 0
            ? static_cast<double>(fleet.stage_busy) /
                  (static_cast<double>(fleet.iterations) * n_stages)
            : 0.0;

    // --- SLO attainment + observability artifacts ------------------
    for (const auto &o : outcomes) {
        if (!o.slo.evaluated)
            continue;
        ++fleet.slo_evaluated;
        if (o.slo.attained())
            ++fleet.slo_attained;
    }
    fleet.goodput_under_slo =
        fleet.makespan_s > 0.0
            ? static_cast<double>(slo_tokens) / fleet.makespan_s
            : 0.0;
    if (tracing)
        fleet.trace = rec.merged();
    if (timeline.enabled()) {
        std::unordered_set<uint64_t> attained;
        for (const auto &o : outcomes)
            if (!o.dropped && !o.cancelled && o.slo.attained())
                attained.insert(o.request.id);
        fleet.timeline = timeline.finalize(
            clock, [&](uint64_t id) { return attained.count(id) > 0; });
    }
    return fleet;
}

} // namespace specee::serve
