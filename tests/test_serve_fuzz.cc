/**
 * @file
 * Randomized scheduler stress harness (ctest label: fuzz).
 *
 * Every seed synthesizes a random serving scenario — arrivals,
 * tiers, deadlines, prompt lengths (GenOptions::prompt_len_override),
 * chunk sizes, iteration budgets, KV budgets, watermarks, preempt
 * modes, batch widths, consumer cancellation, prefix-cache state
 * (shared templates, multi-turn chains, tight cache capacities) —
 * and asserts the scheduler's hard invariants on the result:
 *
 *  1. bit-determinism across worker counts (timeline, counters and
 *     emissions identical for 1 vs 3 workers);
 *  2. no token loss or duplication per request: the delivered stream
 *     is exactly a prefix of the request's isolated Engine::runOne
 *     decode (the full decode for completed requests), each output
 *     index delivered exactly once, in order;
 *  3. device KV occupancy never exceeds the budget, and the host
 *     pool stays empty unless swap preemption is enabled;
 *  4. every request ends in exactly one terminal state
 *     (done / dropped / rejected / cancelled), and the fleet
 *     counters agree with the per-outcome flags;
 *  5. on deadline-free scenarios under KV pressure, `auto` preempt
 *     mode never yields a worse modeled makespan than the dearer of
 *     pure swap / pure recompute on the same stream, and all three
 *     mechanisms deliver identical tokens;
 *  6. sharded fleets (random tp / pp draws): per-iteration stage
 *     occupancy never exceeds the stage count, backfill counters
 *     stay zero whenever the mechanism cannot fire (pp = 1, knob
 *     off, unbounded budget), delivered streams still match the
 *     UNSHARDED isolated decode (sharding re-prices, never
 *     re-tokenizes), and on tp = 1 / pp = 1 draws toggling the
 *     stage knobs is bit-inert;
 *  7. per-consumer backpressure: the deferral counter is zero while
 *     the cap is off, and capped streams still drain to terminal
 *     states (no starvation);
 *  8. fleet topologies (random device counts, prefill/decode
 *     disaggregation, transfer overlap): transfer-byte conservation
 *     (every byte sent over a DMA channel is received, none lost or
 *     duplicated), in-flight accounting engages only while overlap
 *     is on, handoff accounting only on disaggregated draws, every
 *     completed request on a disaggregated fleet crossed the peer
 *     link at least once, and worker-count bit-determinism holds
 *     with all knobs on;
 *  9. observability (random trace / timeline / SLO draws): all three
 *     knobs are bit-inert on emissions and modeled costs; the trace's
 *     decision-event counts reconcile EXACTLY with the fleet counters
 *     (admits, preempts by mechanism, resumes, handoffs, backfill
 *     grants, cache hits, drops, cancels, watermark rejections,
 *     deferrals) and its iteration spans with the iteration count;
 *     step / chunk spans never overlap within one (device, lane)
 *     track; and the merged trace, the timeline windows and the SLO
 *     verdicts are bit-identical across worker counts;
 * 10. merged launches (traced draws): each decode iteration's priced
 *     time lies between its costliest session's step cost and the
 *     per-session launch sum (max shared + sum of private per
 *     device, the formula before per-layer kernels merged across
 *     the batch), and equals the costliest step whenever no device
 *     stepped more than one session.
 *
 * The default seed set is fixed (CI runs it in Release and under
 * TSan); SPECEE_FUZZ_SEEDS=<n> widens the sweep locally.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>

#include "hw/hardware_model.hh"
#include "serve/server.hh"
#include "test_util.hh"
#include "util/rng.hh"

using namespace specee;

namespace {

/** One randomized scenario drawn from a seed. */
struct Scenario
{
    std::vector<serve::Request> stream;
    serve::ServerOptions opts; ///< workers field overwritten per run
    bool has_deadlines = false;
    uint64_t cancel_id = 0; ///< request to cancel mid-stream
    int cancel_after = 0;   ///< tokens before cancelling; 0 = never
};

Scenario
drawScenario(uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xfa22);
    Scenario sc;

    // --- request stream: interactive shorts + batch longs ----------
    serve::StreamOptions shorts;
    shorts.n_requests = rng.uniformInt(2, 6);
    shorts.gen_len = rng.uniformInt(4, 18);
    shorts.rate_rps = rng.bernoulli(0.5) ? 0.0 : rng.uniform(2.0, 16.0);
    shorts.seed = rng.next();
    serve::StreamOptions longs;
    longs.n_requests = rng.uniformInt(2, 6);
    longs.gen_len = rng.uniformInt(4, 18);
    longs.rate_rps = rng.bernoulli(0.5) ? 0.0 : rng.uniform(1.0, 8.0);
    const int prompt_choices[] = {0, 512, 2048, 4096};
    longs.prompt_len = prompt_choices[rng.uniformInt(0, 3)];
    longs.priority = serve::Priority::Batch;
    longs.id_base = 100;
    longs.seed = rng.next();
    if (rng.bernoulli(0.4)) {
        // Tight-ish deadlines: some requests will drop, queued or
        // mid-flight — both paths must stay invariant-clean.
        longs.deadline_s = rng.uniform(0.2, 2.0);
        sc.has_deadlines = true;
    }
    // Prefix-cache traffic: shared templates and/or multi-turn
    // chains on either substream. Shared prompts must stay
    // invariant-clean whether or not the cache is on (and a run with
    // the cache off but shared prompts present must behave exactly
    // like any other stream).
    const bool cache_on = rng.bernoulli(0.5);
    if (rng.bernoulli(0.5)) {
        shorts.prefix_reuse = rng.uniform(0.3, 1.0);
        if (rng.bernoulli(0.5))
            shorts.turns = rng.uniformInt(2, 3);
    }
    if (rng.bernoulli(0.4)) {
        longs.prefix_reuse = rng.uniform(0.3, 1.0);
        longs.turns = rng.uniformInt(1, 2);
    }
    sc.stream = serve::mergeStreams(serve::synthesizeStream(shorts),
                                    serve::synthesizeStream(longs));

    // --- scheduler knobs -------------------------------------------
    sc.opts.engine = engines::EngineConfig::huggingFace().withSpecEE();
    sc.opts.spec = hw::HardwareSpec::a100();
    sc.opts.sched.max_batch = rng.uniformInt(2, 8);
    const int chunk_choices[] = {0, 64, 256, 1 << 20};
    sc.opts.sched.prefill.chunk_tokens =
        chunk_choices[rng.uniformInt(0, 3)];
    if (sc.opts.sched.prefill.chunk_tokens > 0 && rng.bernoulli(0.5)) {
        sc.opts.sched.prefill.max_tokens_per_iteration =
            2 * std::min(sc.opts.sched.prefill.chunk_tokens, 4096);
    }
    // Biased toward pressure: an unconstrained fleet exercises none
    // of the preemption machinery.
    const int budget_choices[] = {0, 110, 140, 180};
    sc.opts.sched.kv_budget_blocks =
        budget_choices[rng.uniformInt(0, 3)];
    if (sc.opts.sched.kv_budget_blocks > 0)
        sc.opts.sched.max_batch = std::max(sc.opts.sched.max_batch, 5);
    const serve::PreemptMode modes[] = {serve::PreemptMode::Recompute,
                                        serve::PreemptMode::Swap,
                                        serve::PreemptMode::Auto};
    sc.opts.sched.preempt_mode = modes[rng.uniformInt(0, 2)];
    if (sc.opts.sched.kv_budget_blocks > 0 && rng.bernoulli(0.4))
        sc.opts.sched.kv_watermark = rng.uniform(0.6, 1.0);
    sc.opts.sched.prefix_cache.enabled = cache_on;
    if (cache_on) {
        const int cap_choices[] = {0, 24, 64};
        sc.opts.sched.prefix_cache.capacity_blocks =
            cap_choices[rng.uniformInt(0, 2)];
    }

    // --- fleet topology --------------------------------------------
    // Disaggregation needs chunked prefill; unified multi-device and
    // overlapped-transfer draws are unconstrained.
    if (sc.opts.sched.prefill.chunk_tokens > 0 && rng.bernoulli(0.35)) {
        sc.opts.sched.topology.devices = rng.uniformInt(2, 3);
        sc.opts.sched.topology.prefill_devices = 1;
    } else if (rng.bernoulli(0.2)) {
        sc.opts.sched.topology.devices = 2;
    }
    sc.opts.sched.topology.overlap_transfers = rng.bernoulli(0.4);

    // --- sharded fleets --------------------------------------------
    const int tp = rng.bernoulli(0.35) ? 2 : 1;
    const int pp_choices[] = {1, 2, 4};
    const int pp = pp_choices[rng.uniformInt(0, 2)];
    sc.opts.engine = sc.opts.engine.withSharding(tp, pp);
    sc.opts.sched.stage_pricing = rng.bernoulli(0.5);
    sc.opts.sched.stage_backfill = rng.bernoulli(0.5);

    // --- per-consumer backpressure ---------------------------------
    if (rng.bernoulli(0.35)) {
        sc.opts.sched.max_inflight_per_consumer = rng.uniformInt(1, 2);
        const uint64_t consumers =
            static_cast<uint64_t>(rng.uniformInt(1, 3));
        for (auto &r : sc.stream)
            r.consumer = r.id % consumers;
    }

    // --- streaming backpressure ------------------------------------
    if (rng.bernoulli(0.3)) {
        const auto &victim =
            sc.stream[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int>(sc.stream.size()) - 1))];
        sc.cancel_id = victim.id;
        sc.cancel_after = rng.uniformInt(1, 4);
    }

    // --- observability (every knob must be bit-inert) --------------
    sc.opts.sched.trace.enabled = rng.bernoulli(0.5);
    if (rng.bernoulli(0.5))
        sc.opts.sched.timeline.window_s = rng.uniform(0.05, 1.0);
    if (rng.bernoulli(0.5)) {
        sc.opts.sched.slo.interactive.ttft_s = rng.uniform(0.05, 4.0);
        sc.opts.sched.slo.interactive.itl_s = rng.uniform(0.01, 1.0);
        sc.opts.sched.slo.batch.deadline_s = rng.uniform(0.5, 20.0);
    }

    return sc;
}

/** Everything one drain produced, plus the delivered token streams. */
struct RunCapture
{
    serve::ServeReport rep;
    std::map<uint64_t, std::vector<int>> delivered;
};

RunCapture
runScenario(const Scenario &sc, int workers)
{
    serve::ServerOptions opts = sc.opts;
    opts.workers = workers;
    RunCapture cap;
    opts.on_token = [&cap, &sc](const serve::TokenEvent &ev) {
        auto &d = cap.delivered[ev.request_id];
        // In-order, gap-free, duplicate-free delivery.
        EXPECT_EQ(ev.index, static_cast<int>(d.size()))
            << "request " << ev.request_id;
        d.push_back(ev.token);
        if (sc.cancel_after > 0 && ev.request_id == sc.cancel_id)
            return static_cast<int>(d.size()) < sc.cancel_after;
        return true;
    };
    serve::Server server(testutil::tinyPipeline(), opts);
    server.submit(sc.stream);
    cap.rep = server.drain();
    return cap;
}

/** Per-scenario cache of isolated reference decodes, by request id
 * (ids are unique within a stream and the stream is shared by every
 * run of one scenario, so each ground truth decodes once, not once
 * per worker-count / preempt-mode run). */
using ReferenceCache = std::map<uint64_t, std::vector<int>>;

/** Isolated single-request reference decode (the ground truth). */
const std::vector<int> &
referenceTokens(const serve::Request &r, ReferenceCache &cache)
{
    const auto it = cache.find(r.id);
    if (it != cache.end())
        return it->second;
    const auto &pipe = testutil::tinyPipeline();
    static std::unique_ptr<engines::Engine> engine;
    if (!engine) {
        engine = pipe.makeEngine(
            engines::EngineConfig::huggingFace().withSpecEE(),
            hw::HardwareSpec::a100());
    }
    serve::Request rr = r;
    rr.gen.n_instances = 1;
    // buildPromptWorkload is the prompt-identity authority: it
    // resolves shared PromptSpecs (template/parent chains) the same
    // way the scheduler does, and reduces to the legacy
    // prompt_len_override path for unshared requests.
    const auto w = serve::buildPromptWorkload(
        pipe, rr, engine->config().q4Calibrated());
    auto ref = engine->runOne(w, 0, r.seed);
    return cache.emplace(r.id, std::move(ref.emissions[0].tokens))
        .first->second;
}

/**
 * (10) Rebuild every decode iteration's bounds from the step spans'
 * op-class breakdowns. Stage pricing sums per-stage maxima, which
 * the spans do not carry, so its upper bound sums every session's
 * shared time instead.
 */
void
checkIterationPricing(const Scenario &sc, const serve::FleetStats &fleet)
{
    const auto &topo = sc.opts.sched.topology;
    const int n_decode = topo.devices - topo.prefill_devices;
    const bool stage_priced =
        sc.opts.engine.pp > 1 && sc.opts.sched.stage_pricing;
    struct Span
    {
        int device;
        double shared_s;
        double private_s;
    };
    std::map<double, std::vector<Span>> spans; // by iteration start
    for (const auto &ev : fleet.trace) {
        if ((ev.kind != obs::TraceKind::Step &&
             ev.kind != obs::TraceKind::PrefillChunk) ||
            ev.device >= n_decode)
            continue; // prefill devices run their own timelines
        Span sp{ev.device, 0.0, 0.0};
        for (const auto &[cls, sec] : ev.op_s) {
            if (hw::isBatchAmortized(static_cast<hw::OpClass>(cls)))
                sp.shared_s += sec;
            else
                sp.private_s += sec;
        }
        spans[ev.t0].push_back(sp);
    }
    for (const auto &ev : fleet.trace) {
        const double dt = ev.t1 - ev.t0;
        if (ev.kind != obs::TraceKind::Iteration || dt == 0.0)
            continue;
        const auto it = spans.find(ev.t0);
        if (it == spans.end())
            continue; // every session idled mid-DMA
        double lo = 0.0, hi = 0.0;
        bool solo = true;
        for (int d = 0; d < n_decode; ++d) {
            double shared = 0.0, priv = 0.0;
            int n = 0;
            for (const auto &sp : it->second) {
                if (sp.device != d)
                    continue;
                ++n;
                shared = stage_priced ? shared + sp.shared_s
                                      : std::max(shared, sp.shared_s);
                priv += sp.private_s;
                lo = std::max(lo, sp.shared_s + sp.private_s);
            }
            hi = std::max(hi, shared + priv);
            solo = solo && n <= 1;
        }
        const double tol = 1e-9 * dt + 1e-12;
        EXPECT_GE(dt, lo - tol) << "iteration at t=" << ev.t0;
        EXPECT_LE(dt, hi + tol) << "iteration at t=" << ev.t0;
        if (solo) {
            EXPECT_NEAR(dt, lo, tol)
                << "lone session saved launch time at t=" << ev.t0;
        }
    }
}

void
checkInvariants(const Scenario &sc, const RunCapture &cap,
                ReferenceCache &refs)
{
    const auto &rep = cap.rep;
    const auto &fleet = rep.fleet;

    // (4) every request accounted for, in exactly one terminal state.
    ASSERT_EQ(rep.outcomes.size(), sc.stream.size());
    long done = 0, dropped = 0, cancelled = 0;
    for (const auto &o : rep.outcomes) {
        EXPECT_FALSE(o.dropped && o.cancelled)
            << "request " << o.request.id << " in two terminal states";
        if (o.dropped) {
            ++dropped;
        } else if (o.cancelled) {
            ++cancelled;
        } else {
            ++done;
            ASSERT_EQ(o.result.emissions.size(), 1u)
                << "completed request " << o.request.id
                << " has no finalized emission";
        }
    }
    EXPECT_EQ(dropped, fleet.dropped);
    EXPECT_EQ(cancelled, fleet.cancelled);
    EXPECT_EQ(done + dropped + cancelled,
              static_cast<long>(sc.stream.size()));
    EXPECT_EQ(fleet.rejected, 0); // unbounded ingress in this harness

    // (3) device KV occupancy bounded; host pool only under swap.
    if (sc.opts.sched.kv_budget_blocks > 0) {
        EXPECT_LE(fleet.peak_kv_blocks,
                  sc.opts.sched.kv_budget_blocks);
    }
    if (sc.opts.sched.preempt_mode == serve::PreemptMode::Recompute) {
        EXPECT_EQ(fleet.swaps_out, 0);
        EXPECT_EQ(fleet.peak_host_kv_blocks, 0);
    }
    EXPECT_GE(fleet.swaps_out, fleet.swaps_in);
    if (sc.opts.sched.kv_watermark <= 0.0) {
        EXPECT_EQ(fleet.watermark_rejections, 0);
    }

    // (6) stage occupancy bounded by the fleet's pipeline; backfill
    // can only fire on a sharded fleet with a bounded budget and the
    // knob on.
    EXPECT_EQ(fleet.n_stages, sc.opts.engine.pp);
    EXPECT_LE(fleet.peak_stage_occupancy, fleet.n_stages);
    EXPECT_GE(fleet.peak_stage_occupancy, 0);
    EXPECT_LE(fleet.stage_busy,
              fleet.iterations * static_cast<long>(fleet.n_stages));
    EXPECT_GE(fleet.backfill_tokens, fleet.backfill_grants);
    if (fleet.n_stages == 1 || !sc.opts.sched.stage_backfill ||
        sc.opts.sched.prefill.max_tokens_per_iteration <= 0) {
        EXPECT_EQ(fleet.backfill_grants, 0);
        EXPECT_EQ(fleet.backfill_tokens, 0);
    }

    // (8) transfer-byte conservation and topology-knob gating.
    EXPECT_EQ(fleet.transfer_bytes_sent, fleet.transfer_bytes_received)
        << "DMA byte census out of balance";
    EXPECT_EQ(fleet.n_devices, sc.opts.sched.topology.devices);
    EXPECT_EQ(fleet.n_prefill_devices,
              sc.opts.sched.topology.prefill_devices);
    if (!sc.opts.sched.topology.overlap_transfers) {
        EXPECT_EQ(fleet.transfers_overlapped, 0);
        EXPECT_EQ(fleet.peak_inflight_kv_blocks, 0);
        EXPECT_DOUBLE_EQ(fleet.peak_inflight_mem_gb, 0.0);
        EXPECT_DOUBLE_EQ(fleet.transfer_busy_s, 0.0);
    }
    if (sc.opts.sched.topology.prefill_devices == 0) {
        EXPECT_EQ(fleet.handoffs, 0);
        EXPECT_DOUBLE_EQ(fleet.handoff_gb, 0.0);
        EXPECT_DOUBLE_EQ(fleet.prefill_busy_s, 0.0);
    } else {
        // Every completed request crossed the peer link at least
        // once (re-admissions hand off again).
        EXPECT_GE(fleet.handoffs, done);
        if (done > 0) {
            EXPECT_GT(fleet.handoffs, 0);
            EXPECT_GT(fleet.handoff_gb, 0.0);
        }
    }

    // (7) backpressure off must be inert.
    if (sc.opts.sched.max_inflight_per_consumer <= 0) {
        EXPECT_EQ(fleet.backpressure_deferrals, 0);
    }
    if (!sc.opts.sched.prefix_cache.enabled) {
        // Cache off must be inert, even on streams full of shared
        // prompts.
        EXPECT_EQ(fleet.prefix_hits, 0);
        EXPECT_EQ(fleet.cached_tokens, 0);
        EXPECT_EQ(fleet.cache_evictions, 0);
        EXPECT_EQ(fleet.peak_cached_blocks, 0);
        for (const auto &o : rep.outcomes)
            EXPECT_EQ(o.cached_tokens, 0);
    } else {
        EXPECT_GE(fleet.cached_tokens, 0);
        long hit_outcomes = 0;
        for (const auto &o : rep.outcomes) {
            EXPECT_GE(o.cached_tokens, 0);
            if (o.cached_tokens > 0)
                ++hit_outcomes;
        }
        // Every outcome that kept an adopted prefix came from a hit
        // admission (re-admissions may add more fleet-level hits).
        EXPECT_LE(hit_outcomes, fleet.prefix_hits);
    }

    // (9) observability: off = empty artifacts; on = exact
    // reconciliation with the fleet counters and ordered spans.
    if (!sc.opts.sched.trace.enabled) {
        EXPECT_TRUE(fleet.trace.empty());
    } else {
        std::map<obs::TraceDecision, long> dec;
        long iterations = 0;
        for (const auto &ev : fleet.trace) {
            EXPECT_LE(ev.t0, ev.t1);
            if (ev.kind == obs::TraceKind::Decision) {
                ++dec[ev.decision];
            } else if (ev.kind == obs::TraceKind::Iteration) {
                ++iterations;
            }
        }
        EXPECT_EQ(iterations, fleet.iterations);
        EXPECT_EQ(dec[obs::TraceDecision::Admit], fleet.admissions);
        EXPECT_EQ(dec[obs::TraceDecision::Drop], fleet.dropped);
        EXPECT_EQ(dec[obs::TraceDecision::Cancel], fleet.cancelled);
        EXPECT_EQ(dec[obs::TraceDecision::PreemptSwap] +
                      dec[obs::TraceDecision::PreemptRecompute],
                  fleet.preemptions);
        EXPECT_EQ(dec[obs::TraceDecision::PreemptSwap],
                  fleet.swaps_out);
        EXPECT_EQ(dec[obs::TraceDecision::Resume], fleet.swaps_in);
        EXPECT_EQ(dec[obs::TraceDecision::Handoff], fleet.handoffs);
        EXPECT_EQ(dec[obs::TraceDecision::BackfillGrant],
                  fleet.backfill_grants);
        EXPECT_EQ(dec[obs::TraceDecision::CacheHit],
                  fleet.prefix_hits);
        EXPECT_EQ(dec[obs::TraceDecision::WatermarkReject],
                  fleet.watermark_rejections);
        EXPECT_EQ(dec[obs::TraceDecision::Defer],
                  fleet.backpressure_deferrals);
        // Execution spans never overlap within one (device, lane)
        // track: a session's span is bounded by its device's
        // iteration time, which is bounded by the clock advance (the
        // merge is t0-ordered, so a single forward sweep suffices).
        std::map<std::pair<int, int>, double> track_end;
        for (const auto &ev : fleet.trace) {
            if (ev.kind != obs::TraceKind::Step &&
                ev.kind != obs::TraceKind::PrefillChunk)
                continue;
            double &end = track_end[{ev.device, ev.lane}];
            EXPECT_GE(ev.t0, end)
                << "span overlap on device " << ev.device << " lane "
                << ev.lane << " at t=" << ev.t0;
            end = std::max(end, ev.t1);
        }
        checkIterationPricing(sc, fleet);
    }
    if (sc.opts.sched.timeline.window_s <= 0.0) {
        EXPECT_TRUE(fleet.timeline.empty());
    } else {
        long tl_iterations = 0;
        for (const auto &w : fleet.timeline) {
            EXPECT_LT(w.t0, w.t1);
            tl_iterations += w.iterations;
            EXPECT_GE(w.tokens, w.slo_tokens);
        }
        EXPECT_EQ(tl_iterations, fleet.iterations);
    }
    if (!sc.opts.sched.slo.any()) {
        EXPECT_EQ(fleet.slo_evaluated, 0);
        for (const auto &o : rep.outcomes)
            EXPECT_FALSE(o.slo.evaluated);
    } else {
        // Every non-cancelled retirement whose tier carries a spec is
        // judged; attainment never exceeds evaluation; a dropped
        // request never attains a configured objective.
        long expect_eval = 0;
        for (const auto &o : rep.outcomes) {
            const bool spec_on =
                sc.opts.sched.slo
                    .tier(static_cast<int>(o.request.priority))
                    .any();
            EXPECT_EQ(o.slo.evaluated, !o.cancelled && spec_on);
            if (o.slo.evaluated)
                ++expect_eval;
            if (o.dropped && spec_on) {
                EXPECT_FALSE(o.slo.attained());
            }
        }
        EXPECT_EQ(fleet.slo_evaluated, expect_eval);
        EXPECT_LE(fleet.slo_attained, fleet.slo_evaluated);
    }

    // (2) delivered streams are exact prefixes of the isolated
    // decode; completed requests deliver it in full.
    long delivered_total = 0;
    for (const auto &o : rep.outcomes) {
        const auto it = cap.delivered.find(o.request.id);
        const std::vector<int> empty;
        const auto &got = it == cap.delivered.end() ? empty : it->second;
        delivered_total += static_cast<long>(got.size());
        const auto &ref = referenceTokens(o.request, refs);
        ASSERT_LE(got.size(), ref.size())
            << "request " << o.request.id << " over-delivered";
        EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin()))
            << "request " << o.request.id << " diverged from its "
            << "isolated decode";
        if (!o.dropped && !o.cancelled) {
            EXPECT_EQ(got, ref) << "completed request " << o.request.id
                                << " lost tokens";
            EXPECT_EQ(o.result.emissions[0].tokens, ref);
        }
    }
    EXPECT_EQ(delivered_total, fleet.tokens);
}

/** What the sweep exercised, summed over seeds (coverage guard). */
struct Coverage
{
    long preemptions = 0;
    long swaps = 0;
    long dropped = 0;
    long cancelled = 0;
    long watermark = 0;
    long prefill_chunks = 0;
    long prefix_hits = 0;
    long cache_evictions = 0;
    long backfill_tokens = 0;
    long backpressure = 0;
    long handoffs = 0;
    long overlapped = 0;
    long trace_events = 0;
    long timeline_windows = 0;
    long slo_evaluated = 0;
};

/** Bitwise equality of two merged traces (worker-count invariance). */
void
expectTraceEqual(const std::vector<obs::TraceEvent> &a,
                 const std::vector<obs::TraceEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const auto &x = a[i];
        const auto &y = b[i];
        EXPECT_EQ(x.kind, y.kind) << "event " << i;
        EXPECT_DOUBLE_EQ(x.t0, y.t0) << "event " << i;
        EXPECT_DOUBLE_EQ(x.t1, y.t1) << "event " << i;
        EXPECT_EQ(x.device, y.device) << "event " << i;
        EXPECT_EQ(x.channel, y.channel) << "event " << i;
        EXPECT_EQ(x.lane, y.lane) << "event " << i;
        EXPECT_EQ(x.request, y.request) << "event " << i;
        EXPECT_EQ(x.decision, y.decision) << "event " << i;
        EXPECT_EQ(x.tokens, y.tokens) << "event " << i;
        EXPECT_EQ(x.deepest_layer, y.deepest_layer) << "event " << i;
        EXPECT_EQ(x.stages_used, y.stages_used) << "event " << i;
        EXPECT_EQ(x.batch, y.batch) << "event " << i;
        EXPECT_EQ(x.prefilling, y.prefilling) << "event " << i;
        EXPECT_EQ(x.seq, y.seq) << "event " << i;
        EXPECT_EQ(x.op_s, y.op_s) << "event " << i;
    }
}

/**
 * Directed high-pressure scenarios run ahead of the random sweep:
 * they pin the swap / auto / watermark machinery under guaranteed KV
 * pressure, so the coverage guard below cannot be starved by an
 * unlucky random draw while every scenario still flows through the
 * exact same invariant checks.
 */
std::vector<Scenario>
directedScenarios()
{
    std::vector<Scenario> out;
    for (const auto mode :
         {serve::PreemptMode::Swap, serve::PreemptMode::Auto}) {
        serve::StreamOptions shorts;
        shorts.n_requests = 3;
        shorts.gen_len = 16;
        shorts.seed = 0xbeef;
        serve::StreamOptions longs;
        longs.n_requests = 3;
        longs.gen_len = 16;
        longs.prompt_len = 2048;
        longs.priority = serve::Priority::Batch;
        longs.id_base = 100;
        longs.seed = 0xf00d;
        Scenario sc;
        sc.stream = serve::mergeStreams(serve::synthesizeStream(shorts),
                                        serve::synthesizeStream(longs));
        sc.opts.engine =
            engines::EngineConfig::huggingFace().withSpecEE();
        sc.opts.spec = hw::HardwareSpec::a100();
        sc.opts.sched.max_batch = 6;
        sc.opts.sched.prefill.chunk_tokens = 128;
        sc.opts.sched.kv_budget_blocks = 150;
        sc.opts.sched.preempt_mode = mode;
        if (mode == serve::PreemptMode::Auto)
            sc.opts.sched.kv_watermark = 0.85;
        out.push_back(std::move(sc));
    }
    {
        // Prefix-cache coverage: full template reuse plus multi-turn
        // chains under a tiny cache capacity guarantees both hits
        // and LRU evictions.
        serve::StreamOptions so;
        so.n_requests = 10;
        so.gen_len = 10;
        so.prompt_len = 512;
        so.prefix_reuse = 1.0;
        so.turns = 2;
        so.seed = 0xca5e;
        Scenario sc;
        sc.stream = serve::synthesizeStream(so);
        sc.opts.engine =
            engines::EngineConfig::huggingFace().withSpecEE();
        sc.opts.spec = hw::HardwareSpec::a100();
        sc.opts.sched.max_batch = 2;
        sc.opts.sched.prefill.chunk_tokens = 64;
        sc.opts.sched.prefix_cache.enabled = true;
        sc.opts.sched.prefix_cache.capacity_blocks = 16;
        out.push_back(std::move(sc));
    }
    {
        // Deadline + cancellation coverage: one long prompt expires
        // mid-prefill, one interactive stream is cancelled by its
        // consumer after three tokens.
        serve::StreamOptions so;
        so.n_requests = 4;
        so.gen_len = 12;
        so.prompt_len = 4096;
        so.seed = 0xd00d;
        Scenario sc;
        sc.stream = serve::synthesizeStream(so);
        sc.stream[1].deadline_s = 1e-6;
        sc.has_deadlines = true;
        sc.cancel_id = sc.stream[2].id;
        sc.cancel_after = 3;
        sc.opts.engine =
            engines::EngineConfig::huggingFace().withSpecEE();
        sc.opts.spec = hw::HardwareSpec::a100();
        sc.opts.sched.max_batch = 4;
        sc.opts.sched.prefill.chunk_tokens = 256;
        out.push_back(std::move(sc));
    }
    {
        // Pipeline-backfill coverage: a pp = 4 SpecEE fleet under a
        // one-token iteration budget starves prefill chunks behind
        // any decode peer, so the only extra grants ride the stages
        // last iteration's early exits freed.
        serve::StreamOptions so;
        so.n_requests = 6;
        so.gen_len = 16;
        so.prompt_len = 48;
        so.seed = 0x57a6e;
        Scenario sc;
        sc.stream = serve::synthesizeStream(so);
        sc.opts.engine = engines::EngineConfig::huggingFace()
                             .withSpecEE()
                             .withSharding(1, 4);
        sc.opts.spec = hw::HardwareSpec::a100();
        sc.opts.sched.max_batch = 2;
        sc.opts.sched.prefill.chunk_tokens = 4;
        sc.opts.sched.prefill.max_tokens_per_iteration = 1;
        out.push_back(std::move(sc));
    }
    {
        // Disaggregation + overlap coverage: a 1-prefill/2-decode
        // fleet with overlapped transfers under swap pressure
        // guarantees handoffs, overlapped swaps and the in-flight
        // census all engage.
        serve::StreamOptions shorts;
        shorts.n_requests = 3;
        shorts.gen_len = 16;
        shorts.seed = 0xd15a;
        serve::StreamOptions longs;
        longs.n_requests = 3;
        longs.gen_len = 16;
        longs.prompt_len = 2048;
        longs.priority = serve::Priority::Batch;
        longs.id_base = 100;
        longs.seed = 0x66a0;
        Scenario sc;
        sc.stream = serve::mergeStreams(serve::synthesizeStream(shorts),
                                        serve::synthesizeStream(longs));
        sc.opts.engine =
            engines::EngineConfig::huggingFace().withSpecEE();
        sc.opts.spec = hw::HardwareSpec::a100();
        sc.opts.sched.max_batch = 6;
        sc.opts.sched.prefill.chunk_tokens = 128;
        sc.opts.sched.kv_budget_blocks = 220;
        sc.opts.sched.preempt_mode = serve::PreemptMode::Swap;
        sc.opts.disaggregate(1, 2);
        // Observability coverage: trace + timeline + both tiers'
        // SLOs on the richest topology, so the reconciliation and
        // determinism checks can never be starved by random draws.
        sc.opts.sched.trace.enabled = true;
        sc.opts.sched.timeline.window_s = 0.25;
        sc.opts.sched.slo.interactive.ttft_s = 1.0;
        sc.opts.sched.slo.interactive.itl_s = 0.25;
        sc.opts.sched.slo.batch.deadline_s = 30.0;
        out.push_back(std::move(sc));
    }
    {
        // Backpressure coverage: one consumer, cap 1 — every
        // boundary with queued peers defers, yet the stream drains.
        serve::StreamOptions so;
        so.n_requests = 5;
        so.gen_len = 10;
        so.seed = 0xcafe;
        Scenario sc;
        sc.stream = serve::synthesizeStream(so);
        sc.opts.engine =
            engines::EngineConfig::huggingFace().withSpecEE();
        sc.opts.spec = hw::HardwareSpec::a100();
        sc.opts.sched.max_batch = 4;
        sc.opts.sched.max_inflight_per_consumer = 1;
        out.push_back(std::move(sc));
    }
    return out;
}

void
fuzzScenario(const Scenario &sc, Coverage &cov)
{

    // (1) worker-count bit-determinism.
    ReferenceCache refs;
    const RunCapture r1 = runScenario(sc, 1);
    const RunCapture r3 = runScenario(sc, 3);
    checkInvariants(sc, r1, refs);
    checkInvariants(sc, r3, refs);
    cov.preemptions += r1.rep.fleet.preemptions;
    cov.swaps += r1.rep.fleet.swaps_out;
    cov.dropped += r1.rep.fleet.dropped;
    cov.cancelled += r1.rep.fleet.cancelled;
    cov.watermark += r1.rep.fleet.watermark_rejections;
    cov.prefill_chunks += r1.rep.fleet.prefill_chunks;
    cov.prefix_hits += r1.rep.fleet.prefix_hits;
    cov.cache_evictions += r1.rep.fleet.cache_evictions;
    cov.backfill_tokens += r1.rep.fleet.backfill_tokens;
    cov.backpressure += r1.rep.fleet.backpressure_deferrals;
    cov.handoffs += r1.rep.fleet.handoffs;
    cov.overlapped += r1.rep.fleet.transfers_overlapped;
    cov.trace_events += static_cast<long>(r1.rep.fleet.trace.size());
    cov.timeline_windows +=
        static_cast<long>(r1.rep.fleet.timeline.size());
    cov.slo_evaluated += r1.rep.fleet.slo_evaluated;
    EXPECT_DOUBLE_EQ(r1.rep.fleet.makespan_s, r3.rep.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r1.rep.fleet.energy_j, r3.rep.fleet.energy_j);
    EXPECT_EQ(r1.rep.fleet.tokens, r3.rep.fleet.tokens);
    EXPECT_EQ(r1.rep.fleet.iterations, r3.rep.fleet.iterations);
    EXPECT_EQ(r1.rep.fleet.preemptions, r3.rep.fleet.preemptions);
    EXPECT_EQ(r1.rep.fleet.swaps_out, r3.rep.fleet.swaps_out);
    EXPECT_EQ(r1.rep.fleet.swaps_in, r3.rep.fleet.swaps_in);
    EXPECT_EQ(r1.rep.fleet.watermark_rejections,
              r3.rep.fleet.watermark_rejections);
    EXPECT_EQ(r1.rep.fleet.dropped, r3.rep.fleet.dropped);
    EXPECT_EQ(r1.rep.fleet.cancelled, r3.rep.fleet.cancelled);
    EXPECT_EQ(r1.rep.fleet.prefix_hits, r3.rep.fleet.prefix_hits);
    EXPECT_EQ(r1.rep.fleet.cached_tokens, r3.rep.fleet.cached_tokens);
    EXPECT_EQ(r1.rep.fleet.cache_evictions,
              r3.rep.fleet.cache_evictions);
    EXPECT_EQ(r1.rep.fleet.peak_cached_blocks,
              r3.rep.fleet.peak_cached_blocks);
    EXPECT_EQ(r1.rep.fleet.stage_busy, r3.rep.fleet.stage_busy);
    EXPECT_EQ(r1.rep.fleet.peak_stage_occupancy,
              r3.rep.fleet.peak_stage_occupancy);
    EXPECT_EQ(r1.rep.fleet.backfill_grants,
              r3.rep.fleet.backfill_grants);
    EXPECT_EQ(r1.rep.fleet.backfill_tokens,
              r3.rep.fleet.backfill_tokens);
    EXPECT_EQ(r1.rep.fleet.backpressure_deferrals,
              r3.rep.fleet.backpressure_deferrals);
    EXPECT_EQ(r1.rep.fleet.handoffs, r3.rep.fleet.handoffs);
    EXPECT_DOUBLE_EQ(r1.rep.fleet.handoff_gb, r3.rep.fleet.handoff_gb);
    EXPECT_EQ(r1.rep.fleet.transfers_overlapped,
              r3.rep.fleet.transfers_overlapped);
    EXPECT_EQ(r1.rep.fleet.transfer_bytes_sent,
              r3.rep.fleet.transfer_bytes_sent);
    EXPECT_EQ(r1.rep.fleet.peak_inflight_kv_blocks,
              r3.rep.fleet.peak_inflight_kv_blocks);
    EXPECT_DOUBLE_EQ(r1.rep.fleet.prefill_busy_s,
                     r3.rep.fleet.prefill_busy_s);
    EXPECT_DOUBLE_EQ(r1.rep.fleet.transfer_busy_s,
                     r3.rep.fleet.transfer_busy_s);
    EXPECT_EQ(r1.delivered, r3.delivered);
    ASSERT_EQ(r1.rep.outcomes.size(), r3.rep.outcomes.size());
    for (size_t i = 0; i < r1.rep.outcomes.size(); ++i) {
        const auto &a = r1.rep.outcomes[i];
        const auto &b = r3.rep.outcomes[i];
        EXPECT_DOUBLE_EQ(a.ttft_s, b.ttft_s);
        EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.swaps, b.swaps);
        EXPECT_EQ(a.cached_tokens, b.cached_tokens);
        EXPECT_EQ(a.slo.evaluated, b.slo.evaluated);
        EXPECT_EQ(a.slo.attained(), b.slo.attained());
        EXPECT_DOUBLE_EQ(a.max_itl_s, b.max_itl_s);
    }

    // (9) the observability artifacts themselves are bit-identical
    // across worker counts: shards merge back into one sequence.
    expectTraceEqual(r1.rep.fleet.trace, r3.rep.fleet.trace);
    ASSERT_EQ(r1.rep.fleet.timeline.size(), r3.rep.fleet.timeline.size());
    for (size_t i = 0; i < r1.rep.fleet.timeline.size(); ++i) {
        const auto &a = r1.rep.fleet.timeline[i];
        const auto &b = r3.rep.fleet.timeline[i];
        EXPECT_DOUBLE_EQ(a.t0, b.t0);
        EXPECT_EQ(a.iterations, b.iterations);
        EXPECT_EQ(a.tokens, b.tokens);
        EXPECT_EQ(a.slo_tokens, b.slo_tokens);
        EXPECT_DOUBLE_EQ(a.p99_ttft_s, b.p99_ttft_s);
        EXPECT_DOUBLE_EQ(a.p99_itl_s, b.p99_itl_s);
        EXPECT_EQ(a.peak_kv_blocks, b.peak_kv_blocks);
        EXPECT_DOUBLE_EQ(a.transfer_busy_s, b.transfer_busy_s);
        EXPECT_EQ(a.exit_hist, b.exit_hist);
    }
    EXPECT_EQ(r1.rep.fleet.slo_evaluated, r3.rep.fleet.slo_evaluated);
    EXPECT_EQ(r1.rep.fleet.slo_attained, r3.rep.fleet.slo_attained);
    EXPECT_DOUBLE_EQ(r1.rep.fleet.goodput_under_slo,
                     r3.rep.fleet.goodput_under_slo);

    // (9) all three observability knobs together are bit-inert: the
    // same scenario with every knob off reproduces the modeled run
    // exactly and produces no artifacts.
    if (sc.opts.sched.trace.enabled ||
        sc.opts.sched.timeline.window_s > 0.0 ||
        sc.opts.sched.slo.any()) {
        Scenario plain = sc;
        plain.opts.sched.trace.enabled = false;
        plain.opts.sched.timeline.window_s = 0.0;
        plain.opts.sched.slo = obs::TierSlo{};
        const RunCapture rp = runScenario(plain, 1);
        EXPECT_DOUBLE_EQ(r1.rep.fleet.makespan_s,
                         rp.rep.fleet.makespan_s);
        EXPECT_DOUBLE_EQ(r1.rep.fleet.energy_j, rp.rep.fleet.energy_j);
        EXPECT_EQ(r1.rep.fleet.tokens, rp.rep.fleet.tokens);
        EXPECT_EQ(r1.rep.fleet.iterations, rp.rep.fleet.iterations);
        EXPECT_EQ(r1.rep.fleet.preemptions, rp.rep.fleet.preemptions);
        EXPECT_DOUBLE_EQ(r1.rep.fleet.p99_latency_s,
                         rp.rep.fleet.p99_latency_s);
        EXPECT_EQ(r1.delivered, rp.delivered);
        EXPECT_TRUE(rp.rep.fleet.trace.empty());
        EXPECT_TRUE(rp.rep.fleet.timeline.empty());
        EXPECT_EQ(rp.rep.fleet.slo_evaluated, 0);
    }

    // (5) auto is never worse than the dearer fixed mechanism on the
    // same stream (comparable only when no deadline/cancel path can
    // change WHAT runs between modes).
    if (sc.opts.sched.kv_budget_blocks > 0 && !sc.has_deadlines &&
        sc.cancel_after == 0) {
        Scenario fixed = sc;
        fixed.opts.sched.preempt_mode = serve::PreemptMode::Recompute;
        const RunCapture rec = runScenario(fixed, 1);
        fixed.opts.sched.preempt_mode = serve::PreemptMode::Swap;
        const RunCapture swp = runScenario(fixed, 1);
        fixed.opts.sched.preempt_mode = serve::PreemptMode::Auto;
        const RunCapture aut = runScenario(fixed, 1);
        checkInvariants(fixed, rec, refs);
        checkInvariants(fixed, swp, refs);
        checkInvariants(fixed, aut, refs);
        cov.swaps += swp.rep.fleet.swaps_out;
        const double dearer = std::max(rec.rep.fleet.makespan_s,
                                       swp.rep.fleet.makespan_s);
        EXPECT_LE(aut.rep.fleet.makespan_s, dearer * (1.0 + 1e-9))
            << "auto lost to both fixed preempt modes";
        EXPECT_EQ(aut.delivered, rec.delivered);
        EXPECT_EQ(aut.delivered, swp.delivered);
    }

    // (6) degenerate fleets: on a tp = 1 / pp = 1 draw the stage
    // knobs must be bit-inert — flipping both changes nothing.
    if (sc.opts.engine.tp == 1 && sc.opts.engine.pp == 1) {
        Scenario toggled = sc;
        toggled.opts.sched.stage_pricing =
            !sc.opts.sched.stage_pricing;
        toggled.opts.sched.stage_backfill =
            !sc.opts.sched.stage_backfill;
        const RunCapture rt = runScenario(toggled, 1);
        EXPECT_DOUBLE_EQ(r1.rep.fleet.makespan_s,
                         rt.rep.fleet.makespan_s);
        EXPECT_DOUBLE_EQ(r1.rep.fleet.energy_j, rt.rep.fleet.energy_j);
        EXPECT_EQ(r1.rep.fleet.tokens, rt.rep.fleet.tokens);
        EXPECT_EQ(r1.rep.fleet.iterations, rt.rep.fleet.iterations);
        EXPECT_EQ(r1.delivered, rt.delivered);
    }
}

} // namespace

TEST(ServeFuzz, RandomizedSchedulerInvariants)
{
    // Fixed CI seed set; SPECEE_FUZZ_SEEDS widens the sweep locally.
    int n_seeds = 8;
    if (const char *env = std::getenv("SPECEE_FUZZ_SEEDS"))
        n_seeds = std::max(1, std::atoi(env));
    Coverage cov;
    for (const Scenario &sc : directedScenarios()) {
        SCOPED_TRACE("directed scenario");
        fuzzScenario(sc, cov);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    for (uint64_t seed = 1; seed <= static_cast<uint64_t>(n_seeds);
         ++seed) {
        SCOPED_TRACE("fuzz seed " + std::to_string(seed));
        fuzzScenario(drawScenario(seed), cov);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The sweep must actually exercise every mechanism it claims to
    // stress — a harness whose random draws stopped reaching the
    // preemption / swap / drop / cancel / watermark paths would pass
    // vacuously.
    EXPECT_GT(cov.preemptions, 0);
    EXPECT_GT(cov.swaps, 0);
    EXPECT_GT(cov.dropped, 0);
    EXPECT_GT(cov.cancelled, 0);
    EXPECT_GT(cov.watermark, 0);
    EXPECT_GT(cov.prefill_chunks, 0);
    EXPECT_GT(cov.prefix_hits, 0);
    EXPECT_GT(cov.cache_evictions, 0);
    EXPECT_GT(cov.backfill_tokens, 0);
    EXPECT_GT(cov.backpressure, 0);
    EXPECT_GT(cov.handoffs, 0);
    EXPECT_GT(cov.overlapped, 0);
    EXPECT_GT(cov.trace_events, 0);
    EXPECT_GT(cov.timeline_windows, 0);
    EXPECT_GT(cov.slo_evaluated, 0);
}
