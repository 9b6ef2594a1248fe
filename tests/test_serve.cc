/**
 * @file
 * Serving-layer tests: FIFO queue semantics (incl. bounded capacity
 * and push-after-close), deterministic live-batched fleet results
 * regardless of worker count, FIFO admission fairness,
 * fleet-vs-per-request stats consistency, sequential equivalence of
 * the live scheduler with Engine::runOne, KV-pressure preemption,
 * deadline drops, per-token streaming / TTFT metrics, the
 * batched-serving speedup over sequential execution, and the merged
 * per-layer launches of a batch's predictor and attention kernels.
 */

#include <gtest/gtest.h>

#include <map>

#include "engines/decode_session.hh"
#include "serve/server.hh"
#include "test_util.hh"

using namespace specee;

namespace {

std::vector<serve::Request>
makeStream(int n, double rate_rps, int gen_len = 12)
{
    serve::StreamOptions so;
    so.datasets = {"MT-Bench", "SUM", "QA"};
    so.n_requests = n;
    so.gen_len = gen_len;
    so.rate_rps = rate_rps;
    so.seed = 0xbeef;
    return serve::synthesizeStream(so);
}

serve::ServerOptions
serverOpts(int workers, int max_batch)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = workers;
    o.sched.max_batch = max_batch;
    return o;
}

/** `n` copies of one request, all arriving at t = 0. */
std::vector<serve::Request>
identicalRequests(int n, int gen_len)
{
    const serve::Request r = makeStream(1, 0.0, gen_len).front();
    std::vector<serve::Request> out(static_cast<size_t>(n), r);
    for (int i = 0; i < n; ++i)
        out[static_cast<size_t>(i)].id = static_cast<uint64_t>(i);
    return out;
}

/**
 * Decode `n` sessions of request `r` in lockstep outside the
 * scheduler; the step costs of every session, per iteration.
 */
std::vector<std::vector<engines::StepCost>>
lockstepCosts(const engines::Pipeline &pipe, engines::Engine &eng,
              const serve::Request &r, int n)
{
    serve::Request one = r;
    one.gen.n_instances = 1;
    const bool q4 = eng.config().q4Calibrated();
    const auto w = serve::buildPromptWorkload(pipe, one, q4);
    std::vector<std::unique_ptr<engines::DecodeSession>> sessions;
    for (int i = 0; i < n; ++i) {
        sessions.push_back(eng.makeSession(w, r.seed));
        sessions.back()->prefill();
    }
    std::vector<std::vector<engines::StepCost>> iters;
    while (!sessions.front()->finished()) {
        auto &costs = iters.emplace_back();
        for (auto &s : sessions) {
            s->step();
            costs.push_back(s->lastStep());
        }
    }
    return iters;
}

/** Launch seconds a step charged for its own per-layer kernels. */
double
ownLaunchS(const engines::StepCost &c, const engines::Engine &eng)
{
    return static_cast<double>(c.predictor_layers.count()) *
               eng.predictorLaunch().s +
           c.attn_layers * eng.kvReadLaunch().s;
}

/**
 * One device's iteration time with each per-layer kernel launched
 * once: max shared + sum(private - own launch) + union launch.
 */
double
mergedTime(const std::vector<engines::StepCost> &costs,
           const engines::Engine &eng)
{
    double shared = 0.0, priv = 0.0;
    engines::LayerMask any_pred;
    int deepest = 0;
    for (const auto &c : costs) {
        shared = std::max(shared, c.shared_s);
        priv += c.private_s - ownLaunchS(c, eng);
        any_pred |= c.predictor_layers;
        deepest = std::max(deepest, c.attn_layers);
    }
    return shared + priv +
           static_cast<double>(any_pred.count()) *
               eng.predictorLaunch().s +
           deepest * eng.kvReadLaunch().s;
}

/** The same iteration with every session's launches summed. */
double
summedTime(const std::vector<engines::StepCost> &costs)
{
    double shared = 0.0, priv = 0.0;
    for (const auto &c : costs) {
        shared = std::max(shared, c.shared_s);
        priv += c.private_s;
    }
    return shared + priv;
}

/** Modeled length of every iteration of a traced run, in order. */
std::vector<double>
iterationSpans(const serve::FleetStats &fleet)
{
    std::vector<double> out;
    for (const auto &ev : fleet.trace)
        if (ev.kind == obs::TraceKind::Iteration)
            out.push_back(ev.t1 - ev.t0);
    return out;
}

} // namespace

TEST(RequestQueue, FifoOrderAndClose)
{
    serve::RequestQueue q;
    for (uint64_t i = 0; i < 5; ++i) {
        serve::Request r;
        r.id = i;
        EXPECT_TRUE(q.push(std::move(r)));
    }
    EXPECT_EQ(q.size(), 5u);

    serve::Request out;
    for (uint64_t i = 0; i < 5; ++i) {
        ASSERT_TRUE(q.tryPop(out));
        EXPECT_EQ(out.id, i);
    }
    EXPECT_FALSE(q.tryPop(out));

    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.pop(out)); // closed + empty: no block, no item
}

TEST(RequestQueue, PushAfterCloseIsCountedNoOp)
{
    serve::RequestQueue q;
    serve::Request r;
    r.id = 7;
    EXPECT_TRUE(q.push(r));
    q.close();
    // Defined no-op: returns false, queue unchanged, rejection
    // counted (previously undefined behavior by precondition).
    EXPECT_FALSE(q.push(r));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.rejected(), 1u);
    serve::Request out;
    EXPECT_TRUE(q.tryPop(out));
    EXPECT_EQ(out.id, 7u);
}

TEST(RequestQueue, BoundedCapacityRejectsWithCounter)
{
    serve::RequestQueue q(/*capacity=*/2);
    EXPECT_EQ(q.capacity(), 2u);
    serve::Request r;
    EXPECT_TRUE(q.push(r));
    EXPECT_TRUE(q.push(r));
    EXPECT_FALSE(q.push(r)); // full
    EXPECT_FALSE(q.push(r));
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.rejected(), 2u);
    // Draining frees capacity again.
    serve::Request out;
    EXPECT_TRUE(q.tryPop(out));
    EXPECT_TRUE(q.push(r));
    EXPECT_EQ(q.rejected(), 2u);
}

TEST(Server, BoundedQueueBackpressure)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(5, 0.0, 6);

    auto opts = serverOpts(1, 2);
    opts.queue_capacity = 2;
    serve::Server server(pipe, opts);
    EXPECT_EQ(server.submit(stream), 2u);
    EXPECT_EQ(server.rejected(), 3u);

    auto rep = server.drain();
    EXPECT_EQ(rep.fleet.requests, 2);
    EXPECT_EQ(rep.fleet.rejected, 3);
    EXPECT_EQ(rep.outcomes.size(), 2u);
}

TEST(RequestStream, PoissonArrivalsAreOrderedAndDeterministic)
{
    auto a = makeStream(16, 4.0);
    auto b = makeStream(16, 4.0);
    ASSERT_EQ(a.size(), 16u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
    }
}

TEST(Server, DeterministicAcrossWorkerCounts)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(8, 6.0);

    serve::Server one(pipe, serverOpts(1, 4));
    one.submit(stream);
    auto r1 = one.drain();

    serve::Server three(pipe, serverOpts(3, 4));
    three.submit(stream);
    auto r3 = three.drain();

    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        const auto &a = r1.outcomes[i];
        const auto &b = r3.outcomes[i];
        EXPECT_EQ(a.request.id, b.request.id);
        ASSERT_EQ(a.result.emissions.size(), 1u);
        EXPECT_EQ(a.result.emissions[0].tokens,
                  b.result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(a.admit_s, b.admit_s);
        EXPECT_DOUBLE_EQ(a.finish_s, b.finish_s);
    }
    EXPECT_EQ(r1.fleet.tokens, r3.fleet.tokens);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    EXPECT_DOUBLE_EQ(r1.fleet.energy_j, r3.fleet.energy_j);
    EXPECT_DOUBLE_EQ(r1.fleet.p99_latency_s, r3.fleet.p99_latency_s);
}

TEST(Server, FifoAdmissionFairness)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0); // all arrive at t = 0

    serve::Server server(pipe, serverOpts(2, 2));
    server.submit(stream);
    auto rep = server.drain();

    ASSERT_EQ(rep.outcomes.size(), 6u);
    // Outcomes come back in admission order; with equal arrivals the
    // tie-break is submission (id) order, and admission times never
    // go backwards: nobody overtakes the queue.
    for (size_t i = 0; i < rep.outcomes.size(); ++i) {
        const auto &o = rep.outcomes[i];
        EXPECT_EQ(o.request.id, static_cast<uint64_t>(i));
        EXPECT_GE(o.queue_s, 0.0);
        if (i > 0) {
            EXPECT_GE(o.admit_s, rep.outcomes[i - 1].admit_s);
        }
    }
    // Exactly max_batch requests are admitted at the start.
    EXPECT_DOUBLE_EQ(rep.outcomes[0].admit_s, 0.0);
    EXPECT_DOUBLE_EQ(rep.outcomes[1].admit_s, 0.0);
    EXPECT_GT(rep.outcomes[2].admit_s, 0.0);
}

TEST(Server, FleetStatsMatchPerRequestStats)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(5, 0.0);

    // Sequential serving: no amortization, so the fleet timeline must
    // reduce exactly to the sum of the independent runs.
    serve::Server server(pipe, serverOpts(2, 1));
    server.submit(stream);
    auto rep = server.drain();

    long tokens = 0;
    double time_s = 0.0, energy_j = 0.0, flops = 0.0;
    for (const auto &o : rep.outcomes) {
        tokens += o.result.stats.tokens;
        time_s += o.result.stats.modeled_time_s;
        const auto grand = o.result.stats.oplog.grand();
        energy_j += grand.energy_j;
        flops += grand.flops;
    }
    EXPECT_EQ(rep.fleet.tokens, tokens);
    EXPECT_NEAR(rep.fleet.makespan_s, time_s, 1e-9 * time_s);
    EXPECT_NEAR(rep.fleet.energy_j, energy_j, 1e-9 * energy_j);
    EXPECT_NEAR(rep.fleet.oplog.grand().flops, flops, 1e-6 * flops);
    EXPECT_EQ(rep.fleet.requests, 5);
    EXPECT_DOUBLE_EQ(rep.fleet.mean_batch_occupancy, 1.0);
    // Sequential latency: each request waits for all predecessors.
    EXPECT_GE(rep.fleet.p99_latency_s, rep.fleet.p50_latency_s);
}

TEST(Server, BatchedServingBeatsSequential)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(8, 0.0);

    serve::Server seq(pipe, serverOpts(2, 1));
    seq.submit(stream);
    auto rs = seq.drain();

    serve::Server batched(pipe, serverOpts(2, 4));
    batched.submit(stream);
    auto rb = batched.drain();

    // Same functional tokens either way...
    EXPECT_EQ(rs.fleet.tokens, rb.fleet.tokens);
    // ...but continuous batching amortizes the weight reads.
    EXPECT_GT(rb.fleet.tokens_per_s, rs.fleet.tokens_per_s);
    EXPECT_LT(rb.fleet.makespan_s, rs.fleet.makespan_s);
    EXPECT_GT(rb.fleet.mean_batch_occupancy, 1.5);
    // Amortized weight reads also cut fleet energy.
    EXPECT_LT(rb.fleet.energy_j, rs.fleet.energy_j);
}

TEST(BatchScheduler, MergesPerLayerLaunchesAcrossTheBatch)
{
    // Four identical requests step in lockstep on one device: each
    // layer's predictor pipeline and attention kernel launch once for
    // the batch, not once per session.
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = identicalRequests(4, 12);
    auto opts = serverOpts(1, 4);
    opts.sched.trace.enabled = true;
    serve::Server server(pipe, opts);
    server.submit(stream);
    const auto rep = server.drain();

    auto eng = pipe.makeEngine(opts.engine, opts.spec);
    const auto iters = lockstepCosts(pipe, *eng, stream.front(), 4);
    const auto spans = iterationSpans(rep.fleet);
    ASSERT_EQ(spans.size(), iters.size());
    double saved = 0.0;
    bool any_predictor = false;
    for (size_t i = 0; i < iters.size(); ++i) {
        const double merged = mergedTime(iters[i], *eng);
        EXPECT_NEAR(spans[i], merged, 1e-9 * merged) << "iteration " << i;
        EXPECT_LT(spans[i], summedTime(iters[i])) << "iteration " << i;
        saved += summedTime(iters[i]) - merged;
        any_predictor |= iters[i].front().predictor_layers.any();
    }
    EXPECT_TRUE(any_predictor);
    EXPECT_NEAR(rep.fleet.launch_merged_s, saved, 1e-9 * saved);
}

TEST(BatchScheduler, LaunchMergeStaysWithinEachDevice)
{
    // Two unified devices, two sessions each: a device merges only
    // the launches of its own sessions.
    const auto &pipe = testutil::tinyPipeline();
    const auto stream = identicalRequests(4, 12);
    auto opts = serverOpts(2, 4);
    opts.sched.topology.devices = 2;
    opts.sched.trace.enabled = true;
    serve::Server server(pipe, opts);
    server.submit(stream);
    const auto rep = server.drain();

    auto eng = pipe.makeEngine(opts.engine, opts.spec);
    const auto iters = lockstepCosts(pipe, *eng, stream.front(), 4);
    const auto spans = iterationSpans(rep.fleet);
    ASSERT_EQ(spans.size(), iters.size());
    double saved = 0.0, fleet_wide = 0.0;
    for (size_t i = 0; i < iters.size(); ++i) {
        // Round-robin placement: sessions 0, 2 on device 0; 1, 3 on 1.
        const std::vector<engines::StepCost> dev0 = {iters[i][0],
                                                     iters[i][2]};
        const std::vector<engines::StepCost> dev1 = {iters[i][1],
                                                     iters[i][3]};
        const double expect =
            std::max(mergedTime(dev0, *eng), mergedTime(dev1, *eng));
        EXPECT_NEAR(spans[i], expect, 1e-9 * expect) << "iteration " << i;
        saved += summedTime(dev0) - mergedTime(dev0, *eng) +
                 summedTime(dev1) - mergedTime(dev1, *eng);
        fleet_wide += summedTime(iters[i]) - mergedTime(iters[i], *eng);
    }
    EXPECT_GT(saved, 0.0);
    EXPECT_NEAR(rep.fleet.launch_merged_s, saved, 1e-9 * saved);
    EXPECT_LT(rep.fleet.launch_merged_s, fleet_wide);
}

TEST(BatchScheduler, LaunchMergeCoversEveryLayerOfA70bModel)
{
    // llama2-70b has 80 layers: predictors placed above layer 63 must
    // merge like any other.
    static const engines::Pipeline pipe([] {
        engines::PipelineOptions o;
        o.model = "llama2-70b";
        o.train_instances = 2;
        o.train_gen_len = 16;
        o.mlp_hidden = 64;
        o.train_cfg.epochs = 5;
        o.seed = 43;
        return o;
    }());
    const auto stream = identicalRequests(3, 6);
    serve::ServerOptions opts;
    opts.engine = engines::EngineConfig::huggingFace().withSpecEE();
    opts.engine.fixed_predictor_layers = {64, 68, 72, 76};
    opts.spec = hw::HardwareSpec::a100x4();
    opts.workers = 1;
    opts.sched.max_batch = 3;
    opts.sched.trace.enabled = true;
    serve::Server server(pipe, opts);
    server.submit(stream);
    const auto rep = server.drain();

    auto eng = pipe.makeEngine(opts.engine, opts.spec);
    const auto iters = lockstepCosts(pipe, *eng, stream.front(), 3);
    const auto spans = iterationSpans(rep.fleet);
    ASSERT_EQ(spans.size(), iters.size());
    double saved = 0.0;
    for (size_t i = 0; i < iters.size(); ++i) {
        EXPECT_TRUE(iters[i].front().predictor_layers.test(64))
            << "iteration " << i;
        const double merged = mergedTime(iters[i], *eng);
        EXPECT_NEAR(spans[i], merged, 1e-9 * merged) << "iteration " << i;
        saved += summedTime(iters[i]) - merged;
    }
    EXPECT_NEAR(rep.fleet.launch_merged_s, saved, 1e-9 * saved);
}

TEST(BatchScheduler, EmbedIsBatchAmortized)
{
    // The embedding lookup is a weight-table read: one batched gather
    // per iteration, amortized like the other weight-bound classes.
    // Charging it per-request overcounted batched traffic.
    EXPECT_TRUE(serve::isSharedClass(hw::OpClass::Embed));
    EXPECT_TRUE(serve::isSharedClass(hw::OpClass::DecoderLayer));
    EXPECT_TRUE(serve::isSharedClass(hw::OpClass::LmHeadFull));
    EXPECT_TRUE(serve::isSharedClass(hw::OpClass::Draft));
    // A prefill chunk's weight stream is the same full-depth read a
    // decode iteration waits on — shared in a mixed batch — while
    // its chunk-length-scaled compute interferes privately.
    EXPECT_TRUE(serve::isSharedClass(hw::OpClass::PrefillWeights));
    EXPECT_FALSE(serve::isSharedClass(hw::OpClass::PrefillCompute));
    // Per-request traffic stays private.
    EXPECT_FALSE(serve::isSharedClass(hw::OpClass::KvRead));
    EXPECT_FALSE(serve::isSharedClass(hw::OpClass::Predictor));
    EXPECT_FALSE(serve::isSharedClass(hw::OpClass::LmHeadSliced));
}

TEST(Server, Q8BackendSpeedsUpBatchedServing)
{
    // The quantized-serving scenario: a q8 model halves the shared
    // weight stream every decode iteration waits on, so batched
    // fleet throughput must rise by well over the private-traffic
    // dilution (the acceptance bar is 1.3x at max_batch >= 4).
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(8, 0.0);

    auto opts = serverOpts(2, 4);
    opts.engine = engines::EngineConfig::huggingFace();
    serve::Server fp32(pipe, opts);
    fp32.submit(stream);
    auto r_fp32 = fp32.drain();

    opts.engine = engines::EngineConfig::huggingFace().withWeightBackend(
        tensor::WeightBackend::Q8);
    serve::Server q8(pipe, opts);
    q8.submit(stream);
    auto r_q8 = q8.drain();

    EXPECT_EQ(r_q8.fleet.tokens, r_fp32.fleet.tokens);
    EXPECT_GT(r_q8.fleet.tokens_per_s, 1.3 * r_fp32.fleet.tokens_per_s);
    EXPECT_LT(r_q8.fleet.energy_per_token_j,
              r_fp32.fleet.energy_per_token_j);
}

TEST(Engine, RunOneIsReentrant)
{
    const auto &pipe = testutil::tinyPipeline();
    auto w = pipe.makeWorkload("MT-Bench", testutil::smallGen(3, 16));
    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());

    auto a = engine->runOne(w, 1, 77);
    auto full = engine->run(w, 123); // unrelated work in between
    auto b = engine->runOne(w, 1, 77);

    ASSERT_EQ(a.emissions.size(), 1u);
    ASSERT_EQ(b.emissions.size(), 1u);
    EXPECT_EQ(a.emissions[0].tokens, b.emissions[0].tokens);
    EXPECT_EQ(a.emissions[0].exit_layers, b.emissions[0].exit_layers);
    EXPECT_DOUBLE_EQ(a.stats.modeled_time_s, b.stats.modeled_time_s);
    EXPECT_EQ(full.emissions.size(), 3u);
}

TEST(Server, LiveSequentialMatchesRunOne)
{
    // Acceptance bar for the live scheduler: max_batch = 1 with an
    // unbounded KV budget reproduces sequential per-request serving
    // exactly — emissions AND modeled per-request costs are
    // bit-identical to Engine::runOne.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 4.0);

    serve::Server server(pipe, serverOpts(2, 1));
    server.submit(stream);
    auto rep = server.drain();

    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());
    ASSERT_EQ(rep.outcomes.size(), stream.size());
    for (const auto &o : rep.outcomes) {
        workload::GenOptions gen = o.request.gen;
        gen.n_instances = 1;
        const auto w = pipe.makeWorkload(
            o.request.dataset, gen,
            engine->config().q4Calibrated());
        auto ref = engine->runOne(w, 0, o.request.seed);
        ASSERT_EQ(o.result.emissions.size(), 1u);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.emissions[0].exit_layers,
                  ref.emissions[0].exit_layers);
        EXPECT_EQ(o.result.stats.modeled_time_s,
                  ref.stats.modeled_time_s);
        EXPECT_EQ(o.result.stats.tokens, ref.stats.tokens);
        EXPECT_EQ(o.result.stats.oplog.grand().energy_j,
                  ref.stats.oplog.grand().energy_j);
        EXPECT_EQ(o.result.stats.exits, ref.stats.exits);
        EXPECT_EQ(o.result.stats.peak_mem_gb, ref.stats.peak_mem_gb);
        EXPECT_EQ(o.preemptions, 0);
        EXPECT_FALSE(o.dropped);
    }
}

TEST(Server, BatchedRequestsBitIdenticalToRunOne)
{
    // §6.3: SpecEE (and the functional decode in general) is
    // orthogonal to the serving stack — live interleaving of many
    // sessions on one engine must not change any request's tokens.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0);

    serve::Server server(pipe, serverOpts(1, 4));
    server.submit(stream);
    auto rep = server.drain();

    auto engine = pipe.makeEngine(
        engines::EngineConfig::huggingFace().withSpecEE(),
        hw::HardwareSpec::a100());
    for (const auto &o : rep.outcomes) {
        workload::GenOptions gen = o.request.gen;
        gen.n_instances = 1;
        const auto w = pipe.makeWorkload(
            o.request.dataset, gen, engine->config().q4Calibrated());
        auto ref = engine->runOne(w, 0, o.request.seed);
        EXPECT_EQ(o.result.emissions[0].tokens, ref.emissions[0].tokens);
        EXPECT_EQ(o.result.stats.modeled_time_s,
                  ref.stats.modeled_time_s);
    }
}

TEST(Server, PreemptionUnderKvPressure)
{
    // KV pool budget sized well below the batch working set: the
    // scheduler must preempt (evict KV, re-enqueue), and every
    // request must still complete with exactly the tokens an
    // unconstrained run produces.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 16);

    auto opts = serverOpts(2, 4);
    serve::Server unbounded(pipe, opts);
    unbounded.submit(stream);
    auto ru = unbounded.drain();
    EXPECT_EQ(ru.fleet.preemptions, 0);
    // 8 layers x ceil(28/16) blocks ~ 16 blocks per finished seq: 4
    // sequences need ~64; a 40-block budget forces eviction.
    opts.sched.kv_budget_blocks = 40;
    serve::Server pressed(pipe, opts);
    pressed.submit(stream);
    auto rp = pressed.drain();

    EXPECT_GT(rp.fleet.preemptions, 0);
    EXPECT_LE(rp.fleet.peak_kv_blocks, 40);
    // fleet.tokens is goodput: recompute after eviction is priced
    // into the timeline but each output position counts once.
    EXPECT_EQ(rp.fleet.tokens, ru.fleet.tokens);
    EXPECT_LT(rp.fleet.tokens_per_s, ru.fleet.tokens_per_s);
    ASSERT_EQ(rp.outcomes.size(), ru.outcomes.size());
    for (size_t i = 0; i < rp.outcomes.size(); ++i) {
        EXPECT_FALSE(rp.outcomes[i].dropped);
        // Evicted-and-recomputed requests still emit identical
        // tokens (decode is a pure function of the request seed).
        EXPECT_EQ(rp.outcomes[i].result.emissions[0].tokens,
                  ru.outcomes[i].result.emissions[0].tokens);
    }
    // The wasted (re-decoded) work costs fleet time.
    EXPECT_GT(rp.fleet.makespan_s, ru.fleet.makespan_s);
    EXPECT_GT(ru.fleet.peak_kv_blocks, rp.fleet.peak_kv_blocks);
}

TEST(Server, PreemptionDeterministicAcrossWorkerCounts)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 16);

    auto opts1 = serverOpts(1, 4);
    opts1.sched.kv_budget_blocks = 40;
    serve::Server one(pipe, opts1);
    one.submit(stream);
    auto r1 = one.drain();

    auto opts3 = serverOpts(3, 4);
    opts3.sched.kv_budget_blocks = 40;
    serve::Server three(pipe, opts3);
    three.submit(stream);
    auto r3 = three.drain();

    EXPECT_GT(r1.fleet.preemptions, 0);
    EXPECT_EQ(r1.fleet.preemptions, r3.fleet.preemptions);
    EXPECT_EQ(r1.fleet.peak_kv_blocks, r3.fleet.peak_kv_blocks);
    EXPECT_DOUBLE_EQ(r1.fleet.makespan_s, r3.fleet.makespan_s);
    ASSERT_EQ(r1.outcomes.size(), r3.outcomes.size());
    for (size_t i = 0; i < r1.outcomes.size(); ++i) {
        EXPECT_EQ(r1.outcomes[i].result.emissions[0].tokens,
                  r3.outcomes[i].result.emissions[0].tokens);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].ttft_s, r3.outcomes[i].ttft_s);
        EXPECT_DOUBLE_EQ(r1.outcomes[i].finish_s,
                         r3.outcomes[i].finish_s);
    }
}

TEST(Server, StreamedTokensMatchGoodputUnderPreemption)
{
    // Every delivered token is streamed exactly once even when
    // sessions are evicted and re-decode their prefix.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 16);

    auto opts = serverOpts(2, 4);
    opts.sched.kv_budget_blocks = 40;
    std::vector<serve::TokenEvent> events;
    opts.on_token = [&events](const serve::TokenEvent &ev) {
        events.push_back(ev);
        return true;
    };
    serve::Server server(pipe, opts);
    server.submit(stream);
    auto rep = server.drain();

    EXPECT_GT(rep.fleet.preemptions, 0);
    EXPECT_EQ(static_cast<long>(events.size()), rep.fleet.tokens);
    std::map<uint64_t, int> next_index;
    for (const auto &ev : events)
        EXPECT_EQ(ev.index, next_index[ev.request_id]++);
    EXPECT_EQ(rep.fleet.tokens, 6 * 16);
}

TEST(Server, QueuedDeadlineDropsWhileSlotsAreFull)
{
    // A queued request whose deadline expires while every decode
    // slot is busy is dropped at that iteration boundary, not when a
    // slot eventually frees.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(3, 0.0, 16);
    stream[2].deadline_s = 1e-7; // expires while 0 and 1 hold slots

    serve::Server server(pipe, serverOpts(1, 2));
    server.submit(stream);
    auto rep = server.drain();

    EXPECT_EQ(rep.fleet.dropped, 1);
    const auto &o = rep.outcomes[2];
    EXPECT_TRUE(o.dropped);
    // Dropped promptly: long before the busy slots drained.
    EXPECT_LT(o.finish_s, rep.outcomes[0].finish_s);
}

TEST(Server, DeadlineDropsAtIterationBoundary)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(4, 0.0, 16);
    // Request 2 carries a deadline no schedule can meet (post-hoc
    // replay could never honor this; the live loop drops it at the
    // first boundary past the deadline).
    stream[2].deadline_s = 1e-7;

    serve::Server server(pipe, serverOpts(2, 2));
    server.submit(stream);
    auto rep = server.drain();

    EXPECT_EQ(rep.fleet.dropped, 1);
    ASSERT_EQ(rep.outcomes.size(), 4u);
    for (const auto &o : rep.outcomes) {
        if (o.request.id == 2) {
            EXPECT_TRUE(o.dropped);
            EXPECT_TRUE(o.result.emissions.empty());
        } else {
            EXPECT_FALSE(o.dropped);
            EXPECT_EQ(static_cast<int>(o.result.emissions[0].tokens.size()),
                      16);
        }
    }
    // Latency stats cover completed requests only.
    EXPECT_GT(rep.fleet.p99_latency_s, 0.0);
}

TEST(Server, StreamsTokensWithTtftBelowLatency)
{
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(6, 0.0, 12);

    auto opts = serverOpts(2, 4);
    std::vector<serve::TokenEvent> events;
    opts.on_token = [&events](const serve::TokenEvent &ev) {
        events.push_back(ev);
        return true;
    };
    serve::Server server(pipe, opts);
    server.submit(stream);
    auto rep = server.drain();

    // Every decoded token streamed exactly once, clock monotone.
    EXPECT_EQ(static_cast<long>(events.size()), rep.fleet.tokens);
    std::map<uint64_t, int> next_index;
    double prev_s = 0.0;
    for (const auto &ev : events) {
        EXPECT_EQ(ev.index, next_index[ev.request_id]++);
        EXPECT_GE(ev.emit_s, prev_s);
        prev_s = ev.emit_s;
    }

    // Under batching, the first token lands well before the request
    // finishes — TTFT is a first-class metric now.
    for (const auto &o : rep.outcomes) {
        EXPECT_GT(o.ttft_s, 0.0);
        EXPECT_LT(o.ttft_s, o.latency_s);
        EXPECT_GT(o.mean_itl_s, 0.0);
    }
    EXPECT_GT(rep.fleet.mean_ttft_s, 0.0);
    EXPECT_LT(rep.fleet.mean_ttft_s, rep.fleet.mean_latency_s);
    EXPECT_LE(rep.fleet.p50_ttft_s, rep.fleet.p99_ttft_s);
    EXPECT_GT(rep.fleet.mean_itl_s, 0.0);
    EXPECT_GT(rep.fleet.peak_kv_blocks, 0);
    EXPECT_GT(rep.fleet.peak_fleet_mem_gb, 0.0);
}

TEST(Server, PreemptionVictimsAvoidNearDeadlineSessions)
{
    // Victim selection tie-breaks AWAY from near-deadline sessions
    // within the batch-tier-first rule: evicting a session with
    // seconds of slack just to re-admit it past its deadline turns a
    // recoverable preemption into a drop.
    const auto &pipe = testutil::tinyPipeline();
    auto stream = makeStream(3, 0.0, 16);

    // Baselines: unconstrained finish of the youngest request, and
    // its finish under KV pressure while NO deadlines exist (where
    // the scan reduces to the legacy youngest-victim rule and evicts
    // exactly it).
    auto opts = serverOpts(2, 3);
    serve::Server unb(pipe, opts);
    unb.submit(stream);
    const auto ru = unb.drain();

    // 48 blocks force exactly ONE eviction on this stream — the
    // interesting case, where the scan has a real choice (a tighter
    // budget needs two victims per boundary and must take the
    // near-deadline session anyway).
    opts.sched.kv_budget_blocks = 48;
    serve::Server pressed(pipe, opts);
    pressed.submit(stream);
    const auto rp = pressed.drain();
    ASSERT_GT(rp.fleet.preemptions, 0);
    ASSERT_GT(rp.outcomes[2].preemptions, 0); // legacy victim
    const double f_unb = ru.outcomes[2].finish_s;
    const double f_legacy = rp.outcomes[2].finish_s;
    ASSERT_LT(f_unb, f_legacy);

    // A deadline the youngest request can only meet if it is NOT the
    // victim: past its unconstrained finish, before its evicted one.
    auto urgent = stream;
    urgent[2].deadline_s = f_unb + 0.9 * (f_legacy - f_unb);
    serve::Server aware(pipe, opts);
    aware.submit(urgent);
    const auto ra = aware.drain();

    // The finite-slack session is spared: an elder no-deadline peer
    // (never the protected oldest) is evicted instead, and the urgent
    // request completes in time where the legacy rule dropped it.
    EXPECT_GT(ra.fleet.preemptions, 0);
    EXPECT_EQ(ra.fleet.dropped, 0);
    EXPECT_FALSE(ra.outcomes[2].dropped);
    EXPECT_EQ(ra.outcomes[2].preemptions, 0);
    EXPECT_GT(ra.outcomes[1].preemptions, 0);
    EXPECT_LE(ra.outcomes[2].finish_s, urgent[2].deadline_s);
    ASSERT_EQ(ra.outcomes[2].result.emissions.size(), 1u);
    EXPECT_EQ(ra.outcomes[2].result.emissions[0].tokens,
              ru.outcomes[2].result.emissions[0].tokens);
}

TEST(Server, WatermarkDiscountsCachedPrefixBlocks)
{
    // The prefill-aware watermark charges every admission its FULL
    // prompt + decode KV. Blocks adopted from the prefix cache are
    // shared, not allocated — charging them again double-counts every
    // cache hit and starves admission under tight watermarks.
    const auto &pipe = testutil::tinyPipeline();
    serve::StreamOptions so;
    so.datasets = {"SUM"};
    so.n_requests = 3;
    so.gen_len = 4;
    so.prompt_len = 4096;
    so.prefix_reuse = 1.0; // one shared template across the stream
    so.seed = 0x3a7;
    auto stream = serve::synthesizeStream(so);
    // Request 0 seeds the cache; the two repeats arrive together
    // long after it retired.
    stream[1].arrival_s = stream[2].arrival_s = 10.0;

    auto opts = serverOpts(2, 4);
    opts.sched.preempt_mode = serve::PreemptMode::Swap;
    opts.sched.kv_budget_blocks = 400;
    // High-water mark (80 blocks) that fits one full prompt + one
    // discounted repeat, but not two prompts at full charge: the
    // template discounts 3 whole blocks per layer, comfortably more
    // than the cache's one-block-per-layer copy-on-write growth
    // reserve.
    opts.sched.kv_watermark = 0.2;

    serve::Server uncached(pipe, opts);
    uncached.submit(stream);
    const auto r_off = uncached.drain();
    // The first repeat bypasses the watermark (empty fleet); the
    // second is held back until it drains: the gate demonstrably
    // bites on this stream.
    ASSERT_GT(r_off.fleet.watermark_rejections, 0);
    EXPECT_EQ(r_off.fleet.dropped, 0);

    auto cached = opts;
    cached.sched.prefix_cache.enabled = true;
    cached.sched.prefix_cache.capacity_blocks = 200;
    serve::Server hit(pipe, cached);
    hit.submit(stream);
    const auto r_on = hit.drain();

    // Both repeats adopt the cached template, and the discounted
    // committed set now fits: no watermark rejections at all. (The
    // double-counting bug charged full blocks regardless and kept
    // every rejection of the uncached run.)
    EXPECT_GE(r_on.fleet.prefix_hits, 2);
    EXPECT_GT(r_on.fleet.cached_tokens, 0);
    EXPECT_EQ(r_on.fleet.watermark_rejections, 0);
    EXPECT_LT(r_on.fleet.watermark_rejections,
              r_off.fleet.watermark_rejections);
    EXPECT_EQ(r_on.fleet.tokens, r_off.fleet.tokens);
    EXPECT_EQ(r_on.fleet.dropped, 0);
}
