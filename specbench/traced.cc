/**
 * @file
 * Traced run: per-layer metrics, the solo-decode output check and the
 * determinism self-check.
 *
 * Every span is recorded here, around calls into the program's public
 * functions, so each per-layer number is measured from outside the
 * program. Spans (name, start, end, parent, request id) are kept in
 * memory and written as Chrome trace-event JSON when the run ends;
 * self time is span time minus the time of its children.
 *
 * Wall-clock layer metrics time public calls at the workload's own
 * shapes and context lengths. Bytes (tensor.gemv_gbs) are computed from
 * tensor sizes, not measured. Counts and modeled shares come from
 * FleetStats and per-request RunStats and repeat exactly for a seed.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "core/features.hh"
#include "engines/decode_session.hh"
#include "model/paged_kv.hh"
#include "model/target_model.hh"
#include "serve/prefix_cache.hh"
#include "serve/prompt_spec.hh"
#include "specbench.hh"
#include "tensor/kernels.hh"
#include "util/rng.hh"

namespace specbench {

namespace {

using Clock = std::chrono::steady_clock;

/** In-memory span recorder. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0; ///< seconds since the recorder started
        double end = -1.0;  ///< < 0 while open; == start for instants
        int parent = -1;
        int64_t request = -1;
    };

    double now() const
    {
        return std::chrono::duration<double>(Clock::now() - t0_).count();
    }

    void
    begin(const std::string &name, int64_t request = -1)
    {
        spans_.push_back({name, now(), -1.0,
                          stack_.empty() ? -1 : stack_.back(), request});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
    }

    /** Close the innermost span; returns its duration in seconds. */
    double
    end()
    {
        Span &s = spans_[static_cast<size_t>(stack_.back())];
        stack_.pop_back();
        s.end = now();
        return s.end - s.start;
    }

    void
    instant(const std::string &name, double at)
    {
        spans_.push_back(
            {name, at, at, stack_.empty() ? -1 : stack_.back(), -1});
    }

    /** Self seconds per span name: duration minus children's. */
    std::map<std::string, std::pair<double, long>>
    selfTimes() const
    {
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].end - spans_[i].start;
        for (const auto &s : spans_)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= s.end - s.start;
        std::map<std::string, std::pair<double, long>> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].end == spans_[i].start)
                continue; // instant
            out[spans_[i].name].first += self[i];
            ++out[spans_[i].name].second;
        }
        return out;
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream f(path);
        if (!f)
            return false;
        f << "{\"traceEvents\": [\n";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[320];
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, "
                "\"dur\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                "{\"id\": %zu, \"parent\": %d, \"request\": %lld}}",
                i ? ",\n" : "", s.name.c_str(),
                s.end == s.start ? "i" : "X", s.start * 1e6,
                (s.end - s.start) * 1e6, i, s.parent,
                static_cast<long long>(s.request));
            f << buf;
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

  private:
    Clock::time_point t0_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/**
 * Median over `reps` batches of `inner` calls of `fn`, in
 * nanoseconds per call, recorded as one span.
 */
template <typename Fn>
double
timeCalls(Spans &sp, const std::string &name, int reps, int inner, Fn fn)
{
    sp.begin(name);
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < inner; ++i)
            fn();
        per.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            inner);
    }
    sp.end();
    return median(per);
}

tensor::Matrix
randomMatrix(size_t rows, size_t cols, Rng &rng)
{
    tensor::Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(0.0, 0.05));
    return m;
}

tensor::Vec
randomVec(size_t n, Rng &rng)
{
    tensor::Vec v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

volatile float g_sink = 0.0f;

/** Kernel metrics at the model's sim shapes (tensor layer). */
void
tensorMetrics(Spans &sp, const model::ModelConfig &mc,
              std::vector<Metric> &out)
{
    Rng rng(7);
    const size_t h = static_cast<size_t>(mc.sim.hidden);
    const size_t f = static_cast<size_t>(mc.sim.ffn);
    const size_t v = static_cast<size_t>(mc.sim.vocab);
    struct Shape
    {
        std::string name;
        size_t rows, cols;
        int inner;
    };
    const std::vector<Shape> shapes = {
        {"192x192", h, h, 2000},
        {"516x192", f, h, 1000},
        {"192x516", h, f, 1000},
        {"lm_head", v, h, 100},
    };
    double bytes = 0.0, ns = 0.0;
    for (const auto &s : shapes) {
        const auto w = randomMatrix(s.rows, s.cols, rng);
        const auto x = randomVec(s.cols, rng);
        tensor::Vec y(s.rows);
        const double t =
            timeCalls(sp, "tensor.gemv." + s.name, 9, s.inner, [&] {
                tensor::gemv(w, x, y);
                g_sink = y[0];
            });
        out.push_back({"tensor.gemv_ns." + s.name, t, "ns"});
        bytes += static_cast<double>(w.byteSize() +
                                     (s.rows + s.cols) * sizeof(float));
        ns += t;
    }
    out.push_back({"tensor.gemv_gbs", bytes / ns, "GB/s"});
    const size_t hd = static_cast<size_t>(mc.sim.headDim());
    const auto a = randomVec(hd, rng), b = randomVec(hd, rng);
    out.push_back({"tensor.dot_ns",
                   timeCalls(sp, "tensor.dot", 9, 20000,
                             [&] { g_sink = tensor::dot(a, b); }),
                   "ns"});
}

/** Mean sim context (prompt rows + half the generation) of a stream. */
int
meanSimContext(const engines::Pipeline &pipe, const Workload &w)
{
    double sum = 0.0;
    for (const auto &r : w.requests) {
        serve::Request one = r;
        one.gen.n_instances = 1;
        const auto wl = serve::buildPromptWorkload(pipe, one, false);
        sum += static_cast<double>(wl.instances[0].prompt.size()) +
               0.5 * static_cast<double>(wl.instances[0].steps.size());
    }
    return std::max(1, static_cast<int>(std::lround(
                           sum / static_cast<double>(w.requests.size()))));
}

/** model and core layer metrics at the workload's context length. */
void
modelMetrics(Spans &sp, const engines::Pipeline &pipe, const Workload &w,
             std::vector<Metric> &out)
{
    const auto &mc = pipe.modelConfig();
    const int ctx = meanSimContext(pipe, w);
    model::TargetModelOptions to;
    to.noise_seed = mc.weight_seed ^ 0xa0153;
    sp.begin("model.target_build");
    model::TargetModel tm(mc, to);
    sp.end();

    // A scripted token sequence from the workload's first request.
    serve::Request one = w.requests.front();
    one.gen.n_instances = 1;
    const auto wl = serve::buildPromptWorkload(pipe, one, false);
    const auto &inst = wl.instances[0];
    std::vector<int> prompt;
    for (int i = 0; i < ctx; ++i)
        prompt.push_back(inst.prompt[static_cast<size_t>(i) %
                                     inst.prompt.size()]);

    // Prefill: microseconds per sim prompt token.
    std::vector<double> pre;
    sp.begin("model.prefill");
    for (int r = 0; r < 5; ++r) {
        tm.reset();
        const auto t0 = Clock::now();
        tm.prefill(prompt);
        pre.push_back(std::chrono::duration<double, std::micro>(
                          Clock::now() - t0)
                          .count() /
                      ctx);
    }
    sp.end();
    out.push_back({"model.prefill_us_per_tok", median(pre), "us"});

    // Decoder layers, sliced LM head, features and predictor at the
    // context length, over a few scripted tokens.
    core::FeatureExtractor fx(mc.num_spec_tokens);
    const auto &preds = pipe.predictors();
    std::vector<double> layer_us, head_us, feat_us, pred_us;
    tensor::Vec sliced(static_cast<size_t>(mc.num_spec_tokens));
    std::vector<int> spec;
    for (int k = 0; k < mc.num_spec_tokens; ++k)
        spec.push_back((inst.steps[0].target + 17 * k) % mc.sim.vocab);
    sp.begin("model.decode_tokens");
    int input = prompt.back();
    for (size_t t = 0; t < std::min<size_t>(8, inst.steps.size()); ++t) {
        tm.beginToken(input, inst.steps[t]);
        fx.beginToken(spec);
        while (!tm.doneAllLayers()) {
            const int l = tm.currentLayer();
            auto t0 = Clock::now();
            tm.runLayer();
            layer_us.push_back(std::chrono::duration<double, std::micro>(
                                   Clock::now() - t0)
                                   .count());
            if (l >= preds.nExitLayers())
                continue;
            t0 = Clock::now();
            tm.logitsSliced(spec, sliced);
            head_us.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - t0)
                                  .count());
            t0 = Clock::now();
            const auto feats = fx.extract(tm);
            feat_us.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - t0)
                                  .count());
            t0 = Clock::now();
            g_sink = preds.score(l, feats);
            pred_us.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - t0)
                                  .count());
        }
        input = tm.runRemainingLayers();
    }
    sp.end();
    out.push_back({"model.layer_forward_us", median(layer_us), "us"});
    out.push_back({"model.lm_head_sliced_us", median(head_us), "us"});
    out.push_back({"core.features_us", median(feat_us), "us"});
    out.push_back({"core.predictor_score_us", median(pred_us), "us"});

    // Paged KV: per-position reads over a workload-length context, and
    // a swap round trip per block.
    const int hidden = mc.sim.hidden;
    const int blocks_per_layer = (ctx + model::kKvBlockSize - 1) /
                                 model::kKvBlockSize;
    model::PagedKvCache pool(mc.n_layers, mc.n_layers * blocks_per_layer,
                             hidden);
    const int seq = pool.createSequence();
    Rng rng(11);
    const auto kv = randomVec(static_cast<size_t>(hidden), rng);
    for (int l = 0; l < mc.n_layers; ++l)
        for (int p = 0; p < ctx; ++p)
            pool.append(seq, l, kv, kv);
    const double read_ns =
        timeCalls(sp, "model.kv_read", 9, 5, [&] {
            float acc = 0.0f;
            for (int l = 0; l < mc.n_layers; ++l)
                for (int p = 0; p < ctx; ++p)
                    acc += pool.key(seq, l, p)[0] + pool.value(seq, l, p)[0];
            g_sink = acc;
        }) /
        (static_cast<double>(mc.n_layers) * ctx);
    out.push_back({"model.kv_read_ns_per_pos", read_ns, "ns"});
    const int blocks = pool.seqBlocks(seq);
    const double swap_ns = timeCalls(sp, "model.kv_swap", 9, 5, [&] {
        pool.swapOut(seq);
        pool.swapIn(seq);
    });
    out.push_back({"model.kv_swap_us_per_block", swap_ns * 1e-3 / blocks,
                   "us"});
}

/** PrefixCache::match over the workload's shared prompts (0 if off). */
double
prefixMatchUs(Spans &sp, const engines::Pipeline &pipe, const Workload &w)
{
    if (!w.server.sched.prefix_cache.enabled)
        return 0.0;
    std::vector<std::vector<int>> prompts;
    for (const auto &r : w.requests)
        if (r.prompt.shared())
            prompts.push_back(serve::resolvePromptTokens(r.prompt));
    if (prompts.size() < 2)
        return 0.0;
    const auto &mc = pipe.modelConfig();
    const int rows = serve::simRowsForSpan(
        static_cast<int>(prompts.front().size()));
    auto pool = std::make_shared<model::PagedKvCache>(
        mc.n_layers,
        mc.n_layers * (rows / model::kKvBlockSize + 2), mc.sim.hidden);
    const int seq = pool->createSequence();
    const tensor::Vec kv(static_cast<size_t>(mc.sim.hidden), 0.5f);
    for (int l = 0; l < mc.n_layers; ++l)
        for (int p = 0; p < rows; ++p)
            pool->append(seq, l, kv, kv);
    serve::PrefixCache cache(mc.n_layers, {pool});
    cache.insert(prompts.front(), 0, seq, 1);
    size_t next = 1;
    uint64_t stamp = 2;
    return timeCalls(sp, "serve.prefix_match", 9, 50, [&] {
               const auto m = cache.match(prompts[next], 0, stamp++);
               g_sink = static_cast<float>(m.true_matched);
               next = next + 1 < prompts.size() ? next + 1 : 1;
           }) *
           1e-3;
}

double
share(const hw::OpLog &log, std::initializer_list<hw::OpClass> classes)
{
    const double all = log.grand().time_s;
    double part = 0.0;
    for (auto c : classes)
        part += log.totals(c).time_s;
    return all > 0.0 ? part / all : 0.0;
}

} // namespace

int
runTraced(const Args &args)
{
    Spans sp;
    std::vector<Metric> m;
    std::vector<std::string> problems;
    bool correct = true;
    long attempted = 0, failed = 0;

    Workload w = makeWorkload(args.workload, args.seed, args.slo);
    TokenRecorder rec;
    attachRecorder(w.server, rec);

    // --- set-up: pipeline, one engine, the server -------------------
    sp.begin("setup");
    sp.begin("engines.pipeline_build");
    auto pipe = std::make_unique<engines::Pipeline>(pipelineOptions());
    m.push_back({"engines.pipeline_build_s", sp.end(), "s"});
    const double rss0 = currentRssMb();
    sp.begin("engines.engine_build");
    auto solo = pipe->makeEngine(w.server.engine, w.server.spec);
    m.push_back({"engines.engine_build_s", sp.end(), "s"});
    m.push_back({"engines.engine_rss_mb", currentRssMb() - rss0, "MB"});
    sp.begin("serve.server_build");
    auto server = std::make_unique<serve::Server>(*pipe, w.server);
    m.push_back({"serve.server_build_s", sp.end(), "s"});
    sp.end();
    const auto info = requestInfo(*pipe, w);

    // --- drains: served (2 workers), traced, repeat, 1 worker --------
    const auto drain = [&](serve::Server &srv, const std::string &name) {
        sp.begin(name);
        const double start = sp.now();
        Drain d = runDrain(srv, rec, w.requests);
        for (double t : d.boundary_wall_s)
            sp.instant("serve.iteration", start + t);
        sp.end();
        const auto bad = checkDrain(w, info, d, problems);
        attempted += static_cast<long>(w.requests.size());
        failed += static_cast<long>(bad.size()) + d.report.fleet.rejected;
        correct = correct && bad.empty();
        return d;
    };
    const Drain served = drain(*server, "serve.drain");
    const uint64_t sig = modeledSignature(served);

    serve::ServerOptions traced_opts = w.server;
    traced_opts.trace_path =
        args.trace_out.empty() ? "" : args.trace_out + ".fleet.json";
    double traced_wall = 0.0;
    if (!traced_opts.trace_path.empty()) {
        serve::Server traced(*pipe, traced_opts);
        const Drain d = drain(traced, "serve.drain_fleet_trace");
        traced_wall = d.wall_s;
        if (modeledSignature(d) != sig)
            problems.push_back("fleet tracing changed the modeled run");
    }
    const Drain repeat = drain(*server, "serve.drain_repeat");
    if (modeledSignature(repeat) != sig)
        problems.push_back("a repeated drain differs from the first");
    serve::ServerOptions one_opts = w.server;
    one_opts.workers = 1;
    Drain single;
    {
        serve::Server one(*pipe, one_opts);
        single = drain(one, "serve.drain_1worker");
    }
    if (modeledSignature(single) != sig)
        problems.push_back("1 worker differs from 2 workers");

    // --- solo decodes: runOne check and the session replay ----------
    const auto served_tokens = streamedTokens(w, served);
    std::vector<double> step_us, chunk_us;
    double session_s = 0.0;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const auto &r = w.requests[i];
        serve::Request req = r;
        req.gen.n_instances = 1;
        const auto wl = serve::buildPromptWorkload(
            *pipe, req, w.server.engine.q4Calibrated());
        sp.begin("engines.run_one", static_cast<int64_t>(r.id));
        const auto ref = solo->runOne(wl, 0, r.seed);
        sp.end();
        const auto &want = ref.emissions.at(0).tokens;
        if (served_tokens[i] != want) {
            problems.push_back("request " + std::to_string(r.id) +
                               ": served tokens differ from a solo "
                               "Engine::runOne decode");
            ++failed;
            correct = false;
        }

        sp.begin("engines.session", static_cast<int64_t>(r.id));
        const double s0 = sp.now();
        sp.begin("engines.make_session", static_cast<int64_t>(r.id));
        auto sess = solo->makeSession(wl, r.seed);
        sp.end();
        while (!sess->prefillDone()) {
            sp.begin("engines.prefill_chunk", static_cast<int64_t>(r.id));
            sess->prefillChunk(256);
            chunk_us.push_back(sp.end() * 1e6);
        }
        while (!sess->finished()) {
            sp.begin("engines.step", static_cast<int64_t>(r.id));
            sess->step();
            step_us.push_back(sp.end() * 1e6);
        }
        session_s += sp.now() - s0;
        sp.end();
        if (sess->emission().tokens != want) {
            problems.push_back("request " + std::to_string(r.id) +
                               ": session replay differs from runOne");
            correct = false;
        }
    }
    attempted += static_cast<long>(w.requests.size());

    // --- per-module call timings at the workload's shapes -----------
    sp.begin("layers");
    tensorMetrics(sp, pipe->modelConfig(), m);
    modelMetrics(sp, *pipe, w, m);
    const double match_us = prefixMatchUs(sp, *pipe, w);
    sp.end();

    // --- engines: timings and modeled counts ------------------------
    m.push_back({"engines.step_us_p50", percentile(step_us, 0.5), "us"});
    m.push_back({"engines.step_us_p90", percentile(step_us, 0.9), "us"});
    m.push_back({"engines.prefill_chunk_us", median(chunk_us), "us"});
    const auto &fl = served.report.fleet;
    double layers = 0.0;
    long tokens = 0, calls = 0, exits = 0;
    for (const auto &o : served.report.outcomes) {
        for (const auto &em : o.result.emissions)
            for (int l : em.exit_layers)
                layers += l;
        tokens += o.result.stats.tokens;
        calls += o.result.stats.predictor_invocations;
        exits += o.result.stats.exits;
    }
    const double tok = std::max(1.0, static_cast<double>(tokens));
    m.push_back({"engines.forward_layers_per_token", layers / tok,
                 "layers"});
    m.push_back({"engines.predictor_calls_per_token", calls / tok,
                 "calls"});
    m.push_back({"engines.exit_rate", exits / tok, "ratio"});

    // --- hw: modeled share of each op class -------------------------
    using hw::OpClass;
    const auto &log = fl.oplog;
    m.push_back({"hw.share.decoder_layer",
                 share(log, {OpClass::DecoderLayer}), "ratio"});
    m.push_back({"hw.share.kv_read", share(log, {OpClass::KvRead}),
                 "ratio"});
    m.push_back({"hw.share.lm_head_sliced",
                 share(log, {OpClass::LmHeadSliced}), "ratio"});
    m.push_back({"hw.share.predictor", share(log, {OpClass::Predictor}),
                 "ratio"});
    m.push_back({"hw.share.prefill",
                 share(log, {OpClass::PrefillWeights,
                             OpClass::PrefillCompute}),
                 "ratio"});
    m.push_back({"hw.share.kv_swap",
                 share(log, {OpClass::KvSwapOut, OpClass::KvSwapIn}),
                 "ratio"});

    // --- serve: iterations, wall gaps, scaling, cache, pressure -----
    std::vector<double> gaps;
    for (size_t i = 1; i < served.boundary_wall_s.size(); ++i)
        gaps.push_back((served.boundary_wall_s[i] -
                        served.boundary_wall_s[i - 1]) *
                       1e6);
    m.push_back({"serve.drain_tok_per_wall_s",
                 static_cast<double>(repeat.report.fleet.tokens) /
                     repeat.wall_s,
                 "tok/s"});
    m.push_back({"serve.drain_cpu_s", repeat.cpu_s, "s"});
    m.push_back({"serve.iterations", static_cast<double>(fl.iterations),
                 "count"});
    m.push_back({"serve.iter_wall_us_p50", percentile(gaps, 0.5), "us"});
    m.push_back({"serve.iter_wall_us_p90", percentile(gaps, 0.9), "us"});
    m.push_back({"serve.outside_session_share",
                 1.0 - session_s / single.wall_s, "ratio"});
    m.push_back({"serve.worker_scaling", single.wall_s / repeat.wall_s,
                 "ratio"});
    m.push_back({"serve.batch_occupancy", fl.mean_batch_occupancy,
                 "slots"});
    std::vector<double> queue;
    double cached = 0.0, prompt = 0.0;
    for (const auto &o : served.report.outcomes) {
        queue.push_back(o.queue_s);
        cached += o.cached_tokens;
    }
    for (const auto &ri : info)
        prompt += ri.prompt_tokens;
    // Prompt tokens prefilled beyond one ingestion of each uncached span.
    const double fresh_prompt = prompt - cached;
    m.push_back({"serve.queue_wait_p50_s", median(queue), "s"});
    m.push_back({"serve.prefix_hit_rate",
                 fl.admissions > 0 ? static_cast<double>(fl.prefix_hits) /
                                         static_cast<double>(fl.admissions)
                                   : 0.0,
                 "ratio"});
    m.push_back({"serve.cached_token_share",
                 prompt > 0.0 ? cached / prompt : 0.0, "ratio"});
    m.push_back({"serve.prefix_match_us", match_us, "us"});
    m.push_back({"serve.preemptions", static_cast<double>(fl.preemptions),
                 "count"});
    m.push_back({"serve.swaps", static_cast<double>(fl.swaps_out),
                 "count"});
    m.push_back({"serve.recompute_tokens",
                 fl.prefill_tokens > 0
                     ? std::max(0.0, static_cast<double>(fl.prefill_tokens) -
                                         fresh_prompt)
                     : 0.0,
                 "tokens"});
    m.push_back({"serve.watermark_rejections",
                 static_cast<double>(fl.watermark_rejections), "count"});

    // --- obs: fleet-trace overhead ----------------------------------
    m.push_back({"obs.trace_overhead",
                 traced_wall > 0.0 ? traced_wall / repeat.wall_s : 0.0,
                 "ratio"});

    // --- report -------------------------------------------------------
    if (!problems.empty())
        correct = false;
    std::fprintf(stderr,
                 "[specbench] traced %s seed=%llu: %zu requests; "
                 "determinism (repeat, 1 vs 2 workers, fleet trace): %s; "
                 "tensor.gemv_gbs is computed from tensor sizes, not "
                 "measured\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 w.requests.size(), correct ? "identical" : "MISMATCH");
    for (const auto &x : m)
        std::fprintf(stderr, "  %-34s %14.6g %s\n", x.name.c_str(),
                     x.value, x.unit.c_str());
    std::fprintf(stderr, "[specbench] self time by span (s, count):\n");
    for (const auto &[name, st] : sp.selfTimes())
        std::fprintf(stderr, "  %-34s %10.4f %8ld\n", name.c_str(),
                     st.first, st.second);
    for (const auto &p : problems)
        std::fprintf(stderr, "[specbench] CHECK FAILED: %s\n", p.c_str());
    if (!args.trace_out.empty() && !sp.write(args.trace_out))
        std::fprintf(stderr, "[specbench] could not write %s\n",
                     args.trace_out.c_str());

    std::printf("%s\n", resultLine(correct, attempted, failed, m).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace specbench
