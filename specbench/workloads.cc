/**
 * @file
 * Workload definitions and the drain/check/metric plumbing both run
 * kinds share.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unistd.h>

#include "specbench.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace specbench {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Stream seed of sub-stream `k` of a benchmark seed. */
uint64_t
streamSeed(uint64_t seed, uint64_t k)
{
    return seed * 0x9e3779b97f4a7c15ull + k * 0xbf58476d1ce4e5b9ull + 1;
}

serve::ServerOptions
baseServer(const obs::TierSlo &slo)
{
    serve::ServerOptions o;
    o.engine = engines::EngineConfig::huggingFace().withSpecEE();
    o.spec = hw::HardwareSpec::a100();
    o.workers = 2;
    o.sched.max_batch = 8;
    o.sched.slo = slo;
    return o;
}

/**
 * Rescale a stream's Poisson arrivals so the last one lands at
 * n / rate: the arrival process conditioned on its expected span.
 * Without it the span of 100 arrivals varies by ~10% across seeds,
 * and every per-second modeled metric with it.
 */
std::vector<serve::Request>
fixSpan(std::vector<serve::Request> rs, double rate_rps)
{
    const double last = rs.empty() ? 0.0 : rs.back().arrival_s;
    if (last <= 0.0)
        return rs;
    const double scale = static_cast<double>(rs.size()) / rate_rps / last;
    for (auto &r : rs)
        r.arrival_s *= scale;
    return rs;
}

/**
 * Replace a stream's arrivals by a fixed schedule: request i arrives
 * at (i + u_i) / rate with u_i drawn from [0.4, 0.6). Used for the
 * long-prompt requests, whose prefill takes seconds: with Poisson
 * gaps, how many of them overlap each other (and so the tail TTFT
 * and the share of decode gaps stalled behind a prefill chunk) varies
 * too much from seed to seed for any metric bound.
 */
std::vector<serve::Request>
scheduleArrivals(std::vector<serve::Request> rs, double rate_rps,
                 uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = 0; i < rs.size(); ++i)
        rs[i].arrival_s =
            (static_cast<double>(i) + 0.4 + 0.2 * rng.uniform()) / rate_rps;
    return rs;
}

/**
 * Give exactly `count` requests of a fully shared stream private
 * prompts of the same length, chosen by a seeded shuffle. A fixed
 * count keeps the cache-miss share equal across seeds; a Bernoulli
 * draw per request moves tail TTFT between the hit and miss modes.
 */
void
unshare(std::vector<serve::Request> &rs, int count, int prompt_len,
        uint64_t seed)
{
    std::vector<size_t> idx(rs.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    Rng rng(seed);
    for (int k = 0; k < count && k < static_cast<int>(idx.size()); ++k) {
        const size_t j =
            static_cast<size_t>(k) +
            static_cast<size_t>(rng.next() % (idx.size() - k));
        std::swap(idx[static_cast<size_t>(k)], idx[j]);
        serve::Request &r = rs[idx[static_cast<size_t>(k)]];
        r.prompt = serve::PromptSpec{};
        r.prompt.suffix_len = prompt_len;
        r.prompt.suffix_seed = r.gen.seed;
    }
}

/** Long-generation dataset profiles (MT-Bench, SUM, HumanEval, Alpaca). */
const std::vector<std::string> kLongGen = {"MT-Bench", "SUM", "HumanEval",
                                           "Alpaca"};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "chat_decode", "shared_prefix", "tiered_pressure"};
    return names;
}

engines::PipelineOptions
pipelineOptions()
{
    // Lighter profiling than the paper-figure benches (6 x 36 tokens,
    // 20 epochs) so set-up can be repeated within one run.
    engines::PipelineOptions o;
    o.model = "llama2-7b";
    o.train_instances = 4;
    o.train_gen_len = 24;
    o.train_cfg.epochs = 10;
    o.seed = 42;
    return o;
}

Workload
makeWorkload(const std::string &name, uint64_t seed,
             const obs::TierSlo &slo)
{
    Workload w;
    w.name = name;
    w.server = baseServer(slo);
    if (name == "chat_decode") {
        // Short dataset-profile prompts, decode-dominated, no sharing,
        // unbounded KV, open-loop Poisson arrivals below saturation.
        serve::StreamOptions s;
        s.datasets = kLongGen;
        s.n_requests = 100;
        s.gen_len = 16;
        s.rate_rps = 6.0;
        s.seed = streamSeed(seed, 1);
        w.requests = fixSpan(serve::synthesizeStream(s), s.rate_rps);
    } else if (name == "shared_prefix") {
        // 4096-token prompts, 88 of 100 opening with one 3584-token
        // template; chunked prefill and the radix prefix cache on.
        // Arrivals are scheduled 12.5 s apart (jittered), more than a
        // cold 4096-token prefill takes.
        serve::StreamOptions s;
        s.datasets = kLongGen;
        s.n_requests = 100;
        s.gen_len = 12;
        s.prompt_len = 4096;
        s.template_prefix_len = 3584;
        s.prefix_reuse = 1.0;
        s.rate_rps = 0.08;
        s.seed = streamSeed(seed, 2);
        w.requests = scheduleArrivals(serve::synthesizeStream(s),
                                      s.rate_rps, streamSeed(seed, 6));
        unshare(w.requests, 12, s.prompt_len, streamSeed(seed, 5));
        w.server.sched.prefill.chunk_tokens = 256;
        w.server.sched.prefill.max_tokens_per_iteration = 256;
        w.server.sched.prefix_cache.enabled = true;
    } else if (name == "tiered_pressure") {
        // Interactive short-prompt chat (Poisson) beside batch-tier
        // 4096-token prompts (scheduled ~29 s apart, ~7 s of prefill
        // each), under a KV budget that a batch prompt plus one chat
        // request overflows: preemption (swap or recompute, chosen
        // per victim) and admission are active. Batch prefill stalls
        // about a quarter of the chat decode gaps, so the medians
        // fall in the unstalled mode and the tails in the stalled
        // one; batch is ~15% of requests, so p90 TTFT is a batch TTFT.
        serve::StreamOptions chat;
        chat.datasets = kLongGen;
        chat.n_requests = 300;
        chat.gen_len = 8;
        chat.rate_rps = 0.2;
        chat.priority = serve::Priority::Interactive;
        chat.seed = streamSeed(seed, 3);
        serve::StreamOptions batch;
        batch.datasets = kLongGen;
        batch.n_requests = 52;
        batch.gen_len = 4;
        batch.prompt_len = 4096;
        batch.rate_rps = 0.035;
        batch.priority = serve::Priority::Batch;
        batch.id_base = 1000;
        batch.seed = streamSeed(seed, 4);
        w.requests = serve::mergeStreams(
            fixSpan(serve::synthesizeStream(chat), chat.rate_rps),
            scheduleArrivals(serve::synthesizeStream(batch),
                             batch.rate_rps, streamSeed(seed, 7)));
        w.server.sched.prefill.chunk_tokens = 256;
        w.server.sched.prefill.max_tokens_per_iteration = 256;
        w.server.sched.kv_budget_blocks = 264;
        w.server.sched.preempt_mode = serve::PreemptMode::Auto;
    } else {
        specee_fatal("unknown workload: %s", name.c_str());
    }
    return w;
}

void
TokenRecorder::reset()
{
    events.clear();
    boundary_wall_s.clear();
    t0_ = nowSeconds();
    last_emit_s_ = -1.0;
}

bool
TokenRecorder::onToken(const serve::TokenEvent &ev)
{
    if (ev.emit_s != last_emit_s_) {
        boundary_wall_s.push_back(nowSeconds() - t0_);
        last_emit_s_ = ev.emit_s;
    }
    events.push_back(ev);
    return true;
}

void
attachRecorder(serve::ServerOptions &opts, TokenRecorder &rec)
{
    opts.on_token = [&rec](const serve::TokenEvent &ev) {
        return rec.onToken(ev);
    };
}

Drain
runDrain(serve::Server &server, TokenRecorder &rec,
         const std::vector<serve::Request> &requests)
{
    server.submit(requests);
    rec.reset();
    Drain d;
    const double cpu0 = processCpuSeconds();
    const double t0 = nowSeconds();
    d.report = server.drain();
    d.wall_s = nowSeconds() - t0;
    d.cpu_s = processCpuSeconds() - cpu0;
    d.events = std::move(rec.events);
    d.boundary_wall_s = std::move(rec.boundary_wall_s);
    return d;
}

std::vector<RequestInfo>
requestInfo(const engines::Pipeline &pipe, const Workload &w)
{
    std::vector<RequestInfo> info;
    info.reserve(w.requests.size());
    for (const auto &r : w.requests) {
        serve::Request one = r;
        one.gen.n_instances = 1;
        const auto wl = serve::buildPromptWorkload(
            pipe, one, w.server.engine.q4Calibrated());
        RequestInfo ri;
        ri.expected_tokens =
            static_cast<int>(wl.instances.at(0).steps.size());
        ri.prompt_tokens = wl.true_prompt_len;
        info.push_back(ri);
    }
    return info;
}

std::vector<std::vector<int>>
streamedTokens(const Workload &w, const Drain &d)
{
    std::map<uint64_t, size_t> slot;
    for (size_t i = 0; i < w.requests.size(); ++i)
        slot[w.requests[i].id] = i;
    std::vector<std::vector<int>> out(w.requests.size());
    for (const auto &ev : d.events) {
        auto it = slot.find(ev.request_id);
        if (it != slot.end())
            out[it->second].push_back(ev.token);
    }
    return out;
}

std::vector<uint64_t>
checkDrain(const Workload &w, const std::vector<RequestInfo> &info,
           const Drain &d, std::vector<std::string> &problems)
{
    std::vector<uint64_t> bad;
    const auto complain = [&](uint64_t id, const std::string &msg) {
        if (problems.size() < 20)
            problems.push_back("request " + std::to_string(id) + ": " +
                               msg);
        if (std::find(bad.begin(), bad.end(), id) == bad.end())
            bad.push_back(id);
    };

    std::map<uint64_t, size_t> slot;
    for (size_t i = 0; i < w.requests.size(); ++i)
        slot[w.requests[i].id] = i;

    // Exactly one outcome per request, each in exactly one terminal
    // state (completed, dropped or cancelled).
    std::vector<int> seen(w.requests.size(), 0);
    std::vector<const serve::RequestOutcome *> outcome(w.requests.size(),
                                                       nullptr);
    for (const auto &o : d.report.outcomes) {
        auto it = slot.find(o.request.id);
        if (it == slot.end()) {
            complain(o.request.id, "outcome for an unknown request");
            continue;
        }
        ++seen[it->second];
        outcome[it->second] = &o;
        if (o.dropped && o.cancelled)
            complain(o.request.id, "both dropped and cancelled");
    }
    for (size_t i = 0; i < w.requests.size(); ++i)
        if (seen[i] != 1)
            complain(w.requests[i].id,
                     std::to_string(seen[i]) + " outcomes, expected 1");

    // Streamed tokens: in index order without gaps, equal to the
    // emission of completed requests and of its full scripted length.
    std::vector<std::vector<const serve::TokenEvent *>> streamed(
        w.requests.size());
    for (const auto &ev : d.events) {
        auto it = slot.find(ev.request_id);
        if (it == slot.end()) {
            complain(ev.request_id, "token for an unknown request");
            continue;
        }
        streamed[it->second].push_back(&ev);
    }
    long delivered = 0;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const uint64_t id = w.requests[i].id;
        const auto &evs = streamed[i];
        delivered += static_cast<long>(evs.size());
        for (size_t k = 0; k < evs.size(); ++k)
            if (evs[k]->index != static_cast<int>(k)) {
                complain(id, "token index out of order");
                break;
            }
        const serve::RequestOutcome *o = outcome[i];
        if (o == nullptr)
            continue;
        if (o->dropped || o->cancelled) {
            complain(id, o->dropped ? "dropped" : "cancelled");
            continue;
        }
        const auto &em = o->result.emissions;
        if (em.size() != 1) {
            complain(id, "completed without exactly one emission");
            continue;
        }
        if (static_cast<int>(em[0].tokens.size()) !=
            info[i].expected_tokens)
            complain(id, "emitted " + std::to_string(em[0].tokens.size()) +
                             " tokens, scripted " +
                             std::to_string(info[i].expected_tokens));
        if (em[0].tokens.size() != evs.size()) {
            complain(id, "streamed " + std::to_string(evs.size()) +
                             " tokens, emitted " +
                             std::to_string(em[0].tokens.size()));
            continue;
        }
        for (size_t k = 0; k < evs.size(); ++k)
            if (evs[k]->token != em[0].tokens[k]) {
                complain(id, "streamed token differs from emission");
                break;
            }
    }
    if (delivered != d.report.fleet.tokens)
        problems.push_back("delivered " + std::to_string(delivered) +
                           " tokens, fleet counted " +
                           std::to_string(d.report.fleet.tokens));
    if (delivered != d.report.fleet.tokens && bad.empty())
        for (const auto &r : w.requests)
            bad.push_back(r.id);
    return bad;
}

namespace {

/** FNV-1a over raw bytes. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;

    template <typename T>
    void
    add(const T &v)
    {
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }
};

} // namespace

uint64_t
modeledSignature(const Drain &d)
{
    Fnv f;
    const auto &fl = d.report.fleet;
    for (long v : {fl.requests, fl.tokens, fl.iterations, fl.admissions,
                   fl.preemptions, fl.dropped, fl.cancelled, fl.rejected,
                   fl.peak_kv_blocks, fl.swaps_out, fl.swaps_in,
                   fl.prefix_hits, fl.cached_tokens, fl.cache_evictions,
                   fl.watermark_rejections, fl.prefill_chunks,
                   fl.prefill_tokens, fl.slo_evaluated, fl.slo_attained})
        f.add(v);
    for (double v : {fl.makespan_s, fl.energy_j, fl.mean_batch_occupancy,
                     fl.p50_ttft_s, fl.p99_ttft_s, fl.p50_itl_s,
                     fl.p99_itl_s, fl.goodput_under_slo})
        f.add(v);
    for (int c = 0; c < hw::kNumOpClasses; ++c) {
        const auto &t = fl.oplog.totals(static_cast<hw::OpClass>(c));
        f.add(t.time_s);
        f.add(t.energy_j);
        f.add(t.count);
    }
    for (const auto &o : d.report.outcomes) {
        f.add(o.request.id);
        for (double v : {o.admit_s, o.finish_s, o.ttft_s, o.max_itl_s,
                         o.prefill_s})
            f.add(v);
        for (int v : {o.preemptions, o.swaps, o.cached_tokens,
                      static_cast<int>(o.dropped),
                      static_cast<int>(o.cancelled),
                      static_cast<int>(o.slo.attained())})
            f.add(v);
        for (const auto &em : o.result.emissions) {
            for (int t : em.tokens)
                f.add(t);
            for (int l : em.exit_layers)
                f.add(l);
        }
    }
    for (const auto &ev : d.events) {
        f.add(ev.request_id);
        f.add(ev.token);
        f.add(ev.emit_s);
    }
    return f.h;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const size_t idx =
        static_cast<size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
    return v[idx];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
processCpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                      u.ru_stime.tv_usec);
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMb()
{
    // The process's own statm: pages in total, then resident pages.
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string
resultLine(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace specbench
