/**
 * @file
 * Serving benchmark entry point and the timed (untraced) run.
 *
 *   specbench --workload chat_decode --seed 1 --seconds 20 --trace 0 \
 *             --slo-ttft 0.05 --slo-itl 0.03 [--slo-batch-deadline 30]
 *
 * --trace 0 measures the end-to-end metrics: set-up is repeated three
 * times (median reported), then the workload's whole request stream
 * is drained repeatedly, after a short warm-up drain, until --seconds
 * of drain wall time are measured. Modeled metrics come from the first
 * timed drain, and every later drain must reproduce it exactly. Wall
 * throughput (medians over the timed drains) is printed to stderr.
 * --trace 1 runs the traced run (traced.cc). The last stdout line is
 * the JSON result; tables go to stderr.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "specbench.hh"
#include "util/logging.hh"
#include "workload/evaluator.hh"

namespace specbench {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Tokens of completed requests equal to the dense target, and total. */
std::pair<long, long>
tokenMatches(const engines::Pipeline &pipe, const Workload &w,
             const Drain &d)
{
    long match = 0, total = 0;
    for (const auto &o : d.report.outcomes) {
        if (o.dropped || o.cancelled || o.result.emissions.size() != 1)
            continue;
        serve::Request one = o.request;
        one.gen.n_instances = 1;
        const auto wl = serve::buildPromptWorkload(
            pipe, one, w.server.engine.q4Calibrated());
        const auto ev = workload::Evaluator::evaluate(
            wl, o.result.emissions, pipe.corpus());
        match += std::lround(ev.token_match_rate *
                             static_cast<double>(ev.tokens));
        total += ev.tokens;
    }
    return {match, total};
}

} // namespace

int
runTimed(const Args &args)
{
    const double t_start = nowSeconds();
    Workload w = makeWorkload(args.workload, args.seed, args.slo);
    TokenRecorder rec;
    attachRecorder(w.server, rec);

    // --- set-up, three times: pipeline build + server construction --
    std::vector<double> setup;
    std::unique_ptr<engines::Pipeline> pipe;
    std::unique_ptr<serve::Server> server;
    for (int k = 0; k < 3; ++k) {
        server.reset();
        pipe.reset();
        const double t0 = k == 0 ? t_start : nowSeconds();
        pipe = std::make_unique<engines::Pipeline>(pipelineOptions());
        server = std::make_unique<serve::Server>(*pipe, w.server);
        setup.push_back(nowSeconds() - t0);
    }
    const auto info = requestInfo(*pipe, w);

    // --- drains: a short warm-up drain of the stream's first requests
    // (not timed) lets allocator arenas, KV pool pages and caches fill;
    // timed drains of the whole stream follow until args.seconds of
    // drain wall time are measured. The first gives the modeled
    // metrics and every later one must reproduce it exactly.
    bool correct = true;
    std::vector<std::string> problems;
    {
        Workload warm = w;
        warm.requests.resize(std::min<size_t>(warm.requests.size(), 24));
        const Drain d = runDrain(*server, rec, warm.requests);
        if (!checkDrain(warm, requestInfo(*pipe, warm), d, problems).empty())
            correct = false;
    }
    std::vector<double> tok_per_wall, cpu;
    Drain first;
    std::vector<uint64_t> first_bad;
    uint64_t first_sig = 0;
    long attempted = 0, failed = 0;
    double measured = 0.0;
    for (int k = 0; k == 0 || measured < args.seconds; ++k) {
        Drain d = runDrain(*server, rec, w.requests);
        const auto bad = checkDrain(w, info, d, problems);
        attempted += static_cast<long>(w.requests.size());
        failed += static_cast<long>(bad.size()) + d.report.fleet.rejected;
        if (!bad.empty())
            correct = false;
        tok_per_wall.push_back(static_cast<double>(d.report.fleet.tokens) /
                               d.wall_s);
        cpu.push_back(d.cpu_s);
        measured += d.wall_s;
        std::fprintf(stderr, "[specbench] drain %d: %.3f s wall, %.3f s cpu\n",
                     k, d.wall_s, d.cpu_s);
        if (k == 0) {
            first_sig = modeledSignature(d);
            first_bad = bad;
            first = std::move(d);
        } else if (modeledSignature(d) != first_sig) {
            problems.push_back("drain " + std::to_string(k) +
                               " differs from drain 0 on the modeled "
                               "clock or in its tokens");
            correct = false;
        }
    }

    // --- modeled metrics from the first drain -----------------------
    const auto &fl = first.report.fleet;
    std::map<uint64_t, double> arrival;
    for (const auto &r : w.requests)
        arrival[r.id] = r.arrival_s;
    std::map<uint64_t, double> last_emit;
    std::vector<double> ttft, itl;
    for (const auto &ev : first.events) {
        auto it = last_emit.find(ev.request_id);
        if (it == last_emit.end()) {
            ttft.push_back(ev.emit_s - arrival[ev.request_id]);
            last_emit[ev.request_id] = ev.emit_s;
        } else {
            itl.push_back(ev.emit_s - it->second);
            it->second = ev.emit_s;
        }
    }
    long attained = 0;
    for (const auto &o : first.report.outcomes)
        if (!o.dropped && !o.cancelled && o.slo.attained() &&
            std::find(first_bad.begin(), first_bad.end(), o.request.id) ==
                first_bad.end())
            ++attained;
    const double sent = static_cast<double>(w.requests.size());
    const auto [match, total] = tokenMatches(*pipe, w, first);
    const double first_failed =
        static_cast<double>(first_bad.size() + fl.rejected);

    std::vector<Metric> m = {
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ttft_p50_s", percentile(ttft, 0.50), "s"},
        {"ttft_p90_s", percentile(ttft, 0.90), "s"},
        {"itl_p50_s", percentile(itl, 0.50), "s"},
        {"itl_p99_s", percentile(itl, 0.99), "s"},
        {"slo_attainment", static_cast<double>(attained) / sent, "ratio"},
        {"goodput_tok_s", fl.goodput_under_slo, "tok/s"},
        {"token_match_rate",
         total > 0 ? static_cast<double>(match) / static_cast<double>(total)
                   : 0.0,
         "ratio"},
        {"success_rate", (sent - first_failed) / sent, "ratio"},
    };

    std::fprintf(stderr,
                 "[specbench] %s seed=%llu: %zu requests, %ld tokens, "
                 "%zu timed drains (%.1f s wall), %zu set-ups\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 w.requests.size(), fl.tokens, tok_per_wall.size(),
                 measured, setup.size());
    const auto beyond = [](size_t n, double p) {
        return n - static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
    };
    std::fprintf(stderr,
                 "[specbench] samples: ttft n=%zu (p90 leaves %zu beyond), "
                 "itl n=%zu (p99 leaves %zu beyond); modeled clock, "
                 "open loop (arrivals are modeled, the generator is "
                 "never late)\n",
                 ttft.size(), beyond(ttft.size(), 0.9), itl.size(),
                 beyond(itl.size(), 0.99));
    for (const auto &x : m)
        std::fprintf(stderr, "  %-20s %14.6g %s\n", x.name.c_str(),
                     x.value, x.unit.c_str());
    // Wall throughput drifts with the host's load far beyond any bound
    // a gated metric may have, so it is printed here and reported by
    // the traced run, not gated.
    std::fprintf(stderr,
                 "  (not gated) sim_tok_per_wall_s %.6g tok/s, "
                 "drain_cpu_s %.6g s: medians over the timed drains\n",
                 median(tok_per_wall), median(cpu));
    for (const auto &p : problems)
        std::fprintf(stderr, "[specbench] CHECK FAILED: %s\n", p.c_str());

    std::printf("%s\n", resultLine(correct, attempted, failed, m).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: specbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--slo-ttft S] "
                 "[--slo-itl S] [--slo-batch-deadline S]\n");
    std::exit(2);
}

} // namespace

} // namespace specbench

int
main(int argc, char **argv)
{
    using namespace specbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            args.trace = v == "1";
        else if (a == "--trace-out")
            args.trace_out = v;
        else if (a == "--slo-ttft")
            args.slo.interactive.ttft_s = std::atof(v.c_str());
        else if (a == "--slo-itl")
            args.slo.interactive.itl_s = std::atof(v.c_str());
        else if (a == "--slo-batch-deadline")
            args.slo.batch.deadline_s = std::atof(v.c_str());
        else
            usage();
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end())
        usage();
    return args.trace ? runTraced(args) : runTimed(args);
}
