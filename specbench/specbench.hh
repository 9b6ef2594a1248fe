/**
 * @file
 * Shared declarations of the serving benchmark: the three named
 * workloads, one observed drain, the output checks, and the JSON
 * result line.
 *
 * The harness drives only the public API (engines::Pipeline,
 * serve::Server::submit/drain, and the per-module calls the traced
 * run times). It generates every request stream itself from the
 * benchmark seed; the program under test receives only the Request
 * vectors passed to Server::submit.
 */

#ifndef SPECBENCH_SPECBENCH_HH
#define SPECBENCH_SPECBENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "engines/pipeline.hh"
#include "serve/server.hh"

namespace specbench {

using namespace specee;

/** Command-line arguments shared by both run kinds. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 15.0;
    bool trace = false;
    std::string trace_out; ///< span file of the traced run ("" = none)

    /** Per-workload SLO limits (modeled seconds; <= 0 = none). */
    obs::TierSlo slo;
};

/** One named workload: its request stream and server options. */
struct Workload
{
    std::string name;
    std::vector<serve::Request> requests;
    serve::ServerOptions server;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Pipeline options every workload builds with (llama2-7b-sim). */
engines::PipelineOptions pipelineOptions();

/**
 * Build a workload's stream from the seed. Fatal on an unknown name.
 * `on_token` is left unset; the caller installs its recorder.
 */
Workload makeWorkload(const std::string &name, uint64_t seed,
                      const obs::TierSlo &slo);

/**
 * Tokens streamed by one drain, recorded by the Server's on_token
 * callback. The callback object lives as long as its Server, so it
 * is installed once and reset before each drain.
 */
struct TokenRecorder
{
    std::vector<serve::TokenEvent> events;
    /** Wall seconds (since reset) of each new iteration boundary. */
    std::vector<double> boundary_wall_s;

    void reset();
    bool onToken(const serve::TokenEvent &ev);

  private:
    double t0_ = 0.0;
    double last_emit_s_ = -1.0;
};

/** Install `rec` as the server options' streaming callback. */
void attachRecorder(serve::ServerOptions &opts, TokenRecorder &rec);

/** One observed drain. */
struct Drain
{
    serve::ServeReport report;
    std::vector<serve::TokenEvent> events;
    std::vector<double> boundary_wall_s;
    double wall_s = 0.0;
    double cpu_s = 0.0;
};

/** Submit `requests`, drain, and time the drain (wall and CPU). */
Drain runDrain(serve::Server &server, TokenRecorder &rec,
               const std::vector<serve::Request> &requests);

/** Per-request facts the checks and metrics need. */
struct RequestInfo
{
    int expected_tokens = 0; ///< scripted generation length
    int prompt_tokens = 0;   ///< true-dims prompt length
};

/** Scripted lengths of every request (built from the pipeline). */
std::vector<RequestInfo> requestInfo(const engines::Pipeline &pipe,
                                     const Workload &w);

/**
 * Output checks run on every drain: each request reaches exactly one
 * terminal state, streamed tokens equal the emission (in order, no
 * gaps), and delivered tokens sum to FleetStats::tokens. Returns the
 * ids of requests whose output is wrong; `problems` collects
 * messages for stderr.
 */
std::vector<uint64_t> checkDrain(const Workload &w,
                                 const std::vector<RequestInfo> &info,
                                 const Drain &d,
                                 std::vector<std::string> &problems);

/** Tokens each request was streamed, in order, keyed by request id. */
std::vector<std::vector<int>> streamedTokens(const Workload &w,
                                             const Drain &d);

/**
 * Hash of everything the modeled clock and the functional path
 * produce: per-request timelines, tokens, verdicts, and the fleet
 * counters. Equal for equal streams whatever the worker count.
 */
uint64_t modeledSignature(const Drain &d);

/** Nearest-rank percentile (p in [0, 1]) of an unsorted sample. */
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/** Process CPU seconds (user + system), peak and current RSS in MiB. */
double processCpuSeconds();
double peakRssMb();
double currentRssMb();

/** A named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The result line: the last line the harness prints to stdout. */
std::string resultLine(bool correct, long attempted, long failed,
                       const std::vector<Metric> &metrics);

/** Timed run: the end-to-end metrics (tracing off). */
int runTimed(const Args &args);

/** Traced run: per-layer metrics and the determinism self-check. */
int runTraced(const Args &args);

} // namespace specbench

#endif // SPECBENCH_SPECBENCH_HH
