/**
 * @file
 * Serving-layer benchmark: offered-load sweep of the live
 * continuous-batching server vs. sequential one-request-at-a-time
 * serving for the HuggingFace dense baseline, HF+SpecEE, and
 * AdaInfer on one A100 node, now with streaming latency (TTFT and
 * inter-token latency) from the iteration-level scheduler. Extends
 * Fig. 14's cloud scenario to real serving load: continuous batching
 * amortizes weight reads across the decode batch, and SpecEE's early
 * exits compound with it (shorter forwards shrink the shared read
 * the whole batch waits on).
 *
 * A second sweep squeezes the fleet KV budget until the scheduler
 * preempts (evict-KV, re-enqueue, recompute), showing how throughput
 * and tail latency degrade under memory pressure — the regime
 * long-generation workloads (SpecExit, arXiv:2509.24248) live in.
 *
 * A fourth sweep pits the two preemption mechanisms against each
 * other on a long-sequence stream under a tight KV budget:
 * recompute-only eviction re-ingests every evicted prompt's chunks
 * (wasted priced work that balloons tail TTFT), swap-to-host moves
 * the KV over the host link and resumes where it left off, and auto
 * picks per victim from the modeled costs. The prefill-aware
 * admission watermark rides along on a fifth point, bounding the
 * thrash at its source.
 *
 * A fifth sweep measures the radix prefix cache on a shared-template
 * stream (chat traffic where most prompts start with the same system
 * prompt / few-shot header): with chunked prefill pricing on, a
 * cache hit adopts the template's KV blocks at admission and only
 * ingests its private suffix, so TTFT collapses toward the suffix's
 * chunk time. The sweep varies the fraction of requests sharing the
 * template and pins the cache-off baseline on the same stream.
 *
 * A third sweep exercises the chunked-prefill subsystem on a mixed
 * long-prompt (batch tier) + short-prompt (interactive tier) stream:
 * prompt ingestion is priced and split into token-budgeted chunks
 * that share iterations with decode. Small chunks keep decode ITL
 * flat and let short interactive requests land their first token
 * fast; one monolithic chunk (the unchunked-but-priced baseline)
 * stalls every peer for the whole prompt. The sweep quantifies the
 * TTFT-vs-ITL tradeoff the chunk size buys.
 *
 * A sixth sweep shards the fleet: the engine's step is priced as a
 * DAG of layer-range stages (pipeline parallelism assigns contiguous
 * layer ranges to stages with activation handoffs over the
 * interconnect; tensor parallelism splits each stage's weight stream
 * and pays a per-layer all-reduce). Early exit at layer k releases
 * the stages past k, and the scheduler backfills queued prefill
 * chunks into the stages the previous iteration left idle. The sweep
 * compares backfill on/off per sharding and gates on the pipeline
 * utilization win; a deployment-arithmetic point shows the 70B-class
 * model that overflows one device fitting a tp2 x pp2 fleet.
 *
 * A seventh sweep disaggregates the fleet: a unified two-device
 * fleet (every device decodes and chunk-ingests) against a
 * 1-prefill + 1-decode split at matched hardware — same device
 * count, same interconnect. Prefill workers ingest prompts on their
 * own timelines and stream finished KV to the decode side over the
 * priced peer link, overlapped with the decode batch via per-device
 * DMA channels, so decode iterations never share a boundary with a
 * prompt chunk and interactive ITL flattens to pure decode time.
 *
 * An eighth sweep de-degenerates the preempt-mode comparison: a
 * mixed short/long-prompt stream under pressure hands the auto
 * policy victims whose modeled swap and recompute costs straddle the
 * break-even, so it provably mixes both mechanisms (diverging from
 * either pure mode) instead of collapsing onto swap.
 *
 * Every sweep point is also written to BENCH_serving.json so the
 * serving perf trajectory is tracked machine-readably across PRs.
 *
 *   $ ./bench_serving [model]     (default llama2-7b)
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "bench_common.hh"
#include "hw/memory_tracker.hh"
#include "model/stage_graph.hh"
#include "serve/server.hh"

using namespace specee;
using namespace specee::benchutil;
using engines::EngineConfig;

namespace {

/** One machine-readable sweep point (flat key/value JSON object). */
struct JsonPoint
{
    std::string sweep;
    std::vector<std::pair<std::string, std::string>> kv;

    JsonPoint &str(const std::string &k, const std::string &v)
    {
        kv.emplace_back(k, "\"" + v + "\"");
        return *this;
    }
    JsonPoint &num(const std::string &k, double v, int digits = 6)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        kv.emplace_back(k, buf);
        return *this;
    }
    JsonPoint &integer(const std::string &k, long v)
    {
        kv.emplace_back(k, std::to_string(v));
        return *this;
    }
};

void
writeJson(const std::string &path, const std::string &model,
          const std::string &platform,
          const std::vector<JsonPoint> &points)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"model\": \"%s\",\n  \"platform\": \"%s\",\n",
                 model.c_str(), platform.c_str());
    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < points.size(); ++i) {
        std::fprintf(f, "    {\"sweep\": \"%s\"",
                     points[i].sweep.c_str());
        for (const auto &[k, v] : points[i].kv)
            std::fprintf(f, ", \"%s\": %s", k.c_str(), v.c_str());
        std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    // Drain buffered stdout first so the progress line cannot land
    // inside a table when both streams go to one log.
    std::fflush(stdout);
    std::fprintf(stderr, "[bench] wrote %s (%zu points)\n", path.c_str(),
                 points.size());
}

/**
 * Fleet latency fields shared by every sweep's JSON point, plus the
 * launch seconds the batch merge removed — the pricing term behind
 * the batched ITL.
 */
void
latencyFields(JsonPoint &p, const serve::FleetStats &f)
{
    p.num("tok_s", f.tokens_per_s, 5)
        .num("p50_ttft_s", f.p50_ttft_s, 5)
        .num("p99_ttft_s", f.p99_ttft_s, 5)
        .num("p50_itl_s", f.p50_itl_s, 5)
        .num("p99_itl_s", f.p99_itl_s, 5)
        .num("p99_latency_s", f.p99_latency_s, 5)
        .num("launch_merged_s", f.launch_merged_s, 5);
}

double
p50TtftOf(const serve::ServeReport &rep, serve::Priority tier)
{
    std::vector<double> v;
    for (const auto &o : rep.outcomes)
        if (o.request.priority == tier && !o.dropped && !o.cancelled)
            v.push_back(o.ttft_s);
    return metrics::percentile(v, 50.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string model = argc > 1 ? argv[1] : "llama2-7b";
    auto &pipe = pipeline(model);
    const auto spec = hw::HardwareSpec::a100();
    std::vector<JsonPoint> json;

    struct Entry
    {
        const char *label;
        EngineConfig cfg;
    };
    const Entry entries[] = {
        {"HF dense", EngineConfig::huggingFace()},
        {"HF+SpecEE", EngineConfig::huggingFace().withSpecEE()},
        {"AdaInfer", EngineConfig::adaInfer()},
    };
    const double loads_rps[] = {2.0, 8.0, 32.0};

    metrics::Table t("Serving sweep: " + model + " @ " + spec.name +
                     " (10 requests, chat/sum/QA mix)");
    t.header({"engine", "load (rps)", "seq tok/s", "batch tok/s",
              "speedup", "batch occ", "p50 TTFT (s)", "ITL (ms)",
              "p99 lat (s)"});

    double specee_batch_tps = 0.0, specee_seq_tps = 0.0;
    for (const auto &e : entries) {
        for (double rps : loads_rps) {
            serve::StreamOptions so;
            so.n_requests = 10;
            so.gen_len = 16;
            so.rate_rps = rps;
            so.seed = 0xca11 + static_cast<uint64_t>(rps * 10);
            auto stream = serve::synthesizeStream(so);

            serve::ServerOptions sopts;
            sopts.engine = e.cfg;
            sopts.spec = spec;
            sopts.workers = 2;

            sopts.sched.max_batch = 1;
            serve::Server seq(pipe, sopts);
            seq.submit(stream);
            auto rs = seq.drain();

            sopts.sched.max_batch = 8;
            serve::Server batched(pipe, sopts);
            batched.submit(stream);
            auto rb = batched.drain();

            if (std::string(e.label) == "HF+SpecEE") {
                specee_batch_tps += rb.fleet.tokens_per_s;
                specee_seq_tps += rs.fleet.tokens_per_s;
            }
            t.row({e.label, metrics::Table::num(rps, 0),
                   metrics::Table::num(rs.fleet.tokens_per_s, 1),
                   metrics::Table::num(rb.fleet.tokens_per_s, 1),
                   mult(rb.fleet.tokens_per_s / rs.fleet.tokens_per_s),
                   metrics::Table::num(rb.fleet.mean_batch_occupancy, 1),
                   metrics::Table::num(rb.fleet.p50_ttft_s, 2),
                   metrics::Table::num(rb.fleet.mean_itl_s * 1e3, 1),
                   metrics::Table::num(rb.fleet.p99_latency_s, 2)});

            JsonPoint p;
            p.sweep = "offered_load";
            p.str("engine", e.label).num("rate_rps", rps, 4);
            p.num("seq_tok_s", rs.fleet.tokens_per_s, 5);
            latencyFields(p, rb.fleet);
            json.push_back(std::move(p));
        }
    }
    t.print();

    // --- KV-pressure sweep: pool sized to force preemption ---------
    const auto &mcfg = pipe.modelConfig();
    const int gen_len = 16;
    const int per_seq_blocks =
        mcfg.n_layers * ((workload::kSimPromptLen + gen_len +
                          model::kKvBlockSize - 1) /
                         model::kKvBlockSize);
    const int budgets[] = {0, 4 * per_seq_blocks,
                           5 * per_seq_blocks / 2};

    metrics::Table kt("KV-pressure sweep: HF+SpecEE, max_batch 8, 12 "
                      "requests (budget in paged-KV blocks)");
    kt.header({"KV budget", "tok/s", "preempt", "peak blocks",
               "p50 TTFT (s)", "p99 lat (s)", "fleet mem (GiB)"});

    double unbounded_ttft = 0.0, pressed_ttft = 0.0;
    for (int budget : budgets) {
        serve::StreamOptions so;
        so.n_requests = 12;
        so.gen_len = gen_len;
        so.rate_rps = 0.0; // closed-loop burst: worst KV pressure
        so.seed = 0x6e0;
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.kv_budget_blocks = budget;
        serve::Server server(pipe, sopts);
        server.submit(serve::synthesizeStream(so));
        auto rep = server.drain();

        if (budget == 0)
            unbounded_ttft = rep.fleet.p50_ttft_s;
        else
            pressed_ttft = rep.fleet.p50_ttft_s;
        kt.row({budget == 0 ? std::string("unbounded")
                            : std::to_string(budget),
                metrics::Table::num(rep.fleet.tokens_per_s, 1),
                std::to_string(rep.fleet.preemptions),
                std::to_string(rep.fleet.peak_kv_blocks),
                metrics::Table::num(rep.fleet.p50_ttft_s, 2),
                metrics::Table::num(rep.fleet.p99_latency_s, 2),
                metrics::Table::num(rep.fleet.peak_fleet_mem_gb, 1)});

        JsonPoint p;
        p.sweep = "kv_pressure";
        p.integer("budget_blocks", budget)
            .integer("preemptions", rep.fleet.preemptions)
            .integer("peak_kv_blocks", rep.fleet.peak_kv_blocks);
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }
    kt.print();
    std::printf("\nPreemption trades recompute time for a bounded KV "
                "pool; queued requests see\nlater first tokens as the "
                "budget tightens (p50 TTFT %s -> %s s).\n",
                metrics::Table::num(unbounded_ttft, 2).c_str(),
                metrics::Table::num(pressed_ttft, 2).c_str());

    // --- chunked-prefill sweep: mixed long-batch + interactive -----
    // 6 long-prompt batch-tier requests (4096 tokens) and 6 short
    // interactive requests share the fleet; prompt ingestion is
    // priced, chunked, and interleaved with decode under a token
    // budget. chunk = 0 is the legacy free/atomic prefill; the
    // monolithic point prices the prompt as one chunk (Sarathi's
    // no-chunking baseline).
    struct ChunkPoint
    {
        const char *label;
        int chunk_tokens;
        int iter_budget;
    };
    const ChunkPoint chunk_points[] = {
        {"free (legacy)", 0, 0},
        {"monolithic", 1 << 20, 0},
        {"1024", 1024, 2048},
        {"256", 256, 512},
        {"64", 64, 128},
    };

    metrics::Table ct("Chunked-prefill sweep: HF+SpecEE, 6x4096-token "
                      "batch prompts + 6 interactive, max_batch 8");
    ct.header({"chunk", "tok/s", "inter p50 TTFT (s)",
               "batch p50 TTFT (s)", "p99 ITL (ms)", "prefill chunks",
               "mean prefill (s)"});

    serve::StreamOptions inter;
    inter.n_requests = 6;
    inter.gen_len = 16;
    inter.rate_rps = 12.0;
    inter.seed = 0x1a7e;
    serve::StreamOptions batch;
    batch.n_requests = 6;
    batch.gen_len = 16;
    batch.rate_rps = 12.0;
    batch.prompt_len = 4096;
    batch.priority = serve::Priority::Batch;
    batch.id_base = 100;
    batch.seed = 0xb16;
    const auto mixed = serve::mergeStreams(
        serve::synthesizeStream(inter), serve::synthesizeStream(batch));

    double mono_inter_ttft = 0.0, small_inter_ttft = 0.0;
    for (const auto &cp : chunk_points) {
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = cp.chunk_tokens;
        sopts.sched.prefill.max_tokens_per_iteration = cp.iter_budget;
        serve::Server server(pipe, sopts);
        server.submit(mixed);
        auto rep = server.drain();

        const double it = p50TtftOf(rep, serve::Priority::Interactive);
        const double bt = p50TtftOf(rep, serve::Priority::Batch);
        if (cp.chunk_tokens == (1 << 20))
            mono_inter_ttft = it;
        if (cp.chunk_tokens == 64)
            small_inter_ttft = it;
        ct.row({cp.label,
                metrics::Table::num(rep.fleet.tokens_per_s, 1),
                metrics::Table::num(it, 2), metrics::Table::num(bt, 2),
                metrics::Table::num(rep.fleet.p99_itl_s * 1e3, 1),
                std::to_string(rep.fleet.prefill_chunks),
                metrics::Table::num(rep.fleet.mean_prefill_s, 2)});

        JsonPoint p;
        p.sweep = "chunked_prefill";
        p.str("mode", cp.label)
            .integer("chunk_tokens", cp.chunk_tokens)
            .integer("iter_budget", cp.iter_budget)
            .num("interactive_p50_ttft_s", it, 5)
            .num("batch_p50_ttft_s", bt, 5)
            .integer("prefill_chunks", rep.fleet.prefill_chunks)
            .integer("prefill_tokens", rep.fleet.prefill_tokens)
            .num("mean_prefill_s", rep.fleet.mean_prefill_s, 5);
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }
    ct.print();
    std::printf("\nChunking the 4096-token prompts to 64 tokens cuts "
                "interactive p50 TTFT %s -> %s s\n(%s) vs monolithic "
                "priced prefill: short requests no longer wait out a\n"
                "whole prompt's compute, at the cost of re-reading the "
                "weight stream per chunk\nand higher decode ITL per "
                "mixed iteration.\n",
                metrics::Table::num(mono_inter_ttft, 2).c_str(),
                metrics::Table::num(small_inter_ttft, 2).c_str(),
                mult(mono_inter_ttft /
                     std::max(small_inter_ttft, 1e-9))
                    .c_str());

    // --- preempt-mode sweep: long sequences under KV pressure ------
    // The canonical regime swap-to-host exists for: a steady stream
    // of long prompts (eight 4096-token batch-tier requests) offered
    // faster than the budget-constrained fleet can serve them, so
    // each new arrival squeezes the youngest resident back out
    // mid-prefill. Recompute-only eviction throws the victim's
    // priced chunks away every cycle and the wasted re-ingests
    // compound into queueing delay; swap moves the KV over the host
    // link and resumes, so progress accumulates across evictions;
    // auto decides per victim from the modeled costs. A final point
    // adds the prefill-aware admission watermark, which bounds the
    // thrash at admission instead.
    //
    // The arrival cadence is calibrated from an unconstrained run:
    // one long prompt lands every 0.45 x P, where P is a single
    // request's pressure-free service time — adversarial but
    // model-independent.
    struct PreemptPoint
    {
        const char *label;
        serve::PreemptMode mode;
        double watermark;
    };
    const PreemptPoint preempt_points[] = {
        {"recompute", serve::PreemptMode::Recompute, 0.0},
        {"swap", serve::PreemptMode::Swap, 0.0},
        {"auto", serve::PreemptMode::Auto, 0.0},
        {"auto+wm0.85", serve::PreemptMode::Auto, 0.85},
    };
    // Budget scaled per layer so every model sees the same pressure
    // (100 blocks at the tiny model's 8 layers): roughly two long
    // working sets plus the scheduler's growth reserve — each new
    // arrival squeezes the youngest resident back out mid-prefill.
    const int pressed_budget = 25 * mcfg.n_layers / 2;

    // Calibration: one long prompt's pressure-free service time
    // (admission to finish). Arrivals below land every 0.45x that,
    // so the fleet only keeps up if eviction does not destroy work.
    double prefill_P;
    {
        serve::StreamOptions one;
        one.n_requests = 1;
        one.gen_len = 40;
        one.prompt_len = 4096;
        one.seed = 0x10f6;
        serve::ServerOptions cal;
        cal.engine = EngineConfig::huggingFace().withSpecEE();
        cal.spec = spec;
        cal.workers = 2;
        cal.sched.max_batch = 8;
        cal.sched.prefill.chunk_tokens = 256;
        serve::Server server(pipe, cal);
        server.submit(serve::synthesizeStream(one));
        auto rep = server.drain();
        prefill_P = rep.outcomes[0].latency_s;
    }

    serve::StreamOptions plong;
    plong.n_requests = 8;
    plong.gen_len = 40;
    plong.prompt_len = 4096;
    plong.priority = serve::Priority::Batch;
    plong.id_base = 100;
    plong.seed = 0x10f6;
    auto pressed_stream = serve::synthesizeStream(plong);
    for (size_t i = 0; i < pressed_stream.size(); ++i) {
        pressed_stream[i].arrival_s =
            0.45 * prefill_P * static_cast<double>(i);
    }

    metrics::Table pt("Preempt-mode sweep: HF+SpecEE, 8x4096-token long "
                      "prompts arriving every 0.45x service time, KV "
                      "budget " +
                      std::to_string(pressed_budget) + " blocks");
    pt.header({"mode", "tok/s", "preempt", "swaps", "p50 TTFT (s)",
               "p99 TTFT (s)", "p99 ITL (ms)", "prefill tokens",
               "host KV (GiB)"});

    double rec_p99_ttft = 0.0, swap_p99_ttft = 0.0, auto_p99_ttft = 0.0;
    double rec_tps = 0.0, swap_tps = 0.0, auto_tps = 0.0;
    for (const auto &pp : preempt_points) {
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = 256;
        sopts.sched.kv_budget_blocks = pressed_budget;
        sopts.sched.preempt_mode = pp.mode;
        sopts.sched.kv_watermark = pp.watermark;
        serve::Server server(pipe, sopts);
        server.submit(pressed_stream);
        auto rep = server.drain();

        if (std::getenv("SPECEE_BENCH_DEBUG") != nullptr) {
            std::fprintf(stderr, "[debug] mode=%s P=%.2f\n", pp.label,
                         prefill_P);
            for (const auto &o : rep.outcomes) {
                std::fprintf(stderr,
                             "[debug] id=%llu arr=%.2f admit=%.2f "
                             "ttft=%.2f prefill=%.2f finish=%.2f "
                             "preempt=%d swaps=%d\n",
                             (unsigned long long)o.request.id,
                             o.request.arrival_s, o.admit_s, o.ttft_s,
                             o.prefill_s, o.finish_s, o.preemptions,
                             o.swaps);
            }
        }

        if (pp.mode == serve::PreemptMode::Recompute) {
            rec_p99_ttft = rep.fleet.p99_ttft_s;
            rec_tps = rep.fleet.tokens_per_s;
        } else if (pp.mode == serve::PreemptMode::Swap) {
            swap_p99_ttft = rep.fleet.p99_ttft_s;
            swap_tps = rep.fleet.tokens_per_s;
        } else if (pp.watermark == 0.0) {
            auto_p99_ttft = rep.fleet.p99_ttft_s;
            auto_tps = rep.fleet.tokens_per_s;
        }
        pt.row({pp.label,
                metrics::Table::num(rep.fleet.tokens_per_s, 1),
                std::to_string(rep.fleet.preemptions),
                std::to_string(rep.fleet.swaps_out),
                metrics::Table::num(rep.fleet.p50_ttft_s, 2),
                metrics::Table::num(rep.fleet.p99_ttft_s, 2),
                metrics::Table::num(rep.fleet.p99_itl_s * 1e3, 1),
                std::to_string(rep.fleet.prefill_tokens),
                metrics::Table::num(rep.fleet.peak_host_mem_gb, 2)});

        JsonPoint p;
        p.sweep = "preempt_mode";
        p.str("mode", pp.label)
            .integer("budget_blocks", pressed_budget)
            .num("watermark", pp.watermark, 3)
            .integer("preemptions", rep.fleet.preemptions)
            .integer("swaps_out", rep.fleet.swaps_out)
            .integer("swaps_in", rep.fleet.swaps_in)
            .integer("watermark_rejections",
                     rep.fleet.watermark_rejections)
            .integer("prefill_tokens", rep.fleet.prefill_tokens)
            .integer("peak_host_kv_blocks", rep.fleet.peak_host_kv_blocks)
            .num("peak_host_mem_gb", rep.fleet.peak_host_mem_gb, 4);
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }
    pt.print();
    const bool swap_wins = swap_p99_ttft < rec_p99_ttft &&
                           auto_p99_ttft < rec_p99_ttft &&
                           swap_tps >= rec_tps && auto_tps >= rec_tps;
    std::printf("\nSwap-to-host keeps evicted sessions' prompt work: "
                "p99 TTFT %s s (recompute)\n-> %s s (swap, %s) / %s s "
                "(auto, %s) with goodput no worse.\nswap/auto better "
                "p99 TTFT than recompute at goodput no worse: %s\n",
                metrics::Table::num(rec_p99_ttft, 2).c_str(),
                metrics::Table::num(swap_p99_ttft, 2).c_str(),
                mult(rec_p99_ttft / std::max(swap_p99_ttft, 1e-9)).c_str(),
                metrics::Table::num(auto_p99_ttft, 2).c_str(),
                mult(rec_p99_ttft / std::max(auto_p99_ttft, 1e-9)).c_str(),
                swap_wins ? "MET" : "MISSED");

    // --- prefix-reuse sweep: shared-template chat traffic ----------
    // 12 conversations, 4096-token prompts, 7/8 of which is the
    // stream's shared template. The first request seeds the cache
    // (it arrives alone and fully ingests before anyone else), then
    // the rest arrive on a cadence calibrated from the pressure-free
    // service time P measured above. Cache hits adopt the template's
    // KV and only chunk-ingest their 512-token suffix; the cache-off
    // baseline re-ingests all 4096 tokens per request.
    const double reuses[] = {0.0, 0.25, 0.5, 0.9};

    auto reuseStream = [&](double reuse) {
        serve::StreamOptions so;
        so.n_requests = 12;
        so.gen_len = 16;
        so.prompt_len = 4096;
        so.template_prefix_len = 7 * 4096 / 8;
        so.prefix_reuse = reuse;
        so.seed = 0x5ee3;
        auto stream = serve::synthesizeStream(so);
        for (size_t i = 1; i < stream.size(); ++i) {
            stream[i].arrival_s =
                prefill_P * (1.0 + 0.45 * static_cast<double>(i - 1));
        }
        return stream;
    };
    auto runReuse = [&](const std::vector<serve::Request> &stream,
                        bool cache_enabled) {
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = 256;
        sopts.sched.prefill.max_tokens_per_iteration = 512;
        sopts.sched.prefix_cache.enabled = cache_enabled;
        serve::Server server(pipe, sopts);
        server.submit(stream);
        return server.drain();
    };

    metrics::Table xt("Prefix-reuse sweep: HF+SpecEE, 12x4096-token "
                      "prompts, 3584-token shared template, chunked "
                      "prefill 256");
    xt.header({"reuse", "cache", "tok/s", "hits", "cached tok",
               "p50 TTFT (s)", "p99 TTFT (s)", "prefill tok"});

    double hit_p50_ttft = 0.0, cold_p50_ttft = 0.0;
    for (double reuse : reuses) {
        const auto stream = reuseStream(reuse);
        for (const bool cache_enabled : {true, false}) {
            // The cache-off baseline only matters where the contrast
            // is sharpest: the high-reuse point.
            if (!cache_enabled && reuse != 0.9)
                continue;
            auto rep = runReuse(stream, cache_enabled);
            if (std::getenv("SPECEE_BENCH_DEBUG") != nullptr) {
                for (const auto &o : rep.outcomes) {
                    std::fprintf(
                        stderr,
                        "[debug] reuse=%.2f cache=%d id=%llu arr=%.2f "
                        "ttft=%.2f cached=%d\n",
                        reuse, cache_enabled ? 1 : 0,
                        (unsigned long long)o.request.id,
                        o.request.arrival_s, o.ttft_s, o.cached_tokens);
                }
            }
            if (reuse == 0.9 && cache_enabled)
                hit_p50_ttft = rep.fleet.p50_ttft_s;
            if (reuse == 0.9 && !cache_enabled)
                cold_p50_ttft = rep.fleet.p50_ttft_s;
            xt.row({metrics::Table::num(reuse, 2),
                    cache_enabled ? "on" : "off",
                    metrics::Table::num(rep.fleet.tokens_per_s, 1),
                    std::to_string(rep.fleet.prefix_hits),
                    std::to_string(rep.fleet.cached_tokens),
                    metrics::Table::num(rep.fleet.p50_ttft_s, 2),
                    metrics::Table::num(rep.fleet.p99_ttft_s, 2),
                    std::to_string(rep.fleet.prefill_tokens)});

            JsonPoint p;
            p.sweep = "prefix_reuse";
            p.num("reuse", reuse, 3)
                .str("cache", cache_enabled ? "on" : "off")
                .integer("prefix_hits", rep.fleet.prefix_hits)
                .integer("cached_tokens", rep.fleet.cached_tokens)
                .integer("cache_evictions", rep.fleet.cache_evictions)
                .integer("peak_cached_blocks",
                         rep.fleet.peak_cached_blocks)
                .integer("prefill_tokens", rep.fleet.prefill_tokens);
            latencyFields(p, rep.fleet);
            json.push_back(std::move(p));
        }
    }
    xt.print();
    const bool prefix_wins = hit_p50_ttft * 3.0 <= cold_p50_ttft;
    std::printf("\nPrefix caching serves the shared 3584-token template "
                "from cached KV blocks:\np50 TTFT %s s (cache off) -> "
                "%s s (cache on) at 0.9 reuse.\ncache-on p50 TTFT >= 3x "
                "better than cache-off: %s\n",
                metrics::Table::num(cold_p50_ttft, 2).c_str(),
                metrics::Table::num(hit_p50_ttft, 2).c_str(),
                prefix_wins ? "MET" : "MISSED");

    // --- sharded-fleet sweep: TP/PP stage graph + backfill ---------
    // Burst arrival so every stage fight happens at once; chunked
    // prefill under an iteration budget tighter than the decode
    // batch (3 tokens vs up to 3 decode peers), so once decodes
    // occupy the slots a queued prompt is starved — the only way its
    // chunks land is through stages the previous iteration's early
    // exits left idle. One decode slot + one prefill slot under a
    // one-token budget is the sharpest version of that contention:
    // the decoder eats the whole budget, so without backfill the
    // queued prompt makes zero progress until the decoder finishes.
    struct ShardPoint
    {
        int tp;
        int pp;
    };
    const ShardPoint shard_points[] = {{1, 1}, {2, 2}, {1, 4}};

    serve::StreamOptions shs;
    shs.n_requests = 8;
    shs.gen_len = 24;
    shs.prompt_len = 96;
    shs.rate_rps = 0.0;
    shs.seed = 0x5a7d;
    const auto shard_stream = serve::synthesizeStream(shs);

    metrics::Table sht("Sharded-fleet sweep: HF+SpecEE, 8x96-token "
                       "prompts, chunked prefill 32, iteration budget "
                       "1, max_batch 2");
    sht.header({"tp x pp", "backfill", "tok/s", "stages", "pipe util",
                "grants", "extra tok", "p50 TTFT (s)", "p99 lat (s)"});

    double util_on = 0.0, util_off = 0.0;
    long grants_on = 0;
    for (const auto &sp : shard_points) {
        for (const bool backfill : {false, true}) {
            // At pp = 1 there is one stage and backfill is inert;
            // one row carries the unsharded baseline.
            if (sp.pp == 1 && !backfill)
                continue;
            serve::ServerOptions sopts;
            sopts.engine = EngineConfig::huggingFace()
                               .withSpecEE()
                               .withSharding(sp.tp, sp.pp);
            sopts.spec = spec;
            sopts.workers = 2;
            sopts.sched.max_batch = 2;
            sopts.sched.prefill.chunk_tokens = 32;
            sopts.sched.prefill.max_tokens_per_iteration = 1;
            sopts.sched.stage_backfill = backfill;
            serve::Server server(pipe, sopts);
            server.submit(shard_stream);
            auto rep = server.drain();

            if (sp.pp == 4) {
                (backfill ? util_on : util_off) =
                    rep.fleet.pipeline_utilization;
                if (backfill)
                    grants_on = rep.fleet.backfill_grants;
            }
            const std::string shard_label =
                std::to_string(sp.tp) + " x " + std::to_string(sp.pp);
            sht.row({shard_label, sp.pp == 1 ? "-" : backfill ? "on" : "off",
                     metrics::Table::num(rep.fleet.tokens_per_s, 1),
                     std::to_string(rep.fleet.n_stages),
                     metrics::Table::num(rep.fleet.pipeline_utilization,
                                         3),
                     std::to_string(rep.fleet.backfill_grants),
                     std::to_string(rep.fleet.backfill_tokens),
                     metrics::Table::num(rep.fleet.p50_ttft_s, 2),
                     metrics::Table::num(rep.fleet.p99_latency_s, 2)});

            JsonPoint p;
            p.sweep = "sharded";
            p.integer("tp", sp.tp)
                .integer("pp", sp.pp)
                .str("backfill", backfill ? "on" : "off")
                .integer("n_stages", rep.fleet.n_stages)
                .num("pipeline_utilization",
                     rep.fleet.pipeline_utilization, 5)
                .integer("peak_stage_occupancy",
                         rep.fleet.peak_stage_occupancy)
                .integer("backfill_grants", rep.fleet.backfill_grants)
                .integer("backfill_tokens", rep.fleet.backfill_tokens);
            latencyFields(p, rep.fleet);
            json.push_back(std::move(p));
        }
    }
    sht.print();

    // Single-device fit: the 70B-class deployment that motivates the
    // sharding. Pure deployment arithmetic on the modeled config —
    // no pipeline is trained for it here.
    const auto big = model::ModelConfig::llama2_70b();
    const hw::MemoryTracker bigmem(big, tensor::WeightBackend::Fp32,
                                   /*with_draft_model=*/true,
                                   /*n_predictors=*/big.n_layers,
                                   /*predictor_params=*/5200);
    const model::StageGraph mono_graph(big.n_layers, 1);
    const model::StageGraph pp2_graph(big.n_layers, 2);
    const long fit_tokens = 8192;
    const double mono_gib = hw::MemoryTracker::toGiB(
        bigmem.maxDeviceBytes(mono_graph, 1, fit_tokens, 4));
    const double tp2pp2_gib = hw::MemoryTracker::toGiB(
        bigmem.maxDeviceBytes(pp2_graph, 2, fit_tokens, 4));
    const bool big_fits = mono_gib > spec.vram_gb &&
                          tp2pp2_gib < spec.vram_gb;
    {
        JsonPoint p;
        p.sweep = "sharded";
        p.str("backfill", "n/a")
            .str("check", "70b_device_fit")
            .num("mono_device_gib", mono_gib, 5)
            .num("tp2pp2_device_gib", tp2pp2_gib, 5)
            .num("vram_gb", spec.vram_gb, 5);
        json.push_back(std::move(p));
    }

    const bool sharded_wins = util_on > util_off && grants_on > 0;
    std::printf("\nEarly exits free the trailing pipeline stages and "
                "backfill slots queued\nprefill chunks into them: "
                "pipeline utilization %s (off) -> %s (on) at\n1 x 4, "
                "%ld granted backfills.\nbackfill-on utilization > "
                "backfill-off: %s\n",
                metrics::Table::num(util_off, 3).c_str(),
                metrics::Table::num(util_on, 3).c_str(), grants_on,
                sharded_wins ? "MET" : "MISSED");
    std::printf("%s at fp16 needs %s GiB on its tightest device as "
                "one stage (vram %s GiB);\na tp2 x pp2 fleet's "
                "tightest device holds %s GiB.\n70B overflows one "
                "device but fits tp2 x pp2: %s\n",
                big.name.c_str(), metrics::Table::num(mono_gib, 1).c_str(),
                metrics::Table::num(spec.vram_gb, 0).c_str(),
                metrics::Table::num(tp2pp2_gib, 1).c_str(),
                big_fits ? "MET" : "MISSED");

    // --- preempt-mix sweep: auto diverges from both pure modes -----
    // The all-long preempt sweep above is swap's home turf: every
    // victim carries a 4096-token prefill, so auto always swaps and
    // its point degenerates onto swap's. Mixing short 1024-token
    // prompts into the batch tier hands auto victims on BOTH sides
    // of the swap-vs-recompute break-even — a freshly admitted short
    // has barely any replay to lose and recomputes, a long deep into
    // its run swaps — so the policy provably mixes mechanisms.
    serve::StreamOptions mshort;
    mshort.n_requests = 4;
    mshort.gen_len = 24;
    mshort.prompt_len = 1024;
    mshort.priority = serve::Priority::Batch;
    mshort.seed = 0x3a1f;
    serve::StreamOptions mlong;
    mlong.n_requests = 4;
    mlong.gen_len = 24;
    mlong.prompt_len = 4096;
    mlong.priority = serve::Priority::Batch;
    mlong.id_base = 100;
    mlong.seed = 0x9b2c;
    const auto mix_stream = serve::mergeStreams(
        serve::synthesizeStream(mshort), serve::synthesizeStream(mlong));

    // The host link is throttled to 3 GB/s (an oversubscribed PCIe
    // path) so a freshly admitted 1024-token victim prices its replay
    // below the swap round trip while a 4096-token victim deep into
    // its run still swaps — the knife edge that makes auto's per-
    // victim comparison visible. All three modes see the same link.
    auto mix_spec = spec;
    mix_spec.swap_bw_gbs = 3.0;

    metrics::Table mt("Preempt-mix sweep: HF+SpecEE, 4x1024 + "
                      "4x4096-token batch prompts, host link 3 GB/s, "
                      "KV budget " +
                      std::to_string(pressed_budget) + " blocks");
    mt.header({"mode", "tok/s", "preempt", "swaps", "recomputes",
               "prefill tokens", "p99 TTFT (s)"});

    long mix_rec_preempt = 0, mix_swap_swaps = 0;
    long mix_auto_swaps = 0, mix_auto_recomputes = 0;
    double mix_dearer = 0.0, mix_auto_makespan = 0.0;
    for (const auto mode :
         {serve::PreemptMode::Recompute, serve::PreemptMode::Swap,
          serve::PreemptMode::Auto}) {
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = mix_spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = 256;
        sopts.sched.kv_budget_blocks = pressed_budget;
        sopts.sched.preempt_mode = mode;
        serve::Server server(pipe, sopts);
        server.submit(mix_stream);
        auto rep = server.drain();

        const char *label = mode == serve::PreemptMode::Recompute
                                ? "recompute"
                                : mode == serve::PreemptMode::Swap
                                      ? "swap"
                                      : "auto";
        const long recomputes =
            rep.fleet.preemptions - rep.fleet.swaps_out;
        if (mode == serve::PreemptMode::Recompute) {
            mix_rec_preempt = rep.fleet.preemptions;
            mix_dearer = std::max(mix_dearer, rep.fleet.makespan_s);
        } else if (mode == serve::PreemptMode::Swap) {
            mix_swap_swaps = rep.fleet.swaps_out;
            mix_dearer = std::max(mix_dearer, rep.fleet.makespan_s);
        } else {
            mix_auto_swaps = rep.fleet.swaps_out;
            mix_auto_recomputes = recomputes;
            mix_auto_makespan = rep.fleet.makespan_s;
        }
        mt.row({label, metrics::Table::num(rep.fleet.tokens_per_s, 1),
                std::to_string(rep.fleet.preemptions),
                std::to_string(rep.fleet.swaps_out),
                std::to_string(recomputes),
                std::to_string(rep.fleet.prefill_tokens),
                metrics::Table::num(rep.fleet.p99_ttft_s, 2)});

        JsonPoint p;
        p.sweep = "preempt_mix";
        p.str("mode", label)
            .integer("budget_blocks", pressed_budget)
            .num("host_bw_gbs", mix_spec.swap_bw_gbs, 3)
            .integer("preemptions", rep.fleet.preemptions)
            .integer("swaps_out", rep.fleet.swaps_out)
            .integer("recomputes", recomputes)
            .integer("prefill_tokens", rep.fleet.prefill_tokens)
            .num("makespan_s", rep.fleet.makespan_s, 6);
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }
    mt.print();
    const bool auto_diverges = mix_auto_swaps > 0 &&
                               mix_auto_recomputes > 0 &&
                               mix_rec_preempt > 0 &&
                               mix_swap_swaps > 0 &&
                               mix_auto_makespan <=
                                   mix_dearer * (1.0 + 1e-9);
    std::printf("\nOn the mixed stream auto serves %ld preemptions by "
                "swap and %ld by recompute:\nboth arms fire, so its "
                "point diverges from either pure mode.\nauto mixes "
                "mechanisms and never loses to the dearer pure mode: "
                "%s\n",
                mix_auto_swaps, mix_auto_recomputes,
                auto_diverges ? "MET" : "MISSED");

    // --- disaggregated-fleet sweep: unified vs 1P+1D at matched HW -
    // Interactive requests decode while 4096-token batch prompts
    // keep arriving. Unified: two lockstep data-parallel devices,
    // every device both decodes and chunk-ingests, so each prompt
    // chunk shares an iteration boundary with the decode batch and
    // inflates ITL. Disaggregated at the same device count and
    // interconnect: one device only ingests prompts, streaming
    // finished KV to the decode device over the priced peer link
    // (overlapped via the per-device DMA channels), so decode
    // iterations never wait on a chunk.
    serve::StreamOptions dint;
    dint.n_requests = 8;
    dint.gen_len = 160;
    dint.seed = 0xd14a;
    serve::StreamOptions dbatch;
    dbatch.n_requests = 4;
    dbatch.gen_len = 8;
    dbatch.prompt_len = 4096;
    dbatch.priority = serve::Priority::Batch;
    dbatch.id_base = 100;
    dbatch.seed = 0xe55e;
    auto disagg_stream = serve::mergeStreams(
        serve::synthesizeStream(dint), serve::synthesizeStream(dbatch));
    // Long prompts arrive just under the single-device ingest rate
    // (calibrated off the pressure-free service time measured above):
    // the dedicated prefill device keeps up, while the unified fleet
    // keeps lacing chunks into decode boundaries for the whole run.
    for (auto &r : disagg_stream) {
        if (r.id >= 100) {
            r.arrival_s = 0.8 * prefill_P *
                          static_cast<double>(r.id - 100);
        }
    }

    struct DisaggPoint
    {
        const char *label;
        int prefill_devices;
        bool overlap;
    };
    const DisaggPoint disagg_points[] = {
        {"unified", 0, false},
        {"disagg_serial", 1, false},
        {"disagg", 1, true},
    };

    metrics::Table dt("Disaggregated-fleet sweep: HF+SpecEE, 8 "
                      "interactive + 4x4096-token batch prompts, 2 "
                      "devices, chunked prefill 256");
    dt.header({"fleet", "tok/s", "handoffs", "inter p99 ITL (ms)",
               "inter p50 TTFT (s)", "p99 lat (s)", "xfer busy (s)"});

    double uni_itl = 0.0, dis_itl = 0.0;
    double uni_tps = 0.0, dis_tps = 0.0;
    for (const auto &dp : disagg_points) {
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = 256;
        sopts.sched.topology.devices = 2;
        sopts.sched.topology.prefill_devices = dp.prefill_devices;
        sopts.sched.topology.overlap_transfers = dp.overlap;

        // Interactive-tier p99 ITL from the token stream: gaps
        // between consecutive tokens of the same interactive request.
        std::vector<double> gaps;
        std::map<uint64_t, double> last_emit;
        sopts.on_token = [&](const serve::TokenEvent &ev) {
            if (ev.request_id < 100) { // interactive substream ids
                const auto it = last_emit.find(ev.request_id);
                if (it != last_emit.end())
                    gaps.push_back(ev.emit_s - it->second);
                last_emit[ev.request_id] = ev.emit_s;
            }
            return true;
        };
        serve::Server server(pipe, sopts);
        server.submit(disagg_stream);
        auto rep = server.drain();
        const double itl = metrics::percentile(gaps, 99.0);

        if (dp.prefill_devices == 0) {
            uni_itl = itl;
            uni_tps = rep.fleet.tokens_per_s;
        } else if (dp.overlap) {
            dis_itl = itl;
            dis_tps = rep.fleet.tokens_per_s;
        }
        dt.row({dp.label, metrics::Table::num(rep.fleet.tokens_per_s, 1),
                std::to_string(rep.fleet.handoffs),
                metrics::Table::num(itl * 1e3, 2),
                metrics::Table::num(
                    p50TtftOf(rep, serve::Priority::Interactive), 2),
                metrics::Table::num(rep.fleet.p99_latency_s, 2),
                metrics::Table::num(rep.fleet.transfer_busy_s, 3)});

        JsonPoint p;
        p.sweep = "disagg";
        p.str("fleet", dp.label)
            .integer("devices", 2)
            .integer("prefill_devices", dp.prefill_devices)
            .str("overlap", dp.overlap ? "on" : "off")
            .integer("handoffs", rep.fleet.handoffs)
            .num("handoff_gb", rep.fleet.handoff_gb, 5)
            .integer("transfers_overlapped",
                     rep.fleet.transfers_overlapped)
            .num("transfer_bytes_gb",
                 rep.fleet.transfer_bytes_sent / (1024.0 * 1024.0 *
                                                  1024.0),
                 5)
            .num("interactive_p99_itl_s", itl, 5)
            .num("prefill_busy_s", rep.fleet.prefill_busy_s, 5)
            .num("transfer_busy_s", rep.fleet.transfer_busy_s, 5);
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }
    dt.print();
    const bool disagg_wins =
        dis_itl * 1.3 <= uni_itl && dis_tps >= uni_tps;
    std::printf("\nDedicating a device to prefill takes prompt chunks "
                "off the decode boundary:\ninteractive p99 ITL %s ms "
                "(unified) -> %s ms (disaggregated) at equal-or-\n"
                "better goodput (%s -> %s tok/s) on matched hardware.\n"
                "disagg >= 1.3x better interactive p99 ITL at >= "
                "goodput: %s\n",
                metrics::Table::num(uni_itl * 1e3, 2).c_str(),
                metrics::Table::num(dis_itl * 1e3, 2).c_str(),
                metrics::Table::num(uni_tps, 1).c_str(),
                metrics::Table::num(dis_tps, 1).c_str(),
                disagg_wins ? "MET" : "MISSED");

    // --- SLO-attainment sweep: goodput under explicit objectives ---
    // Re-runs the preempt-mode and disaggregation scenarios with
    // per-tier SLOs attached, so the scheduler judges every retired
    // request and accounts goodput UNDER SLO (tokens delivered by
    // attaining requests / makespan) instead of raw tok/s. The
    // objectives are calibrated from the measurements above: the
    // batch-tier TTFT bound sits just above the swap/auto tail (work-
    // preserving preemption keeps the promise, recompute's thrashed
    // tail blows it) and the interactive ITL bound sits between the
    // disaggregated and unified tails. The attainment ordering must
    // reproduce the raw latency ordering the earlier bars
    // established. The disaggregated point also records a fleet
    // event trace (Perfetto-loadable) and a metrics timeline — the
    // artifact CI schema-checks.
    metrics::Table st("SLO-attainment sweep: goodput under tier "
                      "objectives (calibrated from sweeps above)");
    st.header({"scenario", "evaluated", "attained", "tok/s",
               "SLO tok/s", "timeline windows"});

    double slo_rec = 0.0, slo_swap = 0.0, slo_auto = 0.0;
    const double batch_ttft_slo =
        1.05 * std::max(swap_p99_ttft, auto_p99_ttft);
    for (const auto &pp : preempt_points) {
        if (pp.watermark != 0.0)
            continue; // the three pure preemption policies
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = 256;
        sopts.sched.kv_budget_blocks = pressed_budget;
        sopts.sched.preempt_mode = pp.mode;
        sopts.sched.slo.batch.ttft_s = batch_ttft_slo;
        sopts.sched.timeline.window_s = 0.5 * prefill_P;
        serve::Server server(pipe, sopts);
        server.submit(pressed_stream);
        auto rep = server.drain();

        if (pp.mode == serve::PreemptMode::Recompute)
            slo_rec = rep.fleet.goodput_under_slo;
        else if (pp.mode == serve::PreemptMode::Swap)
            slo_swap = rep.fleet.goodput_under_slo;
        else
            slo_auto = rep.fleet.goodput_under_slo;
        st.row({std::string("preempt/") + pp.label,
                std::to_string(rep.fleet.slo_evaluated),
                std::to_string(rep.fleet.slo_attained),
                metrics::Table::num(rep.fleet.tokens_per_s, 1),
                metrics::Table::num(rep.fleet.goodput_under_slo, 1),
                std::to_string(rep.fleet.timeline.size())});

        JsonPoint p;
        p.sweep = "slo";
        p.str("scenario", std::string("preempt_") + pp.label)
            .num("batch_ttft_slo_s", batch_ttft_slo, 5)
            .integer("slo_evaluated", rep.fleet.slo_evaluated)
            .integer("slo_attained", rep.fleet.slo_attained)
            .num("goodput_under_slo", rep.fleet.goodput_under_slo, 5)
            .integer("timeline_windows",
                     static_cast<long>(rep.fleet.timeline.size()));
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }

    // Disaggregation under an interactive ITL promise. The bound
    // splits the two fleets' measured tails geometrically, so it is
    // attainable for the dedicated-prefill fleet and not for the
    // unified one that laces prompt chunks into decode boundaries.
    const double inter_itl_slo = std::sqrt(dis_itl * uni_itl);
    double slo_uni = 0.0, slo_dis = 0.0;
    for (const auto &dp : disagg_points) {
        if (dp.prefill_devices == 1 && !dp.overlap)
            continue; // unified vs overlapped disagg, as in the bar
        serve::ServerOptions sopts;
        sopts.engine = EngineConfig::huggingFace().withSpecEE();
        sopts.spec = spec;
        sopts.workers = 2;
        sopts.sched.max_batch = 8;
        sopts.sched.prefill.chunk_tokens = 256;
        sopts.sched.topology.devices = 2;
        sopts.sched.topology.prefill_devices = dp.prefill_devices;
        sopts.sched.topology.overlap_transfers = dp.overlap;
        sopts.sched.slo.interactive.itl_s = inter_itl_slo;
        sopts.sched.timeline.window_s = 0.5 * prefill_P;
        if (dp.prefill_devices == 1) {
            // The richest scenario traces: prefill-device chunks, DMA
            // handoffs and decode steps on separate Perfetto tracks.
            sopts.trace_path = "BENCH_serving_trace.json";
        }
        serve::Server server(pipe, sopts);
        server.submit(disagg_stream);
        auto rep = server.drain();

        if (dp.prefill_devices == 0)
            slo_uni = rep.fleet.goodput_under_slo;
        else
            slo_dis = rep.fleet.goodput_under_slo;
        st.row({std::string("disagg/") + dp.label,
                std::to_string(rep.fleet.slo_evaluated),
                std::to_string(rep.fleet.slo_attained),
                metrics::Table::num(rep.fleet.tokens_per_s, 1),
                metrics::Table::num(rep.fleet.goodput_under_slo, 1),
                std::to_string(rep.fleet.timeline.size())});

        JsonPoint p;
        p.sweep = "slo";
        p.str("scenario", std::string("disagg_") + dp.label)
            .num("interactive_itl_slo_s", inter_itl_slo, 5)
            .integer("slo_evaluated", rep.fleet.slo_evaluated)
            .integer("slo_attained", rep.fleet.slo_attained)
            .num("goodput_under_slo", rep.fleet.goodput_under_slo, 5)
            .integer("trace_events",
                     static_cast<long>(rep.fleet.trace.size()))
            .integer("timeline_windows",
                     static_cast<long>(rep.fleet.timeline.size()));
        latencyFields(p, rep.fleet);
        json.push_back(std::move(p));
    }
    st.print();
    const bool slo_ordered = slo_swap >= slo_rec &&
                             slo_auto >= slo_rec && slo_dis >= slo_uni;
    std::printf("\nGoodput under SLO reproduces the latency ordering: "
                "swap %s / auto %s >= recompute %s tok/s under the "
                "batch TTFT promise,\ndisagg %s >= unified %s tok/s "
                "under the interactive ITL promise: %s\n",
                metrics::Table::num(slo_swap, 1).c_str(),
                metrics::Table::num(slo_auto, 1).c_str(),
                metrics::Table::num(slo_rec, 1).c_str(),
                metrics::Table::num(slo_dis, 1).c_str(),
                metrics::Table::num(slo_uni, 1).c_str(),
                slo_ordered ? "MET" : "MISSED");

    writeJson("BENCH_serving.json", model, spec.name, json);

    std::printf("\nbatched SpecEE serving vs sequential: %s aggregate "
                "tokens/s (%s)\n",
                specee_batch_tps > specee_seq_tps ? "HIGHER" : "LOWER",
                mult(specee_batch_tps / specee_seq_tps).c_str());
    std::printf("Continuous batching amortizes the weight stream over "
                "the decode batch; early\nexiting shortens the shared "
                "read itself, so the two multiply under load.\n");
    const bool chunking_wins =
        small_inter_ttft * 2.0 <= mono_inter_ttft;
    std::printf("chunked interactive TTFT >= 2x better than "
                "monolithic: %s\n",
                chunking_wins ? "MET" : "MISSED");
    return specee_batch_tps > specee_seq_tps && chunking_wins &&
                   swap_wins && prefix_wins && sharded_wins &&
                   big_fits && auto_diverges && disagg_wins &&
                   slo_ordered
               ? 0
               : 1;
}
