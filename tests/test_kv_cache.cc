/**
 * @file
 * KV storage tests: contiguous cache, multi-sequence paged allocator
 * (vllm substrate), equivalence between the two, rollback semantics,
 * pool exhaustion, fragmentation and per-sequence isolation.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "model/config.hh"
#include "model/kv_arena.hh"
#include "model/kv_cache.hh"
#include "model/paged_kv.hh"
#include "util/rng.hh"

using namespace specee;
using namespace specee::model;

namespace {

tensor::Vec
vec(int hidden, float base)
{
    tensor::Vec v(static_cast<size_t>(hidden));
    for (int i = 0; i < hidden; ++i)
        v[static_cast<size_t>(i)] = base + static_cast<float>(i);
    return v;
}

tensor::Vec
randomVec(int hidden, Rng &rng)
{
    tensor::Vec v(static_cast<size_t>(hidden));
    for (auto &x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

/** Every K and V row of (seq, layer) in the pool, in order. */
std::vector<tensor::Vec>
rowsOf(const PagedKvCache &pool, int seq, int layer)
{
    std::vector<tensor::Vec> out;
    for (int p = 0; p < pool.length(seq, layer); ++p) {
        const auto k = pool.key(seq, layer, p);
        const auto v = pool.value(seq, layer, p);
        out.emplace_back(k.begin(), k.end());
        out.emplace_back(v.begin(), v.end());
    }
    return out;
}

/** Resident set size of this process in KiB (0 if unavailable). */
long
vmRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmRSS:") {
            long kb = 0;
            in >> kb;
            return kb;
        }
        in.ignore(1 << 10, '\n');
    }
    return 0;
}

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPECEE_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPECEE_TEST_SANITIZED 1
#endif

/** Sanitizer shadow memory and debug builds distort RSS. */
constexpr bool kRssMeaningful =
#if defined(NDEBUG) && !defined(SPECEE_TEST_SANITIZED)
    true;
#else
    false;
#endif

} // namespace

TEST(KvArena, RowsReadZeroBeforeTheirFirstWrite)
{
    KvArena a(64, 8);
    for (size_t r = 0; r < a.rows(); ++r)
        for (float x : a.row(r))
            ASSERT_EQ(x, 0.0f);
    a.row(5)[3] = 7.0f;
    EXPECT_EQ(a.row(5)[3], 7.0f);
    EXPECT_EQ(a.row(4)[7], 0.0f);
    EXPECT_EQ(a.row(6)[0], 0.0f);
}

TEST(KvArena, CommitsOnFirstWriteWhateverMallocDidBefore)
{
    if (!kRssMeaningful)
        GTEST_SKIP() << "RSS is not measured in debug or sanitizer builds";
    // One llama2-7b-sim contiguous KvCache arena (32 layers x 512
    // positions x 192 floats, 12.6 MB). Freeing one lifts glibc's
    // dynamic mmap threshold above its size; from then on a calloc of
    // that size is carved from a heap arena and, once the heap has
    // been used and freed, zero-filled eagerly, committing every page.
    // A worker thread building one model after another hits exactly
    // that; the arena must stay lazy anyway.
    const size_t rows = 32 * 512, width = 192;
    const double bytes = static_cast<double>(rows * width * sizeof(float));
    const auto use = [&] {
        KvArena a(rows, width);
        a.row(0)[0] = 1.0f;
    };
    use();
    long grown_kb = 0;
    std::thread([&] {
        use();
        const long before = vmRssKb();
        KvArena a(rows, width);
        a.row(rows - 1)[0] = 1.0f;
        grown_kb = vmRssKb() - before;
    }).join();
    EXPECT_LT(grown_kb * 1024.0, 0.1 * bytes)
        << "arena of " << bytes / 1e6 << " MB committed "
        << grown_kb * 1024.0 / 1e6 << " MB";
}

TEST(PagedKv, ForkSwapAndTruncateKeepExactRows)
{
    const int hidden = 8, rows = kKvBlockSize + 5;
    PagedKvCache pool(2, 16, hidden);
    Rng rng(23);
    const int a = pool.createSequence();
    for (int l = 0; l < 2; ++l)
        for (int p = 0; p < rows; ++p)
            pool.append(a, l, randomVec(hidden, rng),
                        randomVec(hidden, rng));
    const auto a0 = rowsOf(pool, a, 0);
    const auto a1 = rowsOf(pool, a, 1);

    // Copy-on-write fork: b adopts a's chain and appends into the
    // shared tail block; both see the shared rows unchanged.
    const auto chain = pool.retainRows(a, 0, 0, rows);
    const int b = pool.createSequence();
    pool.adoptPrefix(b, 0, chain, rows);
    const auto k = randomVec(hidden, rng), v = randomVec(hidden, rng);
    pool.append(b, 0, k, v);
    auto b0 = rowsOf(pool, b, 0);
    ASSERT_EQ(b0.size(), a0.size() + 2);
    EXPECT_EQ(std::vector<tensor::Vec>(b0.begin(), b0.end() - 2), a0);
    EXPECT_EQ(b0[b0.size() - 2], k);
    EXPECT_EQ(b0.back(), v);
    EXPECT_EQ(rowsOf(pool, a, 0), a0);

    // Swap-out / swap-in round trip restores every row bit-exactly.
    pool.swapOut(a);
    pool.swapIn(a);
    EXPECT_EQ(rowsOf(pool, a, 0), a0);
    EXPECT_EQ(rowsOf(pool, a, 1), a1);
    EXPECT_EQ(rowsOf(pool, b, 0), b0);

    // Truncate keeps the surviving rows and re-appends cleanly.
    pool.truncate(a, kKvBlockSize + 1);
    const auto kept = a1.begin() + 2 * (kKvBlockSize + 1);
    EXPECT_EQ(rowsOf(pool, a, 1),
              std::vector<tensor::Vec>(a1.begin(), kept));
    pool.append(a, 1, k, v);
    EXPECT_EQ(pool.key(a, 1, kKvBlockSize + 1)[0], k[0]);
    pool.releaseBlocks(chain);
}

TEST(KvCache, TruncateKeepsExactRows)
{
    const int hidden = 8;
    KvCache kv(2, 32, hidden);
    Rng rng(29);
    std::vector<tensor::Vec> keys;
    for (int p = 0; p < 20; ++p) {
        keys.push_back(randomVec(hidden, rng));
        kv.append(1, keys.back(), randomVec(hidden, rng));
    }
    kv.truncate(7);
    const auto k = randomVec(hidden, rng);
    kv.append(1, k, k);
    for (int p = 0; p < 7; ++p) {
        const auto got = kv.key(1, p);
        EXPECT_EQ(tensor::Vec(got.begin(), got.end()),
                  keys[static_cast<size_t>(p)]);
    }
    const auto got = kv.key(1, 7);
    EXPECT_EQ(tensor::Vec(got.begin(), got.end()), k);
}

TEST(PagedKv, SevenBPoolCommitsOnlyTouchedPages)
{
    if (!kRssMeaningful)
        GTEST_SKIP() << "RSS is not measured in debug or sanitizer builds";
    // One serving worker's pool on llama2-7b-sim: 8 slots x 32 layers
    // x 34 blocks. Reserving it must not commit its ~214 MB.
    const auto cfg = model::ModelConfig::llama2_7b();
    const int blocks = 8 * cfg.n_layers * 34;
    const double bytes = 2.0 * blocks * kKvBlockSize * cfg.sim.hidden *
                         sizeof(float);
    const long before = vmRssKb();
    ASSERT_GT(before, 0);
    PagedKvCache pool(cfg.n_layers, blocks, cfg.sim.hidden);
    const int s = pool.createSequence();
    const tensor::Vec row(static_cast<size_t>(cfg.sim.hidden), 1.0f);
    for (int l = 0; l < cfg.n_layers; ++l)
        pool.append(s, l, row, row);
    const double grown = (vmRssKb() - before) * 1024.0;
    EXPECT_LT(grown, 0.1 * bytes)
        << "pool of " << bytes / 1e6 << " MB committed " << grown / 1e6
        << " MB";
}

TEST(KvCache, AppendAndReadBack)
{
    KvCache kv(2, 16, 4);
    auto k = vec(4, 1.0f);
    auto v = vec(4, 100.0f);
    EXPECT_EQ(kv.append(0, k, v), 0);
    EXPECT_EQ(kv.append(0, k, v), 1);
    EXPECT_EQ(kv.length(0), 2);
    EXPECT_EQ(kv.length(1), 0);
    EXPECT_FLOAT_EQ(kv.key(0, 1)[2], 3.0f);
    EXPECT_FLOAT_EQ(kv.value(0, 0)[0], 100.0f);
}

TEST(KvCache, TruncateRollsBack)
{
    KvCache kv(1, 8, 2);
    for (int i = 0; i < 5; ++i)
        kv.append(0, vec(2, static_cast<float>(i)), vec(2, 0.0f));
    kv.truncate(2);
    EXPECT_EQ(kv.length(0), 2);
    kv.append(0, vec(2, 77.0f), vec(2, 0.0f));
    EXPECT_FLOAT_EQ(kv.key(0, 2)[0], 77.0f);
}

TEST(KvCache, OverflowDies)
{
    KvCache kv(1, 2, 2);
    kv.append(0, vec(2, 0), vec(2, 0));
    kv.append(0, vec(2, 0), vec(2, 0));
    EXPECT_DEATH(kv.append(0, vec(2, 0), vec(2, 0)), "overflow");
}

TEST(PagedKv, BlocksAllocatedOnDemand)
{
    PagedKvCache pool(1, 4, 2);
    const int s = pool.createSequence();
    EXPECT_EQ(pool.blocksInUse(), 0);
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(s, 0, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 1);
    pool.append(s, 0, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 2);
}

TEST(PagedKv, TruncateFreesWholeBlocks)
{
    PagedKvCache pool(1, 8, 2);
    const int s = pool.createSequence();
    for (int i = 0; i < 2 * kKvBlockSize + 3; ++i)
        pool.append(s, 0, vec(2, static_cast<float>(i)), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 3);
    pool.truncate(s, kKvBlockSize); // exactly one block's worth
    EXPECT_EQ(pool.blocksInUse(), 1);
    EXPECT_EQ(pool.length(s, 0), kKvBlockSize);
    // Freed blocks are reusable.
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(s, 0, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.blocksInUse(), 2);
}

TEST(PagedKv, TruncateToZeroFreesAllBlocks)
{
    PagedKvCache pool(3, 12, 2);
    const int s = pool.createSequence();
    for (int l = 0; l < 3; ++l)
        for (int i = 0; i < kKvBlockSize + 5; ++i)
            pool.append(s, l, vec(2, 0), vec(2, 0));
    EXPECT_EQ(pool.seqBlocks(s), 6);
    pool.truncate(s, 0);
    EXPECT_EQ(pool.seqBlocks(s), 0);
    EXPECT_EQ(pool.blocksInUse(), 0);
    EXPECT_EQ(pool.blocksFree(), 12);
    for (int l = 0; l < 3; ++l)
        EXPECT_EQ(pool.length(s, l), 0);
    // The sequence stays usable after a full rollback.
    EXPECT_EQ(pool.append(s, 0, vec(2, 9.0f), vec(2, 0)), 0);
}

TEST(PagedKv, ClearReleasesEverything)
{
    PagedKvCache pool(2, 8, 2);
    const int s = pool.createSequence();
    for (int l = 0; l < 2; ++l)
        for (int i = 0; i < 20; ++i)
            pool.append(s, l, vec(2, 0), vec(2, 0));
    pool.clearSeq(s);
    EXPECT_EQ(pool.blocksInUse(), 0);
    EXPECT_EQ(pool.blocksFree(), 8);
    EXPECT_EQ(pool.length(s, 0), 0);
}

TEST(PagedKv, PoolExhaustionMidAppendDies)
{
    // Two sequences share one physical pool; the second exhausts it
    // mid-append even though its own sequence is tiny.
    PagedKvCache pool(1, 2, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(a, 0, vec(2, 0), vec(2, 0));
    for (int i = 0; i < kKvBlockSize; ++i)
        pool.append(b, 0, vec(2, 0), vec(2, 0));
    EXPECT_TRUE(pool.wouldOverflow(a, 0));
    EXPECT_TRUE(pool.wouldOverflow(b, 0));
    EXPECT_DEATH(pool.append(b, 0, vec(2, 0), vec(2, 0)), "exhausted");
    // Freeing the other sequence unblocks the append.
    pool.dropSequence(a);
    EXPECT_FALSE(pool.wouldOverflow(b, 0));
    EXPECT_EQ(pool.append(b, 0, vec(2, 0), vec(2, 0)), kKvBlockSize);
}

TEST(PagedKv, PerSequenceIsolation)
{
    PagedKvCache pool(2, 8, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    // Interleaved appends: positions and contents must not bleed
    // across block tables.
    for (int i = 0; i < kKvBlockSize + 2; ++i) {
        EXPECT_EQ(pool.append(a, 0, vec(2, 1000.0f + i), vec(2, 0)), i);
        EXPECT_EQ(pool.append(b, 0, vec(2, 2000.0f + i), vec(2, 0)), i);
    }
    pool.append(b, 1, vec(2, 3000.0f), vec(2, 0));
    EXPECT_EQ(pool.length(a, 0), kKvBlockSize + 2);
    EXPECT_EQ(pool.length(a, 1), 0);
    EXPECT_EQ(pool.length(b, 1), 1);
    for (int i = 0; i < kKvBlockSize + 2; ++i) {
        EXPECT_FLOAT_EQ(pool.key(a, 0, i)[0], 1000.0f + i);
        EXPECT_FLOAT_EQ(pool.key(b, 0, i)[0], 2000.0f + i);
    }
    // Truncating one sequence leaves the other intact.
    pool.truncate(a, 1);
    EXPECT_EQ(pool.length(b, 0), kKvBlockSize + 2);
    EXPECT_FLOAT_EQ(pool.key(b, 0, kKvBlockSize)[0],
                    2000.0f + kKvBlockSize);
}

TEST(PagedKv, InterleavedAllocFreeFragmentation)
{
    // Fragmentation scenario: A and B interleave allocations so
    // neither owns a contiguous physical range, then A is dropped
    // and a new sequence reuses the scattered free blocks.
    PagedKvCache pool(1, 4, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    for (int i = 0; i < 2 * kKvBlockSize; ++i) {
        pool.append(a, 0, vec(2, 10.0f + i), vec(2, 0));
        pool.append(b, 0, vec(2, 20.0f + i), vec(2, 0));
    }
    EXPECT_EQ(pool.blocksFree(), 0);
    pool.dropSequence(a);
    EXPECT_EQ(pool.blocksFree(), 2);
    EXPECT_EQ(pool.blocksInUse(), 2);

    const int c = pool.createSequence();
    for (int i = 0; i < 2 * kKvBlockSize; ++i)
        pool.append(c, 0, vec(2, 30.0f + i), vec(2, 0));
    EXPECT_EQ(pool.blocksFree(), 0);
    // B survived the churn bit-for-bit.
    for (int i = 0; i < 2 * kKvBlockSize; ++i) {
        EXPECT_FLOAT_EQ(pool.key(b, 0, i)[0], 20.0f + i);
        EXPECT_FLOAT_EQ(pool.key(c, 0, i)[0], 30.0f + i);
    }
}

TEST(PagedKv, SequenceIdsRecycleDeterministically)
{
    PagedKvCache pool(1, 4, 2);
    const int a = pool.createSequence();
    const int b = pool.createSequence();
    EXPECT_EQ(pool.nSequences(), 2);
    pool.dropSequence(a);
    EXPECT_EQ(pool.createSequence(), a); // LIFO recycling
    EXPECT_EQ(pool.nSequences(), 2);
    (void)b;
}

TEST(SequenceKv, KvStoreViewOwnsItsSequence)
{
    auto pool = std::make_shared<PagedKvCache>(2, 8, 2);
    {
        SequenceKv view(pool);
        KvStore &kv = view;
        for (int i = 0; i < kKvBlockSize + 1; ++i)
            kv.append(0, vec(2, static_cast<float>(i)), vec(2, 0));
        EXPECT_EQ(kv.length(0), kKvBlockSize + 1);
        EXPECT_FLOAT_EQ(kv.key(0, kKvBlockSize)[0],
                        static_cast<float>(kKvBlockSize));
        EXPECT_EQ(view.blocks(), 2);
        kv.truncate(1);
        EXPECT_EQ(view.blocks(), 1);
        EXPECT_EQ(pool->nSequences(), 1);
    }
    // The view's destructor returned every block to the pool.
    EXPECT_EQ(pool->blocksInUse(), 0);
    EXPECT_EQ(pool->nSequences(), 0);
}

TEST(PagedKv, MatchesContiguousContents)
{
    const int layers = 3, hidden = 8, tokens = 40;
    KvCache a(layers, 64, hidden);
    PagedKvCache pool(layers, layers * (tokens / kKvBlockSize + 2),
                      hidden);
    const int s = pool.createSequence();
    Rng rng(7);
    for (int t = 0; t < tokens; ++t) {
        for (int l = 0; l < layers; ++l) {
            tensor::Vec k(hidden), v(hidden);
            for (auto &x : k)
                x = static_cast<float>(rng.normal());
            for (auto &x : v)
                x = static_cast<float>(rng.normal());
            EXPECT_EQ(a.append(l, k, v), pool.append(s, l, k, v));
        }
    }
    for (int l = 0; l < layers; ++l) {
        ASSERT_EQ(a.length(l), pool.length(s, l));
        for (int p = 0; p < a.length(l); ++p) {
            for (int d = 0; d < hidden; ++d) {
                const auto di = static_cast<size_t>(d);
                ASSERT_FLOAT_EQ(a.key(l, p)[di],
                                pool.key(s, l, p)[di]);
                ASSERT_FLOAT_EQ(a.value(l, p)[di],
                                pool.value(s, l, p)[di]);
            }
        }
    }
}

TEST(PagedKv, PerLayerIndependentTables)
{
    PagedKvCache pool(2, 4, 2);
    const int s = pool.createSequence();
    pool.append(s, 0, vec(2, 1.0f), vec(2, 2.0f));
    pool.append(s, 1, vec(2, 3.0f), vec(2, 4.0f));
    EXPECT_FLOAT_EQ(pool.key(s, 0, 0)[0], 1.0f);
    EXPECT_FLOAT_EQ(pool.key(s, 1, 0)[0], 3.0f);
    EXPECT_EQ(pool.blocksInUse(), 2);
}
